import copy
import csv
import dataclasses
import errno
import math
import os
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest

from regsyn import examples, expr, regeq
from regsyn.regeq import (BoostParams, RegulatorError, RegulatorSolution,
                          admissible_domain, boost_equilibrium,
                          immersion_residual, pde_residual, psi_bounds,
                          recover_gamma, regulator_residual,
                          solve_boost_grid, solve_psi0, write_grid_csv,
                          write_orbit_csv)

from helpers import assert_no_child_left, numpy_sample_ball


def test_regulator_residual_quartic_example():
    sf = examples.get("example51").load()
    sol = sf.regulator_solution
    r1, r2 = regulator_residual(sol, sf.plant, sf.exo, numpy_sample_ball(2, 0.3))
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_regulator_residual_oscillator_example():
    sf = examples.get("example52").load()
    sol = sf.regulator_solution
    r1, r2 = regulator_residual(sol, sf.plant, sf.exo, numpy_sample_ball(2, 0.3))
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_regulator_residual_detects_corruption():
    sf = examples.get("example51").load()
    good = sf.regulator_solution
    bad_gamma = expr.Bin("+", good.gamma, expr.parse("0.5*w1"))
    bad = RegulatorSolution(good.p, good.pi, bad_gamma, good.radius)
    r1, _ = regulator_residual(bad, sf.plant, sf.exo, numpy_sample_ball(2, 0.3))
    assert r1 >= 0.05


def test_immersion_residual_oscillator_example():
    sf = examples.get("example52").load()
    i1, i2 = immersion_residual(sf.immersion, sf.exo, sf.regulator_solution.gamma,
                                numpy_sample_ball(2, 0.3))
    assert i1 <= 1e-6
    assert i2 <= 1e-6


def test_immersion_residual_detects_sign_flip():
    sf = examples.get("example52").load()
    im = sf.immersion
    flipped = regeq.ImmersionMap(im.p, im.tau, im.phi, expr.Neg(im.lam))
    _, i2 = immersion_residual(flipped, sf.exo, sf.regulator_solution.gamma,
                               numpy_sample_ball(2, 0.3))
    assert i2 >= 0.1


# ----------------------------------------------------------- boost converter

PARAMS = BoostParams.default()


def test_boost_equilibrium_known_values():
    D0, z20 = boost_equilibrium(100.0, 400.0, 400.0, 0.25)
    assert D0 == pytest.approx(0.2474, abs=5e-4)
    assert z20 == pytest.approx(4.04, abs=0.01)
    # equilibrium residuals of the averaged model
    assert 400.0 * D0 ** 2 - 100.0 * D0 + 400.0 * 0.25 / 400.0 == pytest.approx(0, abs=1e-12)
    assert z20 == pytest.approx(400.0 / (400.0 * D0))


def test_boost_equilibrium_lossless_limit():
    # r -> 0 gives D0 -> v0/z10 exactly
    D0, _ = boost_equilibrium(100.0, 400.0, 400.0, 1e-12)
    assert D0 == pytest.approx(0.25, abs=1e-9)


def test_boost_equilibrium_rejects_bad_params():
    with pytest.raises(RegulatorError, match="v0, z10, R, r must be positive"):
        boost_equilibrium(-1.0, 400.0, 400.0, 0.25)


def test_psi_bounds_at_origin():
    psi1, psi2 = psi_bounds(0.0, 0.0, PARAMS)
    assert psi1 == pytest.approx(0.0, abs=1e-9)
    assert psi2 == pytest.approx(0.0, abs=1e-9)
    psi1, psi2 = psi_bounds(0.0, 0.3, PARAMS)
    assert psi1 > 0 > psi2
    assert psi1 > psi2 > -PARAMS.z20


def psi_rhs(psi, tau_angle, w1, rho, params: BoostParams):
    """Right side of the circle ODE for psi, written out apart from
    regeq._integrate_circle: the oracle of the ODE tests."""
    pr = params
    denom = pr.alpha * pr.L * (psi + pr.z20)
    num = (pr.r * psi * psi + (pr.r * pr.z20 - w1 - pr.D0 * pr.z10) * psi
           - pr.z20 * w1 + pr.z10 * rho * np.cos(tau_angle))
    return num / denom


def test_psi_rhs_value():
    # at w1 = 0, rho = 0.3, tau = 0, psi = 0 the slope is
    # z10*rho / (alpha*L*z20)
    pr = PARAMS
    want = pr.z10 * 0.3 / (pr.alpha * pr.L * pr.z20)
    assert psi_rhs(0.0, 0.0, 0.0, 0.3, pr) == pytest.approx(want)
    assert want == pytest.approx(11.816, abs=1e-3)


def _circle(psi0, w1, rho, steps):
    return regeq._integrate_circle(psi0, w1, rho, PARAMS, steps,
                                   regeq._stage_cosines(steps))


def test_integrate_circle_guards_denominator():
    # an orbit whose denominator alpha*L*(psi + z20) starts at 0 or below
    # DENOM_GUARD is NaN from the first step on, in the 0-d body and in the
    # array body
    for start in (-PARAMS.z20, -PARAMS.z20 + 1e-13):
        assert 0.0 <= PARAMS.alpha * PARAMS.L * (start + PARAMS.z20) < regeq.DENOM_GUARD
        solo = _circle(start, 0.0, 0.1, 50)
        assert solo[0] == start and np.all(np.isnan(solo[1:]))
        rows = _circle(np.array([0.0, start]), 0.0, 0.1, 50)
        assert np.all(np.isfinite(rows[0]))
        assert rows[1, 0] == start and np.all(np.isnan(rows[1, 1:]))


def _reference_circle(psi0, w1, rho, steps):
    """The numpy RK4 body on a 0-d array, with np.cos of each stage time and
    the np.where guard: the reference that both bodies must match."""
    psi = np.asarray(psi0, dtype=float)
    h = 2.0 * math.pi / steps
    orbit = np.empty(psi.shape + (steps + 1,))
    orbit[..., 0] = psi
    pr = PARAMS
    aL = pr.alpha * pr.L
    b_lin = pr.r * pr.z20 - w1 - pr.D0 * pr.z10
    c_con = -pr.z20 * w1

    def rhs(p, t):
        denom = aL * (p + pr.z20)
        num = pr.r * p * p + b_lin * p + c_con + pr.z10 * rho * np.cos(t)
        return np.where(denom < regeq.DENOM_GUARD, np.nan, num / denom)

    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(steps):
            t = k * h
            k1 = rhs(psi, t)
            k2 = rhs(psi + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(psi + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(psi + h * k3, t + h)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            orbit[..., k + 1] = psi
    return orbit


@pytest.mark.parametrize("steps", [1, 3, 500, 2000])
def test_stage_cosines_match_scalar_cos(steps):
    # the table takes np.cos of an array, the reference body np.cos of each
    # stage time alone; a platform where the two differ must fail here
    h = 2.0 * math.pi / steps
    want = []
    for k in range(steps):
        t = k * h
        want += [float(np.cos(t)), float(np.cos(t + 0.5 * h)), float(np.cos(t + h))]
    table = regeq._stage_cosines(steps)
    assert table.shape == (steps, 3) and table.dtype == np.float64
    assert table.flags.c_contiguous
    assert table.ravel().view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@pytest.mark.parametrize("w1, rho, start", [
    (10.0, 0.4, 0.3), (-30.0, 0.2, -0.1), (0.0, 0.0, 0.0), (20.0, 0.5, 1e3),
    (0.0, 0.3, -PARAMS.z20 - 1.0), (0.0, 0.3, -PARAMS.z20),
    (0.0, 0.3, -PARAMS.z20 + 1e-13), (0.0, 0.3, math.nan),
    (0.0, 0.3, math.inf)])
def test_circle_bodies_agree(w1, rho, start):
    # the 0-d float body, the array body on one element and the reference
    # body give the same bits, NaN where the orbit hits the guard
    solo = _circle(start, w1, rho, 500)
    row = _circle(np.array([start]), np.array([w1]), np.array([rho]), 500)
    ref = _reference_circle(start, w1, rho, 500)
    assert np.array_equal(solo, row[0], equal_nan=True)
    assert np.array_equal(solo, ref, equal_nan=True)


def test_circle_makes_its_stage_products_once(monkeypatch):
    # solve_psi0 integrates its circle once per iteration, every time on
    # the one list of z10*rho*cos products that _periodic_orbits made
    calls, real_products = [], regeq._stage_products

    def products(*args):
        calls.append(args)
        return real_products(*args)

    monkeypatch.setattr(regeq, "_stage_products", products)
    _, _, iters = solve_psi0(10.0, 0.4, PARAMS, ode_steps=500)
    assert iters > 1 and len(calls) == 1


def _allocating_circle(psi0, w1, rho, steps):
    """The array body as it was before it ran in place: a fresh array for
    every operation and the np.where guard, with the stage-cosine table."""
    pr = PARAMS
    h = 2.0 * math.pi / steps
    half, sixth = 0.5 * h, h / 6.0
    aL, z20, r = pr.alpha * pr.L, pr.z20, pr.r
    b_lin = r * z20 - w1 - pr.D0 * pr.z10
    c_con = -z20 * w1
    zr = pr.z10 * rho
    stages = iter(regeq._stage_cosines(steps).ravel())

    def rhs(p, c):
        denom = aL * (p + z20)
        num = r * p * p + b_lin * p + c_con + zr * c
        return np.where(denom < regeq.DENOM_GUARD, np.nan, num / denom)

    psi = np.asarray(psi0, dtype=float)
    orbit = np.empty(psi.shape + (steps + 1,))
    orbit[..., 0] = psi
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, (c1, c2, c4) in enumerate(zip(stages, stages, stages), 1):
            k1 = rhs(psi, c1)
            k2 = rhs(psi + half * k1, c2)
            k3 = rhs(psi + half * k2, c2)
            k4 = rhs(psi + h * k3, c4)
            psi = psi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            orbit[..., k] = psi
    return orbit


def _first_guard_trip(psi, w1, rho, steps):
    """(step, stage) at which the float RK4 of one circle first meets
    alpha*L*(p + z20) < DENOM_GUARD, stages counted 1-4; None if never."""
    pr = PARAMS
    h = 2.0 * math.pi / steps
    aL = pr.alpha * pr.L
    b_lin = pr.r * pr.z20 - w1 - pr.D0 * pr.z10
    stages = iter(regeq._stage_cosines(steps).ravel())
    for step, (c1, c2, c4) in enumerate(zip(stages, stages, stages)):
        p, ks = psi, []
        for stage, (c, dt) in enumerate([(c1, 0.5 * h), (c2, 0.5 * h), (c2, h), (c4, 0.0)], 1):
            if aL * (p + pr.z20) < regeq.DENOM_GUARD:
                return step, stage
            ks.append((pr.r * p * p + b_lin * p - pr.z20 * w1 + pr.z10 * rho * c)
                      / (aL * (p + pr.z20)))
            p = psi + dt * ks[-1]
        psi = psi + h / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
    return None


def test_in_place_array_body_matches_allocating_body():
    # every start of the default 21x21 grid, one row that trips the guard
    # at once and one that escapes mid-orbit: the same bits, NaN included,
    # and the starts are not written.  Rows whose guard trips first at
    # stage 1 (with a zero denominator: k1 unmasked is inf, and the next
    # stage would make a NaN of the other sign), 2 (mid-orbit), 3 and 4
    # check that each stage's k is masked before the next stage reads it;
    # a mask applied once per step gave a negative NaN on the first
    w1max, rho_max = admissible_domain(PARAMS)
    rows = []
    for w1 in np.linspace(-0.95 * w1max, 0.95 * w1max, 21):
        rmax = rho_max(float(w1))
        for rho in np.linspace(0.0, 0.95 * rmax, 21) if rmax > 0 else ():
            psi1, psi2 = psi_bounds(float(w1), float(rho), PARAMS)
            rows.append((0.5 * (psi1 + psi2), w1, rho))
    assert len(rows) == 399
    rows += [(-PARAMS.z20 + 1e-13, 0.0, 0.3), (-PARAMS.z20 + 0.05, 0.0, 2.0)]
    trips = {(-PARAMS.z20, 0.0, 2.0): (0, 1),
             (-PARAMS.z20 + 0.03218616423980385, 0.0, 2.0): (916, 2),
             (-PARAMS.z20 + 0.0020095602596005113, 0.0, 2.0): (0, 3),
             (-PARAMS.z20 + 3.026869272108271e-07, 0.0, 2.0): (0, 4)}
    for row, trip in trips.items():
        assert _first_guard_trip(*row, 2000) == trip
    rows += list(trips)
    start, w1, rho = (np.array(v) for v in zip(*rows))
    before = start.copy()
    got = _circle(start, w1, rho, 2000)
    want = _allocating_circle(start, w1, rho, 2000)
    assert np.array_equal(start.view(np.int64), before.view(np.int64))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all(np.isfinite(got[:-6]))
    assert np.all(np.isnan(got[-6, 1:]))
    escape = np.flatnonzero(np.isnan(got[-5]))
    assert 100 < escape[0] < 2000 and np.all(np.isnan(got[-5, escape[0]:]))
    for row, (step, _) in zip(got[-4:], trips.values()):
        assert np.all(np.isfinite(row[:step + 1])) and np.all(np.isnan(row[step + 1:]))


def test_admissible_domain_shape():
    w1max, rho_max = admissible_domain(PARAMS)
    assert w1max == pytest.approx(PARAMS.D0 * PARAMS.z10 - PARAMS.r * PARAMS.z20)
    assert rho_max(0.0) > 0
    # near the negative edge the cap collapses; domain is asymmetric
    assert rho_max(-0.98 * w1max) < rho_max(0.98 * w1max)


def test_solve_psi0_brackets_and_periodicity():
    rng = np.random.default_rng(13)
    w1max, rho_max = admissible_domain(PARAMS)
    for _ in range(5):
        w1 = float(rng.uniform(-0.5, 0.9) * w1max)
        cap = rho_max(w1)
        if cap <= 0:
            continue
        rho = float(rng.uniform(0.2, 0.9) * min(cap, PARAMS.beta * PARAMS.D0 * PARAMS.z20))
        psi1, psi2 = psi_bounds(w1, rho, PARAMS)
        psi0, orbit, iters = solve_psi0(w1, rho, PARAMS)
        assert psi2 <= psi0 <= psi1
        assert abs(orbit[-1] - orbit[0]) < 1e-9 * (1 + abs(psi1))
        assert iters <= 200


def test_solve_psi0_monotone_outside_brackets():
    # starting just above psi1 decreases over one circle; just below psi2
    # increases (the contraction that drives the fixed-point iteration)
    w1, rho = 20.0, 0.5
    psi1, psi2 = psi_bounds(w1, rho, PARAMS)
    eps = 1e-3 * (psi1 - psi2)
    up = _circle(psi1 + eps, w1, rho, 2000)
    down = _circle(psi2 - eps, w1, rho, 2000)
    assert up[-1] < up[0]
    assert down[-1] > down[0]


def test_gamma_consistent_with_algebraic_equation():
    # gamma solves (D0+gamma)*psi + z20*gamma - rho*cos(tau) = 0 pointwise
    w1, rho = 10.0, 0.4
    _, orbit, _ = solve_psi0(w1, rho, PARAMS)
    gamma = recover_gamma(orbit, w1, rho, PARAMS)
    tau = np.linspace(0.0, 2 * math.pi, len(orbit))
    resid = (PARAMS.D0 + gamma) * orbit + PARAMS.z20 * gamma - rho * np.cos(tau)
    assert np.max(np.abs(resid)) <= 1e-6 * (1 + np.max(np.abs(orbit)))


def test_gamma_recovery_guard_names_the_circle():
    orbit = np.full(11, -PARAMS.z20)
    with pytest.raises(RegulatorError) as info:
        recover_gamma(orbit, 10.0, 0.4, PARAMS)
    assert str(info.value) == ("orbit too close to psi = -z20 for gamma recovery "
                               "at (w1, rho) = (10.0, 0.4)")


def test_gamma_consistent_with_ode():
    # the ODE slope equals (r*psi + z10*gamma - w1) / (alpha*L) on the orbit,
    # i.e. the current-dynamics balance written in shifted coordinates
    w1, rho = 10.0, 0.4
    _, orbit, _ = solve_psi0(w1, rho, PARAMS)
    gamma = recover_gamma(orbit, w1, rho, PARAMS)
    tau = np.linspace(0.0, 2 * math.pi, len(orbit))
    lhs = psi_rhs(orbit, tau, w1, rho, PARAMS)
    rhs = (PARAMS.r * orbit + PARAMS.z10 * gamma - w1) / (PARAMS.alpha * PARAMS.L)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * (1 + np.max(np.abs(lhs)))


@pytest.fixture(scope="module")
def boost_grid():
    return solve_boost_grid(BoostParams.default(), n_w1=11, n_rho=11, ode_steps=1000)


def test_boost_grid_convergence_and_brackets(boost_grid):
    seen = 0
    for col in boost_grid.cells:
        for c in col:
            if not c.present:
                continue
            assert c.converged, c.message
            assert c.psi2 - 1e-9 <= c.psi0 <= c.psi1 + 1e-9
            assert abs(c.orbit[-1] - c.orbit[0]) < 1e-8 * (1 + abs(c.psi1))
            seen += 1
    assert seen > 50


def test_boost_grid_origin_cell(boost_grid):
    # the center column contains (w1, rho) = (0, 0) where psi0 = 0
    col = boost_grid.cells[len(boost_grid.cells) // 2]
    c0 = col[0]
    assert c0.w1 == pytest.approx(0.0, abs=1e-12)
    assert c0.rho == 0.0
    assert c0.psi0 == pytest.approx(0.0, abs=1e-9)


def test_pde_residual_small(boost_grid):
    resid = pde_residual(boost_grid)
    assert resid <= 1e-3


def test_pde_residual_detects_corruption(boost_grid):
    bad = copy.deepcopy(boost_grid)
    mid = len(bad.cells) // 2
    cell = bad.cells[mid][5]
    cell.orbit = cell.orbit + 0.5
    r_good = pde_residual(boost_grid)
    r_bad = pde_residual(bad)
    assert r_bad >= 10 * max(r_good, 1e-4)


def test_pde_residual_is_nan_sticky(boost_grid):
    # one NaN sample of one orbit makes the whole residual NaN, so the
    # boost_pde_residual check cannot pass on the other cells
    bad = copy.deepcopy(boost_grid)
    cell = bad.cells[len(bad.cells) // 2][5]
    cell.orbit = cell.orbit.copy()
    cell.orbit[7] = math.nan
    assert math.isnan(pde_residual(bad))


def test_pde_residual_reads_the_orbits_in_place():
    # each orbit of a column is read as a view of the grid's one orbit
    # array, so the residual's peak allocation, its per-row temporaries,
    # stays below one column of orbits
    steps, n_rho = 1000, 21
    grid = solve_boost_grid(PARAMS, n_w1=3, n_rho=n_rho, ode_steps=steps)
    resid = pde_residual(grid)   # warm
    tracemalloc.start()
    try:
        assert pde_residual(grid) == resid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert resid <= 1e-3
    assert peak < n_rho * (steps + 1) * 8


def test_grid_and_orbit_csv(tmp_path, boost_grid):
    grid_path = tmp_path / "psi0_grid.csv"
    write_grid_csv(boost_grid, grid_path)
    lines = grid_path.read_text().splitlines()
    assert lines[0] == "w1,rho,psi0,converged,iters"
    n_present = sum(1 for col in boost_grid.cells for c in col if c.present)
    assert len(lines) == n_present + 1
    # the bytes a csv.writer wrote, with an unconverged (NaN) cell among them
    grid = copy.deepcopy(boost_grid)
    cell = grid.cells[len(grid.cells) // 2][3]
    cell.converged, cell.psi0, cell.iters = False, math.nan, 0
    write_grid_csv(grid, grid_path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w1", "rho", "psi0", "converged", "iters"])
        for c in (c for col in grid.cells for c in col if c.present):
            writer.writerow([f"{c.w1:.17g}", f"{c.rho:.17g}", f"{c.psi0:.17g}",
                             int(c.converged), c.iters])
    assert grid_path.read_bytes() == ref.read_bytes()

    cell = next(c for col in boost_grid.cells for c in col
                if c.present and c.converged and c.rho > 0)
    orbit_path = tmp_path / "orbit.csv"
    gamma = recover_gamma(cell.orbit, cell.w1, cell.rho, PARAMS)
    write_orbit_csv(cell.orbit, gamma, orbit_path)
    rows = orbit_path.read_text().splitlines()
    assert rows[0] == "tau,psi,gamma"
    assert len(rows) == boost_grid.ode_steps + 2
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first[0] == 0.0
    assert last[0] == pytest.approx(2 * math.pi)
    assert first[1] == pytest.approx(cell.psi0)
    assert [float(v) for v in rows[-1].split(",")[1:]] == [cell.orbit[-1], gamma[-1]]


def _reference_psi0(w1, rho, steps, max_iter=200):
    """The scalar fixed-point loop the shared solver replaced, on the
    reference RK4 body."""
    psi1, psi2 = psi_bounds(w1, rho, PARAMS)
    tol = 1e-9 * (1.0 + abs(psi1))
    start = 0.5 * (psi1 + psi2)
    for it in range(1, max_iter + 1):
        orbit = _reference_circle(start, w1, rho, steps)
        assert np.all(np.isfinite(orbit))
        if abs(float(orbit[-1]) - start) < tol:
            return start, orbit, it
        start = float(orbit[-1])
    raise AssertionError("reference loop did not converge")


# FLOAT_CELLS settings every grid test runs under: array passes only, the
# shipped switch point, float body only
FLOAT_CELLS_SETTINGS = (0, regeq.FLOAT_CELLS, 10**9)
# worker counts every grid test runs under, each whatever the grid's size
WORKER_SETTINGS = (1, 2, 3)


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(regeq, "_grid_workers", lambda cells: workers)


def _grids(monkeypatch, **kw):
    """solve_boost_grid(PARAMS, **kw) under each of FLOAT_CELLS_SETTINGS
    at each of WORKER_SETTINGS."""
    grids = []
    for float_cells in FLOAT_CELLS_SETTINGS:
        for workers in WORKER_SETTINGS:
            with monkeypatch.context() as m:
                m.setattr(regeq, "FLOAT_CELLS", float_cells)
                _pin_workers(m, workers)
                grids.append(solve_boost_grid(PARAMS, **kw))
            assert_no_child_left()
    return grids


def _cell_state(c):
    """Everything a grid cell reports, as bytes and plain values."""
    return (c.present, c.converged, c.iters, c.message,
            np.array([c.w1, c.rho, c.psi0]).tobytes(),
            None if c.orbit is None else c.orbit.tobytes(),
            None if c.orbit is None else
            recover_gamma(c.orbit, c.w1, c.rho, PARAMS).tobytes())


def _assert_same_grids(grids):
    first = [_cell_state(c) for col in grids[0].cells for c in col]
    for grid in grids[1:]:
        assert [_cell_state(c) for col in grid.cells for c in col] == first


def test_boost_grid_matches_solo_cells(monkeypatch):
    # the flat grid solve is bit-identical to solve_psi0 on each cell alone,
    # and both to the scalar reference loop on the reference body, whichever
    # body finishes the stragglers
    for steps in (500, 2000):
        grids = _grids(monkeypatch, n_w1=5, n_rho=5, ode_steps=steps)
        _assert_same_grids(grids)
        seen = 0
        for c in (c for col in grids[0].cells for c in col if c.present):
            psi0, orbit, iters = solve_psi0(c.w1, c.rho, PARAMS, ode_steps=steps)
            ref_psi0, ref_orbit, ref_iters = _reference_psi0(c.w1, c.rho, steps)
            assert (psi0, iters) == (ref_psi0, ref_iters)
            assert np.array_equal(orbit, ref_orbit)
            assert c.converged, c.message
            assert c.psi0 == psi0
            assert c.iters == iters
            assert np.array_equal(c.orbit, orbit)
            assert np.array_equal(recover_gamma(c.orbit, c.w1, c.rho, PARAMS),
                                  recover_gamma(orbit, c.w1, c.rho, PARAMS))
            seen += 1
        assert seen >= 15


def test_default_grid_switch_point(monkeypatch):
    # the default 21x21 grid runs three array passes of its 399 rows while
    # more than FLOAT_CELLS = 40 cells are active, then 158 float orbits
    assert regeq.FLOAT_CELLS == 40
    _pin_workers(monkeypatch, 1)     # the spy sees calls in this process only
    real_circle, rows = regeq._integrate_circle, []

    def circle(psi0, *args, **kwargs):
        rows.append(np.size(psi0) if np.ndim(psi0) else 0)
        return real_circle(psi0, *args, **kwargs)

    monkeypatch.setattr(regeq, "_integrate_circle", circle)
    grid = solve_boost_grid(PARAMS)
    assert all(c.converged for col in grid.cells for c in col if c.present)
    assert [n for n in rows if n] == [399, 399, 399]
    assert rows.count(0) == 158


def test_boost_grid_max_iter_freezes_cells(monkeypatch):
    # rho = 0 circles start on their equilibrium and converge on the first pass
    grids = _grids(monkeypatch, n_w1=5, n_rho=5, ode_steps=500, max_iter=1)
    _assert_same_grids(grids)
    present = [c for col in grids[0].cells for c in col if c.present]
    assert present
    for c in present:
        if c.rho == 0.0:
            assert c.converged and c.iters == 1, c.message
            psi0, orbit, _ = solve_psi0(c.w1, c.rho, PARAMS, ode_steps=500, max_iter=1)
            assert c.psi0 == psi0 and np.array_equal(c.orbit, orbit)
        else:
            assert not c.converged
            assert c.iters == 0
            assert c.message == "no periodic orbit within 1 iterations"


def test_solve_psi0_max_iter_raises():
    with pytest.raises(RegulatorError,
                       match=r"no periodic orbit within 1 iterations at \(w1, rho\) = \(10.0, 0.4\)"):
        solve_psi0(10.0, 0.4, PARAMS, ode_steps=500, max_iter=1)


def test_escaped_cell_leaves_others_unchanged(monkeypatch):
    # one cell starts below -z20; the rest of the same call is unaffected
    bad_w1 = solve_boost_grid(PARAMS, n_w1=5, n_rho=5, ode_steps=500).w1_values[2]
    true_bounds = regeq.psi_bounds

    def bounds(w1, rho, params):
        if w1 == bad_w1 and rho > 0:
            return -params.z20 - 1.0, -params.z20 - 1.0
        return true_bounds(w1, rho, params)

    monkeypatch.setattr(regeq, "psi_bounds", bounds)
    grids = _grids(monkeypatch, n_w1=5, n_rho=5, ode_steps=500)
    _assert_same_grids(grids)
    grid = grids[0]
    with pytest.raises(RegulatorError, match="orbit escaped psi <= -z20"):
        solve_psi0(bad_w1, grid.rho_values[2][1], PARAMS, ode_steps=500)
    escaped = 0
    for col in grid.cells:
        for c in col:
            if not c.present:
                continue
            if c.w1 == bad_w1 and c.rho > 0:
                assert not c.converged
                assert c.message == "orbit escaped psi <= -z20"
                escaped += 1
                continue
            psi0, orbit, iters = solve_psi0(c.w1, c.rho, PARAMS, ode_steps=500)
            assert c.converged, c.message
            assert (c.psi0, c.iters) == (psi0, iters)
            assert np.array_equal(c.orbit, orbit)
    assert escaped == 4


def test_boost_grid_switches_body_mid_run(monkeypatch):
    # a 7x7 grid reaching past the admissible domain (shrink 1.1), where 7
    # cells are still active after pass 2: with FLOAT_CELLS = 7 two array
    # passes run and the float body finishes the rest.  Two planted starts
    # act after the switch: one orbit escapes on pass 7 and one grows until
    # max_iter = 8.  Every setting gives the same cells, and each cell the
    # same result as solve_psi0.
    kw = dict(n_w1=7, n_rho=7, ode_steps=500, max_iter=8, shrink=1.1)
    probe = solve_boost_grid(PARAMS, **{**kw, "max_iter": 1})
    escapes = (probe.w1_values[6], probe.rho_values[6][6])
    grows = (probe.w1_values[4], probe.rho_values[4][3])
    starts = {escapes: 800.0, grows: 1e4}
    true_bounds = regeq.psi_bounds

    def bounds(w1, rho, params):
        if (w1, rho) in starts:
            return starts[w1, rho], starts[w1, rho]
        return true_bounds(w1, rho, params)

    monkeypatch.setattr(regeq, "psi_bounds", bounds)
    real_circle, calls = regeq._integrate_circle, []

    def circle(psi0, w1, rho, *args, **kwargs):
        calls.append((np.ndim(psi0), float(np.max(w1)), float(np.max(rho))))
        return real_circle(psi0, w1, rho, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(regeq, "FLOAT_CELLS", 7)
        _pin_workers(m, 1)     # the spy sees calls in this process only
        m.setattr(regeq, "_integrate_circle", circle)
        mid = solve_boost_grid(PARAMS, **kw)
    assert [nd for nd, _, _ in calls].count(1) == 2
    float_orbits = [(w1, rho) for nd, w1, rho in calls if nd == 0]
    assert float_orbits.count(escapes) == 5    # passes 3-7
    assert float_orbits.count(grows) == 6      # passes 3-8
    grids = _grids(monkeypatch, **kw)
    _assert_same_grids([mid] + grids)
    for c in (c for col in mid.cells for c in col if c.present):
        if c.converged:
            psi0, orbit, iters = solve_psi0(c.w1, c.rho, PARAMS, ode_steps=500, max_iter=8)
            assert (c.psi0, c.iters) == (psi0, iters)
            assert np.array_equal(c.orbit, orbit)
            continue
        assert c.iters == 0 and c.orbit is None
        assert not hasattr(c, "gamma")
        with pytest.raises(RegulatorError, match=re.escape(c.message)):
            solve_psi0(c.w1, c.rho, PARAMS, ode_steps=500, max_iter=8)
    cell = {(c.w1, c.rho): c for col in mid.cells for c in col}
    assert cell[escapes].message == "orbit escaped psi <= -z20"
    assert cell[grows].message == "no periodic orbit within 8 iterations"


def test_boost_grid_holds_one_row_per_cell(monkeypatch):
    # cells carry no gamma (recover_gamma derives it from the orbit), so a
    # returned grid holds little more than the bytes of its orbit rows.
    # The array body gives the float body's bits, and tracemalloc does not
    # have to trace each float of the float body's samples.
    assert "gamma" not in {f.name for f in dataclasses.fields(regeq.BoostCell)}
    monkeypatch.setattr(regeq, "FLOAT_CELLS", 0)
    tracemalloc.start()
    try:
        grid = solve_boost_grid(PARAMS, n_w1=5, n_rho=5, ode_steps=2000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every cell's orbit is a row of one array
    bases = {id(c.orbit.base): c.orbit.base for col in grid.cells for c in col
             if c.converged}
    assert len(bases) == 1
    assert held <= 1.2 * next(iter(bases.values())).nbytes


def test_boost_grid_keeps_gamma_guard(monkeypatch):
    # a converged orbit that recover_gamma would refuse fails the whole
    # grid with recover_gamma's message, though the grid keeps no gamma
    kw = dict(n_w1=5, n_rho=5, ode_steps=200)
    cell = [c for col in solve_boost_grid(PARAMS, **kw).cells for c in col
            if c.present][3]
    assert cell.converged
    real_orbits = regeq._shared_orbits

    def orbits(*args, **kwargs):
        psi0, orbit, iters, escaped = real_orbits(*args, **kwargs)
        orbit[3, 7] = -PARAMS.z20     # orbit row 3 is cell 3 of the grid
        return psi0, orbit, iters, escaped

    monkeypatch.setattr(regeq, "_shared_orbits", orbits)
    with pytest.raises(RegulatorError) as info:
        solve_boost_grid(PARAMS, **kw)
    assert str(info.value) == ("orbit too close to psi = -z20 for gamma recovery "
                               f"at (w1, rho) = ({cell.w1}, {cell.rho})")


def test_boost_grid_needs_three_radii():
    # pde_residual differentiates across three radii of a column
    with pytest.raises(RegulatorError, match="n_rho >= 3"):
        solve_boost_grid(PARAMS, n_w1=3, n_rho=2, ode_steps=10)
    with pytest.raises(RegulatorError, match="n_w1 >= 2"):
        solve_boost_grid(PARAMS, n_w1=1, n_rho=3, ode_steps=10)


def test_periodic_orbits_writes_into_strided_rows():
    # a share's orbits go straight into every third row of the caller's
    # array, the others untouched, with the bits of a call that allocates
    w1 = np.array([10.0, -30.0, 0.0])
    rho = np.array([0.4, 0.2, 0.3])
    start = np.array([0.3, -0.1, 0.0])
    tol = np.full(3, 1e-9)
    want = regeq._periodic_orbits(start, tol, w1, rho, PARAMS, 500, 20)
    rows = np.full((9, 501), 7.0)
    got = regeq._periodic_orbits(start, tol, w1, rho, PARAMS, 500, 20, orbit=rows[1::3])
    assert got[1].base is rows
    assert np.array_equal(rows[1::3], want[1])
    assert np.all(np.delete(rows, [1, 4, 7], axis=0) == 7.0)
    for a, b in zip(got[::2], want[::2]):
        assert np.array_equal(a, b)


def test_default_grid_same_bytes_at_any_worker_count(monkeypatch):
    # the 21x21 grid's psi0, iterations, messages, orbits and gammas at
    # 1, 2 and 3 worker processes
    grids = []
    for workers in WORKER_SETTINGS:
        with monkeypatch.context() as m:
            _pin_workers(m, workers)
            grids.append(solve_boost_grid(PARAMS))
        assert_no_child_left()
    _assert_same_grids(grids)


def _spy_orbits(monkeypatch, in_child, in_caller=lambda start: None):
    """Patch _periodic_orbits to call in_child(start) first in a forked
    worker and in_caller(start) in this process; returns the list of the
    start shapes of the calls in this process: (n,) for a share's array
    phase, () for one cell taken alone."""
    parent, real_orbits, solved = os.getpid(), regeq._periodic_orbits, []

    def orbits(start, *args, **kwargs):
        if os.getpid() != parent:
            in_child(start)
        else:
            in_caller(start)
            solved.append(np.shape(start))
        return real_orbits(start, *args, **kwargs)

    monkeypatch.setattr(regeq, "_periodic_orbits", orbits)
    return solved


def _raise(start):
    raise RuntimeError("worker failed")


def _assert_solved_in_caller(solved, grid):
    # share 0, then shares 1 and 2 again, together every present cell; the
    # shares are under FLOAT_CELLS cells, so every cell is then solved
    # alone, and all of them here
    present = sum(c.present for col in grid.cells for c in col)
    shares = [shape[0] for shape in solved if shape]
    assert len(shares) == 3 and sum(shares) == present
    assert solved.count(()) == present


@pytest.mark.parametrize("in_child", [_raise, lambda start: os._exit(3),
                                      lambda start: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["raises", "exits-3", "sigkill"])
def test_failed_worker_share_is_solved_again(monkeypatch, in_child):
    # a worker that exits non-zero or dies from a signal in its array phase
    # costs time only: the caller solves its share itself and the grid
    # keeps its bytes
    kw = dict(n_w1=5, n_rho=5, ode_steps=500)
    want = solve_boost_grid(PARAMS, **kw)
    _pin_workers(monkeypatch, 3)
    solved = _spy_orbits(monkeypatch, in_child)
    got = solve_boost_grid(PARAMS, **kw)
    assert_no_child_left()
    _assert_solved_in_caller(solved, want)
    _assert_same_grids([want, got])


def test_failed_fork_share_is_solved_in_caller(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    kw = dict(n_w1=5, n_rho=5, ode_steps=500)
    want = solve_boost_grid(PARAMS, **kw)
    _pin_workers(monkeypatch, 3)
    solved = _spy_orbits(monkeypatch, lambda start: None)
    monkeypatch.setattr(regeq.os, "fork", fork)
    got = solve_boost_grid(PARAMS, **kw)
    _assert_solved_in_caller(solved, want)
    _assert_same_grids([want, got])


def test_worker_killed_on_a_queued_cell(monkeypatch):
    # the worker is killed while it solves the first cell it took from the
    # queue; this process waits for that death (without reaping it) before
    # it solves a cell of its own, so the worker surely takes one.  The
    # cell is not done, so the caller solves it again: every cell is solved
    # here, and the grid keeps its bytes.
    if not hasattr(os, "waitid"):
        pytest.skip("no os.waitid")
    kw = dict(n_w1=5, n_rho=5, ode_steps=500)
    want = solve_boost_grid(PARAMS, **kw)
    _pin_workers(monkeypatch, 2)
    deaths = []

    def kill_self(start):
        if np.ndim(start) == 0:
            os.kill(os.getpid(), signal.SIGKILL)

    def wait_for_death(start):
        if np.ndim(start) == 0 and not deaths:
            deaths.append(os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT))

    solved = _spy_orbits(monkeypatch, kill_self, wait_for_death)
    got = solve_boost_grid(PARAMS, **kw)
    assert_no_child_left()
    assert [(d.si_code, d.si_status) for d in deaths] == [(os.CLD_KILLED, signal.SIGKILL)]
    present = sum(c.present for col in want.cells for c in col)
    assert solved.count(()) == present
    _assert_same_grids([want, got])


@pytest.mark.parametrize("workers", [1, 2])
def test_queue_bigger_than_the_pipe(monkeypatch, workers):
    # a pipe shrunk to one page holds 512 records, far fewer than the 2300
    # cells that all go on the queue when the float body takes every pass:
    # a full pipe blocks no push, the pushing process solves the cells that
    # do not fit, and the grid keeps its bytes
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("no F_SETPIPE_SZ")
    kw = dict(n_w1=50, n_rho=50, ode_steps=50)
    with monkeypatch.context() as m:
        m.setattr(regeq, "FLOAT_CELLS", 10**9)
        _pin_workers(m, workers)
        want = solve_boost_grid(PARAMS, **kw)
    real_pipe, sizes = os.pipe, []

    def small_pipe():
        fds = real_pipe()
        fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, 4096)
        sizes.append(fcntl.fcntl(fds[1], fcntl.F_GETPIPE_SZ))
        return fds

    monkeypatch.setattr(regeq, "FLOAT_CELLS", 10**9)
    _pin_workers(monkeypatch, workers)
    monkeypatch.setattr(regeq.os, "pipe", small_pipe)
    got = solve_boost_grid(PARAMS, **kw)
    assert_no_child_left()
    present = sum(c.present for col in want.cells for c in col)
    assert present > 2048
    assert len(sizes) == 1 and present * regeq._RECORD.size > 4 * sizes[0]
    _assert_same_grids([want, got])


def test_caller_exception_kills_workers(monkeypatch):
    # the caller's share fails while its workers would run for a minute:
    # they are killed and reaped before the exception leaves the solver
    _pin_workers(monkeypatch, 3)
    real_orbits, parent = regeq._periodic_orbits, os.getpid()

    def orbits(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("caller failed")
        time.sleep(60)
        return real_orbits(*args, **kwargs)

    monkeypatch.setattr(regeq, "_periodic_orbits", orbits)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="caller failed"):
        solve_boost_grid(PARAMS, n_w1=5, n_rho=5, ode_steps=500)
    assert time.monotonic() - start < 30
    assert_no_child_left()
