"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints exactly one
machine-readable line `CHECK <name> PASS|FAIL <value>` before asserting,
so a plain `pytest -s` run doubles as an acceptance report.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from regsyn import cli, examples, model, regeq, specan, synth, sysfile
from regsyn.sim import decay_metrics, simulate

from helpers import (controller_transfer, detect_period, exosystem_orbit,
                     internal_model, numpy_sample_ball)


def _check(name, ok, value):
    if isinstance(value, float):
        value = f"{value:.17g}"
    print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {value}")
    assert ok, f"{name}: {value}"


# 1. quartic-exosystem example: linearization, stability, detectability and
#    the linear regulator solve reproduce the known values
def test_criterion_1_linear_analysis():
    sf = examples.get("example51").load()
    lin = model.linearize(sf.plant, sf.exo)
    tol = 1e-8
    exact = (np.allclose(lin.A, [[0, 1], [-1, -2]], atol=tol)
             and np.allclose(lin.B, [[0], [1]], atol=tol)
             and np.allclose(lin.P, [[-1, 0], [0, 0]], atol=tol)
             and np.allclose(lin.C, [[1, 0]], atol=tol)
             and np.allclose(lin.D, [[0]], atol=tol)
             and np.allclose(lin.Q, [[0, 0]], atol=tol)
             and np.allclose(lin.S, [[0, 1], [0, 0]], atol=tol))
    hurwitz = specan.spectral_abscissa(lin.A) < 0
    M = np.block([[lin.A, lin.P], [np.zeros((2, 2)), lin.S]])
    detectable = specan.hautus_detectable(np.hstack([lin.C, lin.Q]), M,
                                          specan.eigen(M))
    _, Gamma = synth.solve_linear_regulator(lin)
    gamma_ok = np.allclose(Gamma, [[2.0, 1.0]], atol=1e-6)
    ok = exact and hurwitz and detectable and gamma_ok
    _check("example51_linear_analysis", ok,
           f"Gamma={Gamma.ravel().tolist()}")


# 2. quartic-exosystem example: the published controller input vector gives
#    a Hurwitz 4x4 closed loop and the simulated error settles
def test_criterion_2_closed_loop():
    sf = examples.get("example51").load()
    lin = model.linearize(sf.plant, sf.exo)
    im = synth.InternalModel.from_controller(sf.controller)
    absc = specan.spectral_abscissa(synth.closed_loop_matrix(lin, im))
    traj = simulate(sf.plant, sf.exo, sf.controller,
                    *examples.get("example51").default_ic, T=60.0, dt=1e-3)
    _, _, settle = decay_metrics(traj.e, traj.dt, window=12.0)
    ok = absc < 0 and settle <= 0.02
    _check("example51_closed_loop", ok,
           f"abscissa={absc:.6g} settle={settle:.6g}")


# 3. quartic-exosystem trajectories are periodic and obey the invariant
#    amplitude bounds of the conserved quantity
def test_criterion_3_exosystem_orbit():
    sf = examples.get("example51").load()
    t, w = exosystem_orbit(sf.exo, (0.0, 0.25), T=40.0, dt=1e-3)
    period = detect_period(t, w, tol=1e-3)
    returned = (period is not None
                and np.linalg.norm(w[int(round(period / 1e-3))] - w[0]) < 1e-3)
    w1_ok = np.max(np.abs(w[:, 0])) <= 0.25 ** 0.25 + 1e-6
    w2max = float(np.max(np.abs(w[:, 1])))
    w2_ok = 0.25 - 1e-6 <= w2max <= 0.25 + 1e-6
    ok = returned and w1_ok and w2_ok
    _check("example51_exosystem_orbit", ok,
           f"period={period} max|w1|={np.max(np.abs(w[:, 0])):.6g} max|w2|={w2max:.6g}")


# 4. harmonic-exosystem example: regulator and immersion residuals are tiny
#    and synthesis yields an order-3 stabilizing controller
def test_criterion_4_immersion_example(tmp_path):
    sf = examples.get("example52").load()
    samples = numpy_sample_ball(2, 0.3)
    r1, r2 = regeq.regulator_residual(sf.regulator_solution, sf.plant, sf.exo,
                                      samples)
    i1, i2 = regeq.immersion_residual(sf.immersion, sf.exo,
                                      sf.regulator_solution.gamma, samples)
    out = tmp_path / "ctrl.sys"
    status = cli.main(["synthesize", "example52", "--out", str(out)])
    ctrl = sysfile.parse_file(out).controller
    lin = model.linearize(sf.plant, sf.exo)
    A_cl = synth.closed_loop_matrix(lin, synth.InternalModel.from_controller(ctrl))
    absc = specan.spectral_abscissa(A_cl)
    ok = (max(r1, r2, i1, i2) <= 1e-6 and status == 0
          and ctrl.nc == 3 and absc < 0)
    _check("example52_immersion_synthesis", ok,
           f"residuals<={max(r1, r2, i1, i2):.3g} order={ctrl.nc} abscissa={absc:.6g}")


# 5. boost-converter example: operating point, linear feedforward gain and
#    the published controller input vector match the known values
def test_criterion_5_boost_linear():
    sf = examples.get("example53").load()
    pr = regeq.BoostParams.default()
    d0_ok = abs(pr.D0 - 0.2474) <= 5e-4
    z20_ok = abs(pr.z20 - 4.04) <= 0.01
    lin = model.linearize(sf.plant, sf.exo)
    _, Gamma = synth.solve_linear_regulator(lin)
    want = np.array([2.53e-3, 1.06e-4, -2.56e-2])
    gamma_ok = np.all(np.abs(Gamma.ravel() - want) <= 0.02 * np.abs(want))
    im = synth.InternalModel.from_controller(sf.controller)
    absc = specan.spectral_abscissa(synth.closed_loop_matrix(lin, im))
    ok = d0_ok and z20_ok and gamma_ok and absc < 0
    _check("example53_linear_analysis", ok,
           f"D0={pr.D0:.6g} z20={pr.z20:.6g} Gamma={Gamma.ravel().tolist()} "
           f"abscissa={absc:.6g}")


@pytest.fixture(scope="module")
def converter_grid():
    return regeq.solve_boost_grid(regeq.BoostParams.default(), n_w1=21, n_rho=21,
                                  ode_steps=2000)


# 6. boost-converter PDE: periodic orbits inside the analytic brackets on the
#    full grid, small normalized residual, near-sinusoidal sample orbits
def test_criterion_6_boost_pde(converter_grid):
    pr = converter_grid.params
    origin = converter_grid.cells[len(converter_grid.cells) // 2][0]
    origin_ok = origin.psi0 == 0.0
    brackets_ok = periodic_ok = True
    for col in converter_grid.cells:
        for c in col:
            if not (c.present and c.converged):
                continue
            brackets_ok &= c.psi2 - 1e-9 <= c.psi0 <= c.psi1 + 1e-9
            periodic_ok &= abs(c.orbit[-1] - c.orbit[0]) < 1e-8 * (1 + abs(c.psi1))
    resid = regeq.pde_residual(converter_grid)
    harmonic_ok = True
    ratios = []
    for w1 in (-50.0, 0.0, 50.0):
        _, orbit, _ = regeq.solve_psi0(w1, 0.3, pr, ode_steps=2000)
        spec = np.abs(np.fft.rfft(orbit[:-1])) ** 2
        ratio = spec[1] / np.sum(spec[1:])
        ratios.append(ratio)
        harmonic_ok &= ratio >= 0.90
    ok = origin_ok and brackets_ok and periodic_ok and resid <= 1e-3 and harmonic_ok
    _check("example53_regulator_pde", ok,
           f"residual={resid:.3g} first_harmonic_min={min(ratios):.4g}")


# 7. boost-converter closed loop: simulated error settles from the published
#    initial conditions
def test_criterion_7_boost_simulation():
    ex = examples.get("example53")
    sf = ex.load()
    traj = simulate(sf.plant, sf.exo, sf.controller, *ex.default_ic,
                    T=ex.default_T, dt=ex.default_dt)
    _, _, settle = decay_metrics(traj.e, traj.dt, window=ex.default_T / 5.0)
    ok = settle <= 0.05
    _check("example53_closed_loop", ok, f"settle={settle:.6g}")


# 8. synthesis soundness: on randomized well-posed cases there are no false
#    successes and the success rate is high
def test_criterion_8_synthesis_soundness():
    rng = np.random.default_rng(101)
    trials = successes = false_successes = 0
    while trials < 200:
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (n, n))
        A = A - (specan.spectral_abscissa(A) + rng.uniform(0.1, 1.0)) * np.eye(n)
        if specan.spectral_abscissa(A) > -0.1:
            continue
        freq = float(rng.uniform(0.3, 3.0))
        blocks = ([np.array([[0.0]])] if rng.integers(0, 2) else [])
        blocks.append(np.array([[0.0, freq], [-freq, 0.0]]))
        p = sum(b.shape[0] for b in blocks)
        S = np.zeros((p, p))
        at = 0
        for b in blocks:
            S[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        lin = model.LinearizedData(
            A=A, B=rng.uniform(-2, 2, (n, 1)), P=np.zeros((n, p)),
            C=rng.uniform(-2, 2, (1, n)), D=np.zeros((1, 1)),
            Q=np.zeros((1, p)), S=S)
        Cc = rng.uniform(0.5, 2.0, (1, p)) * rng.choice([-1.0, 1.0], p)
        im = internal_model(S, Cc)
        flags = synth.verify_conditions(lin, im, specan.spectral_abscissa(lin.A))
        if not flags.all_pass or min(abs(g) for g in flags.tf_values.values()) < 1e-3:
            continue
        trials += 1
        rep = synth.synthesize(lin, im)
        if rep.success:
            successes += 1
            A_cl = synth.closed_loop_matrix(lin, replace(im, Bc=rep.Bc))
            if np.max(np.linalg.eigvals(A_cl).real) >= 0:
                false_successes += 1
    rate = successes / trials
    ok = false_successes == 0 and rate >= 0.95
    _check("synthesis_soundness", ok,
           f"trials={trials} success_rate={rate:.3g} false={false_successes}")


def _rank_by_elimination(M, tol):
    A = np.array(M, dtype=complex)
    rows, cols = A.shape
    rank = r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(A[r:, c])))
        if abs(A[piv, c]) <= tol:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] / A[r, c]
        for i in range(rows):
            if i != r:
                A[i] = A[i] - A[i, c] * A[r]
        rank += 1
        r += 1
    return rank


def _hautus_oracle(Cm, M):
    k = M.shape[0]
    norm = np.linalg.norm(M, np.inf)
    for lam in np.linalg.eigvals(M):
        if lam.real < -1e-8 * (1 + norm):
            continue
        stacked = np.vstack([M - lam * np.eye(k), Cm])
        if _rank_by_elimination(stacked, 1e-9 * max(1.0, norm)) < k:
            return False
    return True


# 9. oracle equivalence: the SVD detectability test matches an elimination
#    oracle, and the controller input construction realizes its partial
#    fraction expansion, including a size-2 Jordan block
def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(17)
    mismatches = 0
    for case in range(200):
        k = int(rng.integers(1, 6))
        if case % 2 == 0:
            M = rng.uniform(-2, 2, (k, k))
            Cm = rng.uniform(-2, 2, (1, k))
        else:
            lam = float(rng.uniform(-1, 1))
            D = np.diag(rng.uniform(-2, 2, k))
            D[0, 0] = lam
            T = rng.uniform(-1, 1, (k, k)) + 2 * np.eye(k)
            M = T @ D @ np.linalg.inv(T)
            c = rng.uniform(-2, 2, k)
            v = T[:, 0]
            Cm = (c - (c @ v) / (v @ v) * v).reshape(1, k)
        if specan.hautus_detectable(Cm, M, specan.eigen(M)) != _hautus_oracle(Cm, M):
            mismatches += 1

    worst = 0.0
    cases = [np.array([[0.0, 1.0], [0.0, 0.0]]),            # m = 2 Jordan block
             np.diag([0.0]),                                  # scalar zero
             np.array([[0.0, 0.0, 0.0],
                       [0.0, 0.0, 2.0],
                       [0.0, -2.0, 0.0]])]                    # zero + oscillator
    for S in cases:
        jd = specan.jordan_structure(S, specan.eigen(S))
        Cc = rng.uniform(0.5, 2.0, (1, S.shape[0]))
        eps = 0.3
        coeffs = {}
        for j, alpha in enumerate(jd.frequencies):
            g = rng.uniform(0.5, 2.0) + (0.4j if alpha > 0 else 0)
            coeffs[j] = synth.choose_block_coefficients(jd.multiplicities[j], g)
        Bc = synth.build_Bc(jd, Cc, eps, coeffs)
        im = internal_model(S, Cc, Bc)
        for _ in range(10):
            z = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
            want = 0.0
            for j, alpha in enumerate(jd.frequencies):
                for kk, a in enumerate(coeffs[j], start=1):
                    want += a * eps ** kk / (z - 1j * alpha) ** kk
                    if alpha > 0:
                        want += np.conj(a) * eps ** kk / (z + 1j * alpha) ** kk
            got = controller_transfer(im, z)
            worst = max(worst, abs(got + want) / max(1.0, abs(want)))
    ok = mismatches == 0 and worst <= 1e-6
    _check("oracle_equivalence", ok,
           f"hautus_mismatches={mismatches} tf_identity_err={worst:.3g}")


# 10. numerical kernels: fourth-order convergence of the integrator and
#     eigenvalue trace/determinant identities
def test_criterion_10_numerics():
    from regsyn.model import ControllerModel, ExosystemModel, PlantModel
    plant = PlantModel.from_strings(["x2", "-sin(x1) - 0.2*x2 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])

    def final_state(dt):
        return simulate(plant, exo, ctrl, (1.0, 0.5), (0.0,), (0.0,),
                        T=2.0, dt=dt).x[-1]

    ref = final_state(2.0 / 1600)
    factor = (np.linalg.norm(final_state(2.0 / 200) - ref)
              / np.linalg.norm(final_state(2.0 / 400) - ref))
    order_ok = 12.0 <= factor <= 20.0

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        M = rng.uniform(-3, 3, (k, k))
        sp = specan.eigen(M)
        tr = sum(v * m for v, m in zip(sp.eigenvalues, sp.multiplicities))
        det = np.prod([v ** m for v, m in zip(sp.eigenvalues, sp.multiplicities)])
        worst = max(worst,
                    abs(tr - np.trace(M)) / max(1.0, abs(np.trace(M))),
                    abs(det - np.linalg.det(M)) / max(1.0, abs(np.linalg.det(M))))
    ok = order_ok and worst <= 1e-6
    _check("numerics", ok, f"rk4_factor={factor:.4g} eigen_err={worst:.3g}")
