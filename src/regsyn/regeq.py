"""Regulator-equation residuals, immersions and the boost-converter PDE.

The first half verifies candidate solutions (pi, gamma) of the nonlinear
regulator equations and candidate immersions at sample points.  The second
half solves the boost-converter regulator PDE: on circles of constant w1
and radius rho the PDE reduces to a scalar periodic ODE, solved by
fixed-step RK4 and a fixed-point iteration on the initial value, for one
circle (solve_psi0) or a whole grid at once (solve_boost_grid).  The grid's
cells are split into interleaved shares, one forked process per CPU, that
run their passes over many cells side by side, each writing its rows into
one shared array.  The cells a share leaves active, once few are, go on
one pipe that every process pulls from, and each is solved alone; a
shared done flag marks each finished cell, and the caller solves again
whatever a failed fork or a dead worker left undone.  Every cell is solved
by the same code in the same order whatever the split, so the bytes are
those of one process.  The RK4 loop has two bodies, on numpy arrays for
passes over many cells and on Python floats for one circle (solve_psi0's,
or a grid cell taken from the pipe).  The array body multiplies each
step's row of one (steps, 3) table of stage cosines by z10*rho; the float
body adds the same products, made once per circle as one list for all its
passes.  Both apply the same operations in the same order, and
tests/test_regeq.py (test_circle_bodies_agree) ties them bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import struct
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import expr
from .expr import Bin, Expr
from .model import (ControllerModel, ExosystemModel, PlantModel, _as_exprs,
                    _check_origin, _check_vars, _indexed, w_names, x_names, xi_names)
from .sim import _Children, _cpus, _shared, _write_csv

DENOM_GUARD = 1e-12
# A share of the grid runs its passes on the array body while more than
# FLOAT_CELLS of its cells are active; the cells it leaves active then go
# on the queue of _shared_orbits, and each is solved alone on the float
# body.  At ode_steps = 2000 on a 2-vCPU x86 VM, timed interleaved (best of
# 5) before the array body's 2-row buffers, one array pass cost as much as
# 37-41 float orbits on 10-80 rows and 51 on the 399 rows of the default
# 21x21 grid, so the float body wins from about 40 active cells down.
# Re-swept with the queue (raw solve of the default grid on two processes,
# median of 10 interleaved runs): 0.52-0.60 s for every value from 20 to
# 120, 0.57 s at 40, each with an interquartile range of 0.02-0.08 s; 40
# against 80 in 12 alternating pairs, 0.54 against 0.51 s, 80 faster in 7.
# At 40 each of the two shares runs 2 array passes.  Re-timed once the
# float body took its forcing terms from one list per circle (best of 5,
# a float orbit timed as the mean of 20): one array pass cost as much as
# 33-35 float orbits on 10-80 rows and 57-60 on 399 (32-35 and 55 before),
# so the float body still wins from about 40 active cells down.  Outputs
# do not depend on FLOAT_CELLS.
FLOAT_CELLS = 40
# a grid cell on the queue of _shared_orbits: its index
_RECORD = struct.Struct("<q")


class RegulatorError(Exception):
    pass


# ------------------------------------------------------ residual checkers

@dataclass(frozen=True)
class RegulatorSolution:
    """Candidate maps pi: W -> X and gamma: W -> U, W = R^p."""

    p: int
    pi: tuple[Expr, ...]
    gamma: Expr
    radius: float  # verify samples the residuals in the ball ||w|| <= radius

    def __post_init__(self):
        wv = w_names(self.p)
        _check_vars(self.pi, wv, "pi")
        _check_vars([self.gamma], wv, "gamma")
        _check_origin([*self.pi, self.gamma], wv, _indexed("pi", len(self.pi)) + ["gamma(0)"])

    @classmethod
    def from_strings(cls, p, pi, gamma, radius):
        return cls(p, _as_exprs(pi), expr.parse(gamma), radius)


@dataclass(frozen=True)
class ImmersionMap:
    """Candidate immersion tau: W -> E into a target system (phi, lambda)."""

    p: int
    tau: tuple[Expr, ...]      # in w1..wp
    phi: tuple[Expr, ...]      # in xi1..xinu, nu = len(tau)
    lam: Expr                  # in xi1..xinu
    # the target system (phi, lambda) as a controller with Bc = 0, which
    # checks and linearizes phi and lambda as a controller's
    target: ControllerModel = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        wv = w_names(self.p)
        _check_vars(self.tau, wv, "tau")
        _check_origin(self.tau, wv, _indexed("tau", len(self.tau)))
        object.__setattr__(self, "target",
                           ControllerModel(self.phi, self.lam, (0.0,) * len(self.tau)))

    @classmethod
    def from_strings(cls, p, tau, phi, lam):
        return cls(p, _as_exprs(tau), _as_exprs(phi), expr.parse(lam))


def _max_residuals(maps, fields, at, output, exo, samples, what):
    """Max over samples of ||d maps/dw s(w) - fields(at(w))||_inf and
    |output(w)|, with every expression compiled once (what names them in
    a compile error).  A NaN residual makes its maximum NaN."""
    wv = w_names(exo.p)
    dynamics = [Bin("-", reduce(expr._add, [expr._mul(dm.get(w, expr._ZERO), s)
                                            for w, s in zip(wv, exo.s)]),
                    expr.substitute(f, at))
                for dm, f in zip((expr.gradient(m, wv) for m in maps), fields)]
    fn = expr.compile_fn(dynamics + [output], wv, what)
    rows = []
    for w in np.asarray(samples, dtype=float).tolist():
        try:
            rows.append(fn(*w))
        except expr.EvalError as exc:
            raise RegulatorError(f"evaluation failed at w = {w}: {exc}") from exc
    rows = np.abs(np.array(rows))
    return float(np.max(rows[:, :-1])), float(np.max(rows[:, -1]))


def regulator_residual(sol: RegulatorSolution, plant: PlantModel,
                       exo: ExosystemModel, samples):
    """Max residuals of the nonlinear regulator equations over samples.

    residual1 = max || dpi/dw s(w) - f(pi(w), gamma(w), w) ||_inf
    residual2 = max | h(pi(w), gamma(w), w) |
    """
    at_sol = dict(zip(x_names(plant.n), sol.pi), u=sol.gamma)
    return _max_residuals(sol.pi, plant.f, at_sol, expr.substitute(plant.h, at_sol),
                          exo, samples, "the regulator equation residuals")


def immersion_residual(im: ImmersionMap, exo: ExosystemModel, gamma: Expr, samples):
    """Max residuals of the immersion conditions over samples.

    residual1 = max || dtau/dw s(w) - phi(tau(w)) ||_inf
    residual2 = max | gamma(w) - lambda(tau(w)) |
    """
    at_tau = dict(zip(xi_names(len(im.tau)), im.tau))
    return _max_residuals(im.tau, im.phi, at_tau,
                          Bin("-", gamma, expr.substitute(im.lam, at_tau)), exo, samples,
                          "the immersion residuals")


# ------------------------------------------------------------ boost model

@dataclass(frozen=True)
class BoostParams:
    """Averaged boost-converter parameters and the derived operating point."""

    C: float            # capacitance [F]
    L: float            # inductance [H]
    R: float            # load resistance [Ohm]
    r: float            # inductor loss resistance [Ohm]
    v0: float           # nominal input voltage [V]
    z10: float          # reference output voltage [V]
    alpha: float        # disturbance frequency [rad/s]
    beta: float = 0.9   # admissible-domain shrink factor in (0, 1)
    D0: float = field(init=False)
    z20: float = field(init=False)

    def __post_init__(self):
        for name in ("C", "L", "R", "r", "v0", "z10", "alpha"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise RegulatorError(f"parameter {name} must be finite and positive")
        if not 0.0 < self.beta < 1.0:
            raise RegulatorError("beta must lie in (0, 1)")
        D0, z20 = boost_equilibrium(self.v0, self.z10, self.R, self.r)
        object.__setattr__(self, "D0", D0)
        object.__setattr__(self, "z20", z20)
        # z20 loses its precision where R*D0 is subnormal
        scale = max(1.0, self.z10 / self.R, self.v0)
        if abs(-self.z10 / self.R + D0 * z20) > 1e-9 * scale:
            raise RegulatorError("equilibrium residual in the capacitor equation")

    @classmethod
    def default(cls):
        """Nominal 100 V -> 400 V converter with a 400 ohm load."""
        return cls(C=40e-6, L=4e-3, R=400.0, r=0.25, v0=100.0, z10=400.0,
                   alpha=200.0 * math.pi, beta=0.9)


def boost_equilibrium(v0, z10, R, r):
    """Duty ratio D0 and equilibrium current z20 at the operating point.

    Solves z10*D0^2 - v0*D0 + z10*r/R = 0 and keeps the root giving the
    smaller current z20 = z10/(R*D0) (the efficient branch); the other root
    carries a physically absurd circulating current.
    """
    if min(v0, z10, R, r) <= 0:
        raise RegulatorError("v0, z10, R, r must be positive")
    disc = v0 * v0 - 4.0 * z10 * z10 * r / R
    if disc < 0:
        raise RegulatorError("no real duty ratio: discriminant negative")
    D0 = (v0 + math.sqrt(disc)) / (2.0 * z10)
    if not 0.0 < D0 < 1.0:
        raise RegulatorError(f"duty ratio {D0} outside (0, 1)")
    if R * D0 == 0.0:
        raise RegulatorError("R*D0 underflows to 0, so z20 = z10/(R*D0) is undefined")
    z20 = z10 / (R * D0)
    if not D0 * z10 > r * z20:
        raise RegulatorError("standing assumption D0*z10 > r*z20 violated")
    return D0, z20


def psi_bounds(w1, rho, params: BoostParams):
    """Bracketing values (psi1, psi2) of the periodic-orbit initial value."""
    pr = params
    b = pr.r * pr.z20 - w1 - pr.D0 * pr.z10
    d1 = b * b - 4.0 * pr.r * (-pr.z20 * w1 + pr.z10 * rho)
    d2 = b * b - 4.0 * pr.r * (-pr.z20 * w1 - pr.z10 * rho)
    if d1 < 0 or d2 < 0:
        raise RegulatorError(f"negative discriminant at (w1, rho) = ({w1}, {rho})")
    psi1 = (-b - math.sqrt(d1)) / (2.0 * pr.r)
    psi2 = (-b - math.sqrt(d2)) / (2.0 * pr.r)
    return psi1, psi2


def admissible_domain(params: BoostParams):
    """(w1max, rho_max) where rho_max is a function of w1 on |w1| < w1max."""
    pr = params
    w1max = pr.D0 * pr.z10 - pr.r * pr.z20

    def rho_max(w1):
        b = pr.r * pr.z20 - w1 - pr.D0 * pr.z10
        return min(pr.beta * pr.D0 * pr.z20,
                   b * b / (4.0 * pr.r * pr.z10) - pr.z20 * abs(w1) / pr.z10)

    return w1max, rho_max


def _stage_cosines(steps):
    """cos of the RK4 stage times t, t + h/2 and t + h of each step t = k*h,
    one C-contiguous (steps, 3) array for both bodies of _integrate_circle."""
    h = 2.0 * math.pi / steps
    t = np.arange(steps) * h
    return np.cos(np.column_stack([t, t + 0.5 * h, t + h]))


def _stage_products(zr, steps, cos=None):
    """zr times each stage cosine of cos = _stage_cosines(steps), one flat
    list of Python floats: the forcing terms of the float body, the same
    bits as zr * c one at a time (a float64 multiply rounds once either
    way).  A table made here is multiplied in place."""
    if cos is None:
        cos = _stage_cosines(steps)
        cos *= zr
    else:
        cos = zr * cos
    return cos.ravel().tolist()


def _integrate_circle(psi0, w1, rho, params: BoostParams, steps, cos, out=None, zc=None):
    """RK4 over tau in [0, 2*pi]; cos is _stage_cosines(steps).

    A 0-d psi0 (one circle) runs a loop on Python floats that adds the
    forcing terms zc = _stage_products(z10 * rho, steps, cos), made here if
    not given (a caller that integrates one circle many times makes them
    once; cos is not read then).  An array psi0 runs the same loop on numpy
    arrays, with w1 and rho broadcast, and multiplies each step's row of
    cos by z10 * rho.  Both bodies apply the same operations in the same order, so one circle
    gives the same bits either way (test_circle_bodies_agree).  Returns
    the orbit samples, shape (..., steps + 1), written into `out` if given.
    An orbit that hits the psi = -z20 guard is NaN from there on.
    """
    pr = params
    h = 2.0 * math.pi / steps
    half, sixth = 0.5 * h, h / 6.0
    aL, z20, r = pr.alpha * pr.L, pr.z20, pr.r
    b_lin = r * z20 - w1 - pr.D0 * pr.z10
    c_con = -z20 * w1
    zr = pr.z10 * rho
    orbit = np.empty(np.shape(psi0) + (steps + 1,)) if out is None else out
    if np.ndim(psi0) == 0:
        psi, b_lin, c_con = float(psi0), float(b_lin), float(c_con)
        guard, nan = DENOM_GUARD, math.nan
        stages = iter(_stage_products(float(zr), steps, cos) if zc is None else zc)
        samples = [psi]
        for zc1, zc2, zc4 in zip(stages, stages, stages):
            d = aL * (psi + z20)
            k1 = nan if d < guard else (r * psi * psi + b_lin * psi + c_con + zc1) / d
            p = psi + half * k1
            d = aL * (p + z20)
            k2 = nan if d < guard else (r * p * p + b_lin * p + c_con + zc2) / d
            p = psi + half * k2
            d = aL * (p + z20)
            k3 = nan if d < guard else (r * p * p + b_lin * p + c_con + zc2) / d
            p = psi + h * k3
            d = aL * (p + z20)
            k4 = nan if d < guard else (r * p * p + b_lin * p + c_con + zc4) / d
            psi = psi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            samples.append(psi)
        orbit[...] = samples
        return orbit

    # every buffer and operand is made once at the row shape, so a step
    # runs 54 ufuncs writing into preallocated arrays.  A call on a 2-row
    # buffer costs about as much as one on a row, but only where every
    # operand has the same shape and is contiguous: so den and r*x*x come
    # from one call, [aL; r*x] * [x + z20; x], and 2*k2 and 2*k3 from
    # another.  The step's three zr*cos products take one broadcast call.
    # Each element sees the float body's operations in its order, the
    # guard included: it masks each stage's k before the next stage reads
    # it, as a tripped stage's k left unmasked would feed later stages
    # whose NaNs, of either sign, could win the sum.  The stages are
    # written out, with the ufuncs in local names, because a Python call
    # per stage cost most of what the merged calls saved.
    shape = np.shape(psi0)
    r, b_lin, z20, c_con, zr, guard, half, h, sixth = (
        np.broadcast_to(v, shape).astype(float) for v in
        (r, b_lin, z20, c_con, zr, DENOM_GUARD, half, h, sixth))
    two = np.full((2,) + shape, 2.0)
    a_rx = np.empty((2,) + shape)             # [aL; r*x]
    a_rx[0] = aL
    at_psi = np.empty((2,) + shape)           # [psi + z20; psi]
    at_p = np.empty((2,) + shape)             # [p + z20; p]
    at_psi[1] = psi0
    den_rxx = np.empty((2,) + shape)          # [den; r*x*x]
    k = np.empty((4,) + shape)
    zc = np.empty((3,) + shape)               # zr * the step's stage cosines
    twice = np.empty((2,) + shape)
    num, b_x = np.empty(shape), np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    (psi_z, psi), (p_z, p), r_x, (den, rxx) = at_psi, at_p, a_rx[1], den_rxx
    (k1, k2, k3, k4), k23, (zc1, zc2, zc4), (twice2, twice3) = k, k[1:3], zc, twice
    add, mul, div, less, copyto, nan = np.add, np.multiply, np.divide, np.less, np.copyto, np.nan

    orbit[..., 0] = psi
    table = np.reshape(cos, (-1, 3) + (1,) * len(shape))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, c in enumerate(table, 1):
            mul(zr, c, zc)
            add(psi, z20, psi_z)
            mul(r, psi, r_x)
            mul(b_lin, psi, b_x)
            mul(a_rx, at_psi, den_rxx)
            add(rxx, b_x, num)
            add(num, c_con, num)
            add(num, zc1, num)
            div(num, den, k1)
            copyto(k1, nan, where=less(den, guard, mask))

            add(psi, mul(half, k1, p), p)
            add(p, z20, p_z)
            mul(r, p, r_x)
            mul(b_lin, p, b_x)
            mul(a_rx, at_p, den_rxx)
            add(rxx, b_x, num)
            add(num, c_con, num)
            add(num, zc2, num)
            div(num, den, k2)
            copyto(k2, nan, where=less(den, guard, mask))

            add(psi, mul(half, k2, p), p)
            add(p, z20, p_z)
            mul(r, p, r_x)
            mul(b_lin, p, b_x)
            mul(a_rx, at_p, den_rxx)
            add(rxx, b_x, num)
            add(num, c_con, num)
            add(num, zc2, num)
            div(num, den, k3)
            copyto(k3, nan, where=less(den, guard, mask))

            add(psi, mul(h, k3, p), p)
            add(p, z20, p_z)
            mul(r, p, r_x)
            mul(b_lin, p, b_x)
            mul(a_rx, at_p, den_rxx)
            add(rxx, b_x, num)
            add(num, c_con, num)
            add(num, zc4, num)
            div(num, den, k4)
            copyto(k4, nan, where=less(den, guard, mask))

            mul(two, k23, twice)
            add(k1, twice2, num)
            add(num, twice3, num)
            add(num, k4, num)
            add(psi, mul(sixth, num, num), psi)
            orbit[..., j] = psi
    return orbit


def _periodic_orbits(start, tol, w1, rho, params: BoostParams, steps, max_iter,
                     orbit=None, first=1, stop=0, cos=None):
    """Fixed-point iteration psi^n(0) = psi^{n-1}(2*pi) on many circles at once.

    start, tol, w1 and rho have one shape: 0-d for one circle, which runs
    on the float body of _integrate_circle, else on the array body.  The
    orbits are written into `orbit` (any view of that shape + (steps + 1,))
    if given; cos is _stage_cosines(steps), made here if not given.  One
    circle's forcing terms (_stage_products) are made once, for all its
    passes.
    A cell freezes once its orbit escapes or |psi(2*pi) - psi(0)| < tol and
    keeps its start, so later passes rewrite its orbit row bit for bit.
    Passes first..max_iter run while more than `stop` cells are active;
    a cell left active resumes from its returned start at the returned pass
    (on the float body, alone, with the same bits: test_circle_bodies_agree).
    Returns (psi0, orbit, iters, escaped, it); iters is 0 where not
    converged, and it is the first pass not run.
    """
    start = np.array(start, dtype=float)
    w1, rho = np.asarray(w1), np.asarray(rho)
    if start.ndim == 0:     # the float body reads only the forcing terms
        zc = _stage_products(params.z10 * float(rho), steps, cos)
    else:
        zc, cos = None, _stage_cosines(steps) if cos is None else cos
    orbit = np.empty(start.shape + (steps + 1,)) if orbit is None else orbit
    iters = np.zeros(start.shape, dtype=int)
    escaped = np.zeros(start.shape, dtype=bool)
    active = np.ones(start.shape, dtype=bool)
    it = first
    while it <= max_iter and np.count_nonzero(active) > stop:
        _integrate_circle(start, w1, rho, params, steps, cos, out=orbit, zc=zc)
        end = orbit[..., -1]
        escaped |= active & ~np.isfinite(end)
        active &= ~escaped
        done = active & (np.abs(end - start) < tol)
        iters[done] = it
        active &= ~done
        np.copyto(start, end, where=active)
        it += 1
    return start, orbit, iters, escaped, it


def _grid_workers(cells):
    """Processes that solve a grid of `cells` present cells: one per CPU
    this process may run on (sim._cpus), but at most one per FLOAT_CELLS
    cells."""
    return max(1, min(_cpus(), cells // max(FLOAT_CELLS, 1)))


def _shared_orbits(start, tol, w1, rho, params: BoostParams, steps, max_iter):
    """_periodic_orbits on the 1-d rows of a grid, in _grid_workers processes.

    Cell k belongs to share k mod W, so the slow cells of one column are
    spread over the shares.  Shares 1..W-1 run in forked children and
    share 0 in the caller, all on arrays from sim._shared, which back the
    returned arrays.  A share runs the array body on its strided rows while
    more than FLOAT_CELLS of them are active, then pushes the index of each
    cell still active onto one pipe.  Every process then pulls cells until
    EOF and solves each alone on the float body, from its saved start at
    its share's resume pass, so a faster CPU takes more of them.  A push
    never blocks: it writes whole records, at most PIPE_BUF bytes at a
    time, and the cells that do not fit are solved by the process that
    pushed them.  A cell is final once its shared done flag is set; its
    saved start and its share's resume pass are written before it is
    pushed, and not again before then.  Once every child is reaped, the
    caller solves again each share whose array phase did not finish (its
    fork failed or its child died) and each cell not done, so the result
    never depends on the workers.  A _Children forks, kills and reaps them.
    """
    n = len(start)
    workers = _grid_workers(n)
    orbit = _shared((n, steps + 1))
    psi0, saved = _shared((2, n))
    iters = _shared(n, np.int64)
    # per share: 0 until its array phase finished, then the pass its cells
    # left active resume at
    resume = _shared(workers, np.int64)
    escaped, done = _shared((2, n), bool)
    cos = _stage_cosines(steps)

    def array_phase(j):
        """Share j on the array body; returns its cells left active."""
        rows = slice(j, None, workers)
        p, _, its, esc, first = _periodic_orbits(
            start[rows], tol[rows], w1[rows], rho[rows], params, steps, max_iter,
            orbit=orbit[rows], stop=FLOAT_CELLS, cos=cos)
        left = (its == 0) & ~esc & (first <= max_iter)
        psi0[rows] = saved[rows] = p
        iters[rows], escaped[rows], done[rows] = its, esc, ~left
        resume[j] = first
        return np.arange(j, n, workers)[left]

    def solve(k):
        """Cell k alone from its saved start, from its share's resume pass on."""
        psi0[k], _, iters[k], escaped[k], _ = _periodic_orbits(
            saved[k], tol[k], w1[k], rho[k], params, steps, max_iter,
            orbit=orbit[k], first=resume[k % workers], cos=cos)
        done[k] = True

    def push(queue, cells):
        """Queue cells; returns those that do not fit."""
        per_write = select.PIPE_BUF // _RECORD.size
        for at in range(0, len(cells), per_write):
            data = b"".join(map(_RECORD.pack, cells[at:at + per_write]))
            if queue.write(data) is None:   # the pipe is full
                return cells[at:]
        return cells[:0]

    def work(j, queue_in, queue_out):
        cells = push(queue_out, array_phase(j))
        queue_out.close()
        for k in cells:
            solve(k)
        while record := queue_in.read(_RECORD.size):
            solve(*_RECORD.unpack(record))

    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    with open(read_fd, "rb", buffering=0) as queue_in, \
            open(write_fd, "wb", buffering=0) as queue_out, _Children() as children:
        for j in range(1, workers):
            with contextlib.suppress(OSError):
                children.fork(work, j, queue_in, queue_out)
        work(0, queue_in, queue_out)
        children.wait()
    for j in np.flatnonzero(resume == 0):
        array_phase(j)
    for k in np.flatnonzero(~done):
        solve(k)
    return psi0, orbit, iters, escaped


def solve_psi0(w1, rho, params: BoostParams, ode_steps=2000, max_iter=200):
    """Periodic-orbit initial value on one characteristic circle.

    Iterates psi^1(0) = (psi1 + psi2)/2, psi^n(0) = psi^{n-1}(2*pi) until
    |psi^n(2*pi) - psi^n(0)| < 1e-9 * (1 + |psi1|), as one cell of
    solve_boost_grid's solver.  Returns (psi0, orbit, iterations) with orbit
    sampled on the uniform tau grid (ode_steps + 1 points).
    """
    psi1, psi2 = psi_bounds(w1, rho, params)
    psi0, orbit, iters, escaped, _ = _periodic_orbits(
        0.5 * (psi1 + psi2), 1e-9 * (1.0 + abs(psi1)), w1, rho, params, ode_steps,
        max_iter)
    where = f"at (w1, rho) = ({w1}, {rho})"
    if escaped:
        raise RegulatorError(f"orbit escaped psi <= -z20 {where}")
    if not iters:
        raise RegulatorError(f"no periodic orbit within {max_iter} iterations {where}")
    return float(psi0), orbit, int(iters)


@dataclass
class BoostCell:
    w1: float
    rho: float
    present: bool
    converged: bool = False
    psi0: float = math.nan
    iters: int = 0
    orbit: np.ndarray | None = None   # psi(tau_k), len ode_steps + 1
    psi1: float = math.nan
    psi2: float = math.nan
    message: str = ""


@dataclass
class BoostSolution:
    params: BoostParams
    w1_values: np.ndarray            # n_w1
    rho_values: np.ndarray           # n_w1 x n_rho (per-column uniform grids)
    cells: list                      # n_w1 lists of n_rho BoostCell
    ode_steps: int

    @property
    def tau_grid(self):
        return np.linspace(0.0, 2.0 * math.pi, self.ode_steps + 1)


def _gamma_denominator(orbit, w1, rho, params: BoostParams):
    """psi + z20 on the orbit, the denominator of gamma; raises unless
    (psi + z20) * alpha * L stays at or above DENOM_GUARD everywhere."""
    denom = orbit + params.z20
    if np.any(denom * params.alpha * params.L < DENOM_GUARD):
        raise RegulatorError("orbit too close to psi = -z20 for gamma recovery "
                             f"at (w1, rho) = ({w1}, {rho})")
    return denom


def recover_gamma(orbit, w1, rho, params: BoostParams):
    """Feedforward gamma(tau) = (rho*cos(tau) - D0*psi) / (psi + z20),
    eliminated from the algebraic regulator equation."""
    orbit = np.asarray(orbit, dtype=float)
    tau = np.linspace(0.0, 2.0 * math.pi, orbit.shape[-1])
    denom = _gamma_denominator(orbit, w1, rho, params)
    return (rho * np.cos(tau) - params.D0 * orbit) / denom


def solve_boost_grid(params: BoostParams, n_w1=21, n_rho=21, ode_steps=2000,
                     max_iter=200, shrink=0.95) -> BoostSolution:
    """psi0 (and orbits) on a uniform grid over the admissible set.

    w1 is uniform on [-shrink*w1max, shrink*w1max]; for each w1, rho is
    uniform on [0, shrink*rho_max(w1)].  Columns where rho_max(w1) <= 0 are
    marked absent.  The present cells go through the fixed-point iteration
    (_periodic_orbits) as flat arrays, one share per worker process
    (_shared_orbits), each cell frozen on its own stopping test, and once
    few cells of a share are active each is taken from a shared queue and
    solved alone; every cell's psi0,
    iterations and orbit are bit-identical to solve_psi0, whatever the
    number of workers.
    """
    if n_w1 < 2 or n_rho < 3:
        # pde_residual differentiates across three radii of a column
        raise RegulatorError(f"grid resolutions must be n_w1 >= 2 and n_rho >= 3, "
                             f"got {n_w1} x {n_rho}")
    w1max, rho_max = admissible_domain(params)
    w1s = np.linspace(-shrink * w1max, shrink * w1max, n_w1)
    rho_grid = np.full((n_w1, n_rho), np.nan)
    columns, cells = [], []
    for i, w1 in enumerate(w1s):
        rmax = rho_max(float(w1))
        if rmax <= 0:
            columns.append([BoostCell(w1=float(w1), rho=math.nan, present=False,
                                      message="outside admissible domain")
                            for _ in range(n_rho)])
            continue
        rho_grid[i] = np.linspace(0.0, shrink * rmax, n_rho)
        columns.append([BoostCell(w1=float(w1), rho=float(rho), present=True)
                        for rho in rho_grid[i]])
        for cell in columns[-1]:
            try:
                cell.psi1, cell.psi2 = psi_bounds(cell.w1, cell.rho, params)
            except RegulatorError as exc:
                cell.message = str(exc)
            else:
                cells.append(cell)
    w1, rho, psi1, psi2 = np.array(
        [(c.w1, c.rho, c.psi1, c.psi2) for c in cells]).reshape(-1, 4).T
    psi0, orbit, iters, escaped = _shared_orbits(
        0.5 * (psi1 + psi2), 1e-9 * (1.0 + np.abs(psi1)), w1, rho, params,
        ode_steps, max_iter)
    for k, cell in enumerate(cells):
        if escaped[k]:
            cell.message = "orbit escaped psi <= -z20"
        elif not iters[k]:
            cell.message = f"no periodic orbit within {max_iter} iterations"
        else:
            cell.converged = True
            cell.psi0 = float(psi0[k])
            cell.iters = int(iters[k])
            cell.orbit = orbit[k]
            # gamma is left to recover_gamma, but a cell it would refuse
            # fails the grid here
            _gamma_denominator(cell.orbit, cell.w1, cell.rho, params)
    return BoostSolution(params, w1s, rho_grid, columns, ode_steps)


def pde_residual(boost: BoostSolution):
    """Max normalized residual of the quasilinear regulator PDE, NaN when no
    column has an interior converged cell or any residual is NaN.

    The partial derivatives of pi2 with respect to w2 and w3 are
    reconstructed from the (rho, tau) parametrization by central
    differences across grid cells, then substituted into the PDE.  The
    residual at each point is normalized by (1 + |w1| + rho).
    """
    pr = boost.params
    worst = []
    n_tau = boost.ode_steps
    tau = boost.tau_grid[:-1]
    cos_t, sin_t = np.cos(tau), np.sin(tau)
    for i, col in enumerate(boost.cells):
        cells = [c for c in col if c.present]
        if len(cells) < 3 or not all(c.converged for c in cells):
            continue
        rhos = boost.rho_values[i]
        drho = rhos[1] - rhos[0]
        # each row a view of the grid's orbit array, no copy of the column
        psi = [c.orbit[:-1] for c in cells]
        # rho interior only: rho = 0 is the degenerate circle
        for j in range(1, len(cells) - 1):
            rho = rhos[j]
            w1 = cells[j].w1
            pj = psi[j]
            dpsi_drho = (psi[j + 1] - psi[j - 1]) / (2.0 * drho)
            # pj[i + 1] - pj[i - 1] with i taken modulo n_tau
            dpj = np.empty(n_tau)
            dpj[1:-1] = pj[2:] - pj[:-2]
            dpj[0] = pj[1 % n_tau] - pj[-1]
            dpj[-1] = pj[0] - pj[-2 % n_tau]
            dpsi_dtau = dpj * n_tau / (4.0 * math.pi)
            dpi_dw2 = cos_t * dpsi_drho - sin_t / rho * dpsi_dtau
            dpi_dw3 = sin_t * dpsi_drho + cos_t / rho * dpsi_dtau
            w2, w3 = rho * cos_t, rho * sin_t
            bracket = (-pr.alpha * dpi_dw2 * w3 + pr.alpha * dpi_dw3 * w2
                       - pr.r / pr.L * pj + w1 / pr.L)
            resid = ((pr.D0 + pr.L / pr.z10 * bracket) * pj
                     + pr.z20 * pr.L / pr.z10 * bracket - w2)
            scale = 1.0 + abs(w1) + rho
            worst.append(float(np.max(np.abs(resid))) / scale)
    # NaN if any cell's residual is NaN
    return float(np.max(worst)) if worst else math.nan


# ---------------------------------------------------------------- exports

def write_grid_csv(boost: BoostSolution, path):
    """CSV with header w1,rho,psi0,converged,iters; absent cells skipped."""
    rows = [(c.w1, c.rho, c.psi0, c.converged, c.iters)
            for col in boost.cells for c in col if c.present]
    _write_csv(path, ["w1", "rho", "psi0", "converged", "iters"],
               np.array(rows, dtype=float).reshape(-1, 5))


def write_orbit_csv(orbit, gamma, path):
    """CSV with header tau,psi,gamma of one periodic orbit psi(tau_k) on the
    uniform tau grid of len(orbit) points over [0, 2 pi], gamma being
    recover_gamma of it."""
    tau = np.linspace(0.0, 2.0 * math.pi, len(orbit))
    _write_csv(path, ["tau", "psi", "gamma"], np.column_stack([tau, orbit, gamma]))
