"""Closed-loop simulation with fixed-step RK4.

Integrates the forced nonlinear closed loop (plant + exosystem +
controller) and computes error decay metrics.  One code generator
(_rk4_kernel) turns the model expressions into a single Python function
per system that runs all four RK4 stages over scalar locals and writes the
trajectory into preallocated arrays.  The integrator is deterministic:
identical inputs produce bit-identical trajectories, equal to evaluating
every expression with expr.evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, _codegen, _define, _literal
from .model import ControllerModel, ExosystemModel, PlantModel, w_names, x_names, xi_names

DIVERGENCE_CAP = 1e6


class SimulationError(Exception):
    pass


class DivergenceError(SimulationError):
    """The state left the DIVERGENCE_CAP ball at time t."""

    def __init__(self, t):
        super().__init__(f"state diverged at t = {t}")
        self.t = t


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray      # uniform time grid, length N+1
    x: np.ndarray      # (N+1) x n
    xi: np.ndarray     # (N+1) x nc
    w: np.ndarray      # (N+1) x p
    e: np.ndarray      # N+1
    u: np.ndarray      # N+1

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])


def _check_grid(T, dt):
    if not (dt > 0 and T >= dt and math.isfinite(T / dt)):
        raise SimulationError("need finite dt > 0 and T >= dt")
    return int(round(T / dt))


def _rk4_kernel(plant: PlantModel, exo: ExosystemModel, ctrl: ControllerModel,
                stage_checks=False):
    """Generate the RK4 loop of the closed loop.

    The generated function takes the initial state as scalars, then steps,
    dt and the preallocated output arrays out, e_out and u_out.  It writes
    row k of each output, returns k as soon as a state component is NaN or
    exceeds DIVERGENCE_CAP in magnitude (before the row's u and e are
    evaluated) and returns -1 once every row is written.  Each
    stage evaluates u, f, e, phi + Bc e and s in that order, as evaluate()
    would, so trajectories and EvalError messages are those of a
    stage-by-stage evaluate() loop; stage 1 reuses the u and e of the row.
    With stage_checks, the step from row k also returns k + 1 as soon as
    the input of its stage 2, 3 or 4 leaves that ball, before the stage
    is evaluated; the checks change no value."""
    n = plant.n
    names = x_names(n) + xi_names(ctrl.nc) + w_names(exo.p)
    dim = len(names)

    def stage(j, z):
        """(u, f, e, rest) source lines of stage j with state locals z."""
        env = dict(zip(names, z), u=f"u{j}")
        rhs = ([f"{_codegen(phi, env)} + {_literal(b)} * e{j}"
                for phi, b in zip(ctrl.phi, ctrl.Bc)]
               + [_codegen(s, env) for s in exo.s])
        return ([f"u{j} = {_codegen(ctrl.lam, env)}"],
                [f"k{j}_{i} = {_codegen(f, env)}" for i, f in enumerate(plant.f)],
                [f"e{j} = {_codegen(plant.h, env)}"],
                [f"k{j}_{n + i} = {v}" for i, v in enumerate(rhs)])

    def bounded(z):
        # a NaN component fails every comparison, so it counts as diverged
        return " and ".join(f"abs({v}) <= {_literal(DIVERGENCE_CAP)}" for v in z)

    state = [f"s{i}" for i in range(dim)]
    u, f, e, rest = stage(1, state)
    loop = [f"out[k] = ({', '.join(state)},)", f"if not ({bounded(state)}):", "    return k",
            *u, *e, "e_out[k] = e1", "u_out[k] = u1", "if k == steps:", "    break",
            *f, *rest]
    for j, step in ((2, "half"), (3, "half"), (4, "dt")):
        z = [f"y{j}_{i}" for i in range(dim)]
        loop += [f"{z[i]} = s{i} + {step} * k{j - 1}_{i}" for i in range(dim)]
        if stage_checks:
            loop += [f"if not ({bounded(z)}):", "    return k + 1"]
        for part in stage(j, z):
            loop += part
    loop += [f"s{i} = s{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
             for i in range(dim)]
    body = ["half = dt / 2.0", "sixth = dt / 6.0", "for k in range(steps + 1):",
            *("    " + line for line in loop), "return -1"]
    return _define("_rk4", state + ["steps", "dt", "out", "e_out", "u_out"], body,
                   "the closed-loop RK4 kernel")


def simulate(plant: PlantModel, exo: ExosystemModel, ctrl: ControllerModel,
             x0, xi0, w0, T, dt) -> Trajectory:
    """RK4 on dx = f(x, lambda(xi), w), dxi = phi(xi) + Bc h(x, lambda(xi), w),
    dw = s(w).  Aborts when the state infinity-norm exceeds the divergence
    cap or the state is NaN (local results only cover small data; runaway
    must fail loudly).  A step whose evaluation fails (an overflow, say)
    after the input of one of its stages left the cap ball diverges at the
    end of that step; any other evaluation error is raised."""
    n, nc, p = plant.n, ctrl.nc, exo.p
    x0, xi0, w0 = (np.asarray(v, dtype=float) for v in (x0, xi0, w0))
    if x0.shape != (n,) or xi0.shape != (nc,) or w0.shape != (p,):
        raise SimulationError("initial state dimensions do not match the models")
    steps = _check_grid(T, dt)
    out = np.full((steps + 1, n + nc + p), np.nan)   # NaN until written
    e_out = np.empty(steps + 1)
    u_out = np.empty(steps + 1)
    try:
        k = _rk4_kernel(plant, exo, ctrl)(*np.concatenate([x0, xi0, w0]).tolist(),
                                          steps, dt, out, e_out, u_out)
    except EvalError:
        # every row written is finite: re-run the step from the last one
        # with its stage inputs checked, which locates a divergence or
        # raises the same error again
        k = np.count_nonzero(~np.isnan(out[:, 0])) - 1
        k += _rk4_kernel(plant, exo, ctrl, stage_checks=True)(
            *out[k].tolist(), 1, dt, out[k:k + 2], e_out[k:k + 2], u_out[k:k + 2])
    if k >= 0:
        raise DivergenceError(k * dt)
    t = np.arange(steps + 1) * dt
    return Trajectory(t, out[:, :n], out[:, n:n + nc], out[:, n + nc:], e_out, u_out)


def decay_metrics(traj: Trajectory, window: float):
    """(final_rms, peak, settle_fraction): RMS of e over the last window,
    overall peak |e|, and final-window RMS over first-window RMS."""
    T = float(traj.t[-1])
    if window > T:
        raise SimulationError("window exceeds the trajectory horizon")
    k = max(1, int(round(window / traj.dt)))
    e = traj.e
    final_rms = float(np.sqrt(np.mean(e[-k:] ** 2)))
    initial_rms = float(np.sqrt(np.mean(e[:k] ** 2)))
    peak = float(np.max(np.abs(e)))
    settle = final_rms / initial_rms if initial_rms > 0 else 0.0
    return final_rms, peak, settle


def _write_csv(path, header, columns, block=512):
    """CSV of equal-length columns (1-d, or 2-d for several at once) with
    every value at 17 significant digits and CRLF line ends.  Rows are
    formatted a block at a time, so no copy of the whole table is made."""
    fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, block):
            table = np.column_stack([c[start:start + block] for c in columns])
            fh.write("".join([fmt % tuple(row) for row in table.tolist()]))


def write_trajectory_csv(traj: Trajectory, path):
    """CSV with header t,x1..xn,xi1..xinc,w1..wp,e,u at full precision."""
    header = (["t"] + list(x_names(traj.x.shape[1])) + list(xi_names(traj.xi.shape[1]))
              + list(w_names(traj.w.shape[1])) + ["e", "u"])
    _write_csv(path, header, [traj.t, traj.x, traj.xi, traj.w, traj.e, traj.u])
