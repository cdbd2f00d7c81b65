"""Closed-loop and exosystem simulation with fixed-step RK4.

Integrates the forced nonlinear closed loop (plant + exosystem +
controller) and computes trajectory diagnostics: error decay metrics and
period detection for exosystem orbits.  One code generator (_rk4_kernel)
turns the model expressions into a single Python function per system that
runs all four RK4 stages over scalar locals and writes the trajectory into
preallocated arrays; simulate and simulate_exosystem both run it.  The
integrator is deterministic: identical inputs produce bit-identical
trajectories, equal to evaluating every expression with expr.evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import _codegen, _define, _literal
from .model import ControllerModel, ExosystemModel, PlantModel, w_names, x_names, xi_names

DIVERGENCE_CAP = 1e6


class SimulationError(Exception):
    pass


class DivergenceError(SimulationError):
    """The state left the DIVERGENCE_CAP ball at time t."""

    def __init__(self, what, t):
        super().__init__(f"{what} diverged at t = {t}")
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


def _rk4_kernel(exo: ExosystemModel, plant: PlantModel = None,
                ctrl: ControllerModel = None):
    """Generate the RK4 loop for dw = s(w), or for the closed loop when a
    plant and a controller are given.

    The generated function takes the initial state as scalars, then steps,
    dt and the preallocated output arrays (out, and e_out, u_out for the
    closed loop).  It writes row k of each output, returns k as soon as the
    state's infinity-norm exceeds DIVERGENCE_CAP and returns -1 once every
    row is written.  Each stage evaluates u, f, e, phi + Bc e and s in that
    order, as evaluate() would, so trajectories and EvalError messages are
    those of a stage-by-stage evaluate() loop; stage 1 reuses the u and e
    of the row."""
    n, nc = (plant.n, ctrl.nc) if plant else (0, 0)
    names = x_names(n) + xi_names(nc) + w_names(exo.p)
    dim = len(names)

    def stage(j, z):
        """(u, f, e, rest) source lines of stage j with state locals z."""
        env = dict(zip(names, z), u=f"u{j}")
        if not plant:
            return [], [], [], [f"k{j}_{i} = {_codegen(s, env)}" for i, s in enumerate(exo.s)]
        rhs = ([f"{_codegen(phi, env)} + {_literal(b)} * e{j}"
                for phi, b in zip(ctrl.phi, ctrl.Bc)]
               + [_codegen(s, env) for s in exo.s])
        return ([f"u{j} = {_codegen(ctrl.lam, env)}"],
                [f"k{j}_{i} = {_codegen(f, env)}" for i, f in enumerate(plant.f)],
                [f"e{j} = {_codegen(plant.h, env)}"],
                [f"k{j}_{n + i} = {v}" for i, v in enumerate(rhs)])

    state = [f"s{i}" for i in range(dim)]
    u, f, e, rest = stage(1, state)
    norm = f"max({', '.join(f'abs({v})' for v in state)})" if dim > 1 else f"abs({state[0]})"
    loop = [f"out[k] = ({', '.join(state)},)", *u, *e]
    if plant:
        loop += ["e_out[k] = e1", "u_out[k] = u1"]
    loop += [f"if {norm} > {_literal(DIVERGENCE_CAP)}:", "    return k",
             "if k == steps:", "    break", *f, *rest]
    for j, step in ((2, "half"), (3, "half"), (4, "dt")):
        z = [f"y{j}_{i}" for i in range(dim)]
        loop += [f"{z[i]} = s{i} + {step} * k{j - 1}_{i}" for i in range(dim)]
        for part in stage(j, z):
            loop += part
    loop += [f"s{i} = s{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
             for i in range(dim)]
    body = ["half = dt / 2.0", "sixth = dt / 6.0", "for k in range(steps + 1):",
            *("    " + line for line in loop), "return -1"]
    outputs = ["out", "e_out", "u_out"] if plant else ["out"]
    return _define("_rk4", state + ["steps", "dt"] + outputs, body)


def simulate(plant: PlantModel, exo: ExosystemModel, ctrl: ControllerModel,
             x0, xi0, w0, T, dt) -> Trajectory:
    """RK4 on dx = f(x, lambda(xi), w), dxi = phi(xi) + Bc h(x, lambda(xi), w),
    dw = s(w).  Aborts when the state infinity-norm exceeds the divergence
    cap (local results only cover small data; runaway must fail loudly)."""
    n, nc, p = plant.n, ctrl.nc, exo.p
    x0, xi0, w0 = (np.asarray(v, dtype=float) for v in (x0, xi0, w0))
    if x0.shape != (n,) or xi0.shape != (nc,) or w0.shape != (p,):
        raise SimulationError("initial state dimensions do not match the models")
    steps = _check_grid(T, dt)
    out = np.empty((steps + 1, n + nc + p))
    e_out = np.empty(steps + 1)
    u_out = np.empty(steps + 1)
    k = _rk4_kernel(exo, plant, ctrl)(*np.concatenate([x0, xi0, w0]).tolist(),
                                      steps, dt, out, e_out, u_out)
    if k >= 0:
        raise DivergenceError("state", k * dt)
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


def simulate_exosystem(exo: ExosystemModel, w0, T, dt):
    """Integrate dw = s(w) alone; returns (t, w) arrays."""
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (exo.p,):
        raise SimulationError("initial state dimension does not match the exosystem")
    steps = _check_grid(T, dt)
    out = np.empty((steps + 1, exo.p))
    k = _rk4_kernel(exo)(*w0.tolist(), steps, dt, out)
    if k >= 0:
        raise DivergenceError("exosystem", k * dt)
    return np.arange(steps + 1) * dt, out


def detect_period(t, w, tol=1e-3):
    """First return time of w to its initial point, or None.

    Looks for the first sample back inside the tol-ball around w(0) after
    having left it, then refines the return time by intersecting the two
    secant lines of the distance function around its local minimum."""
    w = np.asarray(w, dtype=float)
    d = np.linalg.norm(w - w[0], axis=1)
    left = np.flatnonzero(d > tol)
    if left.size == 0:
        return None
    k0 = left[0]
    back = np.flatnonzero(d[k0:] < tol)
    if back.size == 0:
        return None
    k = k0 + back[0]
    # local minimum of d in the below-tol window
    while k + 1 < len(d) and d[k + 1] < d[k]:
        k += 1
    if 1 < k < len(d) - 2:
        m1 = (d[k - 1] - d[k - 2]) / (t[k - 1] - t[k - 2])
        m2 = (d[k + 2] - d[k + 1]) / (t[k + 2] - t[k + 1])
        if m1 < 0 < m2:
            # V-shaped kink: intersect the descending and ascending secants
            t_star = (d[k + 1] - d[k - 1] + m1 * t[k - 1] - m2 * t[k + 1]) / (m1 - m2)
            if t[k - 1] <= t_star <= t[k + 1]:
                return float(t_star)
    return float(t[k])


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
