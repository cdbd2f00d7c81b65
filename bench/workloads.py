"""Seeded job lists of the four benchmark workloads and their output checks.

A job is one `regsyn.cli.main(argv)` call.  Every job's input comes from
the workload seed alone, so the same seed gives the same jobs, byte for
byte.  Each job carries its expected exit status and a check of its stdout
and of the files it writes; the checks recompute what they can from the
written numbers (trajectory CSV against the closed-loop vector field, orbit CSV
against the circle ODE, ...) instead of trusting the program's own report.

Workloads, all closed loop with one job in flight:

closed_loop  `simulate` of example53 and example51 at their default dt with
             trajectory CSV export; nearly all time is in `sim`.
boost_grid   `boost --out DIR` on the default 21x21 grid; nearly all time
             is in the array path of `regeq`.
boost_cells  `boost --cell W1 RHO` single circles with orbit CSV export;
             the scalar `regeq.solve_psi0` path.
analysis     short `verify` and `synthesize` jobs on the built-ins and on
             seeded members of closed-form families; `expr`, `model`,
             `specan`, `synth` and `sysfile`.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("closed_loop", "boost_grid", "boost_cells", "analysis")

# closed_loop: simulate jobs per example, steps per job (T = STEPS * default
# dt) and the initial-condition ball radius relative to 1 + |default ic|_inf.
# Short jobs keep the calibrations around each job close to it (calib.py).
SIM_JOBS = 5
SIM_STEPS = 4_000
SIM_IC_BALL = 0.05
# boost_cells: anchor circles as (w1 / w1max, rho / rho_max(w1)); each is
# jittered by the seed within CELL_JITTER.  The anchors avoid the left edge
# of the domain, where the iteration count changes fast with w1, so that the
# work of a pass hardly depends on the seed.
CELL_ANCHORS = ((-0.55, 0.2), (-0.4, 0.6), (-0.25, 0.9), (-0.1, 0.4),
                (0.05, 0.7), (0.2, 0.1), (0.35, 0.5), (0.5, 0.8),
                (0.65, 0.3), (0.8, 0.6), (0.9, 0.9))
CELL_JITTER = 0.02
ODE_STEPS = 2000
# analysis: members per closed-form family
FAMILY_SIZE = 12
# boost grid: 19 admissible columns of 21 radii on the default 21x21 grid
GRID_CELLS = 399

# default boost-converter parameters (example53, `regsyn boost`)
BOOST = dict(C=40e-6, L=4e-3, R=400.0, r=0.25, v0=100.0, z10=400.0,
             alpha=200.0 * math.pi, beta=0.9)

CHECK_RE = re.compile(r"^CHECK (\S+) (PASS|FAIL)(?: (.*))?$", re.M)


@dataclass(frozen=True)
class Job:
    """One CLI call: argv, expected exit status and an output check.

    `concat` lists (target, sources) files the benchmark assembles right
    before the job runs; `outputs` are the files the job writes.
    `check(stdout, files)` returns a list of problems (empty when correct).
    """

    argv: tuple[str, ...]
    check: Callable[[str, dict], list] = field(compare=False)
    expect_status: int = 0
    outputs: tuple[str, ...] = ()
    concat: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    files: dict            # path -> text written before the first pass
    warmup: tuple[str, ...]  # untimed argv run once before measuring
    params: dict           # generated parameters, for the self-test
    # job times in reference seconds from the calibration loop (calib.py);
    # False for jobs on regsyn's thread pool, which the loop does not track
    # and which are scaled against the reference interpreter instead
    calibrated: bool = True


def _fmt(v):
    return repr(float(v))


def _checks(stdout):
    return {m.group(1): (m.group(2), m.group(3)) for m in CHECK_RE.finditer(stdout)}


def _check_lines(stdout, required):
    """Every CHECK line passes and every required check is present."""
    found = _checks(stdout)
    problems = [f"CHECK {n} FAIL" for n, (s, _) in found.items() if s != "PASS"]
    problems += [f"missing CHECK {n}" for n in required if n not in found]
    return problems


def _value(stdout, key):
    m = re.search(rf"^{re.escape(key)} = (\S+)$", stdout, re.M)
    if m is None:
        raise ValueError(f"no '{key} = ' line")
    return float(m.group(1))


def _load_csv(data, header):
    lines = data.decode().splitlines()
    if not lines or lines[0] != ",".join(header):
        raise ValueError(f"CSV header {lines[:1]} != {header}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _close(a, b, rtol):
    return bool(np.all(np.abs(np.asarray(a) - b) <= rtol * (1.0 + np.abs(b))))


def _ball(rng, dim, radius):
    """Uniform sample of the dim-ball of the given radius."""
    g = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in g)) or 1.0
    r = radius * rng.random() ** (1.0 / dim)
    return [r * v / norm for v in g]


def _boost_point(R=BOOST["R"]):
    """Duty ratio and current at the operating point (efficient branch)."""
    b = BOOST
    D0 = (b["v0"] + math.sqrt(b["v0"] ** 2 - 4.0 * b["z10"] ** 2 * b["r"] / R)) / (2.0 * b["z10"])
    return D0, b["z10"] / (R * D0)


def _boost_prelude(stdout):
    """D0 and z20 as printed, after checking the equilibrium equations."""
    b = BOOST
    D0, z20 = _value(stdout, "D0"), _value(stdout, "z20")
    problems = []
    if abs(b["z10"] * D0 * D0 - b["v0"] * D0 + b["z10"] * b["r"] / b["R"]) > 1e-9 * b["v0"]:
        problems.append(f"D0 = {D0} violates the duty-ratio equation")
    if not _close(z20, b["z10"] / (b["R"] * D0), 1e-12):
        problems.append(f"z20 = {z20} != z10 / (R D0)")
    return D0, z20, problems


# ------------------------------------------------------------ closed_loop

def _boost_linearization(R=BOOST["R"]):
    """A, B, P, S of the averaged boost converter with load R, linearized
    at x = 0, w = 0, u = 0 (output x1, no reference)."""
    b = BOOST
    D0, z20 = _boost_point(R)
    A = np.array([[-1.0 / (R * b["C"]), D0 / b["C"]], [-D0 / b["L"], -b["r"] / b["L"]]])
    B = np.array([[z20 / b["C"]], [-b["z10"] / b["L"]]])
    P = np.array([[0.0, -1.0 / b["C"], 0.0], [1.0 / b["L"], 0.0, 0.0]])
    a = b["alpha"]
    S = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, a], [0.0, -a, 0.0]])
    return A, B, P, S


def boost_gamma(R=BOOST["R"]):
    """Linear feedforward Gamma (1 x 3) of the boost converter with load R.

    The regulator equations Pi S = A Pi + B Gamma + P, C Pi = 0 with
    C = (1, 0) give a zero first row of Pi; its first equation then gives
    Gamma from the second row pi2, and the second equation leaves a 3x3
    linear system for pi2.
    """
    b = BOOST
    D0, z20 = _boost_point(R)
    S = _boost_linearization(R)[3]
    M = S + (b["r"] - b["z10"] * D0 / z20) / b["L"] * np.eye(3)
    rhs = np.array([1.0, -b["z10"] / z20, 0.0]) / b["L"]
    pi2 = np.linalg.solve(M.T, rhs)
    return ((np.array([0.0, 1.0, 0.0]) - D0 * pi2) / z20).reshape(1, 3)


def _lam53(xi):
    return xi @ boost_gamma()[0]


def _lam51(xi):
    return ((xi[:, 0] + xi[:, 1] - xi[:, 0] ** 4 + np.sin(xi[:, 0]))
            / (1 + xi[:, 0] ** 2))


def _field53(x, xi, w, u, e):
    """Closed-loop vector field of example53 (bc = 7.5, -0.29, 0.06)."""
    b = BOOST
    D0, z20 = _boost_point()
    a = b["alpha"]
    return np.column_stack([
        -x[:, 0] / (b["R"] * b["C"]) + (D0 + u) * x[:, 1] / b["C"] + z20 / b["C"] * u
        - w[:, 1] / b["C"],
        -(D0 + u) * x[:, 0] / b["L"] - b["r"] / b["L"] * x[:, 1] - b["z10"] / b["L"] * u
        + w[:, 0] / b["L"],
        7.5 * e, a * xi[:, 2] - 0.29 * e, -a * xi[:, 1] + 0.06 * e,
        0.0 * w[:, 0], a * w[:, 2], -a * w[:, 1]])


def _field51(x, xi, w, u, e):
    """Closed-loop vector field of example51 (bc = -0.2, -0.02)."""
    return np.column_stack([
        x[:, 1] - w[:, 0],
        -x[:, 0] - x[:, 1] - np.sin(x[:, 1]) + (1 + x[:, 1] ** 2) * u,
        xi[:, 1] - xi[:, 0] ** 4 - 0.2 * e, -xi[:, 0] ** 3 - 0.02 * e,
        w[:, 1] - w[:, 0] ** 4, -w[:, 0] ** 3])


EXAMPLES = {
    # name: (default dt, default ic as x + xi + w, n, nc, controller output
    # lambda(xi), closed-loop vector field)
    "example53": (1e-6, (5.0, 0.0, 0.0, 0.0, 0.0, 10.0, 0.8, 0.0), 2, 3, _lam53, _field53),
    "example51": (1e-4, (1.0, -1.0, 0.0, 0.0, 0.5, 0.25), 2, 2, _lam51, _field51),
}
# central differences of an RK4 trajectory match the vector field to
# O(dt^2); at the default dt both examples stay below 1e-7 relative
FIELD_RTOL = 1e-5
# the control column against lambda(xi) evaluated here: rounding only
CONTROL_RTOL = 1e-9


def _check_trajectory(name, T, dt, ic, path):
    n, nc, lam_fn, field_fn = EXAMPLES[name][2:]
    dim = len(ic)
    p = dim - n - nc
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(nc)]
              + [f"w{i + 1}" for i in range(p)] + ["e", "u"])

    def check(stdout, files):
        problems = _check_lines(stdout, ("simulation_finite",))
        rows = _load_csv(files[path], header)
        steps = int(round(T / dt))
        if rows.shape != (steps + 1, dim + 3):
            return problems + [f"trajectory shape {rows.shape}"]
        t, state, e = rows[:, 0], rows[:, 1:dim + 1], rows[:, dim + 1]
        if not np.all(np.isfinite(rows)):
            problems.append("non-finite trajectory entry")
        if not np.array_equal(state[0], np.array(ic)):
            problems.append("first row differs from the initial condition")
        if not np.array_equal(t, np.arange(steps + 1) * dt):
            problems.append("time column is not the uniform grid")
        if not np.array_equal(e, state[:, 0]):   # e = g - q = x1
            problems.append("error column differs from x1")
        k = max(1, int(round((T / 5.0) / (t[1] - t[0]))))
        if not _close(_value(stdout, "final_rms"), math.sqrt(np.mean(e[-k:] ** 2)), 1e-12):
            problems.append("final_rms does not match the trajectory")
        if not _close(_value(stdout, "peak"), np.max(np.abs(e)), 0.0):
            problems.append("peak does not match the trajectory")
        x, xi, w = state[:, :n], state[:, n:n + nc], state[:, n + nc:]
        u = lam_fn(xi)
        if not _close(rows[:, -1], u, CONTROL_RTOL):
            problems.append("control column differs from the controller output lambda(xi)")
        slope = (state[2:] - state[:-2]) / (2.0 * dt)
        vf = field_fn(x, xi, w, u, e)[1:-1]
        if np.any(np.abs(slope - vf) > FIELD_RTOL * np.max(np.abs(vf), axis=0)):
            problems.append("trajectory does not follow the closed-loop vector field")
        return problems
    return check


def closed_loop(seed, work):
    rng = random.Random(seed)
    jobs = []
    params = []
    for k in range(SIM_JOBS):
        for name, (dt, ic0, *_) in EXAMPLES.items():
            T = SIM_STEPS * dt
            radius = SIM_IC_BALL * (1.0 + max(abs(v) for v in ic0))
            ic = tuple(v + d for v, d in zip(ic0, _ball(rng, len(ic0), radius)))
            out = f"{work}/traj_{name}_{k}.csv"
            argv = ("simulate", name, "--T", _fmt(T), "--ic",
                    ",".join(_fmt(v) for v in ic), "--out", out)
            jobs.append(Job(argv, _check_trajectory(name, T, dt, ic, out), outputs=(out,)))
            params.append((name, ic))
    warmup = ("simulate", "example51", "--T", "0.01", "--out", f"{work}/warmup.csv")
    return Workload("closed_loop", tuple(jobs), {}, warmup, {"ics": params})


# ------------------------------------------------------------- boost_grid

def _check_grid(path):
    def check(stdout, files):
        D0, z20, problems = _boost_prelude(stdout)
        problems += _check_lines(stdout, ("boost_equilibrium", "boost_grid_converged",
                                          "boost_pde_residual"))
        rows = _load_csv(files[path], ["w1", "rho", "psi0", "converged", "iters"])
        if rows.shape != (GRID_CELLS, 5):
            return problems + [f"grid has {rows.shape[0]} cells, expected {GRID_CELLS}"]
        w1, rho, psi0, conv, iters = rows.T
        if not (np.all(conv == 1) and np.all(iters >= 1) and np.all(np.isfinite(psi0))):
            problems.append("unconverged or non-finite grid cell")
        # on rho = 0 the periodic orbit is the equilibrium psi1 = psi2
        r, z10 = BOOST["r"], BOOST["z10"]
        at0 = rho == 0.0
        b = r * z20 - w1[at0] - D0 * z10
        root = (-b - np.sqrt(b * b + 4.0 * r * z20 * w1[at0])) / (2.0 * r)
        if not _close(psi0[at0], root, 1e-9):
            problems.append("psi0 on rho = 0 is not the equilibrium")
        return problems
    return check


def boost_grid(seed, work):
    out = f"{work}/grid"
    path = f"{out}/psi0_grid.csv"
    job = Job(("boost", "--out", out), _check_grid(path), outputs=(path,))
    warmup = ("boost", "--out", f"{work}/warmup", "--grid-w1", "3", "--grid-rho", "3",
              "--ode-steps", "20")
    return Workload("boost_grid", (job,), {}, warmup, {}, calibrated=False)


# ------------------------------------------------------------ boost_cells

def _tag(v):
    return f"{v:g}".replace("-", "m").replace(".", "p")


def rho_max(w1):
    """Admissible radius bound of the boost regulator PDE at w1."""
    b = BOOST
    D0, z20 = _boost_point()
    lin = b["r"] * z20 - w1 - D0 * b["z10"]
    return min(b["beta"] * D0 * z20,
               lin * lin / (4.0 * b["r"] * b["z10"]) - z20 * abs(w1) / b["z10"])


def w1_max():
    D0, z20 = _boost_point()
    return D0 * BOOST["z10"] - BOOST["r"] * z20


def _check_cell(w1, rho, out):
    b = BOOST
    name = f"boost_cell_{_tag(w1)}_{_tag(rho)}"
    path = f"{out}/orbit_{_tag(w1)}_{_tag(rho)}.csv"

    def check(stdout, files):
        D0, z20, problems = _boost_prelude(stdout)
        problems += _check_lines(stdout, ("boost_equilibrium", name))
        psi0 = float(_checks(stdout)[name][1])
        rows = _load_csv(files[path], ["tau", "psi", "gamma"])
        if rows.shape != (ODE_STEPS + 1, 3):
            return problems + [f"orbit shape {rows.shape}"]
        tau, psi, gamma = rows.T
        if not np.array_equal(tau, np.linspace(0.0, 2.0 * math.pi, ODE_STEPS + 1)):
            problems.append("tau column is not the uniform grid")
        if psi[0] != psi0:
            problems.append("orbit does not start at psi0")
        if abs(psi[-1] - psi[0]) > 1e-6 * (1.0 + abs(psi0)):
            problems.append("orbit is not periodic")
        if not _close(gamma, (rho * np.cos(tau) - D0 * psi) / (psi + z20), 1e-12):
            problems.append("gamma column differs from the algebraic equation")
        # the orbit solves the circle ODE: central differences match the
        # right side to O(h^2), below 1e-5 relative on these circles
        rhs = ((b["r"] * psi * psi + (b["r"] * z20 - w1 - D0 * b["z10"]) * psi
                - z20 * w1 + b["z10"] * rho * np.cos(tau))
               / (b["alpha"] * b["L"] * (psi + z20)))
        h = tau[1] - tau[0]
        slope = (psi[2:] - psi[:-2]) / (2.0 * h)
        if np.max(np.abs(slope - rhs[1:-1])) > 1e-4 * (1.0 + np.max(np.abs(rhs))):
            problems.append("orbit does not solve the circle ODE")
        return problems
    return check, path


def boost_cells(seed, work):
    rng = random.Random(seed)
    wmax = w1_max()
    circles = [(0.0, 0.0)]
    for fw, fr in CELL_ANCHORS:
        w1 = wmax * (fw + rng.uniform(-CELL_JITTER, CELL_JITTER))
        rho = rho_max(w1) * min(0.95, fr + rng.uniform(-CELL_JITTER, CELL_JITTER))
        circles.append((w1, rho))
    jobs = []
    for i, (w1, rho) in enumerate(circles):
        out = f"{work}/cell{i:02d}"
        check, path = _check_cell(w1, rho, out)
        argv = ("boost", "--out", out, "--ode-steps", str(ODE_STEPS),
                "--cell", _fmt(w1), _fmt(rho))
        jobs.append(Job(argv, check, outputs=(path,)))
    warmup = ("boost", "--out", f"{work}/warmup", "--ode-steps", "20",
              "--cell", "0", "0.1")
    return Workload("boost_cells", tuple(jobs), {}, warmup, {"circles": circles})


# --------------------------------------------------------------- analysis

def _example52_family(omega, radius):
    """example52 with exosystem frequency omega; every check holds."""
    o, o2 = _fmt(omega), _fmt(2.0 * omega)
    return f"""\
[plant]
n = 2
f1 = x2 + x1^2 - w1^2
f2 = -x1 - x2 + u
g = x1

[reference]
q = 0

[exosystem]
p = 2
s1 = {o}*w2
s2 = -{o}*w1

[immersion]
nu = 3
tau1 = w1^2 + w2^2
tau2 = 2*w1*w2
tau3 = w1^2 - w2^2
phi1 = 0
phi2 = -{o2}*xi3
phi3 = {o2}*xi2
lam = 0.5*xi1 + {o}*xi2 + 0.5*xi3

[regulator_solution]
pi1 = 0
pi2 = w1^2
gamma = w1^2 + {o2}*w1*w2
radius = {_fmt(radius)}
"""


def _example51_family(k, radius):
    """example51 with the quartic exosystem scaled by k; the linearization,
    and so the shipped Bc, do not depend on k."""
    kk = _fmt(k)
    return f"""\
[plant]
n = 2
f1 = x2 - w1
f2 = -x1 - x2 - sin(x2) + (1 + x2^2)*u
g = x1

[reference]
q = 0

[exosystem]
p = 2
s1 = w2 - {kk}*w1^4
s2 = -{kk}*w1^3

[controller]
nc = 2
phi1 = xi2 - {kk}*xi1^4
phi2 = -{kk}*xi1^3
lam = (xi1 + xi2 - {kk}*xi1^4 + sin(xi1)) / (1 + xi1^2)
bc = -0.2, -0.02

[regulator_solution]
pi1 = 0
pi2 = w1
gamma = (w1 + w2 - {kk}*w1^4 + sin(w1)) / (1 + w1^2)
radius = {_fmt(radius)}
"""


def _boost_family(R):
    """Averaged boost converter with load R and no controller: verify and
    synthesize use the exosystem copy with the linear feedforward."""
    b = BOOST
    D0, z20 = _boost_point(R)
    g = _fmt
    f1 = (f"-x1/{g(R * b['C'])} + ({g(D0)} + u)*x2/{g(b['C'])}"
          f" + {g(z20 / b['C'])}*u - w2/{g(b['C'])}")
    f2 = (f"-({g(D0)} + u)*x1/{g(b['L'])} - {g(b['r'] / b['L'])}*x2"
          f" - {g(b['z10'] / b['L'])}*u + w1/{g(b['L'])}")
    a = g(b["alpha"])
    return f"""\
[plant]
n = 2
f1 = {f1}
f2 = {f2}
g = x1

[reference]
q = 0

[exosystem]
p = 3
s1 = 0
s2 = {a}*w3
s3 = -{a}*w2
"""


VERIFY_REGSOL = ("regulator_residual_dynamics", "regulator_residual_error")
VERIFY_IMMERSION = ("immersion_residual_dynamics", "immersion_residual_output")
VERIFY_BASE = ("plant_stable", "exosystem_spectrum_on_axis", "internal_model_detectable",
               "internal_model_spectrum_on_axis", "transfer_function_nonzero")
SYNTH = ("plant_stable", "internal_model_detectable", "transfer_function_nonzero",
         "internal_model_spectrum_on_axis", "synthesis")


def _linear52(omega):
    """(A, B, Phi, Lambda) at the origin of the example52 family."""
    return (np.array([[0.0, 1.0], [-1.0, -1.0]]), np.array([[0.0], [1.0]]),
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0 * omega], [0.0, 2.0 * omega, 0.0]]),
            np.array([[0.5, omega, 0.5]]))


def _linear51():
    """(A, B, Phi, Lambda) at the origin of the example51 family (any k)."""
    return (np.array([[0.0, 1.0], [-1.0, -2.0]]), np.array([[0.0], [1.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[2.0, 1.0]]))


def _linear_boost(R=BOOST["R"]):
    """(A, B, Phi, Lambda) of the boost converter with load R under the
    exosystem copy with the linear feedforward (example53 at R = 400)."""
    A, B, _, S = _boost_linearization(R)
    return A, B, S, boost_gamma(R)


def _check_analysis(required, out=None, linear=None):
    """CHECK lines; for synthesize also that the printed Bc makes the
    closed loop [[A, B Lambda], [Bc C, Phi]] Hurwitz, with the matrices
    `linear` = (A, B, Phi, Lambda) derived here in closed form (C = (1, 0),
    no feedthrough)."""
    def check(stdout, files):
        problems = _check_lines(stdout, required)
        if "synthesis" in required:
            m = re.search(r"^Bc = (.*)$", stdout, re.M)
            if m is None:
                return problems + ["no Bc line"]
            Bc = np.array([[float(v)] for v in m.group(1).split(",")])
            A, B, Phi, Lam = linear
            C = np.array([[1.0, 0.0]])
            A_cl = np.block([[A, B @ Lam], [Bc @ C, Phi]])
            if np.max(np.linalg.eigvals(A_cl).real) >= 0:
                problems.append("closed loop with the printed Bc is not Hurwitz")
            if out is not None:
                text = files[out].decode()
                if not text.startswith("[controller]\n"):
                    problems.append("controller file has no [controller] section")
                if f"\nbc = {m.group(1)}\n" not in text:
                    problems.append("controller file bc differs from the printed Bc")
        return problems
    return check


def _verify(path, required):
    return Job(("verify", path), _check_analysis(required))


def _synthesize(path, linear, out=None):
    argv = ("synthesize", path) + (("--out", out) if out else ())
    return Job(argv, _check_analysis(SYNTH, out, linear), outputs=(out,) if out else ())


def analysis(seed, work):
    rng = random.Random(seed)
    jobs = [
        _verify("example51", VERIFY_BASE + ("closed_loop_stable",) + VERIFY_REGSOL),
        _verify("example52", VERIFY_BASE + VERIFY_REGSOL + VERIFY_IMMERSION),
        _verify("example53", VERIFY_BASE + ("closed_loop_stable",)),
        _synthesize("example51", _linear51()),
        _synthesize("example52", _linear52(1.0)),
        _synthesize("example53", _linear_boost()),
    ]
    files = {}
    params = {"omega": [], "k": [], "R": []}
    for i in range(FAMILY_SIZE):
        omega, radius = rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.4)
        sys52 = f"{work}/ex52_{i:02d}.sys"
        files[sys52] = _example52_family(omega, radius)
        ctrl, both = f"{work}/ex52_{i:02d}_ctrl.sys", f"{work}/ex52_{i:02d}_closed.sys"
        jobs += [
            _verify(sys52, VERIFY_BASE + VERIFY_REGSOL + VERIFY_IMMERSION),
            _synthesize(sys52, _linear52(omega), ctrl),
            Job(("verify", both),
                _check_analysis(VERIFY_BASE + ("closed_loop_stable",) + VERIFY_REGSOL
                                + VERIFY_IMMERSION),
                concat=((both, (sys52, ctrl)),)),
        ]
        k, radius = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.3)
        sys51 = f"{work}/ex51_{i:02d}.sys"
        files[sys51] = _example51_family(k, radius)
        jobs += [
            _verify(sys51, VERIFY_BASE + ("closed_loop_stable",) + VERIFY_REGSOL),
            _synthesize(sys51, _linear51()),
        ]
        R = rng.uniform(300.0, 500.0)
        sysb = f"{work}/boost_{i:02d}.sys"
        files[sysb] = _boost_family(R)
        ctrl, both = f"{work}/boost_{i:02d}_ctrl.sys", f"{work}/boost_{i:02d}_closed.sys"
        jobs += [
            _verify(sysb, VERIFY_BASE + ("combined_pair_detectable",)),
            _synthesize(sysb, _linear_boost(R), ctrl),
            Job(("verify", both), _check_analysis(VERIFY_BASE + ("closed_loop_stable",)),
                concat=((both, (sysb, ctrl)),)),
        ]
        params["omega"].append(omega)
        params["k"].append(k)
        params["R"].append(R)
    warmup = ("verify", "example52")
    return Workload("analysis", tuple(jobs), files, warmup, params)


GENERATORS = {"closed_loop": closed_loop, "boost_grid": boost_grid,
              "boost_cells": boost_cells, "analysis": analysis}


def make(name, seed, work):
    """The workload `name` for `seed`, with its files under `work`."""
    return GENERATORS[name](seed, Path(work).as_posix())
