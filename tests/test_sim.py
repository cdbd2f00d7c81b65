import csv
import errno
import math
import os
import signal
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from regsyn import examples, expr, sim, sysfile
from regsyn.expr import EvalError, evaluate
from regsyn.model import (ControllerModel, ExosystemModel, PlantModel, w_names,
                          x_names, xi_names)
from regsyn.sim import (CSV_BLOCK_VALUES, DIVERGENCE_CAP, DivergenceError,
                        SimulationError, Trajectory, _certified_digits, _CsvWorker,
                        _write_csv, decay_metrics, simulate, write_trajectory_csv)

from helpers import assert_no_child_left, detect_period, exosystem_orbit


def _example(name):
    ex = examples.get(name)
    sf = ex.load()
    return sf, ex.default_ic


# ------------------------------------------------------ reference loops
# The straightforward RK4 loops that the generated kernel replaced, with
# every expression evaluated through expr.evaluate: the kernel must give
# the same bits and raise the same messages.

def _ref_fn(exprs, names):
    single = not isinstance(exprs, (list, tuple))
    items = [exprs] if single else list(exprs)

    def fn(*args):
        env = dict(zip(names, args))
        vals = tuple(evaluate(e, env) for e in items)
        return vals[0] if single else vals
    return fn


def _ref_simulate(plant, exo, ctrl, x0, xi0, w0, T, dt):
    n, nc, p = plant.n, ctrl.nc, exo.p
    steps = int(round(T / dt))
    xv, wv, cv = x_names(n), w_names(p), xi_names(nc)
    f_fn = _ref_fn(list(plant.f), xv + ("u",) + wv)
    h_fn = _ref_fn(plant.h, xv + ("u",) + wv)
    s_fn = _ref_fn(list(exo.s), wv)
    phi_fn = _ref_fn(list(ctrl.phi), cv)
    lam_fn = _ref_fn(ctrl.lam, cv)
    Bc = ctrl.Bc

    def deriv(state):
        x = state[:n]
        xi = state[n:n + nc]
        w = state[n + nc:]
        u = lam_fn(*xi)
        args = (*x, u, *w)
        fx = f_fn(*args)
        e = h_fn(*args)
        dphi = phi_fn(*xi)
        dxi = tuple(dphi[i] + Bc[i] * e for i in range(nc))
        return fx + dxi + s_fn(*w)

    dim = n + nc + p
    out = np.empty((steps + 1, dim))
    e_out = np.empty(steps + 1)
    u_out = np.empty(steps + 1)
    state = tuple(np.concatenate([x0, xi0, w0]).astype(float).tolist())
    half = dt / 2.0
    sixth = dt / 6.0
    for k in range(steps + 1):
        out[k] = state
        if not all(abs(v) <= DIVERGENCE_CAP for v in state):
            raise SimulationError(f"state diverged at t = {k * dt}")
        u_k = lam_fn(*state[n:n + nc])
        e_out[k] = h_fn(*state[:n], u_k, *state[n + nc:])
        u_out[k] = u_k
        if k == steps:
            break
        k1 = deriv(state)
        k2 = deriv(tuple(state[i] + half * k1[i] for i in range(dim)))
        k3 = deriv(tuple(state[i] + half * k2[i] for i in range(dim)))
        k4 = deriv(tuple(state[i] + dt * k3[i] for i in range(dim)))
        state = tuple(state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                      for i in range(dim))
    return out[:, :n], out[:, n:n + nc], out[:, n + nc:], e_out, u_out


def _ref_simulate_exosystem(exo, w0, T, dt):
    p = exo.p
    steps = int(round(T / dt))
    s_fn = _ref_fn(list(exo.s), w_names(p))
    out = np.empty((steps + 1, p))
    state = tuple(float(v) for v in w0)
    half, sixth = dt / 2.0, dt / 6.0
    for k in range(steps + 1):
        out[k] = state
        if k == steps:
            break
        k1 = s_fn(*state)
        k2 = s_fn(*(state[i] + half * k1[i] for i in range(p)))
        k3 = s_fn(*(state[i] + half * k2[i] for i in range(p)))
        k4 = s_fn(*(state[i] + dt * k3[i] for i in range(p)))
        state = tuple(state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                      for i in range(p))
    return out


# every operator and function of the grammar, with integer and fractional
# powers, bounded over the test horizon
_SYNTHETIC = """\
[plant]
n = 2
f1 = x2 - x1/(2 + cos(x2)) + 0.1*abs(w1)^1.5 - 0.05*x1^3
f2 = -x1 - tan(x2/4) + 0.5*(exp(x1) - 1) + 0.1*(sqrt(1 + abs(x2) + x1^2) - 1) + u
g = x1 + 0.2*(1 - cos(pi*x2))

[reference]
q = w1/2

[exosystem]
p = 2
s1 = pi*w2
s2 = -pi*w1

[controller]
nc = 2
phi1 = xi2
phi2 = -xi1 - xi2^3 + abs(xi1)^2.5 - xi2/(1 + xi1^2)^2
lam = -xi1/(1 + xi2^2) + 0.1*tan(xi2)
bc = -0.5, 0.25
"""


@pytest.mark.parametrize("name", ["example51", "example53", "synthetic"])
def test_kernel_matches_reference_loop(name, tmp_path):
    if name == "synthetic":
        sf = sysfile.parse_text(_SYNTHETIC, "synthetic.sys")
        ic, T, dt = ((0.4, -0.3), (0.2, -0.1), (0.3, 0.1)), 2.0, 1e-3
    else:
        ex = examples.get(name)
        sf, ic, T, dt = ex.load(), ex.default_ic, 2000 * ex.default_dt, ex.default_dt
    traj = simulate(sf.plant, sf.exo, sf.controller, *ic, T=T, dt=dt)
    ref = _ref_simulate(sf.plant, sf.exo, sf.controller, *ic, T=T, dt=dt)
    # one table in CSV column order, equal byte for byte (signs of zero too)
    table = np.column_stack([np.arange(2001) * dt, *ref])
    assert traj.table.flags.c_contiguous and traj.table.tobytes() == table.tobytes()
    for view in (traj.t, traj.x, traj.xi, traj.w, traj.e, traj.u):
        assert view.base is traj.table
    assert np.all(np.isfinite(traj.x)) and np.any(traj.x[-1] != traj.x[0])
    assert np.array_equal(traj.w, _ref_simulate_exosystem(sf.exo, ic[2], T=T, dt=dt))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = ["t", *x_names(sf.plant.n), *xi_names(sf.controller.nc), *w_names(sf.exo.p),
              "e", "u"]
    assert path.read_bytes() == _reference_csv(header, table)


def test_simulate_holds_one_table():
    # the kernel packs every row into the table and t is written into its
    # first column, so no second copy of any column is made.  A one-state
    # loop keeps the floats that tracemalloc traces per step few.
    plant = PlantModel.from_strings(["-x1 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    simulate(plant, exo, ctrl, (1.0,), (0.0,), (0.0,), T=0.1, dt=1e-2)   # warm caches
    steps = 20000
    tracemalloc.start()
    try:
        traj = simulate(plant, exo, ctrl, (1.0,), (0.0,), (0.0,), T=steps * 1e-3, dt=1e-3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 8 * (steps + 1) * (1 + 1 + 1 + 3)
    assert traj.table.nbytes == table
    # besides the table: np.arange's int64 column, and the kernel's
    # source and code while it is compiled
    assert held <= table + 16e3 and peak <= table + 8 * (steps + 1) + 128e3


@pytest.mark.parametrize("f1, x1, message", [
    ("-x1 + u + 1/(x1 - 1) + 1", 1.0, "division by zero"),
    ("-x1 + u + sqrt(1 + x1) - 1", -2.0, "sqrt of negative value -1.0"),
    ("-x1 + u + x1^400", 10.0, "Numerical result out of range"),
    ("-x1 + u + abs(x1)^2.5 + x1^2.5", -1.0, "fractional power of negative base"),
])
def test_kernel_domain_errors_match_evaluate(f1, x1, message):
    plant = PlantModel.from_strings([f1], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    with pytest.raises(EvalError) as got:
        simulate(plant, exo, ctrl, (x1,), (0.0,), (0.0,), T=0.1, dt=1e-2)
    with pytest.raises(EvalError) as want:
        _ref_simulate(plant, exo, ctrl, (x1,), (0.0,), (0.0,), T=0.1, dt=1e-2)
    with pytest.raises(EvalError) as direct:
        evaluate(plant.f[0], {"x1": x1, "u": 0.0, "w1": 0.0})
    assert str(got.value) == str(want.value) == str(direct.value)
    assert message in str(got.value)


def test_kernel_raises_first_error_in_evaluation_order():
    # f1 and f2 both fail in stage 1; the reference evaluates f1 first
    plant = PlantModel.from_strings(["-x1 + u + sqrt(1 + x1) - 1", "-x2 + 1/(x2 - 1) + 1"],
                                    "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    args = ((-2.0, 1.0), (0.0,), (0.0,))
    with pytest.raises(EvalError) as got:
        simulate(plant, exo, ctrl, *args, T=0.1, dt=1e-2)
    with pytest.raises(EvalError) as want:
        _ref_simulate(plant, exo, ctrl, *args, T=0.1, dt=1e-2)
    assert str(got.value) == str(want.value) == "sqrt of negative value -1.0"


def test_zero_initial_state_stays_zero():
    sf, _ = _example("example51")
    traj = simulate(sf.plant, sf.exo, sf.controller,
                    (0, 0), (0, 0), (0, 0), T=1.0, dt=1e-3)
    assert not np.any(traj.x)
    assert not np.any(traj.e)
    assert not np.any(traj.u)
    assert decay_metrics(traj, 0.2) == (0.0, 0.0, 0.0)


def test_kernel_cache_is_keyed_on_source(monkeypatch):
    # controllers that compare equal (Bc 0.0 and -0.0) generate different
    # source and give different bits; each run matches the reference loop,
    # and a repeated system reuses its compiled kernel
    plant = PlantModel.from_strings(["-x1 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    pos, neg = (ControllerModel.from_strings(["xi1"], "xi1", [b]) for b in (0.0, -0.0))
    assert pos == neg
    defined = []
    real_define = sim._define

    def define(*args, **kwargs):
        defined.append(args[2])
        return real_define(*args, **kwargs)

    monkeypatch.setattr(sim, "_define", define)
    sim._compiled_kernel.cache_clear()
    args = ((0.0,), (-0.0,), (0.0,))
    runs = [simulate(plant, exo, ctrl, *args, T=0.01, dt=1e-3) for ctrl in (pos, neg, pos)]
    assert len(defined) == 2 and defined[0] != defined[1]
    bits = [traj.table.view(np.int64) for traj in runs]
    assert not np.array_equal(bits[0], bits[1])
    assert np.array_equal(bits[0], bits[2])
    for traj, ctrl in zip(runs, (pos, neg)):
        _, ref_xi, _, _, _ = _ref_simulate(plant, exo, ctrl, *args, T=0.01, dt=1e-3)
        assert np.array_equal(traj.xi.view(np.int64), np.asarray(ref_xi).view(np.int64))
    assert sim._compiled_kernel.cache_info().maxsize == sim.KERNEL_CACHE_SIZE


def test_trajectory_shape_and_grid():
    sf, ic = _example("example51")
    traj = simulate(sf.plant, sf.exo, sf.controller, *ic, T=0.5, dt=1e-3)
    assert len(traj.t) == 501
    assert traj.x.shape == (501, 2)
    assert traj.xi.shape == (501, 2)
    assert traj.w.shape == (501, 2)
    assert traj.t[-1] == pytest.approx(0.5)
    assert np.all(np.isfinite(traj.x))


def test_determinism():
    sf, ic = _example("example51")
    a = simulate(sf.plant, sf.exo, sf.controller, *ic, T=0.5, dt=1e-3)
    b = simulate(sf.plant, sf.exo, sf.controller, *ic, T=0.5, dt=1e-3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.e, b.e)


def test_error_decays_quartic_example():
    sf, ic = _example("example51")
    traj = simulate(sf.plant, sf.exo, sf.controller, *ic, T=60.0, dt=1e-3)
    final_rms, peak, settle = decay_metrics(traj, window=12.0)
    assert peak > 0.5
    assert settle <= 0.02


def test_tracking_property_quartic_example():
    # || x(t) - pi(w(t)) || at the final time below 1% of its initial value
    sf, ic = _example("example51")
    traj = simulate(sf.plant, sf.exo, sf.controller, *ic, T=80.0, dt=1e-3)
    dev = traj.x - np.column_stack([np.zeros(len(traj.t)), traj.w[:, 0]])
    d = np.linalg.norm(dev, axis=1)
    assert d[-1] < 0.01 * d[0]


def test_tracking_property_oscillator_example():
    from regsyn import model, synth, sysfile
    sf, _ = _example("example52")
    lin = model.linearize(sf.plant, sf.exo)
    ctrl_base = ControllerModel(sf.immersion.phi, sf.immersion.lam, (0.0, 0.0, 0.0))
    rep = synth.synthesize(lin, synth.InternalModel.from_controller(ctrl_base))
    assert rep.success
    ctrl = ControllerModel(ctrl_base.phi, ctrl_base.lam,
                           tuple(float(v) for v in rep.Bc.ravel()))
    T = 9.0 / abs(rep.abscissa)
    traj = simulate(sf.plant, sf.exo, ctrl, (0.2, -0.2), (0, 0, 0), (0.2, 0.1),
                    T=T, dt=0.02)
    dev = traj.x - np.column_stack([np.zeros(len(traj.t)), traj.w[:, 0] ** 2])
    d = np.linalg.norm(dev, axis=1)
    assert d[-1] < 0.01 * d[0]


def test_unstable_loop_does_not_settle():
    # Bc = 0 leaves the oscillator internal state undamped: with a nonzero
    # controller state the forcing never decays
    sf, _ = _example("example52")
    ctrl = ControllerModel.from_strings(["0", "-2*xi3", "2*xi2"],
                                        "0.5*xi1 + xi2 + 0.5*xi3",
                                        [0.0, 0.0, 0.0])
    traj = simulate(sf.plant, sf.exo, ctrl, (0, 0), (0.0, 0.5, 0.0), (0, 0),
                    T=40.0, dt=1e-2)
    _, _, settle = decay_metrics(traj, window=8.0)
    assert settle > 0.5


def test_divergence_cap():
    plant = PlantModel.from_strings(["x1 * 2 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    with pytest.raises(DivergenceError) as got:
        simulate(plant, exo, ctrl, (1.0,), (0.0,), (0.0,), T=20.0, dt=1e-2)
    with pytest.raises(SimulationError) as want:
        _ref_simulate(plant, exo, ctrl, (1.0,), (0.0,), (0.0,), T=20.0, dt=1e-2)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("state diverged at t = ")
    assert str(got.value) == f"state diverged at t = {got.value.t}"


@pytest.mark.parametrize("x0", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.nan)])
def test_divergence_cap_catches_nan(x0):
    # max() drops a NaN after the first component; the cap must not
    plant = PlantModel.from_strings(["x2", "-x1 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    with pytest.raises(DivergenceError) as got:
        simulate(plant, exo, ctrl, x0, (0.0,), (0.0,), T=1.0, dt=1e-2)
    with pytest.raises(SimulationError) as want:
        _ref_simulate(plant, exo, ctrl, x0, (0.0,), (0.0,), T=1.0, dt=1e-2)
    assert got.value.t == 0.0
    assert str(got.value) == str(want.value)


def test_divergence_cap_precedes_the_row_outputs():
    # e = sqrt(1 + x1) - 1 fails at x1 < -1, but a state past the cap is
    # reported as divergence before the row's u and e are evaluated
    plant = PlantModel.from_strings(["0"], "sqrt(1 + x1) - 1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    with pytest.raises(DivergenceError) as got:
        simulate(plant, exo, ctrl, (-2 * DIVERGENCE_CAP,), (0.0,), (0.0,), T=1.0, dt=0.1)
    assert got.value.t == 0.0


@pytest.mark.parametrize("ic, T, dt, t", [
    # row 252 is bounded (|w1| = 2999), the stage-2 input of the next step
    # is 4e10 and w1^4 overflows in stage 3
    (((-1.0, -1.0), (-1.0, -1.0), (-1.0, -1.0)), 1.0, 1e-3, 0.253),
    # one giant step from the default initial condition
    (None, 1e300, 1e300, 1e300),
])
def test_overflow_after_a_stage_leaves_the_cap_is_divergence(ic, T, dt, t):
    sf, default_ic = _example("example51")
    args = (sf.plant, sf.exo, sf.controller, *(ic or default_ic))
    with pytest.raises(EvalError, match="Numerical result out of range"):
        _ref_simulate(*args, T=T, dt=dt)
    with pytest.raises(DivergenceError) as got:
        simulate(*args, T=T, dt=dt)
    assert got.value.t == t


def test_stage_past_the_cap_without_error_runs_on():
    # at dt*25 = 2.5 the stage-4 input of each step is -2.28 times the
    # state, past the cap on the first steps, but the steps themselves
    # contract: only a step that fails is checked stage by stage
    plant = PlantModel.from_strings(["-25*x1 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    args = (plant, exo, ctrl, (0.9 * DIVERGENCE_CAP,), (0.0,), (0.0,))
    traj = simulate(*args, T=1.0, dt=0.1)
    ref = _ref_simulate(*args, T=1.0, dt=0.1)
    for got, want in zip((traj.x, traj.xi, traj.w, traj.e, traj.u), ref):
        assert np.array_equal(got, want)
    assert 2.28 * abs(traj.x[0, 0]) > DIVERGENCE_CAP


# a sqrt that fails once the unstable state passes x1 = 1, mid-run
_SQRT_LOOP = ("x1 + sqrt(1 - x1) - 1 + u", (0.1,), (0.0,), (0.0,), 10.0, 0.01)


@pytest.mark.parametrize("rows", [1, 2, 7, 252, 253, 254, 2001])
def test_kernel_blocks_keep_every_bit(monkeypatch, rows):
    # the kernel runs a CSV block of rows per call, each from the packed
    # last row of the call before: a run, a divergence located by the
    # stage-checked re-run at row 253 and an evaluation error give the
    # results of one call whatever the block, boundary rows included
    sf, ic = _example("example51")
    cases = [(sf.plant, sf.exo, sf.controller, *ic, 2.0, 1e-3),
             (sf.plant, sf.exo, sf.controller, (-1.0, -1.0), (-1.0, -1.0), (-1.0, -1.0),
              1.0, 1e-3)]
    f1, *sqrt_args = _SQRT_LOOP
    sqrt_case = (PlantModel.from_strings([f1], "x1", "0", 1),
                 ExosystemModel.from_strings(["0"]),
                 ControllerModel.from_strings(["0"], "xi1", [0.0]), *sqrt_args)

    def outcomes():
        traj = simulate(*cases[0])
        with pytest.raises(DivergenceError) as diverged:
            simulate(*cases[1])
        with pytest.raises(EvalError) as failed:
            simulate(*sqrt_case)
        return traj.table.tobytes(), diverged.value.t, str(failed.value)

    whole = outcomes()
    assert whole[1] == 0.253 and whole[2].startswith("sqrt of negative value ")
    monkeypatch.setattr(sim, "CSV_BLOCK_VALUES", 9 * rows)
    assert sim._block_rows(9) == rows
    assert outcomes() == whole


def _ended(child):
    """How a _Children process running child() ended, as (si_code,
    si_status) read before wait() reaps it.  A fork that returns into this
    code in the child ends the child with status 7."""
    parent = os.getpid()
    with sim._Children() as children:
        try:
            children.fork(child)
        finally:
            if os.getpid() != parent:
                os._exit(7)
        end = os.waitid(os.P_PID, children.pids[0], os.WEXITED | os.WNOWAIT)
        children.wait()
        assert children.pids == []
    assert_no_child_left()
    return end.si_code, end.si_status


def _fail_in_child():
    raise RuntimeError("child failed")


@pytest.mark.parametrize("child, end", [
    (lambda: None, (os.CLD_EXITED, 0)),
    (_fail_in_child, (os.CLD_EXITED, 1)),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), (os.CLD_KILLED, signal.SIGKILL)),
], ids=["returns", "raises", "sigkilled"])
def test_child_leaves_through_its_exit(child, end):
    # a child that returns exits 0 and one that raises exits 1, neither
    # into the caller's code; one killed is reaped all the same
    assert _ended(child) == end


def test_failed_fork_raises(monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with sim._Children() as children:
        with pytest.raises(OSError, match="Resource temporarily"):
            children.fork(pytest.fail, "forked")
        assert children.pids == []


def test_caller_exception_kills_children():
    # the caller fails while its children would run for a minute: they
    # are killed and reaped before the exception leaves the `with`
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="caller failed"):
        with sim._Children() as children:
            for _ in range(2):
                children.fork(time.sleep, 60)
            raise RuntimeError("caller failed")
    assert time.monotonic() - start < 30 and children.pids == []
    assert_no_child_left()


def _open_fds():
    """This process's open descriptors, or None where /proc does not list them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def encoder_on(monkeypatch, tmp_path):
    """Fork the encoder for any table of a block or more, on any machine,
    and log each _write_csv call: whether the calling process made it, the
    rows whose text it copied and the bytes of that text.  No child and,
    where /proc lists them, no more descriptors than before are left."""
    monkeypatch.setattr(sim, "ENCODER_BLOCKS", 1)
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    log = tmp_path / "writes.log"
    caller, write = os.getpid(), sim._write_csv

    def spy(path, header, table, start=0, text=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid() == caller} {start} {text[1] if text else 0}\n")
        write(path, header, table, start, text)

    monkeypatch.setattr(sim, "_write_csv", spy)
    fds = _open_fds()
    yield lambda: log.read_text().splitlines() if log.exists() else []
    assert_no_child_left()
    assert _open_fds() == fds


def _rows_of(name, rows):
    """simulate's arguments for rows rows of a built-in at its defaults."""
    sf, ic = _example(name)
    dt = examples.get(name).default_dt
    return (sf.plant, sf.exo, sf.controller, *ic, (rows - 1) * dt, dt)


def _encoded(name, rows, tmp_path, cap=2**30):
    """The trajectory of rows rows, written with the encoder process and
    without it: (table bytes, CSV bytes) of each."""
    args = _rows_of(name, rows)
    plain = simulate(*args)
    write_trajectory_csv(plain, tmp_path / "plain.csv")
    with _CsvWorker(cap) as worker:
        traj = simulate(*args, encoder=worker)
        assert len(traj.t) == rows
        write_trajectory_csv(traj, tmp_path / "encoded.csv", worker)
    assert_no_child_left()
    return ((plain.table.tobytes(), (tmp_path / "plain.csv").read_bytes()),
            (traj.table.tobytes(), (tmp_path / "encoded.csv").read_bytes()))


def _copied(csv_bytes, rows):
    """The log line of a write that copied the text of a CSV's first rows."""
    return f"True {rows} {len(b''.join(csv_bytes.splitlines(keepends=True)[1:1 + rows]))}"


@pytest.mark.parametrize("name", ["example51", "example53"])
@pytest.mark.parametrize("size", ["one block", "a block and a row", "2.5 blocks", "4001 rows"])
def test_encoder_writes_the_callers_bytes(tmp_path, encoder_on, name, size):
    block = sim._block_rows(9 if name == "example51" else 11)
    rows = {"one block": block, "a block and a row": block + 1,
            "2.5 blocks": 5 * block // 2, "4001 rows": 4001}[size]
    plain, encoded = _encoded(name, rows, tmp_path)
    assert encoded == plain
    # the caller wrote both files, the second from the child's text of
    # every row: the last kernel call leaves the last row final too
    assert encoder_on() == ["True 0 0", _copied(plain[1], rows)]


@pytest.mark.parametrize("name", ["example51", "example53"])
def test_encoder_holds_at_most_its_cap(tmp_path, encoder_on, name):
    # the text of the first block fits, that of the first two does not
    block = sim._block_rows(9 if name == "example51" else 11)
    first = sim._encode_rows(simulate(*_rows_of(name, block)).table)
    plain, encoded = _encoded(name, 4001, tmp_path, cap=len(first) + 10)
    assert encoded == plain
    assert encoder_on() == ["True 0 0", _copied(plain[1], block)]


def _wait_for_text(worker, size):
    """Wait, at most 30 s, until the child's memory file holds size bytes."""
    deadline = time.monotonic() + 30
    while os.fstat(worker.text).st_size < size:
        assert time.monotonic() < deadline
        time.sleep(1e-3)


@pytest.mark.parametrize("when", ["before its first block", "mid-run", "at commit"])
def test_encoder_killed_falls_back_to_the_caller(tmp_path, monkeypatch, encoder_on, when):
    # SIGKILL at the first ready(), or at the third once the child wrote
    # the text of two blocks: it dies before its record, so the caller
    # encodes every row itself.  At the commit the child is killed once it
    # exited, its record sent: the caller copies the text of every row
    block = sim._block_rows(11)
    two_blocks = len(sim._encode_rows(simulate(*_rows_of("example53", 2 * block)).table))
    name = "encoded" if when == "at commit" else "ready"
    at = {"before its first block": 1, "mid-run": 3, "at commit": 1}[when]
    method, calls = getattr(_CsvWorker, name), []

    def kill_then(self, *args):
        calls.append(self.pids[0])
        if len(calls) == at:
            if when == "mid-run":
                _wait_for_text(self, two_blocks)
            elif when == "at commit":
                os.waitid(os.P_PID, self.pids[0], os.WEXITED | os.WNOWAIT)
            os.kill(self.pids[0], signal.SIGKILL)
        return method(self, *args)

    monkeypatch.setattr(_CsvWorker, name, kill_then)
    plain, encoded = _encoded("example53", 4001, tmp_path)
    assert encoded == plain and len(calls) >= at
    assert encoder_on() == ["True 0 0", _copied(plain[1], 4001 if when == "at commit" else 0)]


def test_encoder_fork_failure_falls_back_to_the_caller(tmp_path, monkeypatch, encoder_on):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    plain, encoded = _encoded("example51", 4001, tmp_path)
    assert encoded == plain
    assert encoder_on() == ["True 0 0", "True 0 0"]


@pytest.mark.parametrize("memfd", ["fails", "missing"])
def test_encoder_without_a_memory_file_starts_no_process(tmp_path, monkeypatch, encoder_on,
                                                         memfd):
    def no_memfd(*args):
        raise OSError(24, "Too many open files")

    if memfd == "fails":
        monkeypatch.setattr(os, "memfd_create", no_memfd)
    else:
        monkeypatch.delattr(os, "memfd_create", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    plain, encoded = _encoded("example53", 4001, tmp_path)
    assert encoded == plain
    assert encoder_on() == ["True 0 0", "True 0 0"]


@pytest.mark.parametrize("sendfile", ["short", "unsupported"])
def test_encoder_text_copied_in_pieces_or_by_reads(tmp_path, monkeypatch, encoder_on,
                                                   sendfile):
    # sendfile may send fewer bytes than asked, and a device without
    # splice support (/dev/full, say) takes none: the bytes are the same
    def short(out_fd, in_fd, offset, count):
        return os_sendfile(out_fd, in_fd, offset, min(count, 1000))

    def unsupported(*args):
        raise OSError(errno.EINVAL, "Invalid argument")

    os_sendfile = os.sendfile
    monkeypatch.setattr(os, "sendfile", short if sendfile == "short" else unsupported)
    plain, encoded = _encoded("example53", 4001, tmp_path)
    assert encoded == plain
    assert encoder_on() == ["True 0 0", _copied(plain[1], 4001)]


def test_encoder_stops_where_its_pipe_ends(encoder_on):
    # ready() names two blocks and three rows of a 5-block table final,
    # then the commit closes the pipe while the child waits for the third
    # block's rows: its text is that of the first two blocks
    header = sim._csv_header(4, 2, 2)
    block = sim._block_rows(len(header))
    with _CsvWorker(2**30) as worker:
        tab = worker.table(5 * block, header)
        assert len(worker.pids) == 1
        tab[:] = np.random.default_rng(0).standard_normal(tab.shape)
        worker.ready(2 * block + 3)
        rows, size = worker.encoded()
        assert rows == 2 * block
        assert os.pread(worker.text, size + 1, 0) == sim._encode_rows(tab[:2 * block])
    assert encoder_on() == []


def test_encoder_writes_nothing_for_a_failed_run(tmp_path, encoder_on, monkeypatch):
    # the kernel stops on an evaluation error or a divergence after the
    # child was sent blocks: nothing is written, and the child is gone
    monkeypatch.setattr(sim, "CSV_BLOCK_VALUES", 60)
    sent = []
    ready = _CsvWorker.ready
    monkeypatch.setattr(_CsvWorker, "ready", lambda self, rows: (sent.append(rows),
                                                                 ready(self, rows)))
    f1, *args = _SQRT_LOOP
    loop = (PlantModel.from_strings([f1], "x1", "0", 1), ExosystemModel.from_strings(["0"]),
            ControllerModel.from_strings(["0"], "xi1", [0.0]))
    sf, _ = _example("example51")
    for system, args, error in (
            (loop, args, EvalError),
            ((sf.plant, sf.exo, sf.controller), ((-1.0, -1.0), (-1.0, -1.0), (-1.0, -1.0),
                                                  1.0, 1e-3), DivergenceError)):
        sent.clear()
        with pytest.raises(error):
            with _CsvWorker(2**30) as worker:
                simulate(*system, *args, encoder=worker)
        assert len(sent) > 3 and worker.pids == []
        assert_no_child_left()
    assert encoder_on() == []


def test_bad_grid_rejected():
    sf, ic = _example("example51")
    with pytest.raises(SimulationError):
        simulate(sf.plant, sf.exo, sf.controller, *ic, T=1.0, dt=0.0)
    with pytest.raises(SimulationError):
        simulate(sf.plant, sf.exo, sf.controller, *ic, T=1e-4, dt=1e-3)
    for T, dt in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan)):
        with pytest.raises(SimulationError, match="need finite dt"):
            simulate(sf.plant, sf.exo, sf.controller, *ic, T=T, dt=dt)


def test_rk4_order_factor():
    # error vs a dt/8 reference shrinks by ~16x when dt halves
    plant = PlantModel.from_strings(["x2", "-sin(x1) - 0.2*x2 + u"], "x1", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])

    def final_state(dt):
        traj = simulate(plant, exo, ctrl, (1.0, 0.5), (0.0,), (0.0,), T=2.0, dt=dt)
        return traj.x[-1]

    ref = final_state(2.0 / 1600)
    e1 = np.linalg.norm(final_state(2.0 / 200) - ref)
    e2 = np.linalg.norm(final_state(2.0 / 400) - ref)
    factor = e1 / e2
    assert 12.0 <= factor <= 20.0


def test_exosystem_periodicity_quartic():
    sf, _ = _example("example51")
    t, w = exosystem_orbit(sf.exo, (0.0, 0.25), T=40.0, dt=1e-3)
    period = detect_period(t, w, tol=1e-3)
    assert period is not None
    k = int(round(period / 1e-3))
    assert np.linalg.norm(w[k] - w[0]) < 1e-3
    # amplitude bounds along the periodic orbit
    assert np.max(np.abs(w[:, 0])) <= 0.25 ** 0.25 + 1e-6
    assert np.max(np.abs(w[:, 1])) == pytest.approx(0.25, abs=1e-6)


def test_harmonic_oscillator_period():
    exo = ExosystemModel.from_strings(["w2", "-w1"])
    t, w = exosystem_orbit(exo, (1.0, 0.0), T=10.0, dt=1e-3)
    period = detect_period(t, w, tol=1e-3)
    assert period == pytest.approx(2 * math.pi, abs=1e-4)


def test_detect_period_none_for_nonreturning():
    exo = ExosystemModel.from_strings(["w1 * 0"])  # constant; never leaves
    t, w = exosystem_orbit(exo, (1.0,), T=1.0, dt=1e-2)
    assert detect_period(t, w, tol=1e-3) is None


def test_trajectory_csv(tmp_path):
    sf, ic = _example("example51")
    traj = simulate(sf.plant, sf.exo, sf.controller, *ic, T=0.01, dt=1e-3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,xi1,xi2,w1,w2,e,u"
    assert len(lines) == len(traj.t) + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[1] == 1.0 and row[2] == -1.0
    assert row[5] == 0.5 and row[6] == 0.25
    # 17 significant digits round-trip exactly
    row_last = [float(v) for v in lines[-1].split(",")]
    assert row_last[1] == traj.x[-1, 0]


def _reference_csv(header, table):
    """The bytes of a CSV written with one "%.17g" % v per value."""
    rows = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return "".join(row + "\r\n" for row in rows).encode()


@pytest.mark.filterwarnings("error")
def test_block_csv_matches_csv_writer(tmp_path):
    # the rows a csv.writer with one f"{v:.17g}" per value wrote, for values
    # that format specially and for a table spanning several blocks
    special = [0.0, -0.0, 1e-310, -1.5e300, math.inf, -math.inf, math.nan,
               -math.nan, 0.1 + 0.2, 2.0 ** 53 + 1, -7.0, 2.0 ** 60,
               # literals at 17 nines, and doubles just below a power of ten
               # whose 17 digits carry to it
               99999999999999999.0, 0.99999999999999999, 9.9999999999999999e-5,
               -9.99999999999999999e22, 0.099999999999999999, 1e-79, 1e98, 1e129,
               # the ends of fixed notation, and 3-digit exponents
               1e-5, 1e-4, 1.5e-5, 1.5e-4, 1e16, 1e17, 1.5e16, 1.5e17,
               1e-100, -2.5e-123, 1e100, 6.02e299, 1e279, 1e281,
               # an exact tie, which rounds half to even
               1000000000000000.25, 1000000000000000.75]
    a = np.array(special * 100)
    b = np.column_stack([a[::-1], np.arange(len(a), dtype=float)])
    assert len(a) * 3 > 2 * CSV_BLOCK_VALUES
    path = tmp_path / "block.csv"
    _write_csv(path, ["a", "b1", "b2"], np.column_stack([a, b]))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b1", "b2"])
        for row in np.column_stack([a, b]):
            writer.writerow([f"{v:.17g}" for v in row])
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.filterwarnings("error")
def test_csv_matches_percent_format_on_random_bits(tmp_path):
    # 10**5 random float64 bit patterns, and each power of ten with its
    # two neighbours: certified digits and the per-value fallback both
    # give the bytes of "%.17g" % v
    bits = np.random.default_rng(2019).integers(0, 2**64, 10**5, dtype=np.uint64)
    powers = 10.0 ** np.arange(-300, 300)
    values = np.concatenate([bits.view(np.float64), powers,
                             np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    table = values.reshape(-1, 4)
    path = tmp_path / "bits.csv"
    _write_csv(path, list("abcd"), table)
    assert path.read_bytes() == _reference_csv(list("abcd"), table)
    _, _, ok = _certified_digits(values)
    fallback = ~ok & (values != 0.0)
    in_range = (np.abs(values) > 1e-280) & (np.abs(values) < 1e280)
    assert np.count_nonzero(ok) > 9 * 10**4
    assert np.count_nonzero(fallback & ~in_range) > 9000
    # log10 rounds a double just below 10**k up to k; the retry at E - 1
    # certifies each one in range but an exact tie, which "%" rounds half
    # to even
    below = np.nextafter(powers, 0.0)
    below = below[(below > 1e-280) & (below < 1e280)]
    with localcontext(prec=1000):
        ties = [v for v in below.tolist()
                if Decimal(v).scaleb(16 - Decimal(v).adjusted()) % 1 == Decimal("0.5")]
    assert below[~_certified_digits(below)[2]].tolist() == ties == [999999999999999.875]


@pytest.mark.parametrize("values, retried, scientific, fallback", [
    # log10 rounds 99999.999999999985 up to 5, so D falls below 10**16
    pytest.param([np.nextafter(1e5, 0.0)], True, False, False, id="exponent-retry"),
    pytest.param([-1.5e-123], False, True, False, id="scientific"),
    pytest.param([1e-310], False, False, True, id="per-value-fallback"),
    pytest.param([0.5, -3.0, 123.25, 0.0], False, False, False, id="none"),
])
def test_encode_rows_takes_each_branch_only_when_needed(monkeypatch, values, retried,
                                                         scientific, fallback):
    # the E - 1 retry, the exponent slots and the "%" fallback each run
    # only for a table that needs them, and every row is "%.17g" % v
    calls = []

    def scaled(a, E):
        calls.append(a.size)
        return real_scaled(a, E)

    real_scaled = sim._scaled
    monkeypatch.setattr(sim, "_scaled", scaled)
    v = np.array(values)
    assert sim._encode_rows(v.reshape(1, -1)) == b",".join(b"%.17g" % x for x in v) + b"\r\n"
    assert len(calls) == (2 if retried else 1)
    _, E, ok = _certified_digits(v)
    assert bool(np.any(ok & ((E < -4) | (E >= 17)))) == scientific
    assert bool(np.any(~ok & (v != 0.0))) == fallback


def test_csv_writer_memory(tmp_path):
    # a 4001 x 11 table is encoded a block at a time: the writer's peak
    # allocation stays near one block's arrays, not a copy of the table
    rng = np.random.default_rng(7)
    table = rng.standard_normal((4001, 11)) * 10.0 ** rng.uniform(-8, 8, (4001, 11))
    header = [f"c{i}" for i in range(11)]
    _write_csv(tmp_path / "warm.csv", header, table)
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "table.csv", header, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
