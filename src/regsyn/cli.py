"""Command line front end.

Subcommands: verify (check the regulation hypotheses and any supplied
regulator/immersion candidates), synthesize (construct the controller
input vector and emit a controller file), simulate (integrate the closed
loop and report decay metrics), boost (solve the converter regulator PDE
on characteristic circles) and example (list or dump the built-in
systems).  Machine-readable result lines have the form
`CHECK <name> PASS|FAIL <value>`; the exit status is 0 iff every check
passed, 1 if one failed, 2 on an input error, 141 once stdout's reader is
gone, and 130, 143 or 129 on Ctrl-C, SIGTERM or SIGHUP.  A command runs
every step that may fail before its first line of output, so exit 2
leaves stdout empty, except after an --out write error.
"""

from __future__ import annotations

import _signal
import argparse
import contextlib
import functools
import inspect
import math
import os
import signal
import sys
import threading
import warnings

import numpy as np

from . import examples, expr, model, regeq, specan, synth, sysfile
from .sim import (DivergenceError, SimulationError, _check_grid, _CsvWorker,
                  decay_metrics, simulate, write_trajectory_csv)

RESIDUAL_TOL = 1e-6
PDE_RESIDUAL_TOL = 1e-3
SAMPLE_COUNT = 100
# bytes of float64 samples one command may hold: checked before any work,
# from the sizes the options ask for
MEMORY_BUDGET = 2**30
# floats per RK4 step that a boost command holds besides its cells' rows,
# in each grid worker process: while solving, regeq._stage_cosines'
# (steps, 3) table and, while the float body solves a circle, its list of
# z10*rho*cos products (three Python floats per step, at 32 bytes each)
# and its list of samples (one per step), 19 live floats in all, plus the
# allocator's slack; then pde_residual's temporaries.  Measured as
# resident memory, not live floats: ru_maxrss of a
# fresh process that runs regeq.solve_boost_grid on a 3x3 grid (6 cells,
# one process) at 300k ODE steps less that at 50k, over the 250k steps,
# is 31.1 floats per step (three runs, 2-vCPU x86 VM), 25.1 beyond the 6
# shared orbit rows, rounded up; `boost --cell 10 0.4` grows by 21.1
# (budget 3 + 26)
BOOST_STEP_FLOATS = 26


class _Checks:
    """Collects CHECK lines and the overall pass/fail status."""

    def __init__(self):
        self.failed = 0

    def add(self, name, ok, value):
        if isinstance(value, float):
            value = f"{value:.17g}"
        print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {value}")
        if not ok:
            self.failed += 1

    @property
    def status(self):
        return 0 if self.failed == 0 else 1


def _check_budget(option, rows, per_row):
    """Exit 2 (SysFileError) if rows x per_row floats exceed MEMORY_BUDGET."""
    size = 8 * rows * per_row
    if size > MEMORY_BUDGET:
        raise sysfile.SysFileError(
            f"{option}: {rows:.4g} rows x {per_row} floats need {size:.4g} bytes, "
            f"over the memory budget of {MEMORY_BUDGET} bytes")


@contextlib.contextmanager
def _writing(path):
    """Exit 2 (SysFileError) if the --out write inside fails."""
    try:
        yield
    except OSError as exc:
        raise sysfile.SysFileError(
            f"--out: cannot write {path}: {exc.strerror or exc}") from None


def _load_system(arg):
    """(system, example): the file `arg`, example None, if there is one,
    else the built-in `arg`; a file shadows a built-in, defaults and all."""
    if os.path.exists(arg):
        return sysfile.parse_file(arg), None
    try:
        ex = examples.get(arg)
    except KeyError:
        raise sysfile.SysFileError(
            f"'{arg}' is neither a file nor a built-in example "
            f"({', '.join(examples.names())})") from None
    return ex.load(), ex


def _internal_model(system, sf: sysfile.SystemFile, lin) -> model.ControllerModel:
    """Controller whose (phi, lambda) is the internal model for
    verification/synthesis, in order of preference: the supplied
    controller, the supplied immersion target, or a copy of the exosystem
    with the linear feedforward from the regulator solve, whose failure
    names the system file."""
    if sf.controller is not None:
        return sf.controller
    if sf.immersion is not None:
        return sf.immersion.target
    try:
        _, Gamma = synth.solve_linear_regulator(lin)
    except synth.SynthesisError as exc:
        raise synth.SynthesisError(f"{system}: {exc}") from None
    return synth.internal_model_copy_of_exosystem(lin, sf.exo.s, Gamma)


# numpy's PCG64 as np.random.default_rng(0) seeds it (state, increment),
# and its multiplier: the stream numpy draws from, without numpy.random
_PCG64_SEED0 = (35399562948360463058890781895381311971,
                87136372517582989555478159403783844777)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _uniforms(count):
    """default_rng(0).random(count), read-only: one 128-bit step, the
    XSL-RR output and its top 53 bits per draw."""
    s, inc = _PCG64_SEED0
    out = np.empty(count)
    for i in range(count):
        s = (s * _PCG64_MULT + inc) % 2**128
        x, rot = (s >> 64 ^ s) % 2**64, s >> 122
        out[i] = ((x >> rot | x << 64 - rot) % 2**64 >> 11) * 2.0**-53
    out.flags.writeable = False
    return out


def _sample_ball(p, radius):
    # default_rng(0).uniform(-radius, radius, size=(SAMPLE_COUNT, p)), bit
    # for bit (low + (high - low) * u), then scaled into the ball
    pts = -radius + 2 * radius * _uniforms(SAMPLE_COUNT * p).reshape(SAMPLE_COUNT, p)
    norms = np.linalg.norm(pts, axis=1)
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return pts * scale[:, None]


def _require_plant(sf, what):
    if sf.plant is None or sf.exo is None:
        raise sysfile.SysFileError(f"{what} needs [plant], [reference] and [exosystem]")


def _residuals(system, section, residual, *args):
    """residual(*args), with a sample it cannot evaluate or source it cannot
    compile located in the system file's section."""
    try:
        return residual(*args)
    except (regeq.RegulatorError, expr.CompileError) as exc:
        raise type(exc)(f"{system} [{section}]: {exc}") from None


def cmd_verify(args):
    sf, _ = _load_system(args.system)
    _require_plant(sf, "verify")
    # every step that may fail runs before the first line of output, so an
    # input error leaves stdout empty
    lin = model.linearize(sf.plant, sf.exo)
    absc = specan.spectral_abscissa(lin.A)
    sp = specan.eigen(lin.S)
    off_axis = max(abs(v.real) for v in sp.eigenvalues)
    n, p = lin.n, lin.p
    M = np.zeros((n + p, n + p))
    M[:n, :n], M[:n, n:], M[n:, n:] = lin.A, lin.P, lin.S
    Cm = np.hstack([lin.C, lin.Q])
    combined = specan.hautus_detectable(Cm, M, specan.eigen(M))
    im = synth.InternalModel.from_controller(_internal_model(args.system, sf, lin))
    flags = synth.verify_conditions(lin, im, absc)
    if sf.controller is not None:
        try:
            cl_absc = specan.spectral_abscissa(synth.closed_loop_matrix(lin, im))
        except specan.SpectralError:  # its products overflow: a failed check
            cl_absc = math.nan
    residuals = {}  # check name -> residual
    sol = sf.regulator_solution
    if sol is not None:
        samples = _sample_ball(sf.exo.p, sol.radius)
        residuals.update(zip(("regulator_residual_dynamics", "regulator_residual_error"),
                             _residuals(args.system, "regulator_solution",
                                        regeq.regulator_residual, sol, sf.plant, sf.exo,
                                        samples)))
        if sf.immersion is not None:
            residuals.update(zip(("immersion_residual_dynamics", "immersion_residual_output"),
                                 _residuals(args.system, "immersion", regeq.immersion_residual,
                                            sf.immersion, sf.exo, sol.gamma, samples)))

    checks = _Checks()
    checks.add("plant_stable", absc < 0, absc)
    checks.add("exosystem_spectrum_on_axis", off_axis <= sp.radius, off_axis)
    if sf.controller is None and sf.immersion is None:
        # the exosystem-copy construction hinges on this pair
        checks.add("combined_pair_detectable", combined, "-")
    else:
        # informational: a supplied controller/immersion is governed by the
        # (Lambda, Phi) test below, not by the combined pair
        print(f"combined_pair_detectable = {combined}")
    checks.add("internal_model_detectable", flags.detectable, "-")
    checks.add("internal_model_spectrum_on_axis", flags.spectrum_on_axis, "-")
    for z, g in sorted(flags.tf_values.items(), key=lambda t: t[0].imag):
        print(f"G({z.imag:.17g}i) = {g.real:.17g} + {g.imag:.17g}i  "
              f"|G| = {specan._modulus(g):.17g}")
    min_g = min(map(specan._modulus, flags.tf_values.values()), default=math.inf)
    checks.add("transfer_function_nonzero", flags.tf_nonzero, min_g)
    if sf.controller is not None:
        checks.add("closed_loop_stable", cl_absc < 0, cl_absc)
    for name, r in residuals.items():
        checks.add(name, r <= RESIDUAL_TOL, r)
    if sf.immersion is not None and sol is None:
        print("note: [immersion] present without [regulator_solution]; "
              "immersion residual not evaluated")
    return checks.status


def cmd_synthesize(args):
    for option, value, ok, rule in (
            ("--eps0", args.eps0, 0 < args.eps0 < math.inf, "finite EPS0 > 0"),
            ("--factor", args.factor, 0 < args.factor < 1, "0 < FACTOR < 1"),
            ("--max-halvings", args.max_halvings, args.max_halvings >= 0, "MAX_HALVINGS >= 0"),
            ("--margin", args.margin, 0 <= args.margin < math.inf, "finite MARGIN >= 0")):
        if not ok:
            raise synth.SynthesisError(f"{option}: need {rule}, got {value:g}")
    sf, _ = _load_system(args.system)
    _require_plant(sf, "synthesize")
    checks = _Checks()
    lin = model.linearize(sf.plant, sf.exo)
    base = _internal_model(args.system, sf, lin)
    report = synth.synthesize(lin, synth.InternalModel.from_controller(base),
                              eps0=args.eps0, factor=args.factor,
                              max_halvings=args.max_halvings, margin=args.margin)
    checks.add("plant_stable", report.flags.plant_stable, "-")
    checks.add("internal_model_detectable", report.flags.detectable, "-")
    checks.add("transfer_function_nonzero", report.flags.tf_nonzero, "-")
    checks.add("internal_model_spectrum_on_axis", report.flags.spectrum_on_axis, "-")
    if not report.success:
        checks.add("synthesis", False, report.message)
        return checks.status
    checks.add("synthesis", True, report.abscissa)
    print(f"eps = {report.eps:.17g}")
    for j, a in sorted(report.coefficients.items()):
        rendered = ", ".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in a)
        print(f"block {j} coefficients: {rendered}")
    print("Bc = " + ", ".join(f"{v:.17g}" for v in report.Bc.ravel()))
    print(f"closed-loop abscissa = {report.abscissa:.17g}")
    if args.out:
        with _writing(args.out):
            sysfile.write_controller(base, args.out, report.Bc.ravel())
        print(f"controller written to {args.out}")
    else:
        print(sysfile.controller_section(base, report.Bc.ravel()), end="")
    return checks.status


def _parse_ic(text, n, nc, p):
    try:
        vals = [float(v) for v in text.replace(";", ",").split(",")]
    except ValueError as exc:
        raise sysfile.SysFileError(f"--ic: {exc}") from None
    if len(vals) != n + nc + p:
        raise sysfile.SysFileError(
            f"--ic needs {n + nc + p} values (x: {n}, xi: {nc}, w: {p}), got {len(vals)}")
    return vals[:n], vals[n:n + nc], vals[n + nc:]


def cmd_simulate(args):
    sf, ex = _load_system(args.system)
    _require_plant(sf, "simulate")
    system = ex.origin if ex else args.system
    if sf.controller is None:
        raise sysfile.SysFileError(f"{system}: simulate needs a [controller] section "
                                   "(run synthesize first)")
    checks = _Checks()
    n, nc, p = sf.plant.n, sf.controller.nc, sf.exo.p
    T = args.T if args.T is not None else (ex.default_T if ex else None)
    dt = args.dt if args.dt is not None else (ex.default_dt if ex else 1e-4)
    if T is None:
        raise sysfile.SysFileError("--T is required for systems loaded from files")
    try:
        steps = _check_grid(T, dt)
    except SimulationError as exc:
        raise sysfile.SysFileError(f"--T/--dt: {exc}") from None
    # the trajectory: state, e, u and t per step, counted also without
    # --out, which keeps e alone, so that --out refuses no other run
    _check_budget("--T/--dt", steps + 1, n + nc + p + 3)
    if args.ic is not None:
        x0, xi0, w0 = _parse_ic(args.ic, n, nc, p)
    elif ex is not None:
        x0, xi0, w0 = ex.default_ic
    else:
        x0, xi0, w0 = [0.0] * n, [0.0] * nc, [0.0] * p
    # with --out, one process may encode the CSV beside the kernel, holding
    # as much text as the budget leaves beside the table
    with _CsvWorker(MEMORY_BUDGET - 8 * (steps + 1) * (n + nc + p + 3)) as encoder:
        try:
            run = simulate(sf.plant, sf.exo, sf.controller, x0, xi0, w0, T, dt,
                           encoder=encoder if args.out else None, table=bool(args.out))
        except DivergenceError as exc:
            checks.add("simulation_bounded", False, exc.t)
            return checks.status
        except expr.ExprError as exc:
            # the kernel spans plant, controller and exosystem: no one section
            raise expr.ExprError(f"{system}: {exc}") from None
        e = run.e if args.out else run
        checks.add("simulation_finite", bool(np.all(np.isfinite(e))), "-")
        final_rms, peak, settle = decay_metrics(e, dt, window=T / 5.0)
        print(f"final_rms = {final_rms:.17g}")
        print(f"peak = {peak:.17g}")
        print(f"settle_fraction = {settle:.17g}")
        if args.out:
            with _writing(args.out):
                write_trajectory_csv(run, args.out, encoder)
            print(f"trajectory written to {args.out}")
    return checks.status


def _boost_params(arg):
    if arg is None:
        return regeq.BoostParams.default()
    sf, _ = _load_system(arg)
    if sf.params is None:
        raise sysfile.SysFileError(f"{arg} has no [params] section")
    try:
        inspect.signature(regeq.BoostParams).bind(**sf.params)
        return regeq.BoostParams(**sf.params)
    except (TypeError, regeq.RegulatorError) as exc:
        raise sysfile.SysFileError(f"{arg} [params]: {exc}") from None


def _cell_tag(v):
    return f"{v:g}".replace("-", "m").replace(".", "p")


def cmd_boost(args):
    if args.ode_steps < 1:
        raise regeq.RegulatorError(f"--ode-steps must be >= 1, got {args.ode_steps}")
    if args.cell:  # orbit, gamma and tau of every cell
        option, per_step = "--ode-steps", 3 * len(args.cell) + BOOST_STEP_FLOATS
    else:  # the orbit of every cell, one column of slack, which keeps the
        # refused grids those of a residual that copied a column, and the
        # step floats of each worker the grid gets if every cell is present
        option = "--grid-w1/--grid-rho/--ode-steps"
        per_step = ((args.grid_w1 + 1) * args.grid_rho + BOOST_STEP_FLOATS
                    * regeq._grid_workers(args.grid_w1 * args.grid_rho))
    _check_budget(option, args.ode_steps + 1, per_step)
    checks = _Checks()
    params = _boost_params(args.params)
    w1max, rho_max = regeq.admissible_domain(params)
    tagged = {}
    for w1, rho in args.cell or ():
        if not (math.isfinite(w1) and math.isfinite(rho) and rho >= 0):
            raise regeq.RegulatorError(
                f"--cell: need finite W1 and RHO >= 0, got {w1:g} {rho:g}")
        if not abs(w1) < w1max:
            raise regeq.RegulatorError(
                f"--cell: need |W1| < w1max = {w1max:.17g}, got {w1:g} {rho:g}")
        if not rho <= rho_max(w1):
            raise regeq.RegulatorError(
                f"--cell: need RHO <= rho_max(W1) = {rho_max(w1):.17g}, got {w1:g} {rho:g}")
        tag = f"{_cell_tag(w1)}_{_cell_tag(rho)}"
        if tag in tagged:
            raise regeq.RegulatorError(
                f"--cell: circles ({tagged[tag][0]}, {tagged[tag][1]}) and ({w1}, {rho}) "
                f"share the tag {tag} of their CHECK line and orbit file")
        tagged[tag] = w1, rho
    # solve before any output, so that a rejected grid or a circle that
    # escapes or does not converge prints no CHECK line
    cells = []
    for w1, rho in tagged.values():
        if rho == 0.0 and w1 == 0.0:
            # the equilibrium circle degenerates to the operating point
            psi0, orbit, iters = 0.0, np.zeros(args.ode_steps + 1), 0
        else:
            psi0, orbit, iters = regeq.solve_psi0(w1, rho, params, ode_steps=args.ode_steps)
        cells.append((psi0, iters, orbit, regeq.recover_gamma(orbit, w1, rho, params)))
    boost = None if args.cell else regeq.solve_boost_grid(
        params, n_w1=args.grid_w1, n_rho=args.grid_rho, ode_steps=args.ode_steps)
    checks.add("boost_equilibrium", True, params.D0)
    print(f"D0 = {params.D0:.17g}")
    print(f"z20 = {params.z20:.17g}")
    print(f"w1max = {w1max:.17g}")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)

    if args.cell:
        for (tag, (w1, rho)), (psi0, iters, orbit, gamma) in zip(tagged.items(), cells):
            name = f"orbit_{tag}.csv"
            path = os.path.join(args.out, name)
            with _writing(path):
                regeq.write_orbit_csv(orbit, gamma, path)
            checks.add(f"boost_cell_{tag}", True, psi0)
            print(f"cell (w1={w1:g}, rho={rho:g}): psi0 = {psi0:.17g}, "
                  f"{iters} iterations -> {name}")
        return checks.status

    grid_path = os.path.join(args.out, "psi0_grid.csv")
    with _writing(grid_path):
        regeq.write_grid_csv(boost, grid_path)
    print(f"grid written to {grid_path}")
    n_fail = sum(1 for col in boost.cells for c in col if c.present and not c.converged)
    for col in boost.cells:
        for c in col:
            if c.present and not c.converged:
                print(f"unconverged cell (w1={c.w1:g}, rho={c.rho:g}): {c.message}")
    checks.add("boost_grid_converged", n_fail == 0, float(n_fail))
    resid = regeq.pde_residual(boost)
    checks.add("boost_pde_residual", resid <= PDE_RESIDUAL_TOL, resid)
    return checks.status


def cmd_example(args):
    if args.action == "list":
        for name in examples.names():
            ex = examples.get(name)
            print(f"{name}: {ex.description}")
        return 0
    try:
        ex = examples.get(args.name)
    except KeyError as exc:
        raise sysfile.SysFileError(exc.args[0]) from None
    print(ex.text, end="")
    return 0


@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="regsyn",
        description="minimal-order output regulation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check regulation hypotheses and residuals")
    pv.add_argument("system", help="system file path or built-in example name")

    ps = sub.add_parser("synthesize", help="construct Bc and emit a controller")
    ps.add_argument("system")
    ps.add_argument("--eps0", type=float, default=1.0)
    ps.add_argument("--factor", type=float, default=0.5)
    ps.add_argument("--max-halvings", type=int, default=40)
    ps.add_argument("--margin", type=float, default=1e-6)
    ps.add_argument("--out", help="controller file to write")

    pm = sub.add_parser("simulate", help="integrate the nonlinear closed loop")
    pm.add_argument("system")
    pm.add_argument("--T", type=float, default=None, help="horizon")
    pm.add_argument("--dt", type=float, default=None, help="step size")
    pm.add_argument("--ic", help="comma-separated x, xi, w initial values")
    pm.add_argument("--out", help="trajectory CSV to write")

    pb = sub.add_parser("boost", help="solve the boost-converter regulator PDE")
    pb.add_argument("--params", default=None,
                    help="system file or built-in example with [params] "
                         "(default: example53's)")
    pb.add_argument("--grid-w1", type=int, default=21)
    pb.add_argument("--grid-rho", type=int, default=21)
    pb.add_argument("--ode-steps", type=int, default=2000)
    pb.add_argument("--cell", nargs=2, type=float, action="append",
                    metavar=("W1", "RHO"), help="solve a single circle (repeatable)")
    pb.add_argument("--out", default=".", help="output directory")

    pe = sub.add_parser("example", help="list or dump built-in examples")
    pe_sub = pe.add_subparsers(dest="action", required=True)
    pe_sub.add_parser("list")
    pe_sub.add_parser("dump").add_argument("name")

    return ap


# what main unwinds from, killing and reaping forked processes, and the
# message for each
_SIGNALS = {signal.SIGINT: "interrupted", signal.SIGTERM: "terminated",
            signal.SIGHUP: "hung up"}


def _unwind(signum, frame):
    # no second signal may break into the unwind that kills the workers
    for s in _SIGNALS:
        if _signal.getsignal(s) is _unwind:
            _signal.signal(s, _signal.SIG_IGN)
    raise KeyboardInterrupt(signum)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # only the main thread can set handlers; they come back on return, for
    # callers that run main in process.  An ignored signal (nohup) stays so.
    # _signal's functions are those signal's wrap, without the enum
    # conversions that cost several us a call
    old = ({s: h for s in _SIGNALS if (h := _signal.getsignal(s)) not in (_signal.SIG_IGN, None)}
           if threading.current_thread() is threading.main_thread() else {})
    try:
        for signum in old:
            _signal.signal(signum, _unwind)
        # looked up per call: the cached parser must not pin the command
        # functions that were current when it was built.  The checks read
        # an overflow from the values, so numpy's warning of it is dropped
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "(overflow|invalid value|divide by zero|underflow) "
                                    "encountered", RuntimeWarning)
            status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return status
    except (sysfile.SysFileError, model.ModelError, regeq.RegulatorError,
            synth.SynthesisError, specan.SpectralError, expr.ExprError,
            SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # LAPACK failed on one of the system's matrices (an SVD that does
        # not converge, say); only the commands that load a system call it
        print(f"error: {args.system}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone: what is left of stdout goes to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except KeyboardInterrupt as exc:
        # a bare one is Ctrl-C's, from Python's own handler
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"error: {_SIGNALS[signum]}", file=sys.stderr)
        return 128 + signum
    finally:
        for signum, handler in old.items():
            _signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
