import contextlib
import errno
import functools
import os
import re
from collections import Counter
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from regsyn import cli, examples, expr, model, regeq, sim, specan, synth

from helpers import assert_no_child_left, numpy_sample_ball
from openblas_kernel import openblas_kernel


_SUBPROCESS_ENV = {**os.environ,
                   "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def _run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def _checks(stdout):
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"CHECK (\S+) (PASS|FAIL) (.*)$", line)
        if m:
            found[m.group(1)] = (m.group(2) == "PASS", m.group(3))
    return found


def test_verify_builtin_examples_pass(capsys):
    for name in examples.names():
        status, out, _ = _run(capsys, "verify", name)
        checks = _checks(out)
        assert status == 0, out
        assert checks
        assert all(ok for ok, _ in checks.values()), out


def test_verify_reports_named_checks(capsys):
    _, out, _ = _run(capsys, "verify", "example51")
    checks = _checks(out)
    for name in ("plant_stable", "exosystem_spectrum_on_axis",
                 "internal_model_detectable", "internal_model_spectrum_on_axis",
                 "transfer_function_nonzero", "closed_loop_stable",
                 "regulator_residual_dynamics", "regulator_residual_error"):
        assert name in checks, name
    assert "G(" in out  # transfer function values printed


def test_verify_immersion_checks_present(capsys):
    _, out, _ = _run(capsys, "verify", "example52")
    checks = _checks(out)
    assert "immersion_residual_dynamics" in checks
    assert "immersion_residual_output" in checks
    assert "combined_pair_detectable" not in checks  # informational here
    assert "combined_pair_detectable = " in out


def test_exosystem_copy_without_controller(tmp_path, capsys):
    # example51 without its [controller]: the internal model is a copy of the
    # exosystem with the linear feedforward, and verify checks the combined
    # pair that this construction hinges on
    path = tmp_path / "copy.sys"
    path.write_text(re.sub(r"\[controller\]\n.*?\n\n", "",
                           examples.get("example51").text, flags=re.S))
    status, out, err = _run(capsys, "verify", str(path))
    assert (status, err) == (0, ""), out
    assert "CHECK combined_pair_detectable PASS -" in out.splitlines()
    assert "closed_loop_stable" not in _checks(out)
    status, out, err = _run(capsys, "synthesize", str(path))
    assert (status, err) == (0, ""), out
    assert _checks(out)["synthesis"][0]


def test_verify_corrupted_regulator_solution_fails(tmp_path, capsys):
    text = examples.get("example51").text.replace(
        "gamma = ", "gamma = 0.5*w1 + ")
    path = tmp_path / "bad.sys"
    path.write_text(text)
    status, out, _ = _run(capsys, "verify", str(path))
    checks = _checks(out)
    assert status == 1
    assert not checks["regulator_residual_dynamics"][0]


def test_verify_unknown_system_is_domain_error(capsys):
    status, _, err = _run(capsys, "verify", "no_such_system")
    assert status == 2
    assert "error:" in err


def test_synthesize_oscillator_example(tmp_path, capsys):
    out_path = tmp_path / "ctrl.sys"
    status, out, _ = _run(capsys, "synthesize", "example52",
                          "--out", str(out_path))
    assert status == 0, out
    assert "eps = " in out and "Bc = " in out
    from regsyn import sysfile
    ctrl = sysfile.parse_file(out_path).controller
    assert ctrl.nc == 3
    assert any(b != 0 for b in ctrl.Bc)


def test_synthesize_controller_round_trip(tmp_path, capsys):
    # dump + synthesized controller must verify clean as one file
    out_path = tmp_path / "ctrl.sys"
    status, _, _ = _run(capsys, "synthesize", "example52", "--out", str(out_path))
    assert status == 0
    base = examples.get("example52").text
    merged = tmp_path / "merged.sys"
    merged.write_text(base + "\n" + out_path.read_text())
    status, out, _ = _run(capsys, "verify", str(merged))
    checks = _checks(out)
    assert status == 0, out
    assert checks["closed_loop_stable"][0]


def test_synthesize_failure_reported(tmp_path, capsys):
    text = """
[plant]
n = 1
f1 = x1 + u
g = x1

[reference]
q = 0

[exosystem]
p = 1
s1 = 0
"""
    path = tmp_path / "unstable.sys"
    path.write_text(text)
    status, out, _ = _run(capsys, "synthesize", str(path))
    checks = _checks(out)
    assert status == 1
    assert not checks["plant_stable"][0]
    assert not checks["synthesis"][0]


def test_synthesize_overflowing_gain_is_a_failed_check(tmp_path, capsys):
    # |G(0)| = 1e308 has no finite square: the one-step block cannot be inverted
    path = tmp_path / "gain.sys"
    path.write_text(examples.get("example52").text.replace("g = x1", "g = 1e308*x1"))
    status, out, _ = _run(capsys, "synthesize", str(path))
    assert status == 1
    assert "CHECK synthesis FAIL |G|^2 overflows at block frequency" in out.splitlines()


# |G(i)| = |1.7e308/(1 + i) + 0.8e308| overflows, though G itself is finite
_MODULUS_OVERFLOWS = ("[plant]\nn = 1\nf1 = -x1 + u\ng = 1.7e308*x1 + 0.8e308*u\n"
                      "[reference]\nq = w1\n[exosystem]\np = 2\ns1 = w2\ns2 = -w1\n"
                      "[controller]\nnc = 2\nphi1 = xi2\nphi2 = -xi1\nlam = xi1\nbc = 0, 0\n")
_SYNTHESIS_FAILS = ("CHECK transfer_function_nonzero FAIL -",
                    "CHECK synthesis FAIL verification failed: tf_nonzero")


@pytest.mark.parametrize("text, command, lines", [
    pytest.param(examples.get("example53").text.replace("\ng = x1\n", "\ng = 1e308*x1\n"),
                 "verify", ("CHECK transfer_function_nonzero FAIL inf",
                            "CHECK closed_loop_stable FAIL nan"), id="verify-huge-gain"),
    pytest.param(examples.get("example53").text.replace("\ng = x1\n", "\ng = 1e308*x1\n"),
                 "synthesize", _SYNTHESIS_FAILS, id="synthesize-huge-gain"),
    pytest.param(_MODULUS_OVERFLOWS, "verify", ("CHECK transfer_function_nonzero FAIL inf",),
                 id="verify-modulus-overflows"),
    pytest.param(_MODULUS_OVERFLOWS, "synthesize", _SYNTHESIS_FAILS,
                 id="synthesize-modulus-overflows")])
def test_non_finite_transfer_function_is_a_failed_check(tmp_path, text, command, lines):
    # example53 with g = 1e308*x1: every Jacobian entry is finite, but G =
    # C (zI - A)^-1 B and the closed loop's Bc*C overflow.  A non-finite G
    # or |G| fails its check, the closed loop's abscissa is NaN, and no
    # numpy warning or traceback reaches stderr
    path = tmp_path / "gain.sys"
    path.write_text(text)
    proc = _cli(command, str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert set(lines) <= set(proc.stdout.splitlines()), proc.stdout


def test_simulate_zero_ic_all_zero(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    status, out, _ = _run(capsys, "simulate", "example51",
                          "--T", "0.1", "--ic", "0,0,0,0,0,0",
                          "--out", str(csv_path))
    assert status == 0
    assert "final_rms = 0" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,x1,x2,xi1,xi2,w1,w2,e,u"
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert not np.any(vals[:, 1:])


def test_simulate_default_metadata(capsys):
    status, out, _ = _run(capsys, "simulate", "example51", "--T", "2.0")
    assert status == 0
    assert "settle_fraction = " in out


def test_file_shadows_builtin_and_its_defaults(tmp_path, capsys, monkeypatch):
    # a file named like a built-in is loaded, so the built-in's T, dt and
    # initial state do not apply to it
    text = examples.get("example53").text
    (tmp_path / "example51").write_text(text)
    (tmp_path / "other.sys").write_text(text)
    monkeypatch.chdir(tmp_path)
    status, out, err = _run(capsys, "simulate", "example51")
    assert (status, out) == (2, "")
    assert err.startswith("error: --T is required")
    argv = ("--T", "1e-4", "--dt", "1e-5")
    shadowed = _run(capsys, "simulate", "example51", *argv)
    assert shadowed[0] == 0
    assert shadowed == _run(capsys, "simulate", "other.sys", *argv)


def test_simulate_requires_controller(capsys):
    status, _, err = _run(capsys, "simulate", "example52")
    assert status == 2
    assert "controller" in err


def test_simulate_ic_length_checked(capsys):
    status, _, err = _run(capsys, "simulate", "example51", "--T", "1",
                          "--ic", "1,2,3")
    assert status == 2
    assert "--ic needs 6 values" in err


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "regsyn.cli", *argv],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV,
                          timeout=120)


def test_simulate_divergence_is_a_failed_check():
    proc = _cli("simulate", "example51", "--T", "5", "--ic", "50,50,0,0,0,0")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"CHECK simulation_bounded FAIL \S+", lines[0])
    assert 0.0 < float(lines[0].split()[-1]) < 5.0


@pytest.mark.parametrize("ic", ["nan,inf,0,0,0,0", "0,nan,0,0,0,0"])
def test_simulate_nan_state_is_a_failed_check(capsys, ic):
    status, out, err = _run(capsys, "simulate", "example51", "--T=1", "--dt=1e-3",
                            f"--ic={ic}")
    assert (status, out, err) == (1, "CHECK simulation_bounded FAIL 0\n", "")


@pytest.mark.parametrize("argv, t", [
    (("--T=1", "--dt=1e-3", "--ic=-1,-1,-1,-1,-1,-1"), "0.253"),
    (("--T=1e300", "--dt=1e300"), "1.0000000000000001e+300"),
])
def test_simulate_overflow_in_a_step_is_a_failed_check(capsys, argv, t):
    # w1^4 overflows inside one RK4 step after a stage input left the cap
    # ball: a divergence at the end of that step, not an evaluation error
    status, out, err = _run(capsys, "simulate", "example51", *argv)
    assert (status, out, err) == (1, f"CHECK simulation_bounded FAIL {t}\n", "")


def test_simulate_ic_must_be_numbers():
    proc = _cli("simulate", "example51", "--T", "1", "--ic", "1,2,x,0,0,0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: --ic: ")
    assert "'x'" in proc.stderr
    assert proc.stdout == ""


# f1 and g are fine at the origin, but sqrt(1 - x1) fails once the unstable
# state passes x1 = 1, a few hundred steps into the run
_SQRT_SYS = """\
[plant]
n = 1
f1 = x1 + sqrt(1 - x1) - 1 + u
g = x1

[reference]
q = 0

[exosystem]
p = 1
s1 = 0

[controller]
nc = 1
phi1 = 0
lam = xi1
bc = 0
"""


def test_simulate_eval_error_mid_run(tmp_path):
    path = tmp_path / "sqrt.sys"
    path.write_text(_SQRT_SYS)
    proc = _cli("simulate", str(path), "--T", "10", "--dt", "0.01",
                "--ic", "0.1,0,0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: sqrt of negative value ")
    assert proc.stdout == ""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("verify", "example52"), ("boost", "--cell", "10", "0.4"),
                                  ("simulate", "example53", "--T", "0.01")],
                         ids=lambda argv: argv[0])
def test_closed_stdout_exits_141(tmp_path, argv, buffered):
    # stdout's reader is gone (as after `| head -1`): a print or the final
    # flush fails with EPIPE, and the command exits 141 without a
    # traceback.  The reader closes before the first line, not after it,
    # because a reader that leaves after the first line races the writer
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    env = {k: v for k, v in _SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with os.fdopen(write_fd, "wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "regsyn.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
                              timeout=120)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_verify", interrupted)
    assert _run(capsys, "verify", "example52") == (130, "", "error: interrupted\n")


def test_interrupted_boost_leaves_no_worker(tmp_path, capsys, monkeypatch):
    # Ctrl-C in the caller's share while its workers would run for a
    # minute: they are killed and reaped before main returns 130
    monkeypatch.setattr(regeq, "_grid_workers", lambda cells: 3)
    real_orbits, parent = regeq._periodic_orbits, os.getpid()

    def orbits(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return real_orbits(*args, **kwargs)

    monkeypatch.setattr(regeq, "_periodic_orbits", orbits)
    start = time.monotonic()
    assert _run(capsys, "boost", "--grid-w1", "5", "--grid-rho", "5", "--ode-steps", "500",
                "--out", str(tmp_path)) == (130, "", "error: interrupted\n")
    assert time.monotonic() - start < 30
    assert_no_child_left()


_SIGNALS = [(signal.SIGINT, 130, "interrupted"), (signal.SIGTERM, 143, "terminated"),
            (signal.SIGHUP, 129, "hung up")]
_SIGNAL_IDS = ["SIGINT", "SIGTERM", "SIGHUP"]


@pytest.mark.parametrize("signum, status, message", _SIGNALS, ids=_SIGNAL_IDS)
def test_signal_unwinds_main_and_its_handler_comes_back(capsys, monkeypatch, signum,
                                                        status, message):
    before = signal.getsignal(signum)

    def signalled(args):
        # the default action would end this test process
        assert callable(signal.getsignal(signum))
        signal.raise_signal(signum)
        pytest.fail("the signal did not unwind the command")

    monkeypatch.setattr(cli, "cmd_verify", signalled)
    assert _run(capsys, "verify", "example52") == (status, "", f"error: {message}\n")
    assert signal.getsignal(signum) is before


def test_second_signal_does_not_break_into_the_unwind(capsys, monkeypatch):
    # a terminal that closes sends SIGHUP and then SIGTERM: the second one
    # arrives while the first unwinds (here: while the workers are killed)
    before = signal.getsignal(signal.SIGTERM)
    close = sim._Children.close

    def signalled_close(children):
        signal.raise_signal(signal.SIGTERM)
        close(children)

    def signalled(args):
        with sim._Children():
            signal.raise_signal(signal.SIGHUP)

    monkeypatch.setattr(sim._Children, "close", signalled_close)
    monkeypatch.setattr(cli, "cmd_verify", signalled)
    assert _run(capsys, "verify", "example52") == (129, "", "error: hung up\n")
    assert signal.getsignal(signal.SIGTERM) is before


def _group_members(pgid):
    """Pids of the live processes in process group pgid, from /proc; a
    zombie, dead but not yet reaped, is not one."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", pid, "stat").read_text()
        except OSError:  # gone since the listing
            continue
        # after the parenthesized command name: state, ppid, pgrp
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(pid))
    return pids


def _signal_boost_grid(tmp_path, signum, grid, preexec_fn=None):
    """Start `boost` on a grid x grid grid in its own session, send it
    signum once its process group has a worker, and wait for its exit;
    (process, stdout, stderr, the live pids left in its process group
    GROUP_EXIT_S after that exit).  The pipes are read last, because a
    worker that outlives its caller holds them open."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "regsyn.cli", "boost", "--grid-w1", str(grid),
         "--grid-rho", str(grid), "--out", str(tmp_path)], env=_SUBPROCESS_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=preexec_fn)
    try:
        while len(_group_members(proc.pid)) < 2:
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.01)
        proc.send_signal(signum)
        proc.wait(timeout=120)
        deadline = time.monotonic() + GROUP_EXIT_S
        while (left := _group_members(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.01)
        out, err = proc.communicate(timeout=120)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    return proc, out, err, left


GROUP_EXIT_S = 1.0
_NEEDS_WORKER = pytest.mark.skipif(sim._cpus() < 2 or not os.path.isdir("/proc"),
                                   reason="needs a grid worker process and /proc to find it")


@_NEEDS_WORKER
@pytest.mark.parametrize("signum, status, message", _SIGNALS, ids=_SIGNAL_IDS)
def test_signalled_boost_leaves_no_worker(tmp_path, signum, status, message):
    # SIGTERM (from `timeout` or `kill`), SIGHUP or SIGINT once a grid of
    # seconds has forked its workers: the caller kills and reaps them before
    # it exits, so its process group is empty within GROUP_EXIT_S of its
    # exit.  With no handler the caller died at once and a worker solved on
    # for 1.5-4.4 s
    proc, out, err, left = _signal_boost_grid(tmp_path, signum, 80)
    assert (proc.returncode, out, err, left) == (status, "", f"error: {message}\n", [])


@_NEEDS_WORKER
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs PR_SET_PDEATHSIG")
def test_killed_boost_leaves_no_worker(tmp_path):
    # SIGKILL (or the OOM killer) gives the caller no chance to clean up:
    # the kernel kills its workers with it.  An orphan stays a zombie until
    # init reaps it, so only live processes count.  Before the workers
    # asked for that signal, one solved on for 5 s
    proc, out, err, left = _signal_boost_grid(tmp_path, signal.SIGKILL, 80)
    assert (proc.returncode, out, err, left) == (-signal.SIGKILL, "", "", [])


@_NEEDS_WORKER
@pytest.mark.parametrize("signum", [s for s, _, _ in _SIGNALS], ids=_SIGNAL_IDS)
def test_ignored_signal_stays_ignored(tmp_path, signum):
    # `nohup regsyn boost ...` ignores SIGHUP, and a caller may ignore
    # SIGTERM or SIGINT: the grid runs on to its normal end
    proc, out, err, _ = _signal_boost_grid(
        tmp_path, signum, 40, preexec_fn=lambda: signal.signal(signum, signal.SIG_IGN))
    assert (proc.returncode, err) == (0, "")
    assert "CHECK boost_pde_residual PASS" in out


@pytest.fixture
def encoder_forks(monkeypatch):
    """simulate --out forks its encoder process for any table of a block or
    more, on any machine; yields the pids forked.  No child is left after."""
    monkeypatch.setattr(sim, "ENCODER_BLOCKS", 1)
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    yield pids
    assert_no_child_left()


def test_simulate_encoder_cap_comes_from_the_memory_budget(tmp_path, capsys, monkeypatch,
                                                           encoder_forks):
    # example53 over 4000 steps: 4001 rows of 11 floats.  The encoder
    # process holds what MEMORY_BUDGET leaves beside the table; with room
    # for one block of text the file is the same
    argv = ("simulate", "example53", "--T", "0.004", "--out")
    monkeypatch.setattr(sim, "ENCODER_BLOCKS", 10**9)
    plain = _run(capsys, *argv, str(tmp_path / "plain.csv"))
    assert encoder_forks == []
    text = (tmp_path / "plain.csv").read_bytes()
    block = sim._block_rows(11)
    first = len(b"".join(text.splitlines(keepends=True)[1:1 + block]))
    caps = []

    class Worker(sim._CsvWorker):
        def __init__(self, cap):
            caps.append(cap)
            super().__init__(cap)

    monkeypatch.setattr(cli, "_CsvWorker", Worker)
    monkeypatch.setattr(sim, "ENCODER_BLOCKS", 1)
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 8 * 4001 * 11 + first)
    for name in ("capped.csv", "again.csv"):
        status, out, err = _run(capsys, *argv, str(tmp_path / name))
        assert (status, out.replace(name, "plain.csv"), err) == plain
        assert (tmp_path / name).read_bytes() == text
    assert caps == [first, first] and len(encoder_forks) == 2


@pytest.mark.parametrize("system, argv, status", [
    ("example51", ("--T=1", "--dt=1e-3", "--ic=-1,-1,-1,-1,-1,-1"), 1),
    ("FILE", ("--T", "10", "--dt", "0.01", "--ic", "0.1,0,0"), 2),
])
def test_failed_simulate_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, encoder_forks,
                                              system, argv, status):
    # a divergence and an evaluation error, each after the encoder process
    # was sent several blocks of a few rows
    monkeypatch.setattr(sim, "CSV_BLOCK_VALUES", 60)
    path = tmp_path / "sqrt.sys"
    path.write_text(_SQRT_SYS)
    out = tmp_path / "traj.csv"
    out.write_bytes(b"kept\r\n")
    got, stdout, err = _run(capsys, "simulate", str(path) if system == "FILE" else system,
                            *argv, "--out", str(out))
    assert got == status and len(encoder_forks) == 1
    assert (stdout, err) == (("CHECK simulation_bounded FAIL 0.253\n", "") if status == 1
                             else ("", f"error: {path}: sqrt of negative value "
                                   "-8.359348167008562e-07\n"))
    assert out.read_bytes() == b"kept\r\n"


def test_uncompilable_kernel_forks_no_encoder(tmp_path, capsys, encoder_forks):
    # 1001 rows, three blocks: an encoder process would fork, but the
    # kernel is generated first
    path = tmp_path / "deep.sys"
    path.write_text(_DEEP_POWER)
    out = tmp_path / "traj.csv"
    status, stdout, err = _run(capsys, "simulate", str(path), "--T", "0.1", "--out", str(out))
    assert (status, stdout, encoder_forks) == (2, "", [])
    assert err == (f"error: {path}: cannot compile the closed-loop RK4 kernel: "
                   "too many nested parentheses\n")
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("forked", [True, False])
def test_simulate_out_to_a_full_device(capsys, monkeypatch, encoder_forks, forked):
    if not forked:
        monkeypatch.setattr(sim, "ENCODER_BLOCKS", 10**9)
    status, out, err = _run(capsys, "simulate", "example53", "--T", "0.004", "--out",
                            "/dev/full")
    assert status == 2 and len(encoder_forks) == forked
    assert [line.split(" ")[0] for line in out.splitlines()] == [
        "CHECK", "final_rms", "peak", "settle_fraction"]
    assert err == "error: --out: cannot write /dev/full: No space left on device\n"


def test_simulate_out_fills_the_disk_mid_copy(tmp_path, capsys, monkeypatch, encoder_forks):
    # sendfile copies part of the encoder's text into the CSV, then the
    # disk is full: a write error, not a fall back to reads
    def filling(out_fd, in_fd, offset, count):
        if sent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        sent.append(sendfile(out_fd, in_fd, offset, min(count, 1000)))
        return sent[-1]

    sendfile, sent = os.sendfile, []
    monkeypatch.setattr(os, "sendfile", filling)
    path = tmp_path / "traj.csv"
    status, out, err = _run(capsys, "simulate", "example53", "--T", "0.004", "--out", str(path))
    assert status == 2 and len(encoder_forks) == 1 and sent == [1000]
    assert "trajectory written" not in out
    assert err == f"error: --out: cannot write {path}: No space left on device\n"


@pytest.mark.parametrize("T, dt", [("1", "0"), ("1", "nan"), ("nan", "0.1"), ("inf", "0.1")])
def test_simulate_bad_grid_is_an_error(T, dt):
    proc = _cli("simulate", "example51", "--T", T, "--dt", dt)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: --T/--dt: need finite dt > 0 and T >= dt\n"


_RADIUS_SYS = ("[plant]\nn = 1\nf1 = -x1 + u\ng = x1\n[reference]\nq = w1\n"
               "[exosystem]\np = 1\ns1 = 0\n"
               "[regulator_solution]\npi1 = w1\ngamma = w1\nradius = {}\n")


# past the range: 1e308 overflows the box's width 2*radius, 1e200 the
# samples' squared norms (every sample would land at w = 0) and 1e-200
# underflows them (samples would land outside the ball)
@pytest.mark.parametrize("radius", ["abc", "nan", "-1", "inf", "0", "1e308", "1e200", "1e-200"])
def test_verify_bad_radius_is_an_error(tmp_path, radius):
    path = tmp_path / "radius.sys"
    path.write_text(_RADIUS_SYS.format(radius))
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path} [regulator_solution]: 'radius' ")
    assert proc.stdout == ""


@pytest.mark.parametrize("radius", [1e-100, 1e100])
def test_verify_samples_the_ball_at_the_radius_bounds(tmp_path, capsys, radius):
    # p * radius**2 is a normal float: the samples lie in the ball, none
    # collapses to 0, and their norms raise no floating-point warning
    with np.errstate(all="raise"):
        for p in (1, 2, 10):
            norms = np.linalg.norm(cli._sample_ball(p, radius), axis=1)
            assert 0 < norms.min() and norms.max() <= radius * (1 + 1e-15)
        path = tmp_path / "radius.sys"
        path.write_text(_RADIUS_SYS.format(radius))
        status, out, err = _run(capsys, "verify", str(path))
    assert (status, err) == (0, "")
    assert out.endswith("CHECK regulator_residual_dynamics PASS 0\n"
                        "CHECK regulator_residual_error PASS 0\n")


def test_sample_ball_is_numpy_default_rng_0():
    # the stream's seeded state is numpy's, and the samples are, bit for
    # bit, those drawn with numpy.random, for p = 1..10 from one radius
    # bound to the other
    state = np.random.PCG64(0).state["state"]
    assert cli._PCG64_SEED0 == (state["state"], state["inc"])
    for p in range(1, 11):
        for radius in (1e-100, 2.5e-37, 1e-3, 0.3, 1.0, 7.0, 3e45, 1e100):
            assert (cli._sample_ball(p, radius).tobytes()
                    == numpy_sample_ball(p, radius).tobytes()), (p, radius)
    assert not cli._uniforms(cli.SAMPLE_COUNT).flags.writeable


def test_no_command_imports_numpy_random(tmp_path):
    # numpy 2 loads numpy.random only on first use, numpy 1 with numpy
    argvs = [[command, name] for command in ("verify", "synthesize")
             for name in examples.names()]
    argvs += [["simulate", "example53", "--T", "0.004", "--out", "traj.csv"],
              ["boost", "--cell", "10", "0.4", "--out", "orbits"], ["example", "list"]]
    code = ("import sys, numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    sys.exit(3)\n"
            "from regsyn.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    main(argv)\n"
            "    if 'numpy.random' in sys.modules:\n"
            "        sys.exit('numpy.random loaded by ' + ' '.join(argv))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_SUBPROCESS_ENV, cwd=tmp_path, timeout=120)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.random")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_synthesize_empty_exosystem_is_an_error(tmp_path):
    path = tmp_path / "p0.sys"
    path.write_text("[plant]\nn = 1\nf1 = -x1 + u\ng = x1\n[reference]\nq = 0\n"
                    "[exosystem]\np = 0\n")
    proc = _cli("synthesize", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {path} [exosystem]: 'p' must be an integer >= 1, got 0\n")
    assert proc.stdout == ""


def test_boost_grid_needs_three_radii(tmp_path):
    proc = _cli("boost", "--out", str(tmp_path), "--grid-w1", "3", "--grid-rho", "2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "n_rho >= 3" in proc.stderr
    assert "CHECK" not in proc.stdout
    assert not (tmp_path / "psi0_grid.csv").exists()


def test_boost_single_cells(tmp_path, capsys):
    status, out, _ = _run(capsys, "boost", "--out", str(tmp_path),
                          "--ode-steps", "1000",
                          "--cell", "0", "0", "--cell", "10", "0.4")
    assert status == 0
    checks = _checks(out)
    assert checks["boost_cell_0_0"][0]
    assert float(checks["boost_cell_0_0"][1]) == 0.0
    assert (tmp_path / "orbit_0_0.csv").exists()
    assert (tmp_path / "orbit_10_0p4.csv").exists()
    rows = (tmp_path / "orbit_10_0p4.csv").read_text().splitlines()
    assert rows[0] == "tau,psi,gamma"
    assert len(rows) == 1002


def test_cached_parser_shares_no_option_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    for w1, rho in (("10", "0.4"), ("0", "0")):
        status, out, _ = _run(capsys, "boost", "--out", str(tmp_path), "--ode-steps",
                              "500", "--cell", w1, rho)
        assert status == 0
        tags = [line.split()[1] for line in out.splitlines()
                if line.startswith("CHECK boost_cell_")]
        assert tags == [f"boost_cell_{w1}_{rho.replace('.', 'p')}"]


def test_boost_grid_mode(tmp_path, capsys):
    status, out, _ = _run(capsys, "boost", "--out", str(tmp_path),
                          "--grid-w1", "7", "--grid-rho", "7",
                          "--ode-steps", "1000")
    checks = _checks(out)
    assert status == 0, out
    assert checks["boost_grid_converged"][0]
    assert checks["boost_pde_residual"][0]
    grid = (tmp_path / "psi0_grid.csv").read_text().splitlines()
    assert grid[0] == "w1,rho,psi0,converged,iters"
    assert len(grid) > 30


def test_boost_grid_without_interior_cell_is_a_failed_check(tmp_path, capsys):
    # at 20 ODE steps every circle but the degenerate (0, 0) one escapes, so
    # no column has an interior converged cell to take the PDE residual at
    status, out, err = _run(capsys, "boost", "--out", str(tmp_path),
                            "--grid-w1", "3", "--grid-rho", "3", "--ode-steps", "20")
    assert status == 1, err
    assert err == ""
    lines = out.splitlines()
    assert lines[-2:] == ["CHECK boost_grid_converged FAIL 5", "CHECK boost_pde_residual FAIL nan"]
    assert (tmp_path / "psi0_grid.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--cell", "0", "0"], ["--cell", "10", "0.4"]])
def test_boost_rejects_nonpositive_ode_steps(tmp_path, extra):
    proc = subprocess.run(
        [sys.executable, "-m", "regsyn.cli", "boost", "--out", str(tmp_path),
         "--ode-steps", "0", *extra],
        capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert "--ode-steps must be >= 1" in proc.stderr
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize("cell", [("nan", "0.3"), ("0", "nan"), ("inf", "0.3"),
                                  ("-5", "-2"), ("0", "-0.1")])
def test_boost_rejects_bad_cell(tmp_path, cell):
    # a good cell first: nothing is solved or printed before the check
    proc = _cli("boost", "--out", str(tmp_path), "--ode-steps", "100",
                "--cell", "10", "0.4", "--cell", *cell)
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: --cell: need finite W1 and RHO >= 0, got ")
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cell, bound", [
    (("200", "0.1"), "need |W1| < w1max = 97.979589711327122, got 200 0.1"),
    (("-97.98", "0"), "need |W1| < w1max = 97.979589711327122, got -97.98 0"),
    (("0", "5"), "need RHO <= rho_max(W1) = 0.90000000000000013, got 0 5"),
    (("-90", "0"), "need RHO <= rho_max(W1) = -0.75000000000000022, got -90 0"),
])
def test_boost_rejects_cell_outside_domain(tmp_path, cell, bound):
    # a good cell first: nothing is solved or printed before the check
    proc = _cli("boost", "--out", str(tmp_path), "--ode-steps", "100",
                "--cell", "10", "0.4", "--cell", *cell)
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: --cell: {bound}\n"
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("first, second, tag", [
    (("10", "0.1234567"), ("10", "0.1234568"), "10_0p123457"),
    (("10", "0.4"), ("10.0", "0.40"), "10_0p4"),
    (("-50", "0.3"), ("-50.0000001", "0.3"), "m50_0p3"),
])
def test_boost_rejects_cells_sharing_a_tag(tmp_path, first, second, tag):
    # %g keeps six digits, so two such circles would print one CHECK name
    # and write one orbit file; a good cell between them changes nothing.
    # Each circle's domain and tag are checked before the next circle's,
    # so a circle outside the domain after them is not reached
    proc = _cli("boost", "--out", str(tmp_path), "--ode-steps", "100",
                "--cell", *first, "--cell", "0", "0", "--cell", *second, "--cell", "0", "5")
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    circles = [f"({float(w1)}, {float(rho)})" for w1, rho in (first, second)]
    assert proc.stderr == (f"error: --cell: circles {circles[0]} and {circles[1]} share "
                           f"the tag {tag} of their CHECK line and orbit file\n")
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


def test_boost_solves_every_cell_before_output(tmp_path):
    # the second circle escapes at 100 ODE steps (it converges at 2000)
    proc = _cli("boost", "--out", str(tmp_path), "--ode-steps", "100",
                "--cell", "10", "0.4", "--cell", "0", "0.9")
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: orbit escaped psi <= -z20 at (w1, rho) = (0.0, 0.9)\n"
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


def test_boost_accepts_cell_on_domain_edge(tmp_path, capsys):
    # RHO = rho_max(0) = beta*D0*z20 itself is admitted
    status, out, _ = _run(capsys, "boost", "--out", str(tmp_path),
                          "--cell", "0", "0.9000000000000001")
    assert status == 0, out
    assert _checks(out)["boost_cell_0_0p9"][0]


@pytest.mark.parametrize("argv, message", [
    (("simulate", "example53", "--T", "1e300", "--dt", "1e-6"),
     "--T/--dt: 1e+306 rows x 11 floats need 8.8e+307 bytes"),
    (("boost", "--grid-w1", "2000", "--grid-rho", "2000", "--ode-steps", "100000"),
     "--grid-w1/--grid-rho/--ode-steps: 1e+05 rows x 4002026 floats need 3.202e+12 bytes"),
    (("boost", "--ode-steps", "10000000000", "--cell", "10", "0.4"),
     "--ode-steps: 1e+10 rows x 29 floats need 2.32e+12 bytes"),
    (("boost", "--ode-steps", "10000000000", "--cell", "10", "0.4", "--cell", "20", "0.3"),
     "--ode-steps: 1e+10 rows x 32 floats need 2.56e+12 bytes"),
])
def test_commands_check_the_memory_budget_first(tmp_path, capsys, monkeypatch,
                                                 argv, message):
    # rejected before any solve starts, so nothing large is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(cli, "simulate", refuse)
    # the grid counts BOOST_STEP_FLOATS once per worker process; one keeps
    # the message the same on every machine
    monkeypatch.setattr(regeq, "_grid_workers", lambda cells: 1)
    monkeypatch.setattr(regeq, "solve_boost_grid", refuse)
    monkeypatch.setattr(regeq, "solve_psi0", refuse)
    status, out, err = _run(capsys, *argv, *(("--out", str(tmp_path / "x"))
                                             if argv[0] == "boost" else ()))
    assert status == 2
    assert err == f"error: {message}, over the memory budget of 1073741824 bytes\n"
    assert out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, size, message", [
    # example51 over T = 1 at dt = 0.01: 101 rows of x (2), xi (2), w (2),
    # e, u and t
    (("simulate", "example51", "--T", "1", "--dt", "0.01"), 8 * 101 * 9,
     "101 rows x 9 floats"),
    # one cell at 200 steps: 201 rows of orbit, gamma, tau and
    # BOOST_STEP_FLOATS
    (("boost", "--ode-steps", "200", "--cell", "10", "0.4"), 8 * 201 * 29,
     "201 rows x 29 floats"),
    # a 2x3 grid at 1000 steps: 1001 rows of the 6 orbits, pde_residual's
    # copy of a 3-cell column and BOOST_STEP_FLOATS
    (("boost", "--grid-w1", "2", "--grid-rho", "3", "--ode-steps", "1000"), 8 * 1001 * 35,
     "1001 rows x 35 floats"),
    # a 2x40 grid at 1000 steps on 2 CPUs: 80 cells, at most 2 workers of
    # FLOAT_CELLS = 40 cells, so 1001 rows of the 80 orbits, pde_residual's
    # copy of a 40-cell column and BOOST_STEP_FLOATS per worker
    (("boost", "--grid-w1", "2", "--grid-rho", "40", "--ode-steps", "1000"),
     8 * 1001 * (80 + 40 + 2 * 26), "1001 rows x 172 floats"),
])
def test_memory_budget_bound_is_inclusive(tmp_path, capsys, monkeypatch, argv,
                                          size, message):
    if argv[0] == "boost":
        argv += ("--out", str(tmp_path))
    assert regeq.FLOAT_CELLS == 40
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "MEMORY_BUDGET", size)
    assert _run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MEMORY_BUDGET", size - 1)
    status, _, err = _run(capsys, *argv)
    assert status == 2
    assert f"{message} need {size:.4g} bytes" in err


_BOOST_PARAMS = {"C": "4e-5", "L": "0.004", "R": "400", "r": "0.25",
                 "v0": "100", "z10": "400", "alpha": "628.3185307179586"}


@pytest.mark.parametrize("edit, message", [
    ({"bogus": "1"}, "[params]: got an unexpected keyword argument 'bogus'"),
    ({"L": None}, "[params]: missing a required argument: 'L'"),
    ({"C": "nan"}, "[params]: parameter C must be finite and positive"),
    ({"alpha": "1e400"}, "[params]: parameter alpha must be finite and positive"),
    ({"L": "inf"}, "[params]: parameter L must be finite and positive"),
    ({"C": "-1"}, "[params]: parameter C must be finite and positive"),
    ({"r": "0"}, "[params]: parameter r must be finite and positive"),
    ({"beta": "nan"}, "[params]: beta must lie in (0, 1)"),
    ({"v0": "900"}, "[params]: duty ratio 2.249722187920199 outside (0, 1)"),
    # a zero discriminant: D0 = 1/2 gives D0*z10 = r*z20 = 1/2
    ({"v0": "1", "z10": "1", "R": "4", "r": "1"},
     "[params]: standing assumption D0*z10 > r*z20 violated"),
    ({"v0": "1", "z10": "1", "R": "2", "r": "1"},
     "[params]: no real duty ratio: discriminant negative"),
    # D0 = 5e-11, and R*D0 = 5e-331 rounds to 0
    ({"C": "1", "L": "1", "R": "1e-320", "r": "1", "v0": "1e-200", "z10": "1e-190",
      "alpha": "1"}, "[params]: R*D0 underflows to 0, so z20 = z10/(R*D0) is undefined"),
])
def test_boost_params_keys_checked(tmp_path, capsys, edit, message):
    params = {**_BOOST_PARAMS, **edit}
    path = tmp_path / "conv.sys"
    path.write_text("[params]\n" + "".join(
        f"{k} = {v}\n" for k, v in params.items() if v is not None))
    status, out, err = _run(capsys, "boost", "--params", str(path),
                            "--out", str(tmp_path), "--cell", "10", "0.4")
    assert status == 2
    assert err == f"error: {path} {message}\n"
    assert out == ""


def test_boost_params_file_accepted(tmp_path, capsys):
    path = tmp_path / "conv.sys"
    path.write_text("[params]\n" + "".join(
        f"{k} = {v}\n" for k, v in _BOOST_PARAMS.items()))
    status, out, _ = _run(capsys, "boost", "--params", str(path),
                          "--out", str(tmp_path), "--ode-steps", "200",
                          "--cell", "10", "0.4")
    assert status == 0, out
    assert _checks(out)["boost_cell_10_0p4"][0]


def test_boost_params_name_is_a_file_first(tmp_path, capsys, monkeypatch):
    # --params reads ./example53 when that file exists, as simulate does;
    # without it, the built-in, whose [params] are boost's defaults
    monkeypatch.chdir(tmp_path)
    argv = ("boost", "--ode-steps", "200", "--cell", "10", "0.4")
    default = _run(capsys, *argv, "--out", "default")
    assert default[0] == 0, default
    assert _run(capsys, *argv, "--params", "example53", "--out", "builtin") == default
    assert ((tmp_path / "builtin" / "orbit_10_0p4.csv").read_bytes()
            == (tmp_path / "default" / "orbit_10_0p4.csv").read_bytes())
    assert os.listdir("builtin") == os.listdir("default")
    (tmp_path / "example53").write_text(
        examples.get("example53").text.replace("\nR = 400\n", "\nR = 410\n"))
    status, out, err = _run(capsys, *argv, "--params", "example53", "--out", "file")
    assert (status, err) == (0, "")
    D0, _ = regeq.boost_equilibrium(v0=100.0, z10=400.0, R=410.0, r=0.25)
    assert f"D0 = {D0:.17g}" in out.splitlines()
    assert D0 != regeq.BoostParams.default().D0


@pytest.mark.parametrize("command", ["verify", "synthesize"])
def test_controller_differentiated_once(capsys, monkeypatch, command):
    # each model takes its Jacobians once, when it is loaded: a second
    # ImmersionMap.target, say, would differentiate example52's phi and
    # lambda again
    calls = []
    jacobian = model.jacobian

    def spy(exprs, *args):
        calls.append(tuple(exprs))
        return jacobian(exprs, *args)

    monkeypatch.setattr(model, "jacobian", spy)
    for name in ("example51", "example52"):
        sf = examples.get(name).load()
        ctrl = sf.controller or sf.immersion.target
        loaded = [sf.exo.s, (*sf.plant.f, sf.plant.h), ctrl.phi, (ctrl.lam,)]
        calls.clear()
        assert _run(capsys, command, name)[0] == 0
        assert calls == loaded


def test_diff_is_one_pass(monkeypatch):
    # gradient folds a subtree free of a variable to 0 on its own and finds
    # the variables an expression holds as it walks it, so loading asks
    # which variables an expression holds once, for the variable check
    # (free_vars' own recursion is not counted)
    calls, running = [], []
    free_vars = expr.free_vars

    def spy(e):
        if not running:
            calls.append(e)
        running.append(e)
        try:
            return free_vars(e)
        finally:
            running.pop()

    monkeypatch.setattr(expr, "free_vars", spy)
    sf = examples.get("example53").load()
    plant, ctrl = sf.plant, sf.controller
    assert calls == [*sf.exo.s, *plant.f, plant.g, plant.q, *ctrl.phi, ctrl.lam]


def _key(M):
    M = np.asarray(M, dtype=float)
    return M.shape, M.tobytes()


@pytest.mark.parametrize("name", ["example51", "example52", "example53"])
def test_each_matrix_analysed_once(capsys, monkeypatch, name):
    sf = examples.get(name).load()
    lin = model.linearize(sf.plant, sf.exo)
    Phi = synth.InternalModel.from_controller(cli._internal_model(name, sf, lin)).Phi
    keys = []
    eigen = specan.eigen

    def spy(M):
        keys.append(_key(M))
        return eigen(M)

    monkeypatch.setattr(specan, "eigen", spy)
    # A, Phi and the closed loop of each eps tried
    assert _run(capsys, "synthesize", name)[0] == 0
    assert len(keys) == len(set(keys))
    assert {_key(lin.A), _key(Phi)} <= set(keys)

    keys.clear()
    assert _run(capsys, "verify", name)[0] == 0
    counts = Counter(keys)
    # once per role: an internal model that copies the exosystem has Phi
    # equal to S bit for bit, and verify analyses S and Phi apart
    twice = {_key(Phi)} if _key(Phi) == _key(lin.S) else set()
    assert _key(Phi) in counts
    assert counts == {k: 2 if k in twice else 1 for k in counts}


def test_example_list_and_dump(capsys):
    status, out, _ = _run(capsys, "example", "list")
    assert status == 0
    for name in ("example51", "example52", "example53"):
        assert name in out
    status, out, _ = _run(capsys, "example", "dump", "example51")
    assert status == 0
    assert out == examples.get("example51").text


_GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden set of each OpenBLAS kernel (openblas_kernel()): the values
# that pass through LAPACK's eigvals, solve and svd move in their last
# digits between the AVX-512 kernels and the older ones, and nothing else
# does.  OPENBLAS_CORETYPE=Zen loads Haswell, Prescott loads Katmai and
# Cooperlake loads SkylakeX
_GOLDEN_SETS = {"SkylakeX": _GOLDEN, **dict.fromkeys(
    ("Haswell", "Sandybridge", "Nehalem", "Katmai"), _GOLDEN / "haswell")}
_HASWELL_ENV = {**_SUBPROCESS_ENV, "OPENBLAS_CORETYPE": "Haswell"}


def _golden(kernel, command, name):
    """The pinned stdout of `regsyn command name` on the OpenBLAS kernel."""
    assert kernel in _GOLDEN_SETS, f"no golden set for the OpenBLAS kernel {kernel}"
    return (_GOLDEN_SETS[kernel] / f"{command}_{name}.txt").read_text(encoding="utf-8")


@functools.cache
def _haswell_kernel():
    """The kernel a process runs under OPENBLAS_CORETYPE=Haswell, or None."""
    return subprocess.run([sys.executable, str(Path(__file__).parent / "openblas_kernel.py")],
                          env=_HASWELL_ENV, capture_output=True, text=True,
                          check=True).stdout.strip() or None


@pytest.mark.parametrize("command", ["verify", "synthesize"])
@pytest.mark.parametrize("name", ["example51", "example52", "example53"])
def test_builtin_output_is_pinned(capsys, command, name):
    # tests/golden holds the full stdout of each command; a refactor of the
    # synthesis path must leave every byte of it unchanged.  It is checked
    # against the golden set of the kernel this process runs
    status, out, err = _run(capsys, command, name)
    assert status == 0, err
    assert out == _golden(openblas_kernel(), command, name)


@pytest.mark.parametrize("command", ["verify", "synthesize"])
@pytest.mark.parametrize("name", ["example51", "example52", "example53"])
def test_builtin_output_is_pinned_under_haswell(command, name):
    # the same commands on OpenBLAS's Haswell kernels, as on an x86 CPU
    # without AVX-512, against the golden set of the kernel that process
    # reports
    run = subprocess.run([sys.executable, "-m", "regsyn.cli", command, name],
                         env=_HASWELL_ENV, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == _golden(_haswell_kernel(), command, name)


@pytest.fixture(scope="module")
def haswell_kernel():
    kernel = _haswell_kernel()
    if kernel != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell runs the kernel {kernel or 'unknown'}")


def test_example53_dump_is_the_same_under_haswell(haswell_kernel):
    # the built-ins are fixed text: example53's lam, which LAPACK's kernels
    # would move in its last digits, prints the same bytes on either kernel
    argv = [sys.executable, "-m", "regsyn.cli", "example", "dump", "example53"]
    native = {k: v for k, v in _SUBPROCESS_ENV.items() if k != "OPENBLAS_CORETYPE"}
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            for env in (native, _HASWELL_ENV)]
    assert [(run.returncode, run.stdout) for run in runs] == [
        (0, examples.get("example53").text)] * 2


_EXAMPLE51 = examples.get("example51").text
_EXAMPLE52 = examples.get("example52").text
# a flat sum of 250 terms: its generated source is one flat sum too
_DEEP_SUM = _EXAMPLE51.replace("f1 = x2 - w1", "f1 = x2 - w1" + " + 0*x1" * 250)


def _nested(v, depth):
    """v - (v - (... - v)), depth parentheses deep."""
    return f"{v} - (" * depth + v + ")" * depth


# 120 parentheses in f1 and 120 in pi1: the residual f1(pi(w), ...) puts
# pi1 inside f1, more than the 200 nested parentheses CPython's parser
# accepts, while the kernel, which holds f1 alone, compiles
_DEEP_RESIDUAL = (_EXAMPLE51.replace("f1 = x2 - w1", f"f1 = x2 - w1 + 0*({_nested('x1', 120)})")
                  .replace("pi1 = 0", f"pi1 = 0*({_nested('w1', 120)})"))
# 600 zero terms in f1 and 600 in pi1: the residual f1(pi(w), ...) is a
# tree too deep for the recursion that generates its source
_DEEP_TREE = (_EXAMPLE51.replace("f1 = x2 - w1", "f1 = x2 - w1" + " + 0*x1" * 600)
              .replace("pi1 = 0", "pi1 = 0" + " + 0*w1" * 600))
# x1^x1^...^x1 nests 210 calls of _pow in the kernel's source; 0 times it
# is 0 at the origin, with derivative 0
_DEEP_POWER = _EXAMPLE51.replace("f1 = x2 - w1", "f1 = x2 - w1 + 0*x1" + "^x1" * 210)
# oscillators at 1 and 1.0000001 rad/s: specan.eigen counts them as one
# eigenvalue, their mean, where Phi - lam*I has no null vector within the
# Jordan structure's tolerance
_CLOSE_PAIRS = ("[plant]\nn = 2\nf1 = x2\nf2 = -x1 - x2 + u\ng = x1\n[reference]\nq = 0\n"
                "[exosystem]\np = 2\ns1 = w2\ns2 = -w1\n[controller]\nnc = 4\n"
                "phi1 = xi2\nphi2 = -xi1\nphi3 = 1.0000001*xi4\nphi4 = -1.0000001*xi3\n"
                "lam = xi1 + xi3\nbc = 0, 0, 0, 0\n")
# u does not enter f, so the linear regulator equations have no solution
_NO_INPUT = ("[plant]\nn = 1\nf1 = -x1\ng = x1\n[reference]\nq = w1\n"
             "[exosystem]\np = 2\ns1 = w2\ns2 = -w1\n")


@pytest.mark.parametrize("command", ["verify", "synthesize"])
def test_lapack_failure_names_the_file(tmp_path, capsys, monkeypatch, command):
    # a LAPACK routine that fails on a finite matrix (an SVD that does not
    # converge) is an input error of the system file, not a traceback
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    path = tmp_path / "system.sys"
    path.write_text(_EXAMPLE51)
    assert _run(capsys, command, str(path)) == (
        2, "", f"error: {path}: SVD did not converge\n")


def test_deep_sum_simulates_as_example51(tmp_path, capsys):
    # the kernel adds the 250 zero terms and changes no bit of the CSV
    got = []
    for name, text in (("deep", _DEEP_SUM), ("flat", _EXAMPLE51)):
        path, out = tmp_path / f"{name}.sys", tmp_path / f"{name}.csv"
        path.write_text(text)
        status, stdout, err = _run(capsys, "simulate", str(path), "--T", "0.05",
                                   "--ic=0.1,-0.2,0,0,0.3,0", "--out", str(out))
        got.append((status, stdout.replace(str(out), "OUT"), err, out.read_bytes()))
    assert got[0] == got[1] and got[0][0] == 0


@pytest.mark.parametrize("argv, text, status, out, err", [
    pytest.param(("verify", "FILE"), "[exosystem]\np = 1\ns1 = 0\n", 2, "",
                 "error: verify needs [plant], [reference] and [exosystem]\n",
                 id="verify-without-plant"),
    pytest.param(("simulate", "FILE"), _EXAMPLE51, 2, "",
                 "error: --T is required for systems loaded from files\n",
                 id="simulate-file-without-T"),
    pytest.param(("boost", "--params", "FILE", "--cell", "10", "0.4"), _EXAMPLE51, 2, "",
                 "error: FILE has no [params] section\n", id="boost-params-without-params"),
    *(pytest.param((command, "FILE"), _NO_INPUT, 2, "",
                   # the condition number depends on the BLAS
                   "error: FILE: linearized regulator system is singular or ill-conditioned "
                   "(cond ~", id=f"{command}-singular-regulator-equations")
      for command in ("verify", "synthesize")),
    pytest.param(("verify", "FILE"), _EXAMPLE51.replace("f1 = x2 - w1", "f1 = x2 - 1.2.3"),
                 2, "", "error: FILE [plant]: bad number literal '1.2.3' (at offset 5)\n",
                 id="verify-bad-literal"),
    pytest.param(("verify", "FILE"), _EXAMPLE51.replace("pi2 = w1", "pi2 = w1 + sqrt(w1)"),
                 2, "", "error: FILE [regulator_solution]: evaluation failed at w = [",
                 id="verify-residual-eval-error"),
    # w1^4 overflows at a sample of a ball inside radius's range
    pytest.param(("verify", "FILE"), _EXAMPLE51.replace("radius = 0.3", "radius = 1e100"),
                 2, "", "error: FILE [regulator_solution]: evaluation failed at w = "
                 "[2.7392337464290852e+99, -4.604265724722593e+99]: "
                 "(34, 'Numerical result out of range')\n", id="verify-residual-overflow"),
    pytest.param(("verify", "FILE"), _EXAMPLE52.replace(
                     "tau1 = w1^2 + w2^2", "tau1 = w1^2 + w2^2 + 0*sqrt(abs(w1) - 100*w1^2)"),
                 2, "", "error: FILE [immersion]: evaluation failed at w = [",
                 id="verify-immersion-eval-error"),
    # 0 at the origin and NaN (inf - inf) at every other sample
    pytest.param(("verify", "FILE"), _EXAMPLE51.replace(
                     "pi2 = w1", "pi2 = w1 + (1e308*w1*1e10 - 1e308*w1*1e10)"),
                 1, ("CHECK regulator_residual_dynamics FAIL nan",), "",
                 id="verify-nan-residual"),
    pytest.param(("synthesize", "FILE", "--margin", "-1"), _EXAMPLE51, 2, "",
                 "error: --margin: need finite MARGIN >= 0, got -1\n",
                 id="synthesize-negative-margin"),
    pytest.param(("synthesize", "FILE", "--eps0", "1e200"), _EXAMPLE51, 1,
                 ("CHECK synthesis FAIL block 0: eps^2 overflows at eps = "
                  "9.9999999999999997e+199",), "", id="synthesize-overflowing-eps0"),
    pytest.param(("synthesize", "FILE", "--factor", "nan"), _EXAMPLE51, 2, "",
                 "error: --factor: need 0 < FACTOR < 1, got nan\n",
                 id="synthesize-nan-factor"),
    pytest.param(("synthesize", "FILE", "--max-halvings", "-5"), _EXAMPLE51, 2, "",
                 "error: --max-halvings: need MAX_HALVINGS >= 0, got -5\n",
                 id="synthesize-negative-halvings"),
    # eps reaches 0 after 79 halvings; every later trial would repeat it
    pytest.param(("synthesize", "FILE", "--eps0", "1e-300", "--max-halvings", "30000"),
                 _EXAMPLE52, 1, ("CHECK synthesis FAIL eps underflows to 0 after 79 halvings",),
                 "", id="synthesize-eps-underflow"),
    pytest.param(("synthesize", "example52", "--max-halvings", "0"), "", 1,
                 ("CHECK synthesis FAIL no stabilizing eps found in 0 halvings",), "",
                 id="synthesize-no-halvings"),
    pytest.param(("synthesize", "FILE"), _CLOSE_PAIRS, 1, re.compile(
                     r"^CHECK synthesis FAIL Jordan structure failed: eigenvalue "
                     r"1\.00000005\d*j: geometric multiplicity 0 != 1$", re.M), "",
                 id="synthesize-jordan-structure"),
    pytest.param(("synthesize", "FILE", "--eps0", "1e308"), _EXAMPLE52, 1,
                 ("CHECK synthesis FAIL block 0: Bc overflows at eps = 1e+308",), "",
                 id="synthesize-overflowing-bc"),
    pytest.param(("verify", "FILE"), _DEEP_RESIDUAL, 2, "",
                 "error: FILE [regulator_solution]: cannot compile the regulator equation "
                 "residuals: too many nested parentheses\n", id="verify-deep-generated-source"),
    pytest.param(("verify", "FILE"), _DEEP_TREE, 2, "",
                 "error: FILE [regulator_solution]: cannot compile the regulator equation "
                 "residuals: nesting too deep\n", id="verify-deep-residual-tree"),
    pytest.param(("simulate", "FILE", "--T", "0.01"), _DEEP_POWER, 2, "",
                 "error: FILE: cannot compile the closed-loop RK4 kernel: "
                 "too many nested parentheses\n", id="simulate-deep-generated-source"),
    # the 250 zero terms change no bit of example51's output
    pytest.param(("verify", "FILE"), _DEEP_SUM, 0,
                 lambda: _golden(openblas_kernel(), "verify", "example51").splitlines(), "",
                 id="verify-deep-sum"),
    pytest.param(("simulate", "FILE", "--T", "0.01"), _DEEP_RESIDUAL, 0,
                 ("CHECK simulation_finite PASS -",), "", id="simulate-deep-residual"),
    pytest.param(("simulate", "FILE"), _EXAMPLE51.split("[controller]")[0], 2, "",
                 "error: FILE: simulate needs a [controller] section (run synthesize first)\n",
                 id="simulate-without-controller"),
    pytest.param(("simulate", "example52"), "", 2, "",
                 "error: <builtin:example52>: simulate needs a [controller] section "
                 "(run synthesize first)\n", id="simulate-builtin-without-controller"),
    pytest.param(("verify", "FILE"), _EXAMPLE52.split(
                     "[regulator_solution]")[0], 0,
                 ("note: [immersion] present without [regulator_solution]; "
                  "immersion residual not evaluated",), "", id="verify-immersion-alone"),
    # an --out that cannot be written (NODIR lies in a missing directory)
    pytest.param(("simulate", "example51", "--T", "0.01", "--out", "NODIR"), "", 2,
                 ("CHECK simulation_finite PASS -", "peak = 1"),
                 "error: --out: cannot write NODIR: No such file or directory\n",
                 id="simulate-unwritable-out"),
    pytest.param(("synthesize", "example51", "--out", "NODIR"), "", 2,
                 # the abscissa this kernel's golden set pins
                 lambda: [line for line in _golden(openblas_kernel(), "synthesize",
                                                   "example51").splitlines()
                          if line.startswith("CHECK synthesis ")],
                 "error: --out: cannot write NODIR: No such file or directory\n",
                 id="synthesize-unwritable-out"),
    pytest.param(("boost", "--cell", "0", "0", "--out", "FILE"), "", 2,
                 ("CHECK boost_equilibrium PASS 0.2474744871391589",),
                 "error: --out: cannot write FILE: File exists\n", id="boost-out-is-a-file"),
    pytest.param(("example", "dump", "nope"), "", 2, "",
                 "error: unknown example 'nope'; available: example51, example52, example53\n",
                 id="example-dump-unknown"),
    # a system file that is a directory (DIR) or is not UTF-8
    *(pytest.param((*command, "DIR"), "", 2, "", "error: DIR: cannot read: Is a directory\n",
                   id=f"{command[0]}-directory")
      for command in (("verify",), ("simulate",), ("synthesize",), ("boost", "--params"))),
    # 1e200*1e200 is inf: the linearization would hold it.  Every model
    # takes its Jacobian when it is loaded, so each command stops there
    *(pytest.param(argv, _EXAMPLE51.replace(old, new), 2, "",
                   f"error: FILE {message}\n", id=f"{argv[0]}-{name}")
      for argv in (("verify", "FILE"), ("synthesize", "FILE"), ("simulate", "FILE", "--T", "0.01"))
      for name, old, new, message in (
          ("non-finite-derivative", "f1 = x2 - w1", "f1 = x2 - w1 + 1e200*1e200*x1",
           "[plant]: 'f1': derivative in x1 is inf"),
          ("controller-non-finite-derivative", "phi1 = xi2 - xi1^4",
           "phi1 = xi2 - xi1^4 + 1e200*1e200*xi1",
           "[controller]: 'phi1': derivative in xi1 is inf"),
          # |x1| has no derivative at 0: x1/sqrt(x1^2) is 0/0
          ("derivative-division-by-zero", "f2 = -x1", "f2 = sqrt(x1^2) - x1",
           "[plant]: 'f2': derivative in x1: division by zero"))),
    pytest.param(("verify", "FILE"), _EXAMPLE52.replace(
                     "phi2 = -2*xi3", "phi2 = -2*xi3 + 1e200*1e200*xi3"),
                 2, "", "error: FILE [immersion]: 'phi2': derivative in xi3 is inf\n",
                 id="verify-immersion-non-finite-derivative"),
    pytest.param(("verify", "FILE"), b"\xff\xfe[plant]\n", 2, "",
                 "error: FILE: cannot read: 'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte\n", id="verify-not-utf8"),
])
def test_cli_exit_paths(tmp_path, capsys, argv, text, status, out, err):
    # out is the whole stdout, a pattern it must match, or a tuple of lines
    # it must contain or a function that returns them; err is the start of
    # a stderr that is one line on exit 2 and empty otherwise; text is the
    # FILE's, bytes or str
    path = tmp_path / "system.sys"
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    names = {"FILE": str(path), "NODIR": str(tmp_path / "missing" / "out"),
             "DIR": str(tmp_path)}
    argv = [names.get(a, a) for a in argv]
    if argv[0] == "boost" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    got_status, got_out, got_err = _run(capsys, *argv)
    assert got_status == status, got_err
    if isinstance(out, str):
        assert got_out == out
    elif isinstance(out, re.Pattern):
        assert out.search(got_out), got_out
    else:
        out = out() if callable(out) else out
        assert out and set(out) <= set(got_out.splitlines()), got_out
    assert got_err.startswith(re.sub("FILE|NODIR|DIR", lambda m: names[m[0]], err))
    assert got_err.count("\n") == (status == 2)
