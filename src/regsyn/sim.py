"""Closed-loop simulation with fixed-step RK4.

Integrates the forced nonlinear closed loop (plant + exosystem +
controller) and computes error decay metrics.  One code generator
(_rk4_kernel) turns the model expressions into a single Python function
per system that runs all four RK4 stages over scalar locals and packs
each row into one preallocated table in CSV column order; a bounded
cache keyed on the generated source keeps the compiled functions.
simulate runs that function one CSV block of rows at a time, each call
from the last row of the one before, and can hand each block once final
to one forked process (_CsvWorker) that encodes it into a memory file
while the next block is integrated; the calling process then writes the
CSV file from that text.  The integrator is deterministic: identical
inputs produce bit-identical trajectories, equal to evaluating every
expression with expr.evaluate, and the CSV bytes do not depend on who
encodes them.
"""

from __future__ import annotations

import ctypes
import errno
import functools
import math
import mmap
import os
import signal
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, _codegen, _define, _literal
from .model import ControllerModel, ExosystemModel, PlantModel, w_names, x_names, xi_names

DIVERGENCE_CAP = 1e6
# compiled RK4 kernels kept for the next simulate of the same system
KERNEL_CACHE_SIZE = 16
# values per CSV block: enough to repay numpy's per-call cost, few enough
# to keep a block's arrays under 0.5 MB
CSV_BLOCK_VALUES = 3000
# A table of at least ENCODER_BLOCKS CSV blocks is encoded by a forked
# _CsvWorker while the kernel runs.  The fork and the copy-on-write faults
# after it cost a few ms: on a 2-vCPU x86 VM, `simulate --out` of
# example53 (272-row blocks) and example51 (333), medians of 81
# alternating in-process runs with the worker against without, two passes
# each, took -0.3 and +0.2 ms (example53) and -0.6 and -0.8 ms
# (example51) at 6 blocks, -0.7 and -0.9 ms and -1.1 ms twice at 7, and
# -1.7 ms twice and -1.0 and -1.4 ms at 8; 61 runs took -4.5 and -4.7 ms
# and -4.1 and -4.4 ms at 15 blocks.
ENCODER_BLOCKS = 7
# a message to the encoder process: the count of table rows final
_ROWS = struct.Struct("<q")
# the encoder process's last message: the rows and bytes it encoded
_ENCODED = struct.Struct("<qq")
# Linux's prctl, looked up before any fork; its option PR_SET_PDEATHSIG
# names the signal a process gets when the thread that forked it dies
_prctl = ctypes.CDLL(None).prctl if sys.platform.startswith("linux") else None
_PR_SET_PDEATHSIG = 1


class SimulationError(Exception):
    pass


class DivergenceError(SimulationError):
    """The state left the DIVERGENCE_CAP ball at time t."""

    def __init__(self, t):
        super().__init__(f"state diverged at t = {t}")
        self.t = t


@dataclass(frozen=True)
class Trajectory:
    """The rows t | x | xi | w | e | u of a run, in CSV column order: one
    (N+1) x (n + nc + p + 3) table with a column view per block."""
    table: np.ndarray
    n: int
    nc: int

    t = property(lambda self: self.table[:, 0])
    x = property(lambda self: self.table[:, 1:1 + self.n])
    xi = property(lambda self: self.table[:, 1 + self.n:1 + self.n + self.nc])
    w = property(lambda self: self.table[:, 1 + self.n + self.nc:-2])
    e = property(lambda self: self.table[:, -2])
    u = property(lambda self: self.table[:, -1])

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])


def _cpus():
    """CPUs this process may run on; 1 where fork or sched_getaffinity is
    missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shared(shape, dtype=float):
    """A zeroed array in an anonymous shared mmap (at least 1 byte long),
    so that what a forked child writes into it the caller reads."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, max(1, dtype.itemsize * int(np.prod(shape)))))


class _Children:
    """Forked processes that do not outlive their owner.

    fork(child, *args) runs child(*args) in a forked process, which then
    leaves through os._exit: with 0 if child returns, 1 if it raises, and
    never into the caller's code.  An OSError of the fork propagates.
    wait() reaps each child; close(), or leaving the `with`, kills each
    child still there with SIGKILL and reaps it.  On Linux the kernel also
    SIGKILLs a child whose caller dies, so a caller killed by SIGKILL
    leaves none; a child whose caller died before that was set up exits
    at once."""

    def __init__(self):
        self.pids = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def fork(self, child, *args):
        caller = os.getpid()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if _prctl is not None:
                    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() == caller:
                    child(*args)
                    code = 0
            finally:
                os._exit(code)
        self.pids.append(pid)

    def wait(self):
        while self.pids:
            os.waitpid(self.pids[-1], 0)
            self.pids.pop()

    def close(self):
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
        self.wait()


def _block_rows(cols):
    """Rows of one CSV block of a cols-column table."""
    return max(1, CSV_BLOCK_VALUES // cols)


def _csv_header(n, nc, p):
    return ["t", *x_names(n), *xi_names(nc), *w_names(p), "e", "u"]


def _check_grid(T, dt):
    if not (dt > 0 and T >= dt and math.isfinite(T / dt)):
        raise SimulationError("need finite dt > 0 and T >= dt")
    return int(round(T / dt))


def _rk4_kernel(plant: PlantModel, exo: ExosystemModel, ctrl: ControllerModel,
                stage_checks=False):
    """Generate the RK4 loop of the closed loop.

    The generated function takes the initial state as scalars, then steps,
    dt and a writable buffer over the rows t | state | e | u of a
    C-contiguous float64 table.  It packs the state of row k, returns k as
    soon as a state component is NaN or exceeds DIVERGENCE_CAP in magnitude
    (before the row's u and e are evaluated), packs the row's e and u and
    returns -1 once every row is written; it never writes t.  Each
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
    loop = [f"o = k * {8 * (dim + 3)}", f"_pack_state(tab, o + 8, {', '.join(state)})",
            f"if not ({bounded(state)}):", "    return k",
            *u, *e, f"_pack_eu(tab, o + {8 * (dim + 1)}, e1, u1)", "if k == steps:", "    break",
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
    body = ("half = dt / 2.0", "sixth = dt / 6.0", "for k in range(steps + 1):",
            *("    " + line for line in loop), "return -1")
    return _compiled_kernel(dim, body)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compiled_kernel(dim, body):
    """The _rk4 function of _rk4_kernel's source lines, compiled once per
    source: models that compare equal may give different source (Num(0.0)
    == Num(-0.0)), so the cache is keyed on the lines, not on the models."""
    state = [f"s{i}" for i in range(dim)]
    return _define("_rk4", state + ["steps", "dt", "tab"], body, "the closed-loop RK4 kernel",
                   _pack_state=struct.Struct(f"{dim}d").pack_into,
                   _pack_eu=struct.Struct("2d").pack_into)


def simulate(plant: PlantModel, exo: ExosystemModel, ctrl: ControllerModel,
             x0, xi0, w0, T, dt, encoder=None) -> Trajectory:
    """RK4 on dx = f(x, lambda(xi), w), dxi = phi(xi) + Bc h(x, lambda(xi), w),
    dw = s(w).  Aborts when the state infinity-norm exceeds the divergence
    cap or the state is NaN (local results only cover small data; runaway
    must fail loudly).  A step whose evaluation fails (an overflow, say)
    after the input of one of its stages left the cap ball diverges at the
    end of that step; any other evaluation error is raised.

    The kernel runs one CSV block of rows at a time, each call from the
    packed state of the last row the call before wrote, so every bit is
    that of one call.  With an encoder (a _CsvWorker), the table is the
    encoder's and the rows of each block are handed to it once final."""
    n, nc, p = plant.n, ctrl.nc, exo.p
    x0, xi0, w0 = (np.asarray(v, dtype=float) for v in (x0, xi0, w0))
    if x0.shape != (n,) or xi0.shape != (nc,) or w0.shape != (p,):
        raise SimulationError("initial state dimensions do not match the models")
    steps = _check_grid(T, dt)
    tab = (np.empty((steps + 1, n + nc + p + 3)) if encoder is None
           else encoder.table(steps + 1, _csv_header(n, nc, p)))
    tab.fill(np.nan)   # NaN until written
    np.multiply(np.arange(steps + 1), dt, out=tab[:, 0])
    kernel = _rk4_kernel(plant, exo, ctrl)
    state = np.concatenate([x0, xi0, w0]).tolist()
    block = _block_rows(tab.shape[1])
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        try:
            k = kernel(*state, stop - start, dt, memoryview(tab[start:stop + 1]))
        except EvalError:
            # every row written is finite: re-run the step from the last one
            # with its stage inputs checked, which locates a divergence or
            # raises the same error again
            k = np.count_nonzero(~np.isnan(tab[start:, 1])) - 1
            k += _rk4_kernel(plant, exo, ctrl, stage_checks=True)(
                *tab[start + k, 1:-2].tolist(), 1, dt,
                memoryview(tab[start + k:start + k + 2]))
        if k >= 0:
            raise DivergenceError((start + k) * dt)
        state = tab[stop, 1:-2].tolist()
        if encoder is not None:
            encoder.ready(stop + 1)
    return Trajectory(tab, n, nc)


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


# slots of the digit region, and the rank of each of the 17 digits from 1
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_RANK1 = _SLOT[1:]
_POW10_INT32 = 10 ** np.arange(8, -1, -1, dtype=np.int32)[:, None]
# "0.000": zero k + 1 follows the point of values with E < -1 - k
_ZEROS = np.array([[-1], [-2], [-3]], np.int16)


@functools.cache
def _pow10():
    """Rows hi, hi_high, hi_low, lo at column k + 263 for k = -263..297:
    hi + lo = 10**k with hi and lo each correctly rounded (int / int is),
    and hi_high + hi_low = hi split for Dekker's product."""
    table = []
    for k in range(-263, 298):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        table.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(table).T
    return np.stack([hi, *_split(hi), lo])


def _split(a):
    """Dekker's split of a into two halves of at most 26 bits."""
    c = 134217729.0 * a     # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(a, E):
    """(D, frac): floor and fraction of the double-double y = a * 10**(16 - E)
    (error about 1e-14), for a in (1e-280, 1e280) and E in -281..279."""
    hi, hi_high, hi_low, lo = _pow10().take(279 - E, axis=1)
    # Dekker's TwoProduct: p + err = a * hi exactly, so y = p + t
    p = a * hi
    a_high, a_low = _split(a)
    t = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
         + a * lo)
    # where floor(y) >= 10**16, p > 2**53 is an integer, so
    # floor(y) = p + floor(t)
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _certified_digits(v):
    """(D, E, ok): wherever ok, |v| rounded to 17 significant digits is
    D * 10**(E - 16) with 10**16 <= D < 10**17.  E is floor(log10(|v|)),
    less one where floor(y) for y = |v| * 10**(16 - E) falls below 10**16
    (log10 rounds a double just below 10**k up to k).  ok is false for
    |v| <= 1e-280 (zero and subnormals included), |v| >= 1e280 and
    non-finite v, where y rounds within 1e-9 of a tie, and where the 17
    digits carry to 10**17 (a double just below 10**k that rounds up to
    it) or floor(y) is still outside [10**16, 10**17)."""
    a = np.abs(v)
    ok = (a > 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    E = np.clip(np.floor(np.log10(a)), -280, 279).astype(np.int64)
    D, frac = _scaled(a, E)
    low = np.flatnonzero(D < 10**16)
    if low.size:
        E[low] -= 1
        D[low], frac[low] = _scaled(a[low], E[low])
    up = frac > 0.5
    ok &= (D >= 10**16) & (D + up < 10**17) & (np.abs(frac - 0.5) > 1e-9)
    return D + up, E, ok


def _encode_rows(table):
    """The CSV rows of a 2-d float table: each value as "%.17g" % v,
    separated by commas, each row ended by CRLF.

    Each value owns 31 byte slots of one uint8 matrix, in order: sign, the
    "0.000" of a fixed-point value below 1 (zero, point, three zeros), a
    region of 18 slots for the 17 digits and the point, "e", the exponent
    sign, three exponent digits, and the separator (one slot for ",", two
    for CRLF).  An empty slot holds NUL, so dropping the NULs leaves the
    text.  The notation is Python's %g: fixed for -4 <= E < 17, scientific
    otherwise, trailing zeros and a bare point stripped.  Values without
    certified digits other than zero go through "%.17g" one at a time."""
    rows, cols = table.shape
    v = table.ravel()
    D, E, ok = _certified_digits(v)
    zero = v == 0.0
    # g[1:18]: the 17 digits of D from a 9-digit and an 8-digit int32
    # half; digit j is prefix j less 10 times prefix j - 1, which uint8
    # arithmetic (mod 256) gets right from the prefixes mod 256
    high = (D // 10**8).astype(np.int32)
    low = (D - high * np.int64(10**8)).astype(np.int32)
    g = np.zeros((19, v.size), np.uint8)
    g[1:10] = high // _POW10_INT32
    g[10:18] = low // _POW10_INT32[1:]
    g[2:10] -= np.uint8(10) * g[1:9]
    g[11:18] -= np.uint8(10) * g[10:17]
    # significant digits: through the last nonzero one
    last = np.max((g[1:18] != 0) * _RANK1, axis=0)
    g[1:18] += np.uint8(ord("0"))
    e = E.astype(np.int16)
    fixed = ok & (e >= -4) & (e < 17)
    sci = ok & ~fixed
    small = fixed & (e < 0)
    # shown digits: through the last significant one, and all E + 1 of a
    # fixed-point value's integer part.  The point follows digit P (E in
    # fixed notation from 1 up, 0 in scientific, none at P = 17) and
    # shows if a digit follows it.
    shown = ok * np.maximum(last, fixed * (e + 1))
    P = np.where(fixed & ~small, e, np.where(sci, 0, 17))
    width = (shown + (P + 1 < shown)).astype(np.uint8)
    P = P.astype(np.uint8)
    m = np.zeros((31, v.size), np.uint8)
    m[0] = (np.signbit(v) & (ok | zero)) * np.uint8(ord("-"))
    m[1] = (small | zero) * np.uint8(ord("0"))
    m[2] = small * np.uint8(ord("."))
    m[3:6] = (small & (e < _ZEROS)) * np.uint8(ord("0"))
    # region slot j: digit j up to the point, the point, then digit j - 1
    # (uint8 arithmetic wraps, so a + mask * (b - a) selects b where mask)
    region = m[6:24]
    region[:] = g[:18]
    region += (_SLOT <= P) * (g[1:] - g[:18])
    region += (_SLOT == P + 1) * (np.uint8(ord(".")) - region)
    region *= _SLOT < width
    # the exponent of the few scientific values
    at = np.flatnonzero(sci)
    if at.size:
        mag = np.abs(e[at])
        tens = mag // 10
        hundreds = tens // 10
        m[24, at] = ord("e")
        m[25, at] = ord("+") + 2 * (e[at] < 0)
        m[26, at] = (hundreds > 0) * (hundreds + ord("0"))
        m[27, at] = tens - 10 * hundreds + ord("0")
        m[28, at] = mag - 10 * tens + ord("0")
    m[29].reshape(rows, cols)[:] = [ord(",")] * (cols - 1) + [ord("\r")]
    m[30].reshape(rows, cols)[:, -1] = ord("\n")
    for j in np.flatnonzero(~ok & ~zero).tolist():
        text = b"%.17g" % v[j]
        m[:len(text), j] = np.frombuffer(text, np.uint8)
    return m.T.tobytes().translate(None, b"\0")


def _write_csv(path, header, table, start=0, text=None):
    """CSV of the rows of a 2-d float table with every value written as
    "%.17g" % v and CRLF line ends: the text of its first start rows is
    the first size bytes of the file descriptor fd of text = (fd, size),
    and the rest are encoded a block of about CSV_BLOCK_VALUES values at a
    time.  A block of a C-contiguous table is a view, so no copy of the
    whole table is made."""
    block = _block_rows(len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if text is not None:
            _copy_text(fh, *text)
        for at in range(start, len(table), block):
            fh.write(_encode_rows(table[at:at + block]))


def _copy_text(fh, fd, size):
    """Append the first size bytes of the file fd to the open file fh,
    with sendfile, or with reads where fh's file takes no sendfile (a
    device without splice support, say)."""
    fh.flush()
    sent = 0
    try:
        while sent < size:
            sent += os.sendfile(fh.fileno(), fd, sent, size - sent)
    except OSError as exc:
        if sent or exc.errno not in (errno.EINVAL, errno.ENOSYS, errno.ENOTSOCK):
            raise
        while sent < size:
            sent += fh.write(os.pread(fd, min(size - sent, 2**20), sent))


class _CsvWorker(_Children):
    """One forked process that encodes simulate's table while the kernel
    runs, into a memory file that the caller copies into the CSV file.

    table() forks it when the table spans at least ENCODER_BLOCKS blocks,
    the process may run on two CPUs and os.memfd_create gives a memory
    file; else no process starts.  The table then lives in an anonymous
    shared mmap, and after each kernel call ready() sends the child,
    through a pipe, the count of rows that are final.  The child encodes
    each block once its rows are final, the last partial block included,
    and appends the text to the memory file.  Once every row is done, the
    next block would take the text past `cap` bytes or the pipe closes, it
    sends the rows and bytes done as one record on a back pipe and exits.
    encoded() reads that record, (0, 0) if the child died without it, and
    write_trajectory_csv copies that text before it encodes the rest: the
    file, its bytes and any error writing it are the caller's alone.
    close() closes the descriptors, then kills and reaps the child.
    """

    def __init__(self, cap):
        super().__init__()
        self.cap = cap
        # the pipe's write end, the back pipe's read end and the memory file
        self.send = self.back = self.text = None

    def close(self):
        for fd in (self.send, self.back, self.text):
            if fd is not None:
                os.close(fd)
        self.send = self.back = self.text = None
        super().close()

    def table(self, rows, header):
        """A rows x len(header) float table for simulate to fill."""
        block, cols = _block_rows(len(header)), len(header)
        if rows < ENCODER_BLOCKS * block or _cpus() < 2:
            return np.empty((rows, cols))
        fds = []
        try:
            fds.append(os.memfd_create("regsyn-csv"))
            fds += [*os.pipe(), *os.pipe()]
            tab = _shared((rows, cols))
            self.fork(self._encode, fds, tab, block)
        except (AttributeError, OSError):   # no memfd_create, or no room
            for fd in fds:
                os.close(fd)
            return np.empty((rows, cols))
        self.text, read_fd, self.send, self.back, done_fd = fds
        os.close(read_fd)
        os.close(done_fd)
        return tab

    def _encode(self, fds, tab, block):
        """The child: append the text of each block whose rows are final to
        the memory file until every row is done, the next block would pass
        cap or the pipe closes, then send the rows and bytes done."""
        text, read_fd, send, back, done_fd = fds
        os.close(send)
        os.close(back)
        done = size = final = 0
        with open(read_fd, "rb") as pipe:
            while done < len(tab):
                stop = min(done + block, len(tab))
                if stop > final:   # wait for the block's rows
                    if len(msg := pipe.read(_ROWS.size)) < _ROWS.size:
                        break
                    final = _ROWS.unpack(msg)[0]
                    continue
                chunk = _encode_rows(tab[done:stop])
                if size + len(chunk) > self.cap or os.write(text, chunk) < len(chunk):
                    break
                done, size = stop, size + len(chunk)
        os.write(done_fd, _ENCODED.pack(done, size))

    def ready(self, rows):
        """The table's first rows are final."""
        if self.send is not None:
            try:
                os.write(self.send, _ROWS.pack(rows))
            except BrokenPipeError:   # the child stopped
                pass

    def encoded(self):
        """(rows, bytes): the text of the table's first rows is the first
        bytes of the memory file; (0, 0) where no child started or it died
        before its record."""
        if self.back is None:
            return 0, 0
        os.close(self.send)   # the child stops waiting for rows
        self.send = None
        msg = os.read(self.back, _ENCODED.size)
        return _ENCODED.unpack(msg) if len(msg) == _ENCODED.size else (0, 0)


def write_trajectory_csv(traj: Trajectory, path, encoder=None):
    """CSV with header t,x1..xn,xi1..xinc,w1..wp,e,u at full precision.
    Where traj is an encoder's table, the text of the rows its process
    encoded is copied from that process's memory file and only the rest
    is encoded here."""
    rows, size = (0, 0) if encoder is None else encoder.encoded()
    _write_csv(path, _csv_header(traj.x.shape[1], traj.xi.shape[1], traj.w.shape[1]),
               traj.table, rows, (encoder.text, size) if size else None)
