"""Benchmark of the regsyn command line, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds it and imports
regsyn from that checkout's `src/`.  NAME is one of closed_loop,
boost_grid, boost_cells and analysis (see workloads.py); `all` runs each in
a child process of its own, one after the other.

One process, one job at a time: a job is one `regsyn.cli.main(argv)` call
on inputs made from the seed, and a pass runs every job of the workload
once.  Passes repeat until --seconds have elapsed.  During the passes each
job's stdout and files are hashed, and every run must reproduce the first
run of its job byte for byte; after the passes every job's exit status,
CHECK lines and written files are checked (workloads.py).

--trace 0 reports the end-to-end metrics, in reference seconds (calib.py):
  wall_s       median over passes of the pass time (sum of its job times)
  job_p50_s    median job time; a job's time is its median over passes
  job_p90_s    90th percentile job time (nearest rank; `analysis` has 102
               jobs, so ten lie beyond it)
  setup_s      median time of fresh interpreters that import regsyn.cli
               and build the three built-in examples, as every CLI call
               does, against a reference interpreter (measure_setup); two
               before the passes, then one after a pass whenever less than
               one per SETUP_EVERY seconds was taken
  peak_rss_mb  maximum resident set size of this process during the passes
The raw seconds are printed too.  On a shared 2-vCPU virtual machine whose
speed moved by 1.4-1.6x between runs a few minutes apart, ten-seed sets of
runs of closed_loop, boost_cells and analysis spread by 6-23% (interquartile
range over median) in raw seconds and by 1-6% in reference seconds;
boost_grid, scaled against the reference interpreter, by 7-19%.

--trace 1 measures half the time untraced, then wraps the public functions
of every regsyn module (tracer.py) and reports per-layer metrics, the
median over traced passes, plus the tracing overhead (fastest traced pass
minus fastest untraced pass).  The spans of the set-up and of the first
traced pass are written to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  Job outputs go to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calib import CAL_REF, calibrate
from tracer import LAYERS, Tracer, iteration_histogram, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
OUT = Path(".bench_out")
SETUP_EVERY = 6.0  # seconds of passes per set-up sample
SETUP_REF_CODE = "import numpy, scipy.linalg"
SETUP_REF = 0.45   # seconds of SETUP_REF_CODE at the reference speed
E2E = ("wall_s", "job_p50_s", "job_p90_s", "setup_s", "peak_rss_mb")
# per-layer metrics measured by this file rather than from a pass's spans
RUN_LAYER_METRICS = ("examples.build_ms", "trace.overhead_s")


def unit_of(name):
    """Unit of a metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us" if "us_per_" in name else "count"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _interpreter(code):
    """Wall time of a fresh interpreter running `code`."""
    # no timeout: with one, the wait polls at up to 50 ms intervals, which
    # would round every sample up by as much
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup():
    """Wall time of a fresh interpreter that imports regsyn.cli and builds
    the built-in examples, as every CLI invocation does: (seconds,
    reference seconds, seconds of the reference interpreter).

    Start-up is mostly imports, file reads and page faults, which the
    calibration loop does not track.  Its reference is a fresh interpreter
    that imports numpy and scipy.linalg, run before and after: the setup
    takes SETUP_REF seconds for the reference at their mean."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import regsyn.cli; "
            "from regsyn import examples\n"
            "for name in examples.names(): examples.get(name)")
    before = _interpreter(SETUP_REF_CODE)
    elapsed = _interpreter(code)
    after = _interpreter(SETUP_REF_CODE)
    ref = (before + after) / 2.0
    return elapsed, elapsed * SETUP_REF / ref, ref


class Runner:
    """Runs passes of one workload and checks every job's output.

    During the passes a job's stdout and files are only hashed, block by
    block, so that the benchmark's own parsing does not raise the peak
    memory of the process; `check()` runs the output checks afterwards.
    """

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.reference = {}     # job index -> output digest of its first run
        self.stdout = {}        # job index -> stdout of its first run
        self.same = {}          # job index -> runs that reproduced the first
        self.attempted = 0
        self.failures = []      # (failed runs, description)
        self.passes = []        # per pass: list of job times
        self.windows = []       # per pass: list of job (start, end)

    def call(self, argv):
        """(start, end, exit status, stdout, stderr) of one cli.main call;
        an exception escaping main is reported as the status."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = self.cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:    # a crash fails the job, not the run
                status = f"raised {exc!r}"
        return start, time.perf_counter(), status, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None, calibrated=False):
        """Runs every job once; returns the summed job time.  When
        calibrated, a calibration (calib.py) runs before each job and after
        the last, and each job's time is taken in reference seconds at the
        mean of the two calibrations around it."""
        times, windows = [], []
        before = calibrate() if calibrated else None
        for i, job in enumerate(self.workload.jobs):
            for target, sources in job.concat:
                Path(target).write_bytes(b"".join(Path(s).read_bytes() for s in sources))
            if tracer is not None:
                tracer.job = f"{len(self.passes)}:{i}"
            self.attempted += 1
            start, end, status, stdout, stderr = self.call(job.argv)
            windows.append((start, end))
            elapsed = end - start
            if calibrated:
                after = calibrate()
                elapsed *= 2.0 * CAL_REF / (before + after)
                before = after
            times.append(elapsed)
            if status != job.expect_status:
                self._fail(job, f"exit status {status}, expected {job.expect_status}: "
                                f"{stderr.strip()}")
                continue
            digest = self._digest(job, stdout)
            if self.reference.setdefault(i, digest) != digest:
                self._fail(job, "output differs from the first run")
                continue
            self.stdout.setdefault(i, stdout)
            self.same[i] = self.same.get(i, 0) + 1
        self.passes.append(times)
        self.windows.append(windows)
        return sum(times)

    def check(self):
        """Checks each job's output.  The files on disk are those of the
        job's last run; every run but a failed one wrote the same bytes.  A
        problem fails every run that reproduced the first."""
        for i, stdout in self.stdout.items():
            job = self.workload.jobs[i]
            try:
                problems = job.check(stdout, {p: Path(p).read_bytes() for p in job.outputs})
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self._fail(job, "; ".join(problems), self.same[i])

    def _fail(self, job, problem, runs=1):
        self.failures.append((runs, f"{' '.join(job.argv)}: {problem}"))

    @staticmethod
    def _digest(job, stdout):
        digest = hashlib.sha256(stdout.encode())
        for path in job.outputs:
            with open(path, "rb") as fh:
                while block := fh.read(1 << 16):
                    digest.update(block)
        return digest.hexdigest()

    def failed(self):
        return sum(runs for runs, _ in self.failures)

    def digest(self):
        """SHA-256 over the first run's stdout and file bytes of every job."""
        joined = "".join(self.reference.get(i, "-") for i in range(len(self.workload.jobs)))
        return hashlib.sha256(joined.encode()).hexdigest()


def run_until(runner, deadline, tracer=None, calibrated=False, after_pass=None):
    """Passes until the deadline (at least one), calling after_pass() after
    each.

    Returns the passes' wall times and, when tracing, each pass's per-layer
    metrics and counters, and the spans of the first pass (later passes'
    spans are dropped once their metrics are taken)."""
    walls, traced, spans = [], [], []
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.run_pass(tracer, calibrated))
        if after_pass is not None:
            after_pass()
        if tracer is not None:
            pass_spans, counters = tracer.take()
            traced.append((layer_metrics(pass_spans, counters), counters))
            spans = spans or pass_spans
    return walls, traced, spans


def run_workload(name, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    import regsyn
    if Path(regsyn.__file__).resolve().parent != SRC / "regsyn":
        raise SystemExit(f"error: imported regsyn from {regsyn.__file__}, not {SRC}")
    mods = [importlib.import_module(f"regsyn.{m}") for m in LAYERS]
    cli, examples = mods[0], mods[2]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(name, seed, work)
    for path, text in wl.files.items():
        Path(path).write_text(text, encoding="utf-8")

    metrics = {}
    tracer = Tracer() if trace else None
    setups = []     # measure_setup() results
    if not trace:
        setups += [measure_setup(), measure_setup()]
    else:
        tracer.install(mods)
        tracer.job = "setup"
    for example in examples.names():
        examples.get(example)
    if tracer is not None:
        setup_spans, _ = tracer.take()
        tracer.uninstall()

    runner = Runner(wl, cli)
    runner.call(wl.warmup)
    start = time.perf_counter()
    if not trace:

        def after_pass():
            if len(setups) < 2 + (time.perf_counter() - start) / SETUP_EVERY:
                setups.append(measure_setup())

        walls, _, _ = run_until(runner, start + seconds, calibrated=wl.calibrated,
                                after_pass=after_pass)
        # before runner.check(), whose parsing of the outputs is not the program's
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not wl.calibrated:
            # reference seconds against the run's reference interpreters (calib.py)
            scale = SETUP_REF / statistics.median(ref for _, _, ref in setups)
            runner.passes = [[t * scale for t in times] for times in runner.passes]
            walls = [w * scale for w in walls]
        per_job = [statistics.median(times) for times in zip(*runner.passes)]
        metrics["wall_s"] = statistics.median(walls)
        metrics["job_p50_s"] = statistics.median(per_job)
        metrics["job_p90_s"] = percentile(per_job, 0.9)
        metrics["setup_s"] = statistics.median(ref for _, ref, _ in setups)
        print(f"{len(walls)} passes of {len(wl.jobs)} jobs; pass seconds "
              + " ".join(f"{sum(e - s for s, e in w):.4f}" for w in runner.windows))
        print("pass reference seconds " + " ".join(f"{w:.4f}" for w in walls))
        print("setup seconds " + " ".join(f"{t:.4f}" for t, _, _ in setups))
        print("setup reference seconds " + " ".join(f"{r:.4f}" for _, r, _ in setups))
        print("reference interpreter seconds "
              + " ".join(f"{ref:.4f}" for _, _, ref in setups))
    else:
        untraced, _, _ = run_until(runner, start + seconds / 2)
        tracer.install(mods)
        try:
            traced, per_pass, spans = run_until(runner, start + seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = {key: statistics.median(m[key] for m, _ in per_pass)
                   for key in per_pass[0][0]}
        metrics["examples.build_ms"] = 1e3 * sum(
            end - begin for _, span, begin, end, _ in setup_spans if span == "examples.get")
        metrics["trace.overhead_s"] = min(traced) - min(untraced)
        hist = iteration_histogram(per_pass[0][1])
        if hist:
            print("boost grid cells by iterations: "
                  + ", ".join(f"{k}:{v}" for k, v in sorted(hist.items())))
        print(f"passes untraced {len(untraced)} (fastest {min(untraced):.4f} s), "
              f"traced {len(traced)} (fastest {min(traced):.4f} s)")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{name}.tsv"
        write_spans(spans_path, setup_spans + spans)
        print(f"spans written to {spans_path}")

    runner.check()
    for runs, failure in runner.failures[:20]:
        print(f"FAILED ({runs} runs) {failure}")
    failed = runner.failed()
    print(f"sha256 {name} seed={seed} {runner.digest()}")
    print(f"fail_ratio {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs)")
    for key in sorted(metrics):
        print(f"metric {key} {metrics[key]!r} {unit_of(key)}")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                        for k, v in sorted(metrics.items())}}


def run_all(args):
    """Every workload in a child process of its own; metrics prefixed by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "regsyn" / "cli.py").is_file():
        print(f"error: no regsyn sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
