"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, for seeds 0..4, that
  * job generation is deterministic per seed and differs between seeds,
  * every generated `analysis` job gives its expected exit status and
    passes its output check on the current code,
  * every `boost_cells` circle lies inside regsyn's admissible domain and
    solves, and the benchmark's copy of the domain matches regsyn's,
and that BENCHMARK.json names exactly the workloads and metrics the
benchmark reports, with the same units.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import defaultdict
from pathlib import Path

import run
import tracer
import workloads

SEEDS = range(5)


def generation_problems(work):
    problems = []
    for name in workloads.WORKLOADS:
        seen = {}
        for seed in SEEDS:
            a, b = workloads.make(name, seed, work), workloads.make(name, seed, work)
            if (a.jobs, a.files, a.params) != (b.jobs, b.files, b.params):
                problems.append(f"{name} seed {seed}: generation is not deterministic")
            seen.setdefault((a.jobs, tuple(a.files.items())), seed)
        if name != "boost_grid" and len(seen) != len(SEEDS):
            problems.append(f"{name}: different seeds gave the same jobs")
    return problems


def run_problems(name, work, cli):
    problems = []
    for seed in SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.make(name, seed, work)
        for path, text in wl.files.items():
            Path(path).write_text(text, encoding="utf-8")
        runner = run.Runner(wl, cli)
        runner.run_pass()
        runner.check()
        problems += [f"{name} seed {seed}: {f}" for _, f in runner.failures]
    return problems


def domain_problems(work, regeq):
    params = regeq.BoostParams.default()
    w1max, rho_max = regeq.admissible_domain(params)
    problems = []
    if abs(workloads.w1_max() - w1max) > 1e-12 * w1max:
        problems.append("benchmark w1max differs from regsyn's")
    for seed in SEEDS:
        for w1, rho in workloads.make("boost_cells", seed, work).params["circles"]:
            if abs(workloads.rho_max(w1) - rho_max(w1)) > 1e-12 * (1.0 + rho_max(w1)):
                problems.append(f"benchmark rho_max({w1}) differs from regsyn's")
            if not (abs(w1) < w1max and 0.0 <= rho <= rho_max(w1)):
                problems.append(f"boost_cells seed {seed}: circle ({w1}, {rho}) "
                                "is outside the admissible domain")
    return problems


def manifest_problems():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expected = {name: run.unit_of(name) for name in run.E2E}
    if declared != expected:
        problems.append(f"end_to_end {declared} != reported {expected}")
    reported = set(tracer.layer_metrics([], defaultdict(float))) | set(run.RUN_LAYER_METRICS)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {name: run.unit_of(name) for name in reported}:
        problems.append(f"per_layer differs from the reported metrics: "
                        f"{sorted(set(declared) ^ reported)}")
    return problems


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from regsyn import cli, regeq
    work = run.WORK / "selftest"
    problems = generation_problems(work)
    problems += domain_problems(work, regeq)
    problems += manifest_problems()
    for name in ("analysis", "boost_cells"):
        problems += run_problems(name, work, cli)
    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
