"""Span tracing of the regsyn layers from outside the package.

`Tracer.install` replaces every public function of the listed modules by a
wrapper that records a span (job id, name, start, end, parent) until
`uninstall` restores the originals.  Functions that another module imports by name (`cli` imports
`simulate`, `regeq` imports `numeric_jacobian`, ...) are replaced in the
importing module too, so every call site goes through the wrapper.  The
package itself carries no instrumentation.

Three rules keep the spans meaningful:

* a function already on the span stack (recursion, as in `expr.evaluate`)
  records nothing, so only the outermost call is timed;
* nothing is recorded inside an opaque span (`regeq.solve_boost_grid` runs
  `_solve_column` on worker threads), so that work stays in the opaque span;
* calls from threads other than the one that installed the tracer are not
  recorded.

A module that imports `ThreadPoolExecutor` by name gets a subclass that
records the pool's effective `max_workers`, so the thread count a layer
really used is observed rather than recomputed.

Hooks derive solver counters from arguments and return values, never from
timing, so the counts repeat exactly from run to run.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "sysfile", "examples", "expr", "model", "specan", "synth",
          "regeq", "sim")
OPAQUE = frozenset({"regeq.solve_boost_grid"})


# ------------------------------------------------------------------ hooks
# hook(counters, result, bound_arguments) -> None

def _sim_steps(c, traj, a):
    c["sim.steps"] += len(traj.t) - 1


def _csv_rows(c, _, a):
    c["sim.csv_rows"] += len(a["traj"].t)
    c["sim.csv_bytes"] += os.path.getsize(a["path"])


def _grid_counts(c, boost, a):
    """Orbit integrations and the lock-step waste of the column solver.

    A column of the grid integrates all its cells together until the
    slowest one converges, so it runs width x (max iterations) orbits of
    which only the sum of the cells' own iterations are needed.
    """
    hist = Counter()
    useful = lockstep = 0
    for col in boost.cells:
        iters = [cell.iters for cell in col if cell.present and cell.converged]
        if not iters:
            continue
        hist.update(iters)
        useful += sum(iters)
        lockstep += sum(1 for cell in col if cell.present) * max(iters)
    c["regeq.grid_cells"] += sum(hist.values())
    c["regeq.orbits"] += useful
    c["regeq.lockstep_orbits"] += lockstep
    c["regeq.iters_max"] = max(c["regeq.iters_max"], max(hist, default=0))
    for k, v in hist.items():
        c[f"regeq.iters_hist.{k}"] += v


def _cell_iters(c, result, a):
    c["regeq.cell_iters"] += result[2]


def _residual_samples(c, _, a):
    c["regeq.residual_samples"] += len(a["samples"])


def _eps_tried(c, report, a):
    """Number of eps values the scan evaluated, replayed from the report.

    The scan multiplies eps0 by factor until the closed loop is Hurwitz, so
    repeating the same multiplications until `report.eps` is reached counts
    the trials exactly.  A failed synthesis is counted as no trial.
    """
    eps0, factor, limit = a["eps0"], a["factor"], a["max_halvings"]
    if not report.success:
        return
    eps, tried = eps0, 1
    while eps != report.eps and tried <= limit:
        eps *= factor
        tried += 1
    c["synth.eps_tried"] += tried


HOOKS = {
    "sim.simulate": _sim_steps,
    "sim.write_trajectory_csv": _csv_rows,
    "regeq.solve_boost_grid": _grid_counts,
    "regeq.solve_psi0": _cell_iters,
    "regeq.regulator_residual": _residual_samples,
    "regeq.immersion_residual": _residual_samples,
    "synth.synthesize": _eps_tried,
}


class Tracer:
    """In-memory span recorder for the public functions of regsyn."""

    def __init__(self):
        self.job = None
        self.spans = []          # (job, name, start, end, parent index)
        self.counters = defaultdict(float)
        self._stack = []
        self._active = set()
        self._opaque = 0
        self._thread = threading.get_ident()
        self._patches = []

    def install(self, modules):
        """Wrap the public functions of `modules` (regsyn submodules)."""
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
            if getattr(mod, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._patches.append((mod, "ThreadPoolExecutor", ThreadPoolExecutor))
                mod.ThreadPoolExecutor = self._pool_class(mod.__name__.rsplit(".", 1)[-1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take(self):
        """Spans and counters recorded since the last call; resets both."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters

    def _pool_class(self, layer):
        tracer = self
        key = f"{layer}.pool_workers"

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.counters[key] = max(tracer.counters[key], self._max_workers)

        return RecordingPool

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if (self._opaque or name in self._active
                    or threading.get_ident() != self._thread):
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            self._active.add(name)
            self._opaque += opaque
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._opaque -= opaque
                self._active.discard(name)
                self._stack.pop()
                spans[index] = (self.job, name, start, end, parent)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, result, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced


# --------------------------------------------------------------- analysis

def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def layer_metrics(spans, counters):
    """Per-layer metrics of one pass from its spans and counters."""
    total = defaultdict(float)
    calls = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    entries = Counter()
    for (job, name, start, end, parent), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        total[name] += end - start
        calls[name] += 1
        layer_self[layer] += own
        if parent < 0 or spans[parent][1].split(".", 1)[0] != layer:
            entries[layer] += 1
    c = counters

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "sim.us_per_step": 1e6 * ratio(total["sim.simulate"], c["sim.steps"]),
        "sim.simulate_s": total["sim.simulate"],
        "sim.steps": c["sim.steps"],
        "sim.csv_us_per_row": 1e6 * ratio(total["sim.write_trajectory_csv"],
                                          c["sim.csv_rows"]),
        "sim.csv_s": total["sim.write_trajectory_csv"],
        "sim.csv_mb": c["sim.csv_bytes"] / 1e6,
        "sim.decay_ms": 1e3 * total["sim.decay_metrics"],
        "regeq.grid_s": total["regeq.solve_boost_grid"],
        "regeq.orbits": c["regeq.orbits"],
        "regeq.iters_mean": ratio(c["regeq.orbits"], c["regeq.grid_cells"]),
        "regeq.iters_max": c["regeq.iters_max"],
        "regeq.useful_ratio": ratio(c["regeq.orbits"], c["regeq.lockstep_orbits"]),
        # a grid solved without a pool ran on the calling thread alone
        "regeq.threads": (c["regeq.pool_workers"] or 1) if calls["regeq.solve_boost_grid"]
                         else 0,
        "regeq.pde_residual_ms": 1e3 * total["regeq.pde_residual"],
        "regeq.cell_s": ratio(total["regeq.solve_psi0"], calls["regeq.solve_psi0"]),
        "regeq.cell_iters": c["regeq.cell_iters"],
        "regeq.csv_s": total["regeq.write_orbit_csv"] + total["regeq.write_grid_csv"],
        "regeq.residual_s": (total["regeq.regulator_residual"]
                             + total["regeq.immersion_residual"]),
        "regeq.residual_samples": c["regeq.residual_samples"],
        "expr.evaluate_calls": calls["expr.evaluate"],
        "expr.evaluate_s": total["expr.evaluate"],
        "expr.parse_calls": calls["expr.parse"],
        "expr.compile_calls": calls["expr.compile_fn"],
        "expr.compile_ms": 1e3 * total["expr.compile_fn"],
        "model.linearize_ms": 1e3 * total["model.linearize"],
        "model.jacobian_calls": calls["model.numeric_jacobian"],
        "model.jacobian_s": total["model.numeric_jacobian"],
        "specan.calls": entries["specan"],
        "synth.synthesize_ms": 1e3 * total["synth.synthesize"],
        "synth.verify_conditions_ms": 1e3 * total["synth.verify_conditions"],
        "synth.regulator_solve_ms": 1e3 * total["synth.solve_linear_regulator"],
        "synth.eps_tried": c["synth.eps_tried"],
        "sysfile.parse_calls": calls["sysfile.parse_text"],
        "sysfile.parse_ms": 1e3 * total["sysfile.parse_text"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def iteration_histogram(counters):
    """{iterations: cells} of the boost grid, from the counters of a pass."""
    prefix = "regeq.iters_hist."
    return {int(k[len(prefix):]): int(v) for k, v in counters.items()
            if k.startswith(prefix)}


def write_spans(path, spans):
    """Spans as tab-separated text: job, name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job\tname\tstart_s\tend_s\tparent\n")
        for job, name, start, end, parent in spans:
            fh.write(f"{job}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
