"""In-memory span recorder for the traced benchmark run.

`install` replaces every public function of the library's layer modules,
and every public method of their classes, with a wrapper that records a
span (name, start, end, parent span, job id).  The wrapper is installed
in every namespace that imported the function, so calls through
`from .core import orth` are seen as well as calls through `core.orth`.
Spans stay in memory; `write_spans` stores them when the run ends, and
`layer_stats` derives call counts, total time (outermost spans only, so
recursion is not counted twice) and self time (duration minus the part
covered by child spans), per function and per layer.

Boundary counts are measured from arguments and results at a few layer
boundaries: LP sizes and outcomes, orthogonality scan support sizes, and
serialized bytes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layers are named by module
LAYERS = ("core", "linalg", "brackets", "lp", "oracles", "dual_or", "corrector",
          "mixtures", "dual_mp", "smooth_ops", "amplification", "matrix_bounds",
          "circuits", "serialize")

# Leaf helpers called per point or per monomial.  Wrapping them would cost
# more than the work they do, so their time stays in their callers' self time.
UNWRAPPED = frozenset({
    "brackets.sqrt_lower", "brackets.sqrt_upper",
    "core.as_rat", "core.eval_monomial", "core.chi", "core.inner_product",
    "core.FnTable.support", "core.FnTable.is_zero", "core.OrthResult.ge",
    "core.OrthResult.at_least_value", "core.Domain.contains",
    "oracles.eval_poly", "oracles.Interval.realized", "oracles.PartialFn.value",
    "serialize.to_jsonable", "serialize.frac_str", "serialize.parse_frac",
    "serialize.domain_to_json", "serialize.table_to_json",
    "mixtures.ProductMixture.evaluate",
    "amplification.GMap.syndrome", "amplification.GMap.label",
    "amplification.GMap.label_vector", "amplification.CompressionMap.evaluate",
    "circuits.CircuitDesc.evaluate", "circuits.CircuitDesc.add_gate",
    "lp.LPProblem.add",
})


def _observe_solve(counters, args, result):
    problem = args[0]
    counters["lp.solve.rows_x_vars"] += len(problem.rows) * problem.n_vars
    counters["lp.solve.feasible"] += result.status in ("feasible", "optimal")


def _observe_orth(counters, args, result):
    counters["core.orth.support_pts"] += len(args[0].entries)


def _observe_dumps(counters, args, result):
    counters["serialize.dumps.bytes"] += len(result)


OBSERVERS = {
    "lp.solve": _observe_solve,
    "core.orth": _observe_orth,
    "serialize.dumps": _observe_dumps,
}


class Recorder:
    """Columnar span store; one row per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.outer: list[bool] = []  # no enclosing span of the same name
        self.layer_outer: list[bool] = []  # no enclosing span of the same layer
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        layer = name.partition(".")[0]
        self.outer.append(self._active[name] == 0)
        self.layer_outer.append(self._active[layer] == 0)
        self.end.append(0.0)
        self._active[name] += 1
        self._active[layer] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        name = self.names[idx]
        self._active[name] -= 1
        self._active[name.partition(".")[0]] -= 1

    def wrap(self, name: str, fn):
        rec = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if observe is not None:
                observe(rec.counters, args, result)
            return result

        return traced

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "total_s", "self_s"}} for every span name and
        for every layer (the name's first component) over all spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            for key, outer in ((name, self.outer[i]),
                               (name.partition(".")[0], self.layer_outer[i])):
                s = stats[key]
                s["calls"] += 1
                if outer:
                    s["total_s"] += dur
                s["self_s"] += dur - child[i]
        return dict(stats)

    def write_spans(self, path) -> None:
        """One CSV row per span: name, start, end (seconds), parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.job):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


def _public_functions(owner):
    for attr, obj in list(vars(owner).items()):
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and not inspect.isgeneratorfunction(obj)):
            yield attr, obj


def install(recorder: Recorder) -> list:
    """Wrap every layer's public functions and methods, in the library and
    in the benchmark; returns the patch list that `uninstall` reverts."""
    patches = []
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"ptfwitness.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, meth in _public_functions(obj):
                    name = f"{layer}.{attr}.{mattr}"
                    if name not in UNWRAPPED:
                        patches.append((obj, mattr, meth))
                        setattr(obj, mattr, recorder.wrap(name, meth))
            elif (inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
                  and f"{layer}.{attr}" not in UNWRAPPED):
                wrapped[id(obj)] = (obj, recorder.wrap(f"{layer}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] not in ("ptfwitness", "perfbench"):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                patches.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
