"""Span tracer for yibre, applied from outside the package.

``install`` wraps the public functions of every yibre module, the public and
arithmetic methods of every class they define, the names other modules bound
with ``from .module import name``, ``yibre.cli.verify`` and every ``Check.fn``
(through the values of ``suites.SUITE_BUILDERS``).  Each wrapped call records
a span (name, start, end, parent) in flat arrays held in memory; ``summary``
turns them into per-layer call counts and self times, where a span's self time
is its duration minus the durations of its child spans.  A few wrappers also
feed ratio counters; their counting runs inside a ``trace.counters`` span of
its own, so it is charged to the tracer and not to any yibre layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

LAYERS = ("kernel", "tensor", "rime", "blocks", "cg", "classical", "bezout",
          "poisson", "qalg", "suites", "cli")
SUITES = ("bezout", "blocks", "cg", "classical", "poisson", "qalg", "rime", "rota")
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                            "__rmul__", "__truediv__", "__matmul__", "__eq__"})

MATMUL = "tensor._SparseSquare.__matmul__"
OP1_MATMUL = "tensor.Operator1.__matmul__"
ECHELON = ("tensor.Operator1.det", "tensor.Operator1.inverse", "tensor.Operator1.rank",
           "tensor.rank_of_rows", "tensor.rref_of_rows")
MATRIXMAP_APPLY = "bezout.MatrixMap.apply"
DRAW_RATIONAL = "kernel.RationalDraw.rational"
DRAW_VECTOR = "kernel.RationalDraw.vector"
RUN_SUITE = "suites.run_suite"
CHECK = "suites.check"
COUNTERS = "trace.counters"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.check_spans: list[tuple[str, str, int]] = []
        self.suite_spans: list[str] = []
        self._grids: dict[int, tuple[object, int, int]] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.starts.append(0.0)
        self.stack.append(idx)
        self.starts[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self.intern(name)
        counter_nid = self.intern(COUNTERS)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if counter is not None:
                cidx = open_(counter_nid)
                try:
                    counter(self, args)
                finally:
                    close(cidx)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return functools.update_wrapper(traced, fn)

    def wrap_check(self, suite: str, name: str, fn):
        nid = self.intern(CHECK)

        def traced_check():
            idx = self.open(nid)
            self.check_spans.append((suite, name, idx))
            try:
                return fn()
            finally:
                self.close(idx)

        return traced_check

    # -- ratio counters, called before the span they belong to opens --------

    def count_matmul(self, args) -> None:
        for op in args[:2]:
            for row in op.data.values():
                for v in row.values():
                    if v:
                        self.counts["matmul.operand_entries"] += 1
                        if type(v) is int or (isinstance(v, Fraction) and v.denominator == 1):
                            self.counts["matmul.int_entries"] += 1

    def count_grid(self, args) -> None:
        grid = args[0].grid
        cached = self._grids.get(id(grid))
        if cached is None or cached[0] is not grid:
            cells = sum(len(row) for row in grid.rows)
            nnz = sum(1 for row in grid.rows for v in row if v)
            cached = self._grids[id(grid)] = (grid, nnz, cells)
        self.counts["grid.nonzero"] += cached[1]
        self.counts["grid.cells"] += cached[2]

    def _nested_in_draw(self) -> bool:
        # the top of the stack is the trace.counters span this runs in
        return len(self.stack) > 1 and self.names[self.name_ids[self.stack[-2]]] in (
            DRAW_RATIONAL, DRAW_VECTOR)

    def count_rational(self, args) -> None:
        self.counts["draw.made"] += 1
        if not self._nested_in_draw():
            self.counts["draw.requests"] += 1
            self.counts["draw.kept"] += 1

    def count_vector(self, args) -> None:
        if not self._nested_in_draw():
            self.counts["draw.requests"] += 1
            self.counts["draw.kept"] += args[1]

    def count_run_suite(self, args) -> None:
        self.suite_spans.append(args[0])

    # -- results ------------------------------------------------------------

    def summary(self, traced_wall: float) -> dict:
        """Per-layer metrics, and the ten slowest checks, over every span recorded."""
        n = len(self.name_ids)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s = defaultdict(float)
        calls = Counter()
        suite_durations = []
        for i in range(n):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            self_s[name] += dur - child[i]
            calls[name] += 1
            if name == RUN_SUITE:
                suite_durations.append(dur)
        m = {}
        for layer in LAYERS:
            names = [k for k in self_s if k.split(".", 1)[0] == layer]
            layer_self = sum(self_s[k] for k in names)
            m[f"{layer}.calls"] = sum(calls[k] for k in names)
            m[f"{layer}.self_s"] = layer_self
            m[f"{layer}.share"] = layer_self / traced_wall
        c = self.counts
        m["bezout.matrixmap_apply.calls"] = calls[MATRIXMAP_APPLY]
        m["bezout.matrixmap_apply.self_s"] = self_s[MATRIXMAP_APPLY]
        m["bezout.matrixmap.grid_cells"] = c["grid.cells"]
        m["bezout.matrixmap.density"] = _ratio(c["grid.nonzero"], c["grid.cells"])
        m["tensor.matmul.calls"] = calls[MATMUL]
        m["tensor.matmul.self_s"] = self_s[MATMUL]
        m["tensor.matmul.operand_entries"] = c["matmul.operand_entries"]
        m["tensor.int_entry_share"] = _ratio(c["matmul.int_entries"],
                                             c["matmul.operand_entries"])
        m["tensor.op1_matmul.self_s"] = self_s[OP1_MATMUL]
        for fn in ("lift", "yb_residual", "cybe_residual", "conjugate2"):
            m[f"tensor.{fn}.self_s"] = self_s[f"tensor.{fn}"]
        m["tensor.echelon.self_s"] = sum(self_s[k] for k in ECHELON)
        m["qalg.poincare_series.self_s"] = self_s["qalg.poincare_series"]
        m["qalg.echelon.self_s"] = sum(v for k, v in self_s.items()
                                       if k.startswith("qalg._Echelon."))
        m["qalg.normal_order.calls"] = calls["qalg.normal_order"]
        m["poisson.jacobi_residual.self_s"] = self_s["poisson.jacobi_residual"]
        m["kernel.draw.calls"] = c["draw.requests"]
        m["kernel.draw.made"] = c["draw.made"]
        m["kernel.draw.accept_ratio"] = _ratio(c["draw.kept"], c["draw.made"])
        m["suites.run_suite.self_s"] = self_s[RUN_SUITE]
        check_ms = [1000 * (self.ends[i] - self.starts[i]) for _, _, i in self.check_spans]
        m["suites.checks"] = len(check_ms)
        m["suites.check_p50_ms"] = statistics.median(check_ms) if check_ms else 0.0
        m["suites.check_max_ms"] = max(check_ms, default=0.0)
        m["cli.verify.self_s"] = self_s["cli.verify"]
        per_suite = defaultdict(float)
        for suite, dur in zip(self.suite_spans, suite_durations):
            per_suite[suite] += dur
        for suite in SUITES:
            m[f"suite.{suite}.s"] = per_suite[suite]
        m["trace.spans"] = n
        m["trace.counters_s"] = self_s[COUNTERS]
        slowest = sorted(self.check_spans, key=lambda s: self.ends[s[2]] - self.starts[s[2]],
                         reverse=True)
        return {
            "metrics": m,
            "self_s_total": sum(self_s.values()),
            "slowest_checks": [
                {"suite": suite, "check": name,
                 "ms": 1000 * (self.ends[i] - self.starts[i])}
                for suite, name, i in slowest[:10]],
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as four flat binary arrays plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        index = {"spans": len(self.name_ids), "names": self.names,
                 "layout": ["name_id:uint32", "parent:int32", "start:float64",
                            "end:float64"],
                 "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(index))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _traceable_method(name: str) -> bool:
    return not name.startswith("_") or name in TRACED_DUNDERS


def install(tracer: Tracer) -> None:
    """Wrap every layer of the already-imported yibre package in place."""
    modules = [sys.modules[f"yibre.{layer}"] for layer in LAYERS]
    counters = {MATMUL: Tracer.count_matmul, MATRIXMAP_APPLY: Tracer.count_grid,
                DRAW_RATIONAL: Tracer.count_rational, DRAW_VECTOR: Tracer.count_vector,
                RUN_SUITE: Tracer.count_run_suite}
    wrapped: dict[int, object] = {}

    def wrap(fn, name):
        w = tracer.wrap(fn, name, counters.get(name))
        wrapped[id(fn)] = w
        return w

    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        source = mod.__file__
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                setattr(mod, attr, wrap(obj, f"{layer}.{attr}"))
            elif inspect.isclass(obj) and obj.__name__ == attr:
                for mname, raw in list(vars(obj).items()):
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if (not _traceable_method(mname) or not inspect.isfunction(fn)
                            or fn.__code__.co_filename != source):
                        continue
                    w = wrap(fn, f"{layer}.{obj.__qualname__}.{mname}")
                    setattr(obj, mname, type(raw)(w) if fn is not raw else w)
    # names bound by ``from .module import name`` still point at the originals
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    cli, suites = sys.modules["yibre.cli"], sys.modules["yibre.suites"]
    cli.verify.callback = tracer.wrap(cli.verify.callback, "cli.verify")

    def with_traced_checks(suite, builder):
        def build(n, draw, draws):
            checks = builder(n, draw, draws)
            for chk in checks:
                chk.fn = tracer.wrap_check(suite, chk.name, chk.fn)
            return checks
        return build

    for suite, builder in list(suites.SUITE_BUILDERS.items()):
        suites.SUITE_BUILDERS[suite] = with_traced_checks(
            suite, wrapped.get(id(builder), builder))
