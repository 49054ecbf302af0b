"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the pathtiles modules from outside the
package: every module or class attribute bound to a wrapped function is
replaced, so calls through ``from .linalg import determinant`` in another
module are caught as well as calls through ``linalg.determinant``.  Generators
are timed inside each ``next()``, so the time a consumer spends between items
is not charged to the generator.  ``restore()`` puts every original back.

Each span records (metric, start, end, parent span, op id).  Spans are kept
in memory and written out by ``write_spans``; the per-layer aggregates (self
time, calls, counters) are maintained as spans close.  A span's self time is
its duration minus the durations of its direct children; the layers are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

import pathtiles
from pathtiles import cli, dag, linalg, lozenge, partitions, reflect, ring, verify

MODULES = (pathtiles, ring, linalg, dag, reflect, lozenge, partitions, verify, cli)

# Layer that the states of a Budget count toward, by the module that creates
# it: tiler budgets belong to lozenge, path-family and reflection budgets to dag.
BUDGET_LAYER = {"lozenge": "lozenge", "partitions": "lozenge"}

# Raw spans beyond this many are not stored (aggregates stay exact).
MAX_STORED_SPANS = 3_000_000

MUL_BUCKETS = ((64, "ring.mul.small"), (4096, "ring.mul.mid"), (None, "ring.mul.large"))


def _term_count(value) -> int:
    return len(value._terms) if isinstance(value, ring.QtPolynomial) else 1


def _is_numeric_matrix(matrix) -> bool:
    return all(isinstance(e, (int, Fraction)) for i in range(matrix.rows) for e in matrix.row(i))


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._metric_ids: dict[str, int] = {}
        self.metric_names: list[str] = []
        self._stack: list[int] = []
        self._child = array("d")
        self.span_metric = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.spans_dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.budgets: list[tuple[str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _mid(self, metric: str) -> int:
        mid = self._metric_ids.get(metric)
        if mid is None:
            mid = self._metric_ids[metric] = len(self.metric_names)
            self.metric_names.append(metric)
        return mid

    def begin(self, metric: str, count_call: bool = True) -> int:
        """Open a span; returns its index."""
        idx = len(self._child)
        parent = self._stack[-1] if self._stack else -1
        if count_call and (parent < 0 or self.metric_names[self.span_metric[parent]] != metric):
            # Re-entry into the same metric (recursion, a wrapper calling a
            # wrapped helper) counts as one call.
            self.calls[metric] += 1
        self.span_metric.append(self._mid(metric))
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> float:
        """Close the innermost span; returns its self time."""
        now = time.perf_counter()
        self._stack.pop()
        self.span_end[idx] = now
        duration = now - self.span_start[idx]
        own = duration - self._child[idx]
        if self._stack:
            self._child[self._stack[-1]] += duration
        metric = self.metric_names[self.span_metric[idx]]
        self.self_s[metric] += own
        self.incl_s[metric] += duration
        return own

    def start_op(self, op_id: int) -> int:
        """Open the span of one op of the workload."""
        self.op_id = op_id
        for key in [k for k in self.counts if k.endswith(".pending")]:
            del self.counts[key]
        return self.begin("op")

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self.op_id = -1

    def compact(self) -> None:
        """Drop stored spans above the cap once no span is open."""
        if len(self._child) > MAX_STORED_SPANS and not self._stack:
            n = len(self._child)
            self.spans_dropped += n
            for arr in (self._child, self.span_metric, self.span_start, self.span_end,
                        self.span_parent, self.span_op):
                del arr[:]

    # -- wrapping ------------------------------------------------------------

    def _patch_everywhere(self, original, replacement, places=MODULES) -> None:
        for place in places:
            for name, value in list(vars(place).items()):
                if value is original:
                    self._patches.append((place, name, value))
                    setattr(place, name, replacement)

    def wrap(self, original, metric: str, places=MODULES, after=None) -> None:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.begin(metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, result)
            return result

        self._patch_everywhere(original, wrapper, places)

    def wrap_gen(self, original, metric: str, count: str | None = None) -> None:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.calls[metric] += 1
            return _TracedIter(tracer, metric, count, original(*args, **kwargs))

        self._patch_everywhere(original, wrapper)

    def install(self) -> None:
        """Wrap every measured function; ``restore`` undoes it."""
        poly = ring.QtPolynomial
        matrix = linalg.ExactMatrix
        self._wrap_mul(poly.__mul__)
        self.wrap(poly.__add__, "ring.add", places=(poly,))
        self.wrap(poly.substitute, "ring.substitute", places=(poly,))
        self.wrap(ring.substitute, "ring.substitute")
        self.wrap(ring.qbinomial, "ring.qbinomial")

        self._wrap_det(linalg.determinant)
        for fn in (linalg.pfaffian, linalg.pfaffian_by_matchings, linalg.pfaffian_by_expansion):
            self.wrap(fn, "linalg.pfaffian",
                      after=lambda args, _r: self._maximum("linalg.pfaffian.max_order", args[0].rows))
        for fn in (linalg.sum_max_minors, linalg.sum_max_minors_pfaffian, linalg.sum_max_minors_squared):
            self.wrap(fn, "linalg.minor_sum")
        self.wrap(matrix.__mul__, "linalg.matmul", places=(matrix,))

        self.wrap(dag.nonintersecting_gf, "dag.family")
        self.wrap(dag.signed_path_sum, "dag.signed_sum")
        self.wrap(dag.is_compatible, "dag.compat")
        self.wrap_gen(dag.iter_path_vertex_sets, "dag.compat")
        for fn in (dag.path_matrix, dag.gf_from, dag.path_gf):
            self.wrap(fn, "dag.path_matrix")
        for fn in (dag.signed_sum_squared_dets, dag.unfixed_end_pfaffian):
            self.wrap(fn, "dag.closed_form")

        self.wrap(reflect.check_reflection_identity, "reflect.check")
        self.wrap(reflect.build_mirrored_graph, "reflect.build")

        self.wrap(lozenge.count_tilings, "lozenge.count",
                  after=lambda args, _r: self._maximum("lozenge.max_cells", len(args[0])))
        self.wrap_gen(lozenge.iter_tilings, "lozenge.iter", count="lozenge.iter.yielded")
        self.wrap(lozenge.count_symmetric_tilings, "lozenge.symmetric", after=self._count_symmetric)
        for fn in (lozenge.free_tiling_count_formula, lozenge.mirrored_tiling_gf_formula,
                   lozenge.binomial_path_matrix, lozenge.double_staircase_free_product,
                   lozenge.double_staircase_tiling_product):
            self.wrap(fn, "lozenge.formula")

        self.wrap_gen(partitions.enumerate_spp, "partitions.spp", count="partitions.spp.yielded")
        for fn in (partitions.qt_gf_enumerated, partitions.spp_volume_gf, partitions.spp_count):
            self.wrap(fn, "partitions.spp")
        self.wrap_gen(partitions.enumerate_plane_partitions, "partitions.pp",
                      count="partitions.pp.yielded")
        self.wrap(partitions.pp_sym_volume_gf, "partitions.pp", after=self._count_pp_sym)
        self.wrap(partitions.qt_gf_determinant, "partitions.qt_det")
        self.wrap(partitions.volume_gf, "partitions.volume_gf")
        for fn in (partitions.qt_path_matrix, partitions.lattice_path_gf):
            self.wrap(fn, "partitions.path_matrix")

        self.wrap(verify.run_suites, "verify.run")
        self.wrap(cli.main, "cli")

        self._wrap_budgets()

    def restore(self) -> None:
        while self._patches:
            place, name, value = self._patches.pop()
            setattr(place, name, value)

    def _maximum(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def _count_symmetric(self, _args, result) -> None:
        self.counts["lozenge.symmetric.found"] += Fraction(result)
        # The tilings enumerated for this call are the iterator's yields since
        # the last symmetric call returned.
        self.counts["lozenge.symmetric.enumerated"] += self.counts.pop("lozenge.iter.pending", 0)

    def _count_pp_sym(self, _args, result) -> None:
        self.counts["partitions.pp_sym.found"] += sum(result.terms().values())
        self.counts["partitions.pp_sym.enumerated"] += self.counts.pop("partitions.pp.pending", 0)

    def _wrap_mul(self, original) -> None:
        tracer = self

        @functools.wraps(original)
        def mul(a, b):
            if not tracer.active:
                return original(a, b)
            pairs = _term_count(a) * _term_count(b)
            idx = tracer.begin("ring.mul")
            try:
                return original(a, b)
            finally:
                own = tracer.end(idx)
                tracer.counts["ring.mul.term_pairs"] += pairs
                for limit, bucket in MUL_BUCKETS:
                    if limit is None or pairs <= limit:
                        tracer.self_s[bucket] += own
                        break

        self._patch_everywhere(original, mul, places=(ring.QtPolynomial,))

    def _wrap_det(self, original) -> None:
        tracer = self

        @functools.wraps(original)
        def det(matrix):
            if not tracer.active:
                return original(matrix)
            kind = "linalg.det.numeric" if _is_numeric_matrix(matrix) else "linalg.det.poly"
            tracer._maximum(kind + ".max_order", matrix.rows)
            idx = tracer.begin(kind)
            try:
                return original(matrix)
            finally:
                tracer.end(idx)

        self._patch_everywhere(original, det)

    def _wrap_budgets(self) -> None:
        original = dag.Budget
        tracer = self
        for module in (pathtiles, dag, reflect, lozenge, partitions):
            if vars(module).get("Budget") is not original:
                continue
            layer = BUDGET_LAYER.get(module.__name__.rpartition(".")[2], "dag")

            class TracedBudget(original):
                __slots__ = ()

                def __init__(self, limit=None, _layer=layer):
                    super().__init__(limit)
                    if tracer.active:
                        tracer.budgets.append((_layer, self))

            self._patches.append((module, "Budget", original))
            module.Budget = TracedBudget

    def collect_budgets(self) -> None:
        """Fold the states spent by the budgets created so far into counters."""
        for layer, budget in self.budgets:
            self.counts[layer + ".states"] += budget.limit - budget.remaining
            if budget.remaining < 0:
                self.counts[layer + ".budget_exceeded"] += 1
        self.budgets.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write stored spans as gzipped TSV; returns the number written."""
        names = self.metric_names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tmetric\tstart_s\tend_s\tparent\top\n")
            base = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self._child)):
                fh.write(
                    f"{i}\t{names[self.span_metric[i]]}\t{self.span_start[i] - base:.7f}\t"
                    f"{self.span_end[i] - base:.7f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
        return len(self._child)


class _TracedIter:
    """Iterator proxy timing each ``next()`` of a wrapped generator."""

    __slots__ = ("_tracer", "_metric", "_count", "_it")

    def __init__(self, tracer: Tracer, metric: str, count: str | None, it):
        self._tracer = tracer
        self._metric = metric
        self._count = count
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.begin(self._metric, count_call=False)
        try:
            item = next(self._it)
        finally:
            tracer.end(idx)
        if self._count is not None:
            tracer.counts[self._count] += 1
            tracer.counts[self._count.rpartition(".")[0] + ".pending"] += 1
        return item


# Per-layer metrics of the traced run, with units.  Times and counts are per
# pass over the workload's instance list (totals divided by traced passes);
# max_* are maxima and the ratios are taken over all traced passes.
PER_LAYER = (
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.mul.term_pairs", "count"),
    ("ring.mul.small.self_s", "s"),
    ("ring.mul.mid.self_s", "s"),
    ("ring.mul.large.self_s", "s"),
    ("ring.add.calls", "count"),
    ("ring.add.self_s", "s"),
    ("ring.substitute.self_s", "s"),
    ("ring.qbinomial.self_s", "s"),
    ("linalg.det.numeric.calls", "count"),
    ("linalg.det.numeric.self_s", "s"),
    ("linalg.det.numeric.max_order", "count"),
    ("linalg.det.poly.calls", "count"),
    ("linalg.det.poly.self_s", "s"),
    ("linalg.det.poly.max_order", "count"),
    ("linalg.pfaffian.calls", "count"),
    ("linalg.pfaffian.self_s", "s"),
    ("linalg.pfaffian.max_order", "count"),
    ("linalg.minor_sum.self_s", "s"),
    ("linalg.matmul.self_s", "s"),
    ("dag.family.calls", "count"),
    ("dag.family.self_s", "s"),
    ("dag.signed_sum.self_s", "s"),
    ("dag.compat.self_s", "s"),
    ("dag.path_matrix.self_s", "s"),
    ("dag.closed_form.self_s", "s"),
    ("dag.states", "count"),
    ("dag.states_per_s", "1/s"),
    ("dag.budget_exceeded", "count"),
    ("reflect.check.calls", "count"),
    ("reflect.check.s", "s"),
    ("reflect.build.self_s", "s"),
    ("lozenge.count.calls", "count"),
    ("lozenge.count.self_s", "s"),
    ("lozenge.iter.self_s", "s"),
    ("lozenge.states", "count"),
    ("lozenge.states_per_s", "1/s"),
    ("lozenge.max_cells", "count"),
    ("lozenge.symmetric.self_s", "s"),
    ("lozenge.symmetric.useful_ratio", "ratio"),
    ("lozenge.formula.self_s", "s"),
    ("lozenge.budget_exceeded", "count"),
    ("partitions.spp.yielded", "count"),
    ("partitions.spp.self_s", "s"),
    ("partitions.spp.per_s", "1/s"),
    ("partitions.pp.self_s", "s"),
    ("partitions.pp_sym.useful_ratio", "ratio"),
    ("partitions.qt_det.self_s", "s"),
    ("partitions.volume_gf.self_s", "s"),
    ("partitions.path_matrix.self_s", "s"),
    ("verify.sigma.s", "s"),
    ("verify.reflection.s", "s"),
    ("verify.tilings.s", "s"),
    ("verify.hexagons.s", "s"),
    ("verify.spp.s", "s"),
    ("cli.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

_SUITES = ("sigma", "reflection", "tilings", "hexagons", "spp")


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, passes: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer values of a traced phase, in PER_LAYER order."""
    n = len(passes)
    self_s, calls, counts, maxima = tracer.self_s, tracer.calls, tracer.counts, tracer.maxima
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "self_s":
            out[name] = self_s.get(head, 0.0) / n
        elif tail == "calls":
            out[name] = calls.get(head, 0) / n
        elif tail == "max_order" or name == "lozenge.max_cells":
            out[name] = maxima.get(name, 0)
        elif name in ("ring.mul.term_pairs", "partitions.spp.yielded", "dag.states", "lozenge.states",
                      "dag.budget_exceeded", "lozenge.budget_exceeded"):
            out[name] = counts.get(name, 0) / n
    for bucket in ("small", "mid", "large"):
        out[f"ring.mul.{bucket}.self_s"] = self_s.get(f"ring.mul.{bucket}", 0.0) / n
    out["dag.states_per_s"] = _ratio(
        counts.get("dag.states", 0),
        sum(self_s.get(k, 0.0) for k in ("dag.family", "dag.signed_sum", "dag.compat")),
    )
    out["lozenge.states_per_s"] = _ratio(
        counts.get("lozenge.states", 0),
        sum(self_s.get(k, 0.0) for k in ("lozenge.count", "lozenge.symmetric", "lozenge.iter")),
    )
    out["lozenge.symmetric.useful_ratio"] = _ratio(
        counts.get("lozenge.symmetric.found", 0), counts.get("lozenge.symmetric.enumerated", 0)
    )
    out["partitions.spp.per_s"] = _ratio(counts.get("partitions.spp.yielded", 0), self_s.get("partitions.spp", 0.0))
    out["partitions.pp_sym.useful_ratio"] = _ratio(
        counts.get("partitions.pp_sym.found", 0), counts.get("partitions.pp_sym.enumerated", 0)
    )
    out["reflect.check.s"] = tracer.incl_s.get("reflect.check", 0.0) / n
    out["cli.self_s"] = self_s.get("cli", 0.0) / n
    out["trace.unattributed_s"] = self_s.get("op", 0.0) / n
    for suite in _SUITES:
        out[f"verify.{suite}.s"] = sum(p["extra"].get(f"verify.{suite}.s", 0.0) for p in passes) / n
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _unit in PER_LAYER}
