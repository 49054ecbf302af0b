"""Seeded workloads of the pathtiles benchmark.

Each workload turns ``--seed`` into a fixed instance list, grouped so that a
group's outputs can be checked against each other or against an independent
route.  A pass runs every op of the list back to back (closed loop, one
process, one thread); checks run after the pass, outside the timed spans.

Instances are drawn slot by slot: a slot is a pool of instances of about the
same cost (measured by a deterministic count: ring term pairs, budget
states), and the seed picks one instance per slot, plus edge weights and op
order where the workload has them.  Different seeds therefore give different
inputs of about the same total cost.  ``--smoke`` replaces the pools by the
smallest instance of each kind.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from pathtiles import cli, dag, lozenge, partitions, reflect, verify
from pathtiles.ring import QtPolynomial, scalar_str


class Failed:
    """Placeholder output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"error:{type(exc).__name__}"
        self.message = f"{type(exc).__name__}: {exc}"


@dataclass
class Op:
    label: str
    fn: Callable[[], object]


@dataclass
class Group:
    """Ops whose outputs are checked together.

    ``check`` receives the group's outputs (none of them Failed) and returns
    an error message, or None when they are correct.
    """

    ops: list[Op]
    check: Callable[[list], str | None]


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    outputs: list
    extra: dict = field(default_factory=dict)  # JSON-ready numbers for the report
    context: object = None  # what check() needs beyond the outputs


def canonical(value) -> str:
    """Canonical text of an op output, built on ring.scalar_str."""
    if isinstance(value, Failed):
        return value.text
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if isinstance(value, reflect.ReflectionReport):
        return canonical((value.squared_signed_sum, value.bar_signed_sum, value.tilde_signed_sum,
                          value.compatible, value.unsigned_values or ()))
    return scalar_str(value)


class Workload:
    """A list of op groups, run as one pass."""

    def __init__(self, groups: list[Group]):
        self.groups = groups
        self.ops = [op for g in groups for op in g.ops]

    def run_pass(self, tracer=None) -> PassResult:
        outputs = []
        latencies = []
        first = None
        clock = time.perf_counter
        for op_id, op in enumerate(self.ops):
            span = tracer.start_op(op_id) if tracer is not None else None
            start = clock()
            try:
                out = op.fn()
            except Exception as exc:  # counted as a failed op; the run goes on
                out = Failed(exc)
            stop = clock()
            if span is not None:
                tracer.end_op(span)
            if first is None:
                first = start
            latencies.append(stop - start)
            outputs.append(out)
        return PassResult(stop - first, latencies, outputs)

    def check(self, result: PassResult) -> list[str | None]:
        """One error message (or None) per op, in op order."""
        outputs = result.outputs
        errors: list[str | None] = []
        pos = 0
        for group in self.groups:
            outs = outputs[pos:pos + len(group.ops)]
            pos += len(group.ops)
            failed = [o.message for o in outs if isinstance(o, Failed)]
            if failed:
                msg = failed[0]
            else:
                try:
                    msg = group.check(outs)
                except Exception as exc:  # a check that cannot run is a failure
                    msg = f"check raised {type(exc).__name__}: {exc}"
            label = group.ops[0].label
            errors += [None if msg is None else f"{label}: {msg}"] * len(outs)
        return errors


def _coefficient_sum(poly) -> Fraction:
    return sum(QtPolynomial.from_scalar(poly).terms().values(), Fraction(0))


def _tiling_gf_times_2k(m: int, shape) -> Fraction:
    """2^k times the two-sided tiling GF: a numeric Bareiss determinant that
    equals the squared number of shifted plane partitions."""
    return 2 ** len(shape) * lozenge.mirrored_tiling_gf_formula(m, shape)


# ---------------------------------------------------------------------------
# Group builders: each takes the workload rng and one slot entry's parameters
# ---------------------------------------------------------------------------


def spp_group(rng, m: int, shape) -> Group:
    """qt_gf_determinant and both volume_gf specialisations of one shape.

    Check: the coefficient sum of each squared GF is 2^k times the two-sided
    tiling GF, which has no QtPolynomial in it.
    """

    def check(outs):
        want = _tiling_gf_times_2k(m, shape)
        for out in outs:
            got = _coefficient_sum(out)
            if got != want:
                return f"coefficient sum {got} != 2^k * tiling GF {want}"
        return None

    return Group(
        [
            Op(f"qt_gf_determinant m={m} shape={shape}", lambda: partitions.qt_gf_determinant(m, shape)),
            Op(f"volume_gf spp m={m} shape={shape}", lambda: partitions.volume_gf(m, shape, "spp")),
            Op(f"volume_gf pp_sym m={m} shape={shape}", lambda: partitions.volume_gf(m, shape, "pp_sym")),
        ],
        check,
    )


def macmahon_box(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (MacMahon's product)."""
    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(value)


def frontier_count(region) -> Fraction:
    """Weighted tiling count by a transfer-matrix scan over cells.

    Independent of the package's backtracker: cells are scanned in sorted
    order and the state is the set of later cells already covered, kept as
    a bitmask relative to the scan position.
    """
    cells = sorted(region.cells)
    index = {c: i for i, c in enumerate(cells)}
    moves = []
    for i, (x, y, orient) in enumerate(cells):
        other = "R" if orient == "L" else "L"
        dx = 1 if orient == "L" else -1
        options = []
        for partner in ((x + dx, y, other), (x, y + 1, other), (x, y - 1, other)):
            j = index.get(partner)
            if j is not None and j > i:
                key = frozenset((cells[i], cells[j]))
                options.append((1 << (j - i), region.weights.get(key, 1)))
        side = (x + 1, y) if orient == "L" else (x, y)
        if side in region.free_edges:
            options.append((0, region.weights.get(frozenset((cells[i],)), 1)))
        moves.append(options)
    states = {0: Fraction(1)}
    for options in moves:
        nxt: dict[int, Fraction] = {}
        for mask, weight in states.items():
            if mask & 1:
                nxt[mask >> 1] = nxt.get(mask >> 1, 0) + weight
                continue
            for bit, w in options:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    nxt[key] = nxt.get(key, 0) + weight * w
        states = nxt
    return states.get(0, Fraction(0))


def _count_group(label: str, region, want: Callable[[], object], what: str) -> Group:
    def check(outs):
        expected = want()
        return None if outs[0] == expected else f"tiler {outs[0]} != {what} {expected}"

    return Group([Op(f"count_tilings {label}", lambda: lozenge.count_tilings(region))], check)


def hook_group(rng, kind: str, m: int, shape, removed) -> Group:
    """count_tilings on a one-sided (free) or two-sided (mirrored) hook
    region, checked against the package's binomial-matrix formula."""
    label = f"{kind}_hook_region m={m} shape={shape} removed={removed}"
    if kind == "free":
        region = lozenge.free_hook_region(m, shape, removed)
        return _count_group(label, region, lambda: lozenge.free_tiling_count_formula(m, shape, removed),
                            "minor-sum formula")
    region = lozenge.mirrored_hook_region(m, shape, removed)
    return _count_group(label, region, lambda: lozenge.mirrored_tiling_gf_formula(m, shape, removed),
                        "determinant formula")


def _hexagon(spec):
    """(m, n, holes) is a holed_hexagon, (m, n, x, holes) a punctured_hexagon."""
    return lozenge.holed_hexagon(*spec) if len(spec) == 3 else lozenge.punctured_hexagon(*spec)


def hexagon_group(rng, *spec) -> Group:
    """count_tilings on a hexagon: hole-free ones are checked against
    MacMahon's box product, the others against the frontier scan."""
    region = _hexagon(spec)
    if len(spec) == 3 and not spec[2]:
        m, n, _ = spec
        return _count_group(f"hexagon{spec}", region, lambda: macmahon_box(2 * m, n, n), "MacMahon box")
    return _count_group(f"hexagon{spec}", region, lambda: frontier_count(region), "frontier scan")


def symmetric_group(rng, *spec) -> Group:
    """count_symmetric_tilings, central and both, checked by central == both^2."""
    region = _hexagon(spec)

    def check(outs):
        central, both = outs
        return None if central == both * both else f"central {central} != both^2 = {both * both}"

    return Group(
        [Op(f"count_symmetric_tilings {mode} hexagon{spec}",
            lambda mode=mode: lozenge.count_symmetric_tilings(region, mode))
         for mode in ("central", "both")],
        check,
    )


def staircase_graph(rng, size: int, max_weight: int):
    """Up/right lattice on {x + y <= size}; the diagonal vertices are sinks."""
    vertices = [(x, y) for x in range(size + 1) for y in range(size + 1) if x + y <= size]
    edges = [
        ((x, y), nxt, rng.randint(1, max_weight))
        for x, y in vertices
        for nxt in ((x + 1, y), (x, y + 1))
        if nxt[0] + nxt[1] <= size
    ]
    return dag.WeightedDag(vertices, edges), [(x, size - x) for x in range(size + 1)]


def reflect_group(rng, size: int, starts, n: int) -> Group:
    """check_reflection_identity on a staircase graph with seeded weights 1-2."""
    graph, sinks = staircase_graph(rng, size, 2)
    inp = reflect.ReflectionInput(graph, dag.EndpointSpec(starts, tuple(sinks[:n])))
    return Group(
        [Op(f"check_reflection_identity size={size} starts={starts} ends={n}",
            lambda: reflect.check_reflection_identity(inp))],
        lambda outs: None if outs[0].passed else "; ".join(outs[0].lines()),
    )


def grid_group(rng, width: int, height: int, m: int, n: int) -> Group:
    """One op evaluating a path-family identity on grid_graph three ways:
    signed_path_sum (the DFS oracle), signed_sum_squared_dets and
    unfixed_end_pfaffian.  The seed picks the starts on the lower-left
    boundary and the ends on the upper-right one.

    Check: both determinants equal the squared signed sum and the Pfaffian
    equals the signed sum.
    """
    lower = [(0, y) for y in range(height, 0, -1)] + [(x, 0) for x in range(width + 1)]
    upper = [(x, height) for x in range(width + 1)] + [(width, y) for y in range(height - 1, -1, -1)]
    spec = dag.EndpointSpec(
        tuple(lower[i] for i in sorted(rng.sample(range(len(lower)), m))),
        tuple(upper[j] for j in sorted(rng.sample(range(len(upper)), n))),
    )
    graph = dag.grid_graph(width, height)

    def run():
        return (dag.signed_path_sum(graph, spec), dag.signed_sum_squared_dets(graph, spec),
                dag.unfixed_end_pfaffian(graph, spec))

    def check(outs):
        signed, (d1, d2), pf = outs[0]
        if d1 != signed * signed or d2 != signed * signed:
            return f"determinants {d1}, {d2} != signed sum^2 = {signed * signed}"
        return None if pf == signed else f"Pfaffian {pf} != signed sum {signed}"

    return Group([Op(f"grid {width}x{height} starts={spec.starts} ends={spec.ends}", run)], check)


def _enumerated_group(label: str, fn, m: int, shape) -> Group:
    """Check: the squared coefficient sum of an enumerated GF is 2^k times
    the two-sided tiling GF."""

    def check(outs):
        want = _tiling_gf_times_2k(m, shape)
        got = _coefficient_sum(outs[0]) ** 2
        return None if got == want else f"count^2 {got} != 2^k * tiling GF {want}"

    return Group([Op(label, fn)], check)


def qt_enum_group(rng, m: int, shape) -> Group:
    """qt_gf_enumerated: the (q,t)-GF by enumerating shifted plane partitions."""
    return _enumerated_group(f"qt_gf_enumerated m={m} shape={shape}",
                             lambda: partitions.qt_gf_enumerated(m, shape), m, shape)


def pp_sym_group(rng, m: int, shape) -> Group:
    """pp_sym_volume_gf: plane partitions of the symmetrized shape, filtered."""
    sym = partitions.symmetrize_shape(shape)
    return _enumerated_group(f"pp_sym_volume_gf m={m} shape={sym}",
                             lambda: partitions.pp_sym_volume_gf(m, sym), m, shape)


GROUP_BUILDERS = {
    "spp": spp_group,
    "hook": hook_group,
    "hexagon": hexagon_group,
    "symmetric": symmetric_group,
    "reflect": reflect_group,
    "grid": grid_group,
    "qt_enum": qt_enum_group,
    "pp_sym": pp_sym_group,
}

# ---------------------------------------------------------------------------
# Slots.  Each slot is a pool of (builder, parameters...) entries of about the
# same cost; the seed picks one entry per slot.  The cost noted per pool is
# a deterministic count (ring term pairs of qt_gf_determinant, backtracking
# or DFS states, tilings enumerated) together with the best of four
# interleaved timings on a 2-vCPU x86-64 virtual machine under Python 3.11.
# ---------------------------------------------------------------------------

SLOTS = {
    "spp-qt": [
        # (q,t) determinant plus both volume GFs of one shape: ~0.22 s, ~0.34 s,
        # ~0.49 s, ~0.83 s (four parts) and ~1.0 s per instance
        [("spp", 2, (6, 5, 1)), ("spp", 2, (7, 3, 2)), ("spp", 2, (7, 4, 1)), ("spp", 2, (6, 3, 2))],
        [("spp", 2, (7, 6, 1)), ("spp", 2, (8, 4, 2)), ("spp", 4, (4, 2, 1)), ("spp", 3, (7, 2, 1))],
        [("spp", 3, (5, 3, 2)), ("spp", 4, (5, 2, 1)), ("spp", 2, (6, 5, 4)), ("spp", 2, (8, 6, 2)),
         ("spp", 3, (6, 4, 1)), ("spp", 2, (7, 6, 3))],
        [("spp", 2, (5, 4, 2, 1)), ("spp", 2, (6, 4, 2, 1))],
        [("spp", 4, (8, 2, 1)), ("spp", 3, (8, 5, 1)), ("spp", 3, (6, 5, 2)), ("spp", 4, (6, 3, 1)),
         ("spp", 2, (5, 4, 3, 1)), ("spp", 2, (6, 5, 2, 1))],
    ],
    "tiles": [
        # one-sided hook regions with a free boundary: 115k and 270-281k states
        [("hook", "free", 4, (7, 6), ()), ("hook", "free", 4, (7, 6, 1), (3,)),
         ("hook", "free", 4, (7, 6, 4), (1,))],
        [("hook", "free", 4, (7, 4, 2), ()), ("hook", "free", 4, (6, 5, 3), ()),
         ("hook", "free", 4, (7, 6, 1), ())],
        # two-sided hook regions with weight-1/2 lozenges, with a removed hook
        # (twice; the 11 ops then put the median op inside this pool) and
        # without: 115-120k and 90-98k states
        [("hook", "mirrored", 3, (6, 1), (2,)), ("hook", "mirrored", 3, (6, 2), (2,)),
         ("hook", "mirrored", 3, (6, 3), (2,))],
        [("hook", "mirrored", 3, (6, 1), (2,)), ("hook", "mirrored", 3, (6, 2), (2,)),
         ("hook", "mirrored", 3, (6, 3), (2,))],
        [("hook", "mirrored", 2, (5, 4), ()), ("hook", "mirrored", 2, (6, 2), ())],
        # holed and punctured hexagons: 745-749k and 166-173k states
        [("hexagon", 2, 3, 2, ()), ("hexagon", 2, 3, 1, (2,))],
        [("hexagon", 1, 5, ()), ("hexagon", 3, 2, 1, ())],
        # symmetric counts, central and both, by enumerate-then-filter:
        # 2.4-4.1k and 1.4-1.8k tilings enumerated per mode
        [("symmetric", 2, 3, ()), ("symmetric", 1, 4, 3, ())],
        [("symmetric", 1, 4, ()), ("symmetric", 1, 3, 1, (1,))],
    ],
    "oracles": [
        # reflection checks on staircase graphs with seeded weights; pools share
        # the graph size, start count and end count, and have the same number of
        # DFS states within 2%: 33k, 54k, 95k, 112k, 268k and 330k states
        [("reflect", 6, ((2, 2), (3, 1)), 6), ("reflect", 6, ((0, 4), (2, 3)), 6)],
        [("reflect", 6, ((0, 3), (2, 2)), 4), ("reflect", 6, ((0, 2), (0, 5)), 4)],
        [("reflect", 5, ((0, 3), (1, 2), (3, 1)), 5), ("reflect", 5, ((1, 1), (1, 2), (3, 0)), 5),
         ("reflect", 5, ((0, 2), (0, 4), (3, 1)), 5), ("reflect", 5, ((0, 4), (2, 0), (3, 0)), 5)],
        [("reflect", 6, ((1, 2), (1, 3), (1, 4)), 6), ("reflect", 6, ((2, 1), (3, 1), (5, 0)), 6)],
        [("reflect", 6, ((1, 2), (3, 0)), 6), ("reflect", 6, ((0, 2), (4, 1)), 6),
         ("reflect", 6, ((0, 1), (3, 2)), 6)],
        [("reflect", 6, ((0, 1), (0, 3), (5, 0)), 4), ("reflect", 6, ((0, 2), (1, 1), (4, 1)), 4)],
        # grid identities (width, height, starts, ends), seeded endpoints: under 0.02 s
        [("grid", 4, 4, 3, 4)],
        [("grid", 3, 4, 4, 5)],
        [("grid", 4, 5, 3, 4)],
        # enumerated (q,t)-GFs: ~0.12 s and ~0.3 s
        [("qt_enum", 4, (5, 4, 1)), ("qt_enum", 4, (5, 3, 2)), ("qt_enum", 4, (7, 2, 1))],
        [("qt_enum", 4, (6, 4, 1)), ("qt_enum", 4, (7, 3, 1))],
        # symmetric volume GFs by enumerate-and-filter: ~0.3 s and ~0.41 s
        [("pp_sym", 3, (6, 2, 1)), ("pp_sym", 3, (5, 3, 1)), ("pp_sym", 2, (6, 4, 3))],
        [("pp_sym", 4, (5, 2)), ("pp_sym", 4, (4, 3, 1))],
    ],
}

# --smoke: the smallest instance of every builder a workload uses.
SMOKE_SLOTS = {
    "spp-qt": [[("spp", 2, (3, 2, 1))]],
    "tiles": [
        [("hook", "free", 2, (2, 1), ())],
        [("hook", "mirrored", 1, (2, 1), (1,))],
        [("hexagon", 1, 2, ())],
        [("hexagon", 1, 2, 1, ())],
        [("symmetric", 1, 2, ())],
    ],
    "oracles": [
        [("reflect", 3, ((0, 0), (1, 0)), 4)],
        [("grid", 2, 2, 2, 3)],
        [("qt_enum", 2, (2, 1))],
        [("pp_sym", 2, (2, 1))],
    ],
}


def build_slots(rng, slots) -> Workload:
    groups = []
    for pool in slots:
        kind, *params = rng.choice(pool)
        groups.append(GROUP_BUILDERS[kind](rng, *params))
    rng.shuffle(groups)
    return Workload(groups)


# ---------------------------------------------------------------------------
# verify-full: the package's own headline command
# ---------------------------------------------------------------------------

class VerifyFull(Workload):
    """One ``cli.main(["verify", ...])`` per pass; its ops are the check groups.

    The ops are timed by wrapping ``verify._timed``, the function that runs
    each check group, in every module binding; the wrapper is removed again
    when the pass ends.
    """

    def __init__(self, seed: int, smoke: bool):
        budget = "tiny" if smoke else "full"
        self.argv = ["verify", "--suite", "all", "--size-budget", budget, "--seed", str(seed)]
        self.expected = 15  # check groups of the all-suites run
        super().__init__([])

    def run_pass(self, tracer=None) -> PassResult:
        records, latencies, bounds = [], [], []
        original = verify._timed
        clock = time.perf_counter

        def timed(recs, name, fn):
            span = tracer.start_op(len(records)) if tracer is not None else None
            start = clock()
            try:
                rec = original(recs, name, fn)
            finally:
                stop = clock()
                if span is not None:
                    tracer.end_op(span)
            bounds.append((start, stop))
            latencies.append(stop - start)
            records.append(rec)
            return rec

        stdout = io.StringIO()
        verify._timed = timed
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(self.argv))
        except Exception as exc:
            code = Failed(exc).message
        finally:
            verify._timed = original
        wall = bounds[-1][1] - bounds[0][0] if bounds else 0.0
        outputs = [rec.line() for rec in records]
        extra = {}
        for rec in records:
            suite = rec.name.partition(":")[0]
            extra[f"verify.{suite}.s"] = extra.get(f"verify.{suite}.s", 0.0) + rec.seconds
        return PassResult(wall, latencies, outputs, extra, (records, code, stdout.getvalue()))

    def check(self, result: PassResult) -> list[str | None]:
        records, code, text = result.context
        summary = f"OK: {self.expected}/{self.expected} checks passed"
        errors = [None if rec.passed else rec.line() for rec in records]
        errors += ["check group did not run"] * (self.expected - len(records))
        if code != 0 or summary not in text.splitlines():
            errors = [e or f"verify exited {code!r} without '{summary}'" for e in errors]
        return errors


WORKLOADS = ("verify-full", "spp-qt", "tiles", "oracles")


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's instance list for a seed; the same seed, the same list."""
    if name == "verify-full":
        return VerifyFull(seed, smoke)
    if name not in SLOTS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return build_slots(rng, (SMOKE_SLOTS if smoke else SLOTS)[name])
