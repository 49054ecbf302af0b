"""Seeded verification suites cross-checking every identity in the package.

Each suite draws random instances from a caller-supplied rng, evaluates the
identity on every route available (enumeration oracle, Pfaffian,
determinant, product formula, brute-force tiler), and reports one record per
check group.  Default sizes are the acceptance sizes; the CLI shrinks them
through budget presets.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import dag, linalg, lozenge, partitions, reflect
from .ring import QtPolynomial, scalar_str


@dataclass
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


@dataclass
class RunReport:
    command: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def lines(self) -> list[str]:
        out = [f"# {self.command}"]
        out += [c.line() for c in self.checks]
        out.append(f"{'OK' if self.passed else 'FAILED'}: {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return out

    def timing_lines(self) -> list[str]:
        out = [f"{c.seconds:8.3f}s  {c.name}" for c in self.checks]
        out.append(f"{sum(c.seconds for c in self.checks):8.3f}s  total")
        return out


def _timed(records: list[CheckRecord], name: str, fn) -> CheckRecord:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except dag.BudgetExceeded as exc:
        # Budget exhaustion fails the check but the run continues.
        passed, detail = False, str(exc)
    rec = CheckRecord(name, passed, detail, time.perf_counter() - start)
    records.append(rec)
    return rec


# ---------------------------------------------------------------------------
# Suite: sigma (minor sums and Pfaffians)
# ---------------------------------------------------------------------------


def suite_sigma(rng, trials: int = 200, skew_trials: int = 100) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    def minor_sums():
        for idx in range(trials):
            m = rng.randint(1, 4)
            n = rng.randint(m, 7)
            z = linalg.random_integer_matrix(rng, m, n)
            sigma = linalg.sum_max_minors(z)
            via_pf = linalg.sum_max_minors_pfaffian(z)
            if sigma != via_pf:
                return False, f"instance {idx}: direct {sigma} != pfaffian {via_pf}"
            d1, d2 = linalg.sum_max_minors_squared(z)
            if d1 != sigma * sigma or d2 != sigma * sigma:
                return False, f"instance {idx}: squares {d1}, {d2} != {sigma}^2"
        return True, f"{trials} random matrices"

    def pfaffian_squares():
        for idx in range(skew_trials):
            n = 2 * rng.randint(1, 4)
            a = linalg.random_skew_matrix(rng, n)
            pf_m = linalg.pfaffian_by_matchings(a)
            pf_e = linalg.pfaffian_by_expansion(a)
            if pf_m != pf_e:
                return False, f"instance {idx}: matchings {pf_m} != expansion {pf_e}"
            if pf_m * pf_m != linalg.determinant(a):
                return False, f"instance {idx}: Pf^2 != det"
        return True, f"{skew_trials} random skew matrices, orders 2-8"

    def shift_invariance():
        for idx in range(20):
            n = rng.randint(2, 4)
            m = rng.randint(1, n)
            k = m % 2  # keep m + k even
            z = linalg.random_integer_matrix(rng, m, n)
            a = linalg.random_skew_matrix(rng, n)
            h = linalg.random_integer_matrix(rng, m, k)
            b = linalg.random_skew_matrix(rng, k)
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if not linalg.skew_shift_block_invariant(z, a, h, b, x):
                return False, f"instance {idx} failed"
        return True, "20 random block instances"

    _timed(records, f"minor-sum identities ({trials} matrices)", minor_sums)
    _timed(records, f"pfaffian squares and impl agreement ({skew_trials} matrices)", pfaffian_squares)
    _timed(records, "skew shift-invariance of block determinants", shift_invariance)
    return records


# ---------------------------------------------------------------------------
# Suite: reflection (squared signed sums and mirrored graphs)
# ---------------------------------------------------------------------------


def _staircase_graph(rng, size: int, max_weight: int = 1):
    """Up/right lattice on {(x, y): x + y <= size}; diagonal vertices are sinks."""
    vertices = [(x, y) for x in range(size + 1) for y in range(size + 1) if x + y <= size]
    edges = []
    for x, y in vertices:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt[0] + nxt[1] <= size:
                w = rng.randint(1, max_weight) if max_weight > 1 else 1
                edges.append(((x, y), nxt, w))
    g = dag.WeightedDag(vertices, edges)
    sinks = [(x, size - x) for x in range(size + 1)]
    interior = [v for v in vertices if v[0] + v[1] < size]
    return g, sinks, interior


def suite_reflection(rng, det_instances: int = 16, principle_instances: int = 20) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    def det_identity():
        seen_noncompat = 0
        for idx in range(det_instances):
            width = rng.randint(1, 3)
            height = rng.randint(1, 3)
            grid = dag.grid_graph(width, height)
            vertices = [(x, y) for x in range(width + 1) for y in range(height + 1)]
            m = rng.randint(1, min(3, len(vertices) - 1))
            n = rng.randint(m, min(5, len(vertices)))
            spec = dag.EndpointSpec(tuple(rng.sample(vertices, m)), tuple(rng.sample(vertices, n)))
            signed = dag.signed_path_sum(grid, spec)
            d1, d2 = dag.signed_sum_squared_dets(grid, spec)
            if d1 != signed * signed or d2 != signed * signed:
                return False, f"instance {idx}: {d1}, {d2} != {signed}^2"
            pf = dag.unfixed_end_pfaffian(grid, spec)
            if pf != signed:
                return False, f"instance {idx}: Pf {pf} != signed sum {signed}"
            if not dag.is_compatible(grid, spec):
                seen_noncompat += 1
        if seen_noncompat == 0:
            # Force one: ends listed against the grid order are incompatible.
            grid = dag.grid_graph(2, 2)
            spec = dag.EndpointSpec(((0, 1), (1, 0)), ((2, 1), (1, 2)))
            if dag.is_compatible(grid, spec):
                return False, "expected a non-compatible spec"
            signed = dag.signed_path_sum(grid, spec)
            d1, d2 = dag.signed_sum_squared_dets(grid, spec)
            if d1 != signed * signed or d2 != signed * signed:
                return False, "forced non-compatible instance failed"
            seen_noncompat = 1
        return True, f"{det_instances} grid specs, {seen_noncompat} non-compatible"

    # Fixed instances so both parities and a three-start family always occur.
    fixed_starts = (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1)))

    def principle():
        odd = even = 0
        for idx in range(principle_instances):
            size = rng.choice([2, 2, 3])
            g, sinks, interior = _staircase_graph(rng, size, max_weight=2)
            m = rng.randint(1, 2)
            n = rng.randint(max(m, 2), len(sinks))
            starts = tuple(rng.sample(interior, m))
            ends = tuple(sinks[:n])
            inp = reflect.ReflectionInput(g, dag.EndpointSpec(starts, ends))
            report = reflect.check_reflection_identity(inp)
            if not report.passed:
                return False, f"instance {idx}: " + "; ".join(report.lines())
            if m % 2:
                odd += 1
            else:
                even += 1
        g, sinks, interior = _staircase_graph(rng, 3)
        for starts in fixed_starts:
            spec = dag.EndpointSpec(starts, tuple(sinks))
            report = reflect.check_reflection_identity(reflect.ReflectionInput(g, spec))
            if not report.passed:
                return False, "fixed instance failed: " + "; ".join(report.lines())
            if len(spec.starts) % 2:
                odd += 1
            else:
                even += 1
        return True, f"{odd + even} instances ({odd} odd, {even} even starts)"

    def mirrored_structure():
        g, sinks, _ = _staircase_graph(rng, 3, max_weight=3)
        spec = dag.EndpointSpec(((0, 0),), tuple(sinks))
        inp = reflect.ReflectionInput(g, spec)
        n = len(sinks)
        primed = [reflect.mirrored_id(v) for v in sinks]
        for variant, matrix in (("bar", linalg.upper_twos(n)), ("tilde", linalg.upper_twos(n).transpose())):
            doubled, _spec2 = reflect.build_mirrored_graph(inp, variant)
            got = dag.path_matrix(doubled, dag.EndpointSpec(tuple(sinks), tuple(primed)))
            if got != matrix:
                return False, f"{variant}: sink-to-mirror path matrix is wrong"
            # Mirror edges are the primed-to-primed edges that do not enter a
            # primed sink (those are the unit-weight connectors).
            base_weights = sorted(scalar_str(w) for _, _, w in g.edges)
            mirror_weights = sorted(
                scalar_str(w)
                for s, d, w in doubled.edges
                if isinstance(s, str) and s.endswith("'") and d not in primed
            )
            if base_weights != mirror_weights:
                return False, f"{variant}: mirror does not preserve weights"
        return True, "connector path matrices and mirrored weights"

    _timed(records, f"squared signed sums vs determinants/pfaffians ({det_instances} specs)", det_identity)
    _timed(records, f"reflection principle on mirrored graphs ({principle_instances + len(fixed_starts)} instances)", principle)
    _timed(records, "mirrored-graph structure", mirrored_structure)
    return records


# ---------------------------------------------------------------------------
# Suite: tilings (hook regions with free boundaries)
# ---------------------------------------------------------------------------


def strict_partitions(max_part: int, max_parts: int) -> list[tuple[int, ...]]:
    shapes: list[tuple[int, ...]] = []
    parts = list(range(1, max_part + 1))
    for k in range(1, max_parts + 1):
        for combo in itertools.combinations(parts, k):
            shapes.append(tuple(sorted(combo, reverse=True)))
    return sorted(shapes)


def suite_tilings(rng, max_part: int = 4, max_parts: int = 3, max_m: int = 2,
                  product_max_n: int = 3, product_max_m: int = 3) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    def square_identity():
        cases = 0
        for shape in strict_partitions(max_part, max_parts):
            k = len(shape)
            for m in range(max_m + 1):
                for r in range(k + 1):
                    for removed in itertools.combinations(range(1, k + 1), r):
                        values = lozenge.square_identity_values(m, shape, removed)
                        if values["free_formula"] != values["free_tiler"]:
                            return False, f"{m},{shape},{removed}: free routes disagree"
                        if values["mirrored_formula"] != values["mirrored_tiler"]:
                            return False, f"{m},{shape},{removed}: two-sided routes disagree"
                        if values["free_formula"] ** 2 != values["factor"] * values["mirrored_formula"]:
                            return False, f"{m},{shape},{removed}: squared identity fails"
                        cases += 1
        return True, f"{cases} (m, shape, removed) cases, four routes each"

    def staircase_products():
        cases = 0
        for n in range(product_max_n + 1):
            for k in range(n + 1):
                for m in range(product_max_m + 1):
                    shape = lozenge.double_staircase(n, k)
                    lhs = lozenge.mirrored_tiling_gf_formula(m, shape)
                    rhs = lozenge.double_staircase_tiling_product(m, n, k)
                    if lhs != rhs:
                        return False, f"(m,n,k)=({m},{n},{k}): {lhs} != {rhs}"
                    free_lhs = lozenge.free_tiling_count_formula(m, shape)
                    if free_lhs != lozenge.double_staircase_free_product(m, n, k):
                        return False, f"(m,n,k)=({m},{n},{k}): free product mismatch"
                    cases += 1
        return True, f"{cases} (m, n, k) triples"

    def doubling_self_test():
        shapes = [(1,), (2,), (2, 1), (3, 1)]
        for shape in shapes:
            for m in range(2):
                region = lozenge.free_hook_region(m, shape)
                doubled = lozenge.doubled_region(region)
                sym = lozenge.count_symmetric_tilings(doubled, "vertical")
                free = lozenge.count_tilings(region)
                if sym != free:
                    return False, f"m={m} shape={shape}: doubled {sym} != free {free}"
        return True, f"{2 * len(shapes)} doubled regions"

    _timed(records, f"free-boundary square identity (parts<={max_part}, k<={max_parts}, m<={max_m})", square_identity)
    _timed(records, f"double-staircase products (n<={product_max_n}, m<={product_max_m})", staircase_products)
    _timed(records, "free boundary == vertically symmetric doubling", doubling_self_test)
    return records


# ---------------------------------------------------------------------------
# Suite: hexagons (factorization of symmetric tiling counts)
# ---------------------------------------------------------------------------


# (m, n, holes) of holed_hexagon and (m, n, x, holes) of punctured_hexagon.
HEXAGON_CASES = [
    (1, 1, ()),
    (1, 2, ()),
    (1, 2, (1,)),
    (1, 3, ()),
    (1, 3, (1,)),
    (2, 2, ()),
    (2, 3, ()),
]
PUNCTURED_HEXAGON_CASES = [
    (1, 2, 1, ()),
    (1, 2, 2, ()),
    (1, 2, 1, (1,)),
]


def suite_hexagons(rng) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    def factorization():
        for m, n, holes in HEXAGON_CASES:
            if not lozenge.check_hexagon_factorization(m, n, holes, "a"):
                return False, f"hexagon (m={m}, n={n}, holes={holes})"
        for m, n, x, holes in PUNCTURED_HEXAGON_CASES:
            if not lozenge.check_hexagon_factorization(m, n, holes, "b", x):
                return False, f"punctured (m={m}, n={n}, x={x}, holes={holes})"
        return True, f"{len(HEXAGON_CASES)} hexagons, {len(PUNCTURED_HEXAGON_CASES)} punctured"

    def quotient_regions():
        # The symmetric tiling counts of the hexagon match the free/two-sided
        # counts of its quotient hook regions.
        cases = [
            (f"(m={m}, n={n}, holes={holes})", lozenge.holed_hexagon, (m, n, holes),
             lozenge.staircase_for_hexagon(n))
            for m, n, holes in HEXAGON_CASES
        ] + [
            (f"punctured (m={m}, n={n}, x={x}, holes={holes})", lozenge.punctured_hexagon, (m, n, x, holes),
             lozenge.staircase_for_punctured_hexagon(n, x))
            for m, n, x, holes in PUNCTURED_HEXAGON_CASES
        ]
        for label, build, args, shape in cases:
            m, holes = args[0], args[-1]
            if not shape or any(h > len(shape) for h in holes):
                continue
            region = build(*args)
            both = lozenge.count_symmetric_tilings(region, "both")
            central = lozenge.count_symmetric_tilings(region, "central")
            free = lozenge.count_tilings(lozenge.free_hook_region(m, shape, holes))
            twosided = lozenge.count_tilings(lozenge.mirrored_hook_region(m, shape, holes))
            factor = 2 ** (len(shape) - len(holes))
            if both != free:
                return False, f"{label}: both {both} != free {free}"
            if central != factor * twosided:
                return False, f"{label}: central {central} != {factor} * {twosided}"
        return True, "symmetric counts match quotient hook regions"

    _timed(records, "centrally symmetric counts factor as squares", factorization)
    _timed(records, "hexagon quotients agree with hook regions", quotient_regions)
    return records


# ---------------------------------------------------------------------------
# Suite: spp (plane partition generating functions)
# ---------------------------------------------------------------------------


def suite_spp(rng, max_part: int = 4, max_parts: int = 3, max_m: int = 3,
              lattice_range: int = 5) -> list[CheckRecord]:
    records: list[CheckRecord] = []

    def qt_determinants():
        cases = 0
        for shape in strict_partitions(max_part, max_parts):
            for m in range(max_m + 1):
                enumerated = partitions.qt_gf_enumerated(m, shape)
                det_value = partitions.qt_gf_determinant(m, shape)
                if enumerated * enumerated != det_value:
                    return False, f"(m={m}, shape={shape}): det != enumeration^2"
                cases += 1
        return True, f"{cases} (m, shape) cases"

    def specializations():
        cases = 0
        for shape in strict_partitions(max_part, max_parts):
            for m in range(max_m + 1):
                vol = partitions.spp_volume_gf(m, shape)
                if vol * vol != partitions.volume_gf(m, shape, "spp"):
                    return False, f"(m={m}, shape={shape}): shifted volume GF mismatch"
                sym = partitions.pp_sym_volume_gf(m, partitions.symmetrize_shape(shape))
                if sym * sym != partitions.volume_gf(m, shape, "pp_sym"):
                    return False, f"(m={m}, shape={shape}): symmetric volume GF mismatch"
                cases += 1
        return True, f"{cases} (m, shape) cases, both specializations"

    def count_identities():
        shapes = [(1,), (2,), (2, 1), (3, 1), (3, 2)]
        cases = 0
        for shape in shapes:
            for m in range(3):
                if not partitions.check_count_identity(m, shape):
                    return False, f"(m={m}, shape={shape})"
                cases += 1
        return True, f"{cases} (m, shape) cases"

    def lattice_closed_form():
        g_vertices = [
            (x, y) for x in range(lattice_range + 1) for y in range(lattice_range + 1)
        ]
        edges = []
        for x, y in g_vertices:
            if y < lattice_range:
                edges.append(((x, y), (x, y + 1), QtPolynomial({(x, 1): 1})))
            if x > 0:
                edges.append(((x, y), (x - 1, y), 1))
        g = dag.WeightedDag(g_vertices, edges)
        for a in range(lattice_range + 1):
            for d in range(lattice_range + 1):
                got = QtPolynomial.from_scalar(dag.path_gf(g, (a, 0), (0, d)))
                want = partitions.lattice_path_gf(a, 0, 0, d)
                if got != want:
                    return False, f"(a={a}, d={d}): DP {got} != closed form {want}"
        for a in range(lattice_range + 1):
            for b in range(3):
                for c in range(lattice_range + 1):
                    for d in range(lattice_range + 1):
                        if not partitions.lattice_gf_recurrence_holds(a, b, c, d):
                            return False, f"recurrence fails at {(a, b, c, d)}"
        return True, f"grid 0..{lattice_range} DP and recurrence"

    _timed(records, f"(q,t) determinant vs enumeration (parts<={max_part}, m<={max_m})", qt_determinants)
    _timed(records, "volume specializations vs enumerations", specializations)
    _timed(records, "squared counts vs two-sided tiling GFs", count_identities)
    _timed(records, "weighted lattice closed form", lattice_closed_form)
    return records


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

SUITES = ("sigma", "reflection", "tilings", "hexagons", "spp")

BUDGET_PRESETS = {
    "tiny": {
        "sigma": dict(trials=30, skew_trials=20),
        "reflection": dict(det_instances=6, principle_instances=6),
        "tilings": dict(max_part=3, max_parts=2, max_m=1),
        "hexagons": dict(),
        "spp": dict(max_part=3, max_parts=2, max_m=2, lattice_range=4),
    },
    "small": {
        "sigma": dict(trials=80, skew_trials=40),
        "reflection": dict(det_instances=8, principle_instances=10),
        "tilings": dict(max_part=3, max_parts=3, max_m=2),
        "hexagons": dict(),
        "spp": dict(max_part=4, max_parts=2, max_m=2),
    },
    "full": {
        "sigma": dict(),
        "reflection": dict(),
        "tilings": dict(),
        "hexagons": dict(),
        "spp": dict(),
    },
}

_SUITE_FUNCS = {
    "sigma": suite_sigma,
    "reflection": suite_reflection,
    "tilings": suite_tilings,
    "hexagons": suite_hexagons,
    "spp": suite_spp,
}


def run_suites(rng, suite: str = "all", size_budget: str = "small", command: str = "verify") -> RunReport:
    if size_budget not in BUDGET_PRESETS:
        raise ValueError(f"unknown size budget {size_budget!r}")
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}")
    report = RunReport(command=command)
    for name in names:
        kwargs = BUDGET_PRESETS[size_budget][name]
        for rec in _SUITE_FUNCS[name](rng, **kwargs):
            rec.name = f"{name}: {rec.name}"
            report.checks.append(rec)
    return report
