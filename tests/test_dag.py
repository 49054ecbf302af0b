"""Path generating functions and the nonintersecting-family oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from pathtiles.dag import (
    Budget,
    BudgetExceeded,
    CycleError,
    EndpointSpec,
    WeightedDag,
    grid_graph,
    is_compatible,
    iter_path_vertex_sets,
    nonintersecting_gf,
    path_gf,
    path_matrix,
    permutation_sign,
    signed_path_sum,
    signed_sum_squared_dets,
    unfixed_end_pfaffian,
)
from pathtiles.linalg import determinant
from pathtiles.ring import QtPolynomial, q


def test_cycle_rejected():
    with pytest.raises(CycleError):
        WeightedDag(["a", "b"], [("a", "b", 1), ("b", "a", 1)])


def test_unknown_vertices_rejected():
    with pytest.raises(ValueError):
        WeightedDag(["a"], [("a", "b", 1)])
    g = WeightedDag(["a"], [])
    with pytest.raises(ValueError):
        path_gf(g, "a", "zzz")


def test_path_gf_basics():
    g = WeightedDag(["a", "b"], [("a", "b", 2), ("a", "b", q)])
    assert path_gf(g, "a", "a") == 1
    assert path_gf(g, "a", "b") == 2 + q
    assert path_gf(g, "b", "a") == 0


def test_grid_path_counts():
    g = grid_graph(2, 2)
    assert path_gf(g, (0, 0), (1, 1)) == 2
    assert path_gf(g, (0, 0), (2, 2)) == 6
    # Binomial path matrix of the lattice realization of hook regions:
    # from (-p_i + 1, k - i) to (0, m + k - j) with up/right steps.
    shape = (3, 1)
    m, k = 2, 2
    big = grid_graph(6, 6)

    def shifted(v):
        return (v[0] + 3, v[1])

    starts = tuple(shifted((-p + 1, k - i)) for i, p in enumerate(shape, start=1))
    ends = tuple(shifted((0, m + k - j)) for j in range(1, m + k + 1))
    matrix = path_matrix(big, EndpointSpec(starts, ends))
    for i, p in enumerate(shape, start=1):
        for j in range(1, m + k + 1):
            down = m + i - j
            expected = math.comb(p - 1 + down, down) if down >= 0 else 0
            assert matrix.entry(i - 1, j - 1) == expected


def test_path_matrix_degenerate_and_disconnected():
    g = WeightedDag(["a", "b"], [])
    same = path_matrix(g, EndpointSpec(("a",), ("a",)))
    assert same.to_rows() == [[1]]
    disconnected = path_matrix(g, EndpointSpec(("a",), ("b",)))
    assert disconnected.to_rows() == [[0]]


def test_nonintersecting_basics():
    g = WeightedDag(["u1", "v1", "u2", "v2"], [("u1", "v1", 3), ("u2", "v2", 5)])
    spec = EndpointSpec(("u1", "u2"), ("v1", "v2"))
    assert nonintersecting_gf(g, spec) == 15
    # m = 1 sums the path GF over all ends.
    spec1 = EndpointSpec(("u1",), ("v1", "v2"))
    assert nonintersecting_gf(g, spec1) == 3


def test_nonintersecting_grid_example():
    g = grid_graph(2, 2)
    spec = EndpointSpec(((0, 1), (1, 0)), ((1, 2), (2, 1)))
    # Three of the four path pairs are vertex-disjoint; matches the
    # determinant of the path matrix since the spec is compatible.
    assert nonintersecting_gf(g, spec) == 3
    assert is_compatible(g, spec)
    assert determinant(path_matrix(g, spec)) == 3
    assert signed_path_sum(g, spec) == 3


def test_zero_length_paths_block_their_vertex():
    # One start coincides with an end: the sitting path blocks the vertex.
    g = WeightedDag(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    spec = EndpointSpec(("a", "b"), ("b", "c"))
    # Family: P1 from a, P2 from b with increasing end indices.
    # P1 = a->b blocks b, leaving no disjoint P2; P1 = a sitting? a is not an
    # end, so P1 must reach b or c: P1 = a->b, P2 = b..c impossible (b used);
    # P1 = a->b->c used both; only P1 = a->c? then P2 has no later end.
    assert nonintersecting_gf(g, spec) == 0
    spec2 = EndpointSpec(("b", "a"), ("b", "c"))
    # P1 = b (length zero), P2 = a->c avoiding b.
    assert nonintersecting_gf(g, spec2) == 1


def test_none_is_a_vertex_like_any_other():
    # Path 1 may not pass through None on path 0, before or after path 0
    # goes on past its first end.
    g = WeightedDag(
        ["a", None, "e1", "e2", "e3", "b"],
        [("a", None, 1), (None, "e1", 1), ("e1", "e2", 1), ("b", None, 1), (None, "e3", 1), ("b", "e3", 1)],
    )
    assert nonintersecting_gf(g, EndpointSpec(("a", "b"), ("e1", "e2", "e3"))) == 2


def _paths(g, a, b):
    # Every directed a -> b path as (vertex set, weight), grown one edge at a
    # time from the edge list; a DAG path never revisits a vertex.
    found, partial = [], [((a,), 1)]
    while partial:
        path, weight = partial.pop()
        if path[-1] == b:
            found.append((frozenset(path), weight))
            continue
        partial.extend((path + (d,), weight * w) for s, d, w in g.edges if s == path[-1])
    return found


def _brute_family_sum(g, spec, perm):
    # Over increasing end tuples: every choice of one path per (start, end)
    # pair, kept when the paths are disjoint.  Shares no code with dag's walker.
    total = 0
    for ends in itertools.combinations(spec.ends, len(perm)):
        paths = [_paths(g, spec.starts[i], end) for i, end in zip(perm, ends)]
        for family in itertools.product(*paths):
            sets = [vs for vs, _ in family]
            if sum(map(len, sets)) == len(frozenset().union(*sets)):
                total += math.prod(w for _, w in family)
    return total


def _brute_compatible(g, spec):
    # The definition: for starts a before b and ends c before d, every
    # a -> d path meets every b -> c path.
    return all(
        p & s
        for a, b in itertools.combinations(spec.starts, 2)
        for c, d in itertools.combinations(spec.ends, 2)
        for p, _ in _paths(g, a, d)
        for s, _ in _paths(g, b, c)
    )


def _random_family_instance(rng):
    # A small grid with right, up and diagonal steps, each present zero to
    # two times (multi-edges); ends include interior vertices and one start.
    w, h = rng.randint(1, 2), rng.randint(1, 2)
    vertices = [(x, y) for x in range(w + 1) for y in range(h + 1)]
    edges = [
        ((x, y), (x + dx, y + dy), rng.choice((1, 2, -1, Fraction(1, 2))))
        for x, y in vertices
        for dx, dy in ((1, 0), (0, 1), (1, 1))
        if x + dx <= w and y + dy <= h
        for _ in range(rng.choice((0, 1, 1, 2)))
    ]
    m = rng.randint(1, 3)
    starts = rng.sample(vertices, m)
    others = [v for v in vertices if v != starts[-1]]
    ends = [starts[-1], *rng.sample(others, rng.randint(m - 1, min(m + 1, len(others))))]
    rng.shuffle(ends)
    return WeightedDag(vertices, edges), EndpointSpec(tuple(starts), tuple(ends))


@pytest.mark.parametrize("seed", range(4))
def test_family_oracle_matches_disjoint_path_products(seed):
    rng = random.Random(seed)
    for _ in range(20):
        g, spec = _random_family_instance(rng)
        signed = 0
        for perm in itertools.permutations(range(len(spec.starts))):
            value = _brute_family_sum(g, spec, perm)
            assert nonintersecting_gf(g, spec, perm) == value, (g.edges, spec, perm)
            signed += permutation_sign(perm) * value
        assert signed_path_sum(g, spec) == signed


@pytest.mark.parametrize("seed", range(4))
def test_compatibility_matches_its_definition(seed):
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(20):
        g, spec = _random_family_instance(rng)
        expected = _brute_compatible(g, spec)
        assert is_compatible(g, spec) == expected, (g.edges, spec)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_compatibility_ignores_cancelling_weights():
    # Two disjoint crossing pairs, weighted +1 and -1: their family weights
    # cancel, but either pair alone breaks compatibility.
    g = WeightedDag(["u1", "u2", "v1", "v2"], [("u1", "v2", 1), ("u1", "v2", -1), ("u2", "v1", 1)])
    spec = EndpointSpec(("u1", "u2"), ("v1", "v2"))
    assert nonintersecting_gf(g, spec, (1, 0)) == 0
    assert not _brute_compatible(g, spec)
    assert not is_compatible(g, spec)


def test_signed_sum_equals_determinant_square_grids():
    g = grid_graph(2, 2)
    vertices = [(x, y) for x in range(3) for y in range(3)]
    rng = random.Random(21)
    for _ in range(15):
        m = rng.randint(1, 3)
        starts = tuple(rng.sample(vertices, m))
        ends = tuple(rng.sample(vertices, m))
        spec = EndpointSpec(starts, ends)
        assert signed_path_sum(g, spec) == determinant(path_matrix(g, spec))


def test_signed_sum_m1_is_row_sum():
    g = grid_graph(2, 1)
    spec = EndpointSpec(((0, 0),), ((2, 1), (2, 0)))
    matrix = path_matrix(g, spec)
    assert signed_path_sum(g, spec) == matrix.entry(0, 0) + matrix.entry(0, 1)


def test_compatibility_examples():
    g = grid_graph(2, 2)
    assert is_compatible(g, EndpointSpec(((0, 0),), ((2, 2),)))
    # Two disjoint chains with crossing index pattern cannot intersect.
    h = WeightedDag(["u1", "u2", "v1", "v2"], [("u1", "v2", 1), ("u2", "v1", 1)])
    assert not is_compatible(h, EndpointSpec(("u1", "u2"), ("v1", "v2")))


def test_hook_lattice_layout_is_compatible():
    # Starts down-left of a shared column of ends, ordered top to bottom.
    shape = (3, 1)
    m, k = 1, 2
    g = grid_graph(5, 5)

    def shifted(v):
        return (v[0] + 3, v[1])

    starts = tuple(shifted((-p + 1, k - i)) for i, p in enumerate(shape, start=1))
    ends = tuple(shifted((0, m + k - j)) for j in range(1, m + k + 1))
    assert is_compatible(g, EndpointSpec(starts, ends))


def test_squared_dets_match_signed_sum():
    g = grid_graph(2, 2)
    specs = [
        EndpointSpec(((0, 1), (1, 0)), ((1, 2), (2, 1))),
        EndpointSpec(((0, 0),), ((0, 2), (2, 0))),
        EndpointSpec(((0, 1), (1, 0)), ((2, 1), (1, 2))),  # non-compatible order
        EndpointSpec(((0, 0), (1, 0), (0, 1)), ((0, 2), (1, 2), (2, 2), (2, 1), (2, 0))),
    ]
    seen_non_compatible = False
    for spec in specs:
        signed = signed_path_sum(g, spec)
        d1, d2 = signed_sum_squared_dets(g, spec)
        assert d1 == signed * signed
        assert d2 == signed * signed
        seen_non_compatible = seen_non_compatible or not is_compatible(g, spec)
    assert seen_non_compatible


def test_squared_dets_square_case():
    g = grid_graph(2, 2)
    spec = EndpointSpec(((0, 1), (1, 0)), ((1, 2), (2, 1)))
    d = determinant(path_matrix(g, spec))
    assert signed_sum_squared_dets(g, spec) == (d * d, d * d)


def test_unfixed_end_pfaffian_matches_signed_sum():
    g = grid_graph(2, 2)
    for spec in [
        EndpointSpec(((0, 0),), ((0, 2), (2, 0))),  # odd start count
        EndpointSpec(((0, 1), (1, 0)), ((0, 2), (1, 2), (2, 1), (2, 0))),  # even
        EndpointSpec(((0, 0), (1, 0), (0, 1)), ((0, 2), (1, 2), (2, 2), (2, 1))),
    ]:
        assert unfixed_end_pfaffian(g, spec) == signed_path_sum(g, spec)


def test_unfixed_end_pfaffian_matches_minor_sum_route():
    # The Pfaffian of the path matrix's Gram-minus-rank-one matrix against
    # the column-subset sum of its maximal minors, which shares no code
    # with it.
    import random

    from pathtiles.linalg import sum_max_minors

    rng = random.Random(42)
    g = grid_graph(3, 3)
    vertices = [(x, y) for x in range(4) for y in range(4)]
    for _ in range(20):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        spec = EndpointSpec(tuple(rng.sample(vertices, m)), tuple(rng.sample(vertices, n)))
        assert unfixed_end_pfaffian(g, spec) == sum_max_minors(path_matrix(g, spec))


def test_unfixed_end_pfaffian_without_starts_is_one():
    g = grid_graph(2, 2)
    for ends in ((), ((2, 2),), ((0, 2), (2, 0))):
        spec = EndpointSpec((), ends)
        assert unfixed_end_pfaffian(g, spec) == 1 == signed_path_sum(g, spec)


def test_unfixed_end_pfaffian_disjoint_chains():
    g = WeightedDag(["u1", "v1", "u2", "v2"], [("u1", "v1", 3), ("u2", "v2", 5)])
    spec = EndpointSpec(("u1", "u2"), ("v1", "v2"))
    assert unfixed_end_pfaffian(g, spec) == 15


def test_relabeling_invariance():
    g = grid_graph(2, 2)
    relabeled = WeightedDag(
        [f"v{x}{y}" for x in range(3) for y in range(3)],
        [(f"v{s[0]}{s[1]}", f"v{d[0]}{d[1]}", w) for s, d, w in g.edges],
    )
    spec = EndpointSpec(((0, 1), (1, 0)), ((1, 2), (2, 1)))
    spec2 = EndpointSpec(("v01", "v10"), ("v12", "v21"))
    assert path_matrix(g, spec) == path_matrix(relabeled, spec2)
    assert signed_path_sum(g, spec) == signed_path_sum(relabeled, spec2)


def test_endpoint_spec_validation():
    with pytest.raises(ValueError):
        EndpointSpec(("a", "a"), ("b", "c"))
    with pytest.raises(ValueError):
        EndpointSpec(("a", "b"), ("c",))


def test_budget_guard_reports_failure():
    g = grid_graph(3, 3)
    spec = EndpointSpec(((0, 0), (1, 0), (0, 1)), ((3, 3), (2, 3), (3, 2)))
    with pytest.raises(BudgetExceeded):
        signed_path_sum(g, spec, Budget(50))


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1


def test_json_round_trip():
    g = grid_graph(1, 1)
    doc = g.to_json(starts=[(0, 0)], ends=[(1, 1)])
    g2, spec = WeightedDag.from_json(doc)
    assert spec is not None
    assert len(g2.vertices) == 4
    assert path_gf(g2, "(0, 0)", "(1, 1)") == 2

    weighted = WeightedDag(["a", "b"], [("a", "b", QtPolynomial({(1, 1): 1}))])
    doc2 = weighted.to_json()
    g3, _ = WeightedDag.from_json(doc2)
    assert path_gf(g3, "a", "b") == QtPolynomial({(1, 1): 1})


def test_walk_order_and_budget_spending_are_pinned():
    # Recorded from the recursive walks these explicit stacks replaced:
    # the states spent and the order in which paths are found.  The
    # compatibility count is the family walker's: one walk from the later
    # start, which finds a disjoint crossing pair at its eleventh state.
    g = grid_graph(3, 3)
    spec = EndpointSpec(((0, 1), (1, 0)), ((2, 3), (3, 2), (3, 3)))
    budget = Budget(10**6)
    assert signed_path_sum(g, spec, budget) == 20
    assert budget.limit - budget.remaining == 476
    budget = Budget(10**6)
    assert nonintersecting_gf(g, spec, (1, 0), budget) == 20
    assert budget.limit - budget.remaining == 238
    budget = Budget(10**6)
    assert not is_compatible(g, spec, budget)
    assert budget.limit - budget.remaining == 11
    budget = Budget(100)
    found = [sorted(vs) for vs, _ in iter_path_vertex_sets(grid_graph(2, 1), (0, 0), (2, 1), budget)]
    assert found == [
        [(0, 0), (1, 0), (2, 0), (2, 1)],
        [(0, 0), (1, 0), (1, 1), (2, 1)],
        [(0, 0), (0, 1), (1, 1), (2, 1)],
    ]
    assert budget.limit - budget.remaining == 9


def test_long_path_graph_walks_without_recursion():
    # 3,000 vertices in a line: one state per vertex, no RecursionError.
    n = 3000
    g = WeightedDag(range(n), [(i, i + 1, 2) for i in range(n - 1)])
    spec = EndpointSpec((0,), (n - 1,))
    budget = Budget(n)
    assert nonintersecting_gf(g, spec, budget=budget) == 2 ** (n - 1)
    assert budget.remaining == 0
    with pytest.raises(BudgetExceeded):
        nonintersecting_gf(g, spec, budget=Budget(n - 1))
    assert list(iter_path_vertex_sets(g, 0, n - 1, Budget(n))) == [(frozenset(range(n)), 2 ** (n - 1))]
    assert signed_path_sum(g, EndpointSpec((0, 1), (n - 2, n - 1))) == 0
    assert is_compatible(g, EndpointSpec((0, 1), (n - 2, n - 1)))
