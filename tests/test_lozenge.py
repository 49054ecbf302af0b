"""Regions, tilers, hook constructions, and hexagons.

The tilers are checked against _oracle_tilings, an enumeration of perfect
matchings of triangles written from a region's cells, free edges and
weights alone: it shares no code with the tilers' plan or search.
"""

import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtiles
from pathtiles.dag import Budget, BudgetExceeded
from pathtiles.lozenge import (
    Cell,
    Region,
    cell_partners,
    check_hexagon_factorization,
    check_square_identity,
    count_symmetric_tilings,
    count_tilings,
    double_staircase,
    double_staircase_free_product,
    double_staircase_tiling_product,
    doubled_region,
    free_hook_region,
    free_tiling_count_formula,
    holed_hexagon,
    is_horizontal_pair,
    iter_tilings,
    mirrored_hook_region,
    mirrored_tiling_gf_formula,
    punctured_hexagon,
    sample_tiling,
    shifted_wedge_hook,
    staircase_for_hexagon,
    wedge_hook,
    _symmetry_maps,
)
from pathtiles.verify import HEXAGON_CASES, PUNCTURED_HEXAGON_CASES, strict_partitions

DATA = Path(__file__).parent / "data"


def test_cell_validation():
    with pytest.raises(ValueError):
        Region([(0, 1, "L")])  # parity: L needs x + y even
    with pytest.raises(ValueError):
        Region([(0, 0, "X")])
    Region([(0, 0, "L"), (0, 1, "R")])


def test_cell_partners_are_mutual():
    for cell in (Cell(0, 0, "L"), Cell(0, 1, "R"), Cell(3, 2, "R")):
        for partner in cell_partners(cell):
            assert cell in cell_partners(partner)


def test_wedge_hook_sizes():
    assert len(wedge_hook(1)) == 4
    assert len(wedge_hook(7)) == 28
    assert len(shifted_wedge_hook(7)) == 28
    moved = wedge_hook(3) ^ shifted_wedge_hook(3)
    assert len(moved) == 2  # one cell removed, one added
    with pytest.raises(ValueError):
        wedge_hook(0)


def test_hook_is_tileable_strip():
    # A single chevron hook tiles uniquely into its 2n lozenges.
    for order in (1, 2, 3):
        assert count_tilings(Region(wedge_hook(order))) == 1


def test_empty_and_single_lozenge_regions():
    empty = Region([])
    _assert_count(count_tilings(empty), _oracle_count(empty))
    assert list(iter_tilings(empty)) == [frozenset()]
    assert sample_tiling(empty, random.Random(0)) == []
    for mode in ("central", "vertical", "both"):
        assert count_symmetric_tilings(empty, mode) == 1
    assert count_tilings(Region([(0, 0, "L"), (1, 0, "R")])) == 1


def test_free_boundary_validation():
    with pytest.raises(ValueError, match="boundary"):
        Region([(0, 0, "L"), (1, 0, "R")], free_edges=[(1, 0)])  # interior edge
    Region([(0, 0, "L")], free_edges=[(1, 0)])


def test_weight_validation():
    cells = [(0, 0, "L"), (1, 0, "R")]
    Region(cells, weights={frozenset({(0, 0, "L"), (1, 0, "R")}): Fraction(1, 2)})
    with pytest.raises(ValueError, match="not a lozenge"):
        Region(
            cells + [(0, 2, "L")],
            weights={frozenset({(0, 0, "L"), (0, 2, "L")}): Fraction(1, 2)},
        )


def test_known_hook_region_counts():
    assert count_tilings(free_hook_region(1, (2,))) == 3
    assert count_tilings(mirrored_hook_region(1, (2,))) == Fraction(9, 2)
    assert count_tilings(mirrored_hook_region(1, (1,))) == 2
    assert count_tilings(mirrored_hook_region(0, (1,))) == Fraction(1, 2)
    assert count_tilings(free_hook_region(0, (1,))) == 1
    # Deleting every hook label leaves uniquely tiled regions.
    assert count_tilings(free_hook_region(0, (1,), (1,))) == 1
    assert count_tilings(mirrored_hook_region(0, (1,), (1,))) == 1


def test_formula_routes_match_known_values():
    assert free_tiling_count_formula(1, (2,)) == 3
    assert mirrored_tiling_gf_formula(1, (2,)) == Fraction(9, 2)
    assert free_tiling_count_formula(0, (1,), (1,)) == 1
    assert mirrored_tiling_gf_formula(0, (1,), (1,)) == 1


def test_square_identity_spot_cases():
    assert check_square_identity(0, (1,), (1,))
    assert check_square_identity(1, (2,))
    assert check_square_identity(2, (3, 1))
    assert check_square_identity(1, (3, 2), (2,))


def test_formula_identity_on_square_and_near_square_path_matrices():
    # 25 parts give a 25 x 25 path matrix at m = 0 and 25 x 26 at m = 1:
    # orders the column-subset expansion of the minor sum cannot reach.
    shape = tuple(range(25, 0, -1))
    for m in (0, 1):
        free = free_tiling_count_formula(m, shape)
        assert free * free == 2**25 * mirrored_tiling_gf_formula(m, shape), m


def test_large_shape_builds_and_matches_formula_identity():
    # The shape from the worked two-sided example: formula routes only.
    shape = (9, 8, 7, 4, 3, 1)
    removed = (2, 4)
    free = free_tiling_count_formula(6, shape, removed)
    two_sided = mirrored_tiling_gf_formula(6, shape, removed)
    assert free * free == 2 ** (6 - 2) * two_sided
    region = mirrored_hook_region(6, shape, removed)
    assert len(region.cells) % 2 == 0
    assert len(region.weights) == 4  # surviving half-weight lozenges
    free_region = free_hook_region(6, shape, removed)
    assert free_region.free_edges


def test_half_lozenges_are_horizontal_pairs():
    region = mirrored_hook_region(2, (3, 1))
    for pair in region.weights:
        a, b = sorted(pair)
        assert is_horizontal_pair(a, b)
        assert region.weights[pair] == Fraction(1, 2)


def test_removed_hook_validation():
    with pytest.raises(ValueError):
        free_hook_region(1, (2, 1), (3,))
    with pytest.raises(ValueError):
        free_hook_region(1, (1, 2))  # not strictly decreasing


def _chevron(order, level):
    """A chevron hook, column by column: R then L rising left of line 0,
    L then R falling right of it."""
    cells = set()
    for c in range(-order, 0):
        cells |= {Cell(c, level + c + 1, "R"), Cell(c, level + c + 2, "L")}
    for c in range(order):
        cells |= {Cell(c, level - c, "L"), Cell(c, level - c + 1, "R")}
    return cells


def _shifted_chevron(order, level):
    return _chevron(order, level) - {Cell(-order, level - order + 1, "R")} | {Cell(order, level - order + 1, "R")}


def test_wedge_hooks_match_the_chevron():
    for order in range(1, 9):
        for level in range(-6, 8, 2):
            assert wedge_hook(order, level) == _chevron(order, level)
            assert shifted_wedge_hook(order, level) == _shifted_chevron(order, level)
    with pytest.raises(ValueError, match="level must be even"):
        wedge_hook(2, 1)


def _hook_regions_from_sets(m, shape, removed):
    """Both hook regions as (cells, free edges, weights), assembled from
    whole chevron hooks as sets: x < 0 filters for the free side, labels
    discarded for removed hooks, the forced leftmost strip of the plain
    hooks subtracted at the end."""
    k = len(shape)
    plain = [(shape[0] + 1, 2 * (k + m - t)) for t in range(1, m + 1)] if k else []
    strip = set()
    for order, level in plain:
        strip |= {Cell(-order, level - order + 1, "R"), Cell(-order, level - order + 2, "L")}
    one_sided, two_sided, weights = set(), set(), {}
    for order, level in plain:
        hook = _chevron(order, level)
        one_sided |= {c for c in hook if c.x < 0}
        two_sided |= hook
    for i, part in enumerate(shape, start=1):
        level = 2 * (k - i)
        left, right = Cell(-part, level - part + 2, "L"), Cell(part, level - part + 1, "R")
        hook = _shifted_chevron(part, level)
        half = {c for c in hook if c.x < 0}
        if i in removed:
            half.discard(left)
            hook -= {left, right}
        else:
            weights[frozenset({Cell(part - 1, level - part + 1, "L"), right})] = Fraction(1, 2)
        one_sided |= half
        two_sided |= hook
    one_sided -= strip
    two_sided -= strip
    free_edges = {(0, c.y) for c in one_sided if c.orient == "L" and c.x == -1}
    return (one_sided, free_edges, {}), (two_sided, set(), weights)


def test_hook_builders_match_the_set_construction():
    cases = [(m, (), ()) for m in range(3)]
    for shape in strict_partitions(7, 4):
        hooks = range(1, len(shape) + 1)
        for m in range(4):
            for r in range(len(shape) + 1):
                cases.extend((m, shape, removed) for removed in itertools.combinations(hooks, r))
    assert len(cases) == 3 + 3752
    for m, shape, removed in cases:
        want_free, want_mirrored = _hook_regions_from_sets(m, shape, removed)
        for region, want in ((free_hook_region(m, shape, removed), want_free),
                             (mirrored_hook_region(m, shape, removed), want_mirrored)):
            assert (region.cells, region.free_edges, region.weights) == want, (m, shape, removed)
            assert all(type(c) is Cell for c in region.cells)


def test_region_keeps_cells_and_converts_tuples():
    kept = Cell(0, 0, "L")
    region = Region([kept, (0, 1, "R"), [1, 0, "R"]], weights={frozenset({(0, 0, "L"), (1, 0, "R")}): 2})
    assert region.cells == {Cell(0, 0, "L"), Cell(0, 1, "R"), Cell(1, 0, "R")}
    assert all(type(c) is Cell for c in region.cells)
    assert any(c is kept for c in region.cells)
    (key,) = region.weights
    assert all(type(c) is Cell for c in key)
    for bad in ((0, 0, "X"), Cell(0, 0, "X")):
        with pytest.raises(ValueError, match=r"^bad orientation 'X'$"):
            Region([bad])
    for bad in ((0, 1, "L"), [0, 1, "L"], Cell(0, 1, "L")):
        with pytest.raises(ValueError, match=r"^cell Cell\(x=0, y=1, orient='L'\) violates the lattice parity$"):
            Region([Cell(1, 1, "L"), bad])
    with pytest.raises(ValueError, match="violates the lattice parity"):
        Region([(1, 1, "R")])


def test_doubling_self_test():
    for shape, m in [((1,), 1), ((2,), 1), ((2, 1), 0), ((2, 1), 1)]:
        region = free_hook_region(m, shape)
        assert count_symmetric_tilings(doubled_region(region), "vertical") == count_tilings(region)


def test_hexagon_counts():
    assert count_tilings(holed_hexagon(1, 1)) == 3
    assert count_tilings(holed_hexagon(1, 2)) == 20
    assert count_tilings(holed_hexagon(1, 3)) == 175


def test_hexagon_symmetric_counts():
    small = holed_hexagon(1, 1)
    assert count_symmetric_tilings(small, "central") == 1
    assert count_symmetric_tilings(small, "both") == 1
    # Repeated calls share no state.
    assert count_symmetric_tilings(small, "central") == count_symmetric_tilings(small, "central")
    box = holed_hexagon(1, 2)
    assert count_symmetric_tilings(box, "central") == 4
    # Vertically symmetric tilings of the 2x2x2 hexagon are the symmetric
    # boxed plane partitions: 10 by the classical product formula.
    assert count_symmetric_tilings(box, "vertical") == 10
    assert count_symmetric_tilings(box, "both") == 2


def test_hexagon_hole_validation():
    with pytest.raises(ValueError):
        holed_hexagon(1, 2, (2,))
    with pytest.raises(ValueError):
        punctured_hexagon(1, 2, 3)
    with pytest.raises(ValueError):
        punctured_hexagon(1, 2, 1, (2,))


def test_hexagon_factorization_cases():
    assert check_hexagon_factorization(1, 2, (), "a")
    assert check_hexagon_factorization(1, 3, (), "a")
    assert check_hexagon_factorization(1, 2, (1,), "a")
    assert check_hexagon_factorization(1, 3, (1,), "a")
    assert check_hexagon_factorization(1, 2, (), "b", 1)


def test_punctured_hexagon_structure():
    # Puncture of size 1 removes exactly one horizontal lozenge.
    plain = holed_hexagon(1, 3)
    punctured = punctured_hexagon(1, 2, 1)
    diff = plain.cells - punctured.cells
    assert len(diff) == 2
    a, b = sorted(diff)
    assert is_horizontal_pair(a, b)


def test_figure_scale_hexagons_build():
    # Hexagon with vertical sides 8, slants 10, holes at labels 2 and 4 on
    # both ends: 8mn + 2n^2 cells minus four size-2 triangles.
    big = holed_hexagon(4, 10, (2, 4))
    assert len(big.cells) == 8 * 4 * 10 + 2 * 10 * 10 - 4 * 4
    assert _symmetry_maps(big, "both")

    # Punctured odd hexagon (sides 8 and 13) with a size-3 center puncture.
    punct = punctured_hexagon(4, 7, 2, (2, 4))
    assert len(punct.cells) == 8 * 4 * 13 + 2 * 13 * 13 - 2 * 3 * 3 - 4 * 4
    assert _symmetry_maps(punct, "both")


def _hexagon_by_loops(m, half_side):
    # The full hexagon with both halves written out, as the builders once did.
    n = half_side
    cells = set()
    for c in range(0, n):
        for y in range(-(2 * m + c), 2 * m + c + 1):
            if (c + y) % 2 == 0:
                cells.add(Cell(c, y, "L"))
            elif abs(y) <= 2 * m + c - 1:
                cells.add(Cell(c, y, "R"))
    for c in range(n, 2 * n):
        d = 2 * n - 1 - c
        for y in range(-(2 * m + d), 2 * m + d + 1):
            if (c + y) % 2 == 1:
                cells.add(Cell(c, y, "R"))
            elif abs(y) <= 2 * m + d - 1:
                cells.add(Cell(c, y, "L"))
    return cells


def _hole_by_loops(line, side):
    if side == "left":
        return {Cell(line - 1, 0, "L"), Cell(line, 0, "R"), Cell(line, -1, "L"), Cell(line, 1, "L")}
    return {Cell(line - 1, 0, "L"), Cell(line, 0, "R"), Cell(line - 1, -1, "R"), Cell(line - 1, 1, "R")}


def _triangle_by_loops(apex_line, size, pointing):
    cells = set()
    for d in range(size):
        if pointing == "left":
            c = apex_line + d
            for y in range(-d, d + 1):
                if (c + y) % 2 == 0:
                    cells.add(Cell(c, y, "L"))
                elif abs(y) <= d - 1:
                    cells.add(Cell(c, y, "R"))
        else:
            c = apex_line - 1 - d
            for y in range(-d, d + 1):
                if (c + y) % 2 == 1:
                    cells.add(Cell(c, y, "R"))
                elif abs(y) <= d - 1:
                    cells.add(Cell(c, y, "L"))
    return cells


def test_hexagons_built_from_one_half_match_both_halves_by_loops():
    # Every hole set and puncture for m <= 4, n <= 8: the builders mirror a
    # left half; the reference writes the right half, its holes and its
    # puncture triangle out on their own.
    cases = 0
    for m in range(1, 5):
        for n in range(1, 9):
            hexagon = _hexagon_by_loops(m, n)
            for r in range(n // 2 + 1):
                for holes in itertools.combinations(range(1, n // 2 + 1), r):
                    want = set(hexagon)
                    for h in holes:
                        want -= _hole_by_loops(2 * h - 1, "left")
                        want -= _hole_by_loops(2 * n - 2 * h + 1, "right")
                    assert holed_hexagon(m, n, holes).cells == want, (m, n, holes)
                    cases += 1
            big = 2 * n - 1
            odd_hexagon = _hexagon_by_loops(m, big)
            for x in range(1, n + 1):
                s = 2 * x - 1
                for r in range(n - x + 1):
                    for holes in itertools.combinations(range(1, n - x + 1), r):
                        want = odd_hexagon - _triangle_by_loops(big - s, s, "left")
                        want -= _triangle_by_loops(big + s, s, "right")
                        for h in holes:
                            want -= _hole_by_loops(2 * h - 1, "left")
                            want -= _hole_by_loops(2 * big - 2 * h + 1, "right")
                        assert punctured_hexagon(m, n, x, holes).cells == want, (m, n, x, holes)
                        cases += 1
    assert cases == 2188


def test_asymmetric_region_rejected():
    region = free_hook_region(1, (2,))
    with pytest.raises(ValueError, match="invariant"):
        count_symmetric_tilings(region, "central")


def test_tilings_cover_each_cell_once():
    region = mirrored_hook_region(1, (2,))
    total = 0
    for tiling in iter_tilings(region):
        covered = [c for cover in tiling for c in cover]
        assert sorted(covered) == region.sorted_cells()
        weight = 1
        for cover in tiling:
            weight = weight * region.weight_of(cover)
        total += weight
    assert total == Fraction(9, 2)


def test_sample_tiling_is_valid():
    region = holed_hexagon(1, 2)
    tiling = sample_tiling(region, random.Random(4))
    covered = sorted(c for cover in tiling for c in cover)
    assert covered == region.sorted_cells()


def test_budget_guard():
    region = holed_hexagon(2, 3)
    with pytest.raises(BudgetExceeded):
        count_tilings(region, Budget(10))


def test_double_staircase_shapes():
    assert double_staircase(1, 1) == (2,)
    assert double_staircase(3, 2) == (5, 3, 1)
    assert double_staircase(3, 0) == (3, 2, 1)
    assert double_staircase(0, 0) == ()


def test_double_staircase_products():
    assert double_staircase_free_product(1, 1, 1) == 3
    assert double_staircase_tiling_product(1, 1, 1) == Fraction(9, 2)
    assert double_staircase_free_product(0, 2, 1) == 1
    assert double_staircase_tiling_product(0, 2, 1) == Fraction(1, 4)
    for n in range(4):
        for k in range(n + 1):
            for m in range(4):
                shape = double_staircase(n, k)
                expected = double_staircase_tiling_product(m, n, k)
                got = mirrored_tiling_gf_formula(m, shape) if shape else Fraction(1)
                assert got == expected


def test_staircase_for_hexagon():
    assert staircase_for_hexagon(2) == (1,)
    assert staircase_for_hexagon(3) == (2,)
    assert staircase_for_hexagon(6) == (5, 3, 1)
    assert staircase_for_hexagon(7) == (6, 4, 2)


def test_region_json_round_trip():
    region = mirrored_hook_region(1, (2, 1))
    doc = region.to_json()
    back = Region.from_json(doc)
    assert back.cells == region.cells
    assert back.free_edges == region.free_edges
    assert back.weights == region.weights
    free = free_hook_region(1, (2,))
    back_free = Region.from_json(free.to_json())
    assert back_free.free_edges == free.free_edges
    assert count_tilings(back_free) == 3


def _triangle(cell):
    """The three lattice vertices of a cell, as the lozenge module defines
    its coordinates: L(x, y) has apex (x, y) and its vertical side on line
    x + 1; R(x, y) has its vertical side on line x and apex (x + 1, y)."""
    x, y, orient = cell
    if orient == "L":
        return frozenset({(x, y), (x + 1, y - 1), (x + 1, y + 1)})
    return frozenset({(x, y - 1), (x, y + 1), (x + 1, y)})


def _oracle_tilings(region):
    """Every tiling of the region as a frozenset of covers, by matching
    triangles that share an edge; a triangle whose vertical side is a free
    edge may also stand alone.  Recursive, in bottom-up cell order."""
    triangle = {c: _triangle(c) for c in region.cells}
    free_sides = {frozenset({(line, y - 1), (line, y + 1)}) for line, y in region.free_edges}
    covers = {}
    for c, tri in triangle.items():
        covers[c] = [frozenset({c, d}) for d, other in triangle.items() if len(tri & other) == 2]
        vertical = frozenset(v for v in tri if sum(w[0] == v[0] for w in tri) == 2)
        if vertical in free_sides:
            covers[c].append(frozenset({c}))

    order = sorted(region.cells, key=lambda c: (c.y, c.x, c.orient))

    def extend(left, pos, chosen):
        while pos < len(order) and order[pos] not in left:
            pos += 1
        if pos == len(order):
            yield frozenset(chosen)
            return
        for cover in covers[order[pos]]:
            if cover <= left:
                chosen.append(cover)
                yield from extend(left - cover, pos + 1, chosen)
                chosen.pop()

    yield from extend(frozenset(region.cells), 0, [])


def _oracle_symmetries(region, mode):
    """The symmetries of the mode as maps of covers, by reflecting lattice
    vertices through the centre of the region's vertex bounding box."""
    vertices = {v for c in region.cells for v in _triangle(c)} or {(0, 0)}
    sx = min(v[0] for v in vertices) + max(v[0] for v in vertices)
    sy = min(v[1] for v in vertices) + max(v[1] for v in vertices)
    reflections = {
        "central": lambda v: (sx - v[0], sy - v[1]),
        "vertical": lambda v: (sx - v[0], v[1]),
    }
    cell_of = {_triangle(c): c for c in region.cells}

    def as_cover_map(reflect):
        image = {c: cell_of.get(frozenset(map(reflect, _triangle(c)))) for c in region.cells}
        return lambda cover: frozenset(image[c] for c in cover)

    names = ("central", "vertical") if mode == "both" else (mode,)
    return [as_cover_map(reflections[name]) for name in names]


def _oracle_count(region, mode=None, tilings=None):
    """Weighted count of the tilings (fixed by the mode's symmetries, if
    given), summed in Fractions."""
    maps = _oracle_symmetries(region, mode) if mode else []
    total = Fraction(0)
    for tiling in _oracle_tilings(region) if tilings is None else tilings:
        if all(frozenset(map(f, tiling)) == tiling for f in maps):
            weights = [w for cover in tiling if (w := region.weights.get(cover, 1)) != 1]
            total += math.prod(weights, start=Fraction(1))
    return total


def _assert_count(got, want):
    """Equal, and an int exactly when the count is integral."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction), (got, type(got))


def _macmahon_box(a, b, c):
    """Plane partitions in an a x b x c box, by MacMahon's product."""
    value = Fraction(1)
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        value *= Fraction(i + j + k - 1, i + j + k - 2)
    return value


def test_count_tilings_matches_enumeration_on_hook_regions():
    cases = 0
    for shape in strict_partitions(3, 3):
        hooks = range(1, len(shape) + 1)
        for m in range(3):
            for removed in itertools.chain.from_iterable(
                itertools.combinations(hooks, r) for r in range(len(shape) + 1)
            ):
                for build in (free_hook_region, mirrored_hook_region):
                    region = build(m, shape, removed)
                    tilings = set(_oracle_tilings(region))
                    assert set(iter_tilings(region)) == tilings, (build, m, shape, removed)
                    _assert_count(count_tilings(region), _oracle_count(region, None, tilings))
                    cases += 1
    assert cases == 156


def test_count_tilings_matches_macmahon_box():
    # holed_hexagon(m, n) without holes is the 2m x n x n box.
    assert count_tilings(holed_hexagon(3, 4)) == _macmahon_box(6, 4, 4) == 9343620
    assert count_tilings(holed_hexagon(4, 6)) == _macmahon_box(8, 6, 6) == 469699956117392


def test_count_tilings_budget_counts_live_states():
    region = holed_hexagon(2, 4)
    budget = Budget(10**6)
    assert count_tilings(region, budget) == 232848
    spent = budget.limit - budget.remaining
    assert len(region) < spent < 232848  # live states per cell, not one per tiling
    count_tilings(region, Budget(spent))
    with pytest.raises(BudgetExceeded):
        count_tilings(region, Budget(spent - 1))


def test_count_symmetric_tilings_matches_filtered_enumeration():
    regions = [holed_hexagon(*case) for case in HEXAGON_CASES]
    regions += [punctured_hexagon(*case) for case in PUNCTURED_HEXAGON_CASES]
    # A weighted one: every horizontal lozenge of a hexagon weighs 1/2, and
    # the axis lozenges are fixed by the vertical symmetry.
    box = holed_hexagon(1, 2)
    horizontal = [frozenset((a, b)) for a in box.cells for b in cell_partners(a)
                  if b in box.cells and a.orient == "L" and is_horizontal_pair(a, b)]
    regions.append(Region(box.cells, (), {pair: Fraction(1, 2) for pair in horizontal}))
    for region in regions:
        assert len(region) <= 100
        tilings = list(_oracle_tilings(region))
        _assert_count(count_tilings(region), _oracle_count(region, None, tilings))
        for mode in ("central", "vertical", "both"):
            _assert_count(count_symmetric_tilings(region, mode), _oracle_count(region, mode, tilings))


def test_counts_are_int_when_integral():
    # One return rule for tilers and formulas: an int when the count is
    # integral, a Fraction only when it is not.
    region = mirrored_hook_region(1, (2, 1))
    for value in (count_tilings(region), mirrored_tiling_gf_formula(1, (2, 1))):
        assert value == 4 and type(value) is int
    half = count_tilings(mirrored_hook_region(1, (2,)))
    assert half == Fraction(9, 2) and type(half) is Fraction
    box = holed_hexagon(1, 2)
    assert type(count_symmetric_tilings(box, "both")) is int
    weighted = Region(box.cells, (), {frozenset(pair): Fraction(1, 2) for pair in _lozenges(box.cells)})
    assert count_symmetric_tilings(weighted, "central") == Fraction(1, 1024)


def _lozenges(cells):
    """The cell pairs of a cell set that share an edge, in sorted order."""
    return sorted(sorted((c, d)) for c, d in itertools.combinations(sorted(cells), 2)
                  if len(_triangle(c) & _triangle(d)) == 2)


def _vertical_side(cell):
    """A cell's vertical side as a free-edge id (line, centre height)."""
    x, y, orient = cell
    return (x + 1, y) if orient == "L" else (x, y)


def test_count_tilings_scales_mixed_denominators():
    # Free halves and lozenges weighted 1/2 and 2/3 (so D = 6) in one region,
    # with a non-integral total.
    base = free_hook_region(1, (2,))
    pairs = _lozenges(base.cells)
    free_cells = sorted(c for c in base.cells if _vertical_side(c) in base.free_edges)
    weights = {frozenset(pairs[0]): Fraction(1, 2), frozenset(pairs[6]): Fraction(2, 3),
               frozenset(free_cells[:1]): Fraction(2, 3)}
    region = Region(base.cells, base.free_edges, weights)
    assert _oracle_count(region) == Fraction(35, 18)
    _assert_count(count_tilings(region), Fraction(35, 18))


_SUBREGION_WEIGHTS = (1, 1, Fraction(1, 2), Fraction(2, 3))
_SUBREGION_HEXAGON = holed_hexagon(2, 2)
_SUBREGION_TILINGS = sorted(
    (sorted(sorted(cover) for cover in tiling) for tiling in _oracle_tilings(_SUBREGION_HEXAGON))
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_tilers_match_oracle_on_random_subregions(data):
    # A sub-region of a hexagon: some lozenges of one of its tilings, less
    # up to two cells, closed under a symmetry if one is drawn; then free
    # edges among its vertical boundary edges and weights 1, 1/2 or 2/3 on
    # its lozenges and free halves, invariant under the symmetry.
    covers = data.draw(st.sampled_from(_SUBREGION_TILINGS))
    kept = data.draw(st.lists(st.booleans(), min_size=len(covers), max_size=len(covers)))
    cells = {c for cover, keep in zip(covers, kept) if keep for c in cover}
    cells -= set(data.draw(st.lists(st.sampled_from(sorted(cells)), max_size=2))) if cells else set()
    mode = data.draw(st.sampled_from([None, "central", "vertical"]))
    maps = _oracle_symmetries(_SUBREGION_HEXAGON, mode) if mode else []
    for f in maps:
        cells |= f(frozenset(cells))

    def orbit(key):
        return {key} | {f(key) for f in maps}

    sides = collections.Counter(map(_vertical_side, cells))
    boundary = sorted(c for c in cells if sides[_vertical_side(c)] == 1)
    free_cells = set()
    for c, free in zip(boundary, data.draw(st.lists(st.booleans(), min_size=len(boundary), max_size=len(boundary)))):
        if free:
            free_cells |= {d for key in orbit(frozenset({c})) for d in key}
    weights = {}
    for key in [frozenset(p) for p in _lozenges(cells)] + [frozenset({c}) for c in sorted(free_cells)]:
        if key not in weights:
            weight = data.draw(st.sampled_from(_SUBREGION_WEIGHTS))
            weights.update(dict.fromkeys(orbit(key), weight))
    region = Region(cells, map(_vertical_side, free_cells), weights)
    tilings = list(_oracle_tilings(region))
    _assert_count(count_tilings(region), _oracle_count(region, None, tilings))
    if mode:
        _assert_count(count_symmetric_tilings(region, mode), _oracle_count(region, mode, tilings))


def test_sample_tiling_keeps_its_seeded_tilings():
    # Recorded covers: a seed must keep giving the same tiling, cover order included.
    recorded = json.loads((DATA / "sample_tiling_covers.json").read_text())
    for key, by_seed in recorded.items():
        region = holed_hexagon(*map(int, key.split(",")))
        for seed, want in enumerate(by_seed):
            got = sample_tiling(region, random.Random(seed))
            assert [sorted(map(list, cover)) for cover in got] == want, (key, seed)


def _spent(call, region):
    budget = Budget(10**9)
    call(region, budget)
    return budget.limit - budget.remaining


def test_tiler_budget_spending_is_pinned():
    # States spent per call, recorded from the tilers as they were before
    # cells were keyed by integers: a faster plan must spend the same states.
    recorded = json.loads((DATA / "tiler_budget_spending.json").read_text())
    builders = {"free_hook_region": free_hook_region, "mirrored_hook_region": mirrored_hook_region}
    assert len(recorded["hook_regions"]) == 156
    for name, m, shape, removed, want in recorded["hook_regions"]:
        assert _spent(count_tilings, builders[name](m, shape, removed)) == want, (name, m, shape, removed)
    assert [tuple(case[:3]) for case in recorded["hexagons"]] == [(m, n, list(h)) for m, n, h in HEXAGON_CASES]
    for m, n, holes, count, central, both in recorded["hexagons"]:
        region = holed_hexagon(m, n, holes)
        assert _spent(count_tilings, region) == count, (m, n, holes)
        assert _spent(lambda r, b: count_symmetric_tilings(r, "central", b), region) == central, (m, n, holes)
        assert _spent(lambda r, b: count_symmetric_tilings(r, "both", b), region) == both, (m, n, holes)


def _shifted(region, dx, dy):
    """The region moved by (dx, dy); dx + dy is even, so parity holds."""
    def move(c):
        return Cell(c.x + dx, c.y + dy, c.orient)

    weights = {frozenset(map(move, key)): w for key, w in region.weights.items()}
    return Region(map(move, region.cells), [(line + dx, y + dy) for line, y in region.free_edges], weights)


def _column(x, ys):
    """The cells of strip x at the given heights."""
    return {Cell(x, y, "LR"[(x + y) % 2]) for y in ys}


def _with_free_rows(cells):
    """A region of the cells with a free half on every boundary vertical
    side in its top and bottom rows."""
    sides = collections.Counter(map(_vertical_side, cells))
    rows = {min(c.y for c in cells), max(c.y for c in cells)}
    free = [_vertical_side(c) for c in cells if c.y in rows and sides[_vertical_side(c)] == 1]
    assert free
    return Region(cells, free)


def test_tilers_on_integer_key_edge_cases():
    # The tilers key a cell by 2 * ((x - x0) * h + y - y0) + (orient == "R")
    # with h the y-span plus 2: negative coordinates, single columns, tall
    # y-spans and free halves on the top and bottom rows (beside the empty
    # rows that pad each column) must count as the oracle does.
    hexagon = holed_hexagon(1, 2)
    column = _column(-2, range(-5, 5))
    regions = {
        "negative": _shifted(hexagon, -9, -13),
        "negative, free": _shifted(free_hook_region(1, (2, 1)), -4, -6),
        "negative, weighted": _shifted(mirrored_hook_region(1, (2,)), -3, -5),
        "one column, free rows": _with_free_rows(column),
        "one column, all free": Region(column, map(_vertical_side, column),
                                       {frozenset(p): Fraction(1, 3) for p in _lozenges(column)[::2]}),
        "tall": Region(hexagon.cells | _shifted(hexagon, 0, 400).cells | _column(1, range(-301, -297))),
        "tall, free rows": _with_free_rows(hexagon.cells | _column(0, range(197, 203)) | _column(3, range(-207, -203))),
        "hook, free rows": _with_free_rows(free_hook_region(2, (3, 1)).cells),
    }
    for name, region in regions.items():
        tilings = set(_oracle_tilings(region))
        assert tilings, name
        assert set(iter_tilings(region)) == tilings, name
        _assert_count(count_tilings(region), _oracle_count(region, None, tilings))
        assert frozenset(sample_tiling(region, random.Random(3))) in tilings, name
    negative = regions["negative"]
    for mode in ("central", "vertical", "both"):
        _assert_count(count_symmetric_tilings(negative, mode), _oracle_count(negative, mode))


def test_large_region_ends_in_result_or_budget_failure():
    region = holed_hexagon(14, 16)
    assert len(region) == 2304
    calls = [
        lambda budget: count_tilings(region, budget),
        lambda budget: count_symmetric_tilings(region, "central", budget),
        lambda budget: count_symmetric_tilings(region, "both", budget),
        lambda budget: sample_tiling(region, random.Random(0), budget),
    ]
    for call in calls:
        try:
            result = call(Budget(200_000))
        except BudgetExceeded:
            continue
        if isinstance(result, list):
            assert sorted(c for cover in result for c in cover) == region.sorted_cells()


def test_tile_count_over_budget_is_reported(tmp_path):
    path = tmp_path / "hexagon_14_16.json"
    path.write_text(json.dumps(holed_hexagon(14, 16).to_json()))
    src = str(Path(pathtiles.__file__).parents[1])
    env = dict(os.environ, TILING_REFLECT_BUDGET="200000", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pathtiles.cli", "tile", "count", "--region", str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
