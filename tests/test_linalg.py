"""Exact determinants, Pfaffians, and maximal-minor sums."""

import ast
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtiles.linalg import (
    ExactMatrix,
    crossing_number,
    determinant,
    division_free_determinant,
    one_factors,
    pfaffian,
    pfaffian_by_expansion,
    pfaffian_by_matchings,
    permanent,
    random_integer_matrix,
    random_skew_matrix,
    shift_entries,
    skew_ones,
    skew_shift_block_invariant,
    sum_max_minors,
    sum_max_minors_pfaffian,
    sum_max_minors_squared,
    upper_twos,
    upper_twos_gram,
)
from pathtiles import linalg, ring
from pathtiles.ring import QtPolynomial, q, t


def cofactor_det(matrix):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = matrix.rows
    if n == 0:
        return 1
    if n == 1:
        return matrix.entry(0, 0)
    total = 0
    for j in range(n):
        minor = matrix.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = matrix.entry(0, j) * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_determinant_examples():
    assert determinant(ExactMatrix.identity(3)) == 1
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert determinant(m) == -3
    with pytest.raises(ValueError):
        determinant(ExactMatrix.zero(2, 3))


def test_determinant_2x2_symbolic():
    a, b, c, d = (QtPolynomial({(i, 1): 1}) for i in range(4))
    m = ExactMatrix.from_rows([[a, b], [c, d]])
    assert determinant(m) == a * d - b * c


def test_determinant_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 5)
        m = random_integer_matrix(rng, n, n, -2, 2)
        assert determinant(m) == cofactor_det(m)


def test_integer_bareiss_against_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = random_integer_matrix(rng, n, n, -(10**12), 10**12)
        det = determinant(m)
        assert type(det) is int
        assert det == cofactor_det(m)


def test_rational_bareiss_against_cofactor_oracle():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 5)
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n * n)]
        m = ExactMatrix(n, n, entries)
        det = determinant(m)
        assert det == cofactor_det(m)
        assert type(det) is int or det.denominator != 1


def test_bareiss_zero_pivots_and_singular_matrices():
    # Zero leading pivots that a row swap repairs, integral and rational.
    swap = ExactMatrix.from_rows([[0, 2, 1], [0, 1, 5], [3, 1, 1]])
    assert determinant(swap) == cofactor_det(swap) == 27
    half = ExactMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])
    assert determinant(half) == Fraction(-1, 6)
    late = ExactMatrix.from_rows([[1, 2, 3, 4], [2, 4, 7, 1], [0, 0, 1, 2], [1, 3, 0, 1]])
    assert determinant(late) == cofactor_det(late)
    # Singular: a dependent row, a zero column, and a rational dependent row.
    for rows in (
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
        [[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]],
    ):
        m = ExactMatrix.from_rows(rows)
        assert determinant(m) == 0 == cofactor_det(m)
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[rng.choice([0, 0, 0, 1, -1, Fraction(1, 2)]) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        assert determinant(m) == cofactor_det(m)


def test_polynomial_determinant_against_cofactor_oracle():
    rng = random.Random(11)
    monos = [QtPolynomial({(i, j): 1}) for i in range(2) for j in range(2)]
    for _ in range(15):
        n = rng.randint(1, 4)
        entries = [rng.choice(monos) + rng.randint(-1, 1) for _ in range(n * n)]
        m = ExactMatrix(n, n, entries)
        assert determinant(m) == cofactor_det(m)


def test_division_free_determinant_and_permanent_against_permutations():
    rng = random.Random(5)
    for n in range(0, 6):
        for _ in range(4):
            m = random_integer_matrix(rng, n, n, -10**12, 10**12)
            signed = unsigned = 0
            for perm in itertools.permutations(range(n)):
                term = 1
                for i, j in enumerate(perm):
                    term *= m.entry(i, j)
                inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
                signed += (-1) ** inversions * term
                unsigned += term
            assert division_free_determinant(m) == signed == determinant(m)
            assert permanent(m) == unsigned
    for fn in (division_free_determinant, permanent):
        with pytest.raises(ValueError):
            fn(ExactMatrix.zero(2, 3))


def test_one_factors_and_crossings():
    factors = list(one_factors(4))
    assert len(factors) == 3
    assert crossing_number((((0, 2), (1, 3)))) == 1
    assert crossing_number((((0, 1), (2, 3)))) == 0
    assert crossing_number((((0, 3), (1, 2)))) == 0


def test_pfaffian_small_cases():
    a = QtPolynomial({(1, 0): 1})
    m = ExactMatrix.from_rows([[0, a], [-a, 0]])
    assert pfaffian(m) == a

    entries = {}
    names = {}
    for i in range(4):
        for j in range(i + 1, 4):
            names[(i, j)] = QtPolynomial({(i, j): 1})
    rows = [[0] * 4 for _ in range(4)]
    for (i, j), v in names.items():
        rows[i][j] = v
        rows[j][i] = -v
    m4 = ExactMatrix.from_rows(rows)
    expected = (
        names[(0, 1)] * names[(2, 3)]
        - names[(0, 2)] * names[(1, 3)]
        + names[(0, 3)] * names[(1, 2)]
    )
    assert pfaffian(m4) == expected


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        pfaffian(ExactMatrix.from_rows([[0, 2], [-1, 0]]))
    with pytest.raises(ValueError):
        pfaffian(ExactMatrix.zero(3, 3))


def test_pfaffian_square_is_determinant():
    rng = random.Random(3)
    for _ in range(40):
        n = 2 * rng.randint(1, 4)
        a = random_skew_matrix(rng, n)
        pf = pfaffian_by_matchings(a)
        assert pf == pfaffian_by_expansion(a)
        assert pf * pf == determinant(a)


def test_structured_matrices():
    assert upper_twos(1).to_rows() == [[1]]
    assert upper_twos(2).to_rows() == [[1, 2], [0, 1]]
    assert upper_twos(3).to_rows() == [[1, 2, 2], [0, 1, 2], [0, 0, 1]]
    assert skew_ones(2).to_rows() == [[0, 1], [-1, 0]]
    assert skew_ones(3).to_rows() == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert shift_entries(skew_ones(3), 1) == upper_twos(3)
    assert shift_entries(ExactMatrix.zero(2, 2), 1).to_rows() == [[1, 1], [1, 1]]


def test_sum_max_minors_examples():
    assert sum_max_minors(ExactMatrix.from_rows([[1, 1]])) == 2
    square = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert sum_max_minors(square) == determinant(square)
    assert sum_max_minors(ExactMatrix.zero(0, 4)) == 1
    with pytest.raises(ValueError):
        sum_max_minors(ExactMatrix.zero(3, 2))


def test_minor_sum_pfaffian_route_odd_case():
    z = ExactMatrix.from_rows([[1, 1]])
    assert sum_max_minors_pfaffian(z) == 2
    assert sum_max_minors_pfaffian(ExactMatrix.identity(2)) == 1


def test_minor_sum_pfaffian_matches_direct_enumeration():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        z = random_integer_matrix(rng, m, n)
        assert sum_max_minors_pfaffian(z) == sum_max_minors(z)


def test_squared_minor_sum_determinants():
    assert sum_max_minors_squared(ExactMatrix.from_rows([[1, 1]])) == (4, 4)
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        z = random_integer_matrix(rng, m, n)
        sigma = sum_max_minors(z)
        assert sum_max_minors_squared(z) == (sigma * sigma, sigma * sigma)
    square = random_integer_matrix(random.Random(2), 3, 3)
    d = determinant(square)
    assert sum_max_minors_squared(square) == (d * d, d * d)


def test_squared_minor_sum_polynomial_entries():
    z = ExactMatrix.from_rows([[1, q], [t, q * t]])
    sigma = sum_max_minors(z)
    d1, d2 = sum_max_minors_squared(z)
    assert d1 == sigma * sigma
    assert d2 == sigma * sigma


def test_block_shift_invariance():
    assert skew_shift_block_invariant(ExactMatrix.identity(2), skew_ones(2), None, None, 7)
    rng = random.Random(13)
    z = random_integer_matrix(rng, 2, 3)
    assert skew_shift_block_invariant(z, skew_ones(3), None, None, Fraction(-5, 3))
    z1 = random_integer_matrix(rng, 1, 2)
    h = random_integer_matrix(rng, 1, 1)
    b = ExactMatrix.from_rows([[0]])
    assert skew_shift_block_invariant(z1, skew_ones(2), h, b, 2)
    with pytest.raises(ValueError):
        skew_shift_block_invariant(z1, skew_ones(2), None, None, 1)  # odd total order


def test_matrix_json_round_trip():
    m = ExactMatrix.from_rows([[Fraction(1, 2), q], [3, 1 + t]])
    data = m.to_lists()
    assert data == [["1/2", "q"], ["3", "1 + t"]]
    back = ExactMatrix.from_lists(data)
    assert back == m


@pytest.mark.parametrize("data", [[[0, 1], [-1, 0]], [["0", 1], ["-1", "0"]], [[None]], ["0", "1"], {"a": 1}])
def test_matrix_json_rejects_non_string_entries(data):
    with pytest.raises(ValueError, match="matrix"):
        ExactMatrix.from_lists(data)


def _random_polynomial(rng, terms, bound):
    return QtPolynomial({(rng.randint(0, 6), rng.randint(0, 3)): rng.randint(-bound, bound) for _ in range(terms)})


def test_polynomial_determinant_packed_rows_against_cofactor_oracle(monkeypatch):
    # Entries of up to 20 terms with negative coefficients, some plain ints:
    # the DP rows go through the packed kernel.
    packed_rows = []
    mac_packed = ring._mac_packed

    def spy(batch, term_pairs):
        out = mac_packed(batch, term_pairs)
        packed_rows.append(out is not None)
        return out

    monkeypatch.setattr(ring, "_mac_packed", spy)
    rng = random.Random(23)
    for n in range(1, 5):
        for _ in range(3):
            entries = [
                rng.randint(-5, 5) if rng.random() < 0.25 else _random_polynomial(rng, rng.randint(1, 20), 10**rng.choice((1, 12)))
                for _ in range(n * n)
            ]
            m = ExactMatrix(n, n, entries)
            assert determinant(m) == cofactor_det(m)
    assert any(packed_rows)


def test_upper_twos_gram_matches_the_generic_product():
    rng = random.Random(29)
    makers = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda: _random_polynomial(rng, rng.randint(0, 20), 50),
    )
    for make in makers:
        for k, n in ((0, 0), (0, 3), (2, 0), (1, 1), (2, 5), (3, 3), (4, 6)):
            z = ExactMatrix(k, n, [make() for _ in range(k * n)])
            gram = upper_twos_gram(z)
            assert (gram.rows, gram.cols) == (k, k)
            assert gram == z * upper_twos(n) * z.transpose()
            assert gram.transpose() == z * upper_twos(n).transpose() * z.transpose()


def _one_factors_by_recursion(items):
    if not items:
        yield ()
        return
    for idx in range(1, len(items)):
        rest = items[1:idx] + items[idx + 1 :]
        for tail in _one_factors_by_recursion(rest):
            yield ((items[0], items[idx]),) + tail


def test_one_factors_order_and_count():
    for n in range(0, 11, 2):
        factors = list(one_factors(n))
        assert factors == list(_one_factors_by_recursion(tuple(range(n))))
        assert len(factors) == math.prod(range(1, n, 2))
    with pytest.raises(ValueError):
        list(one_factors(3))


def test_one_factors_does_not_recurse():
    tree = ast.parse(inspect.getsource(linalg.one_factors))
    function = tree.body[0]
    nested = [node for node in ast.walk(function) if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not function]
    calls = {node.func.id for node in ast.walk(function) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not nested
    assert "one_factors" not in calls


def test_pfaffian_by_expansion_matches_matchings():
    rng = random.Random(31)
    for n in range(0, 11, 2):
        for _ in range(3):
            a = random_skew_matrix(rng, n)
            assert pfaffian_by_expansion(a) == pfaffian_by_matchings(a)
        if n <= 6:  # one indeterminate per entry above the diagonal
            rows = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                rows[i][j] = QtPolynomial({(i, j): 1})
                rows[j][i] = -rows[i][j]
            symbolic = ExactMatrix.from_rows(rows)
            assert pfaffian_by_expansion(symbolic) == pfaffian_by_matchings(symbolic)
    a = random_skew_matrix(rng, 16)
    assert pfaffian_by_expansion(a) ** 2 == determinant(a)
    assert pfaffian(a) == pfaffian_by_expansion(a)
    with pytest.raises(ValueError):
        pfaffian_by_expansion(ExactMatrix.zero(3, 3))


def test_pfaffian_never_takes_the_matchings_route(monkeypatch):
    rng = random.Random(47)
    cases = [random_skew_matrix(rng, n) for n in range(0, 11, 2) for _ in range(2)]
    expected = [pfaffian_by_matchings(a) for a in cases]

    def forbidden(*args):
        raise AssertionError("pfaffian reached the matchings oracle")

    for name in ("pfaffian_by_matchings", "one_factors", "crossing_number"):
        monkeypatch.setattr(linalg, name, forbidden)
    assert [linalg.pfaffian(a) for a in cases] == expected


def test_pfaffian_square_is_determinant_past_order_16():
    rng = random.Random(53)
    for n in (18, 20, 22, 24):
        a = random_skew_matrix(rng, n)
        assert pfaffian(a) ** 2 == determinant(a)


def test_linalg_module_does_not_recurse():
    tree = ast.parse(inspect.getsource(linalg))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert len(functions) > 20
    for function in functions:
        nested = [node for node in ast.walk(function)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not function]
        called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                  for node in ast.walk(function) if isinstance(node, ast.Call)}
        assert not nested, function.name
        assert function.name not in called, function.name


def _leibniz_minor_sum(rows, cols, entries):
    """Sum over the rows-subsets of columns of the permutation sum of the
    minor on them; entries is the row-major list of a rows x cols matrix."""
    total = 0
    for subset in itertools.combinations(range(cols), rows):
        for perm in itertools.permutations(subset):
            term = 1
            for i, j in enumerate(perm):
                term = term * entries[i * cols + j]
            inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            total = total - term if inversions % 2 else total + term
    return total


def test_sum_max_minors_matches_leibniz_oracle():
    rng = random.Random(37)
    makers = (
        lambda: rng.randint(-10**9, 10**9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        lambda: _random_polynomial(rng, rng.randint(0, 4), 9) if rng.random() < 0.8 else rng.randint(-3, 3),
    )
    for make in makers:
        for m in range(0, 5):
            for n in range(m, 7):
                if make is makers[2] and n > 5:
                    continue
                entries = [make() for _ in range(m * n)]
                assert sum_max_minors(ExactMatrix(m, n, entries)) == _leibniz_minor_sum(m, n, entries), (m, n)
    for n in range(5):
        assert sum_max_minors(ExactMatrix.zero(0, n)) == 1
    square = random_integer_matrix(rng, 4, 4)
    flat = [x for row in square.to_rows() for x in row]
    assert sum_max_minors(square) == determinant(square) == _leibniz_minor_sum(4, 4, flat)
    for m, n in ((1, 0), (3, 2), (5, 4)):
        with pytest.raises(ValueError, match="rows <= cols"):
            sum_max_minors(ExactMatrix.zero(m, n))


def test_sum_max_minors_pfaffian_matches_leibniz_oracle():
    # Odd and even row counts, over ints, Fractions and polynomials (plain
    # ints mixed in): the Pfaffian of the Gram matrix minus s s^T, bordered
    # by s for odd m, is the minor sum.
    rng = random.Random(41)
    makers = (
        lambda: rng.randint(-10**6, 10**6),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        lambda: _random_polynomial(rng, rng.randint(0, 4), 9) if rng.random() < 0.8 else rng.randint(-3, 3),
    )
    for make in makers:
        for m in range(0, 5):
            for n in range(m, 7):
                if make is makers[2] and n > 5:
                    continue
                entries = [make() for _ in range(m * n)]
                got = sum_max_minors_pfaffian(ExactMatrix(m, n, entries))
                assert got == _leibniz_minor_sum(m, n, entries), (m, n)
    for n in range(5):
        assert sum_max_minors_pfaffian(ExactMatrix.zero(0, n)) == 1
    for m, n in ((1, 0), (3, 2), (5, 4)):
        with pytest.raises(ValueError, match="rows <= cols"):
            sum_max_minors_pfaffian(ExactMatrix.zero(m, n))


def test_sum_max_minors_square_and_near_square_past_the_subset_dp():
    # G = lower * upper has det d, the product of upper's diagonal.  The
    # minors of G [I | v] are d times those of [I | v]: 1 without column v,
    # and (-1)^(m-1-j) v[j] without column j.
    rng = random.Random(43)
    for m in (11, 24, 25):
        lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(m)] for i in range(m)]
        upper = [[rng.choice((-2, -1, 1, 2, 3)) if i == j else rng.randint(-2, 2) if j > i else 0
                  for j in range(m)] for i in range(m)]
        g = ExactMatrix.from_rows(lower) * ExactMatrix.from_rows(upper)
        d = math.prod(upper[i][i] for i in range(m))
        assert sum_max_minors(g) == d
        v = [rng.randint(-9, 9) for _ in range(m)]
        wide = g * ExactMatrix.from_rows([[int(i == j) for j in range(m)] + [v[i]] for i in range(m)])
        assert sum_max_minors(wide) == d * (1 + sum((-1) ** (m - 1 - j) * v[j] for j in range(m))), m


_scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sum_max_minors_matches_leibniz_oracle_hypothesis(data):
    m = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(m, 6))
    entries = data.draw(st.lists(_scalars, min_size=m * n, max_size=m * n))
    assert sum_max_minors(ExactMatrix(m, n, entries)) == _leibniz_minor_sum(m, n, entries)
