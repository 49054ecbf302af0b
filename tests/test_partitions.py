"""Shifted/symmetric plane partitions and their generating functions."""

import ast
import inspect
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from pathtiles import linalg, partitions, ring
from pathtiles.dag import Budget, BudgetExceeded
from pathtiles.linalg import ExactMatrix, determinant, division_free_determinant, upper_twos, upper_twos_gram
from pathtiles.lozenge import count_tilings, mirrored_hook_region, mirrored_tiling_gf_formula
from pathtiles.partitions import (
    ShiftedPlanePartition,
    check_count_identity,
    enumerate_plane_partitions,
    enumerate_spp,
    lattice_gf_recurrence_holds,
    lattice_path_gf,
    pp_sym_volume_gf,
    qt_gf_determinant,
    qt_gf_enumerated,
    qt_path_matrix,
    qt_weight,
    shifted_from_symmetric,
    spp_count,
    spp_volume_gf,
    symmetrize_shape,
    to_symmetric_plane_partition,
    volume_gf,
)
from pathtiles.ring import QtPolynomial, q, qbinomial, substitute, t
from pathtiles.verify import strict_partitions


def test_spp_validation():
    ShiftedPlanePartition((2, 1), ((2, 1), (1,)))
    with pytest.raises(ValueError):
        ShiftedPlanePartition((2, 1), ((1, 2), (1,)))  # row increases
    with pytest.raises(ValueError):
        ShiftedPlanePartition((2, 1), ((1, 1), (2,)))  # column increases
    with pytest.raises(ValueError):
        ShiftedPlanePartition((1, 2), ((1,), (1, 1)))  # shape not strict


def test_enumeration_counts():
    assert spp_count(0, (3, 1)) == 1
    assert spp_count(1, (1,)) == 2
    assert spp_count(1, (2,)) == 3
    listed = sorted(p.rows for p in enumerate_spp(1, (2,)))
    assert listed == [((0, 0),), ((1, 0),), ((1, 1),)]


def test_enumeration_is_exact_stream():
    seen = set()
    for p in enumerate_spp(2, (3, 1)):
        assert p.rows not in seen
        seen.add(p.rows)
    assert len(seen) == spp_count(2, (3, 1))


def test_symmetrize_shape():
    assert symmetrize_shape((1,)) == (1,)
    assert symmetrize_shape((2, 1)) == (2, 2)
    assert symmetrize_shape((9, 7, 6, 3, 2)) == (9, 8, 8, 6, 6, 5, 3, 3, 1)


def test_symmetrize_shape_is_symmetric():
    for shape in [(1,), (2,), (3, 1), (4, 2, 1), (9, 7, 6, 3, 2)]:
        sym = symmetrize_shape(shape)
        conjugate = tuple(
            sum(1 for length in sym if length >= i) for i in range(1, sym[0] + 1)
        )
        assert conjugate == sym


def test_reflection_bijection():
    spp = ShiftedPlanePartition((2, 1), ((2, 1), (1,)))
    assert to_symmetric_plane_partition(spp) == ((2, 1), (1, 1))
    assert shifted_from_symmetric(((2, 1), (1, 1))) == spp
    zero = ShiftedPlanePartition((1,), ((0,),))
    assert to_symmetric_plane_partition(zero) == ((0,),)
    for p in enumerate_spp(2, (3, 1)):
        assert shifted_from_symmetric(to_symmetric_plane_partition(p)) == p


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        shifted_from_symmetric(((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        shifted_from_symmetric(((1, 1),))  # shape not symmetric


def test_qt_weights():
    zero = ShiftedPlanePartition((1,), ((0,),))
    assert qt_weight(zero) == 1
    one = ShiftedPlanePartition((1,), ((1,),))
    assert qt_weight(one) == t
    both = ShiftedPlanePartition((2,), ((1, 1),))
    assert qt_weight(both) == q * t


def test_qt_gf_examples():
    assert qt_gf_enumerated(1, (1,)) == 1 + t
    assert qt_gf_enumerated(0, (3, 2)) == 1
    assert qt_gf_enumerated(1, (2,)) == 1 + t + q * t


def test_qt_determinant_examples():
    assert qt_gf_determinant(1, (1,)) == (1 + t) ** 2
    assert qt_gf_determinant(0, (4, 2)) == 1
    e = qt_gf_enumerated(1, (2,))
    assert qt_gf_determinant(1, (2,)) == e * e


def test_qt_determinant_matches_enumeration_squared():
    for shape in [(1,), (2,), (3,), (2, 1), (3, 1), (3, 2, 1)]:
        for m in range(3):
            e = qt_gf_enumerated(m, shape)
            assert qt_gf_determinant(m, shape) == e * e


def test_qt_determinant_row_order_leaves_the_value():
    # qt_gf_determinant reorders the rows of the path matrix, lowest degree
    # first; the determinant in the matrix's own row order must agree.
    reordered = 0
    for shape in strict_partitions(5, 3):
        for m in range(3):
            z = qt_path_matrix(m, shape)
            want = QtPolynomial.from_scalar(determinant(upper_twos_gram(z)))
            assert qt_gf_determinant(m, shape) == want, (m, shape)
            tops = [max((eq + et for e in z.row(i) for eq, et in e.terms()), default=0) for i in range(z.rows)]
            reordered += tops != sorted(tops)
    assert reordered > 0


def test_qt_determinant_readme_scale():
    # At q = t = 1 the squared (q,t)-GF is the squared count of shifted
    # fillings, 2^k times the two-sided tiling GF.
    shape = (9, 7, 6, 3, 2)
    det = qt_gf_determinant(6, shape)
    assert sum(det.terms().values()) == 2 ** len(shape) * mirrored_tiling_gf_formula(6, shape)


def test_determinant_routes_reject_negative_bound():
    for call in (
        lambda: qt_gf_determinant(-1, (3, 1)),
        lambda: volume_gf(-1, (3, 1), "spp"),
        lambda: volume_gf(-1, (3, 1), "pp_sym"),
    ):
        with pytest.raises(ValueError, match="largest entry bound"):
            call()


def test_setting_t_to_q_gives_volume():
    for p in enumerate_spp(2, (3, 1)):
        assert qt_weight(p).substitute(q, q) == q ** p.volume()


def test_volume_specializations():
    assert volume_gf(1, (1,), "spp") == (1 + q) ** 2
    assert volume_gf(1, (1,), "pp_sym") == (1 + q) ** 2
    assert volume_gf(0, (3, 1), "spp") == 1
    for shape in [(2,), (2, 1), (3, 2)]:
        for m in range(3):
            vol = spp_volume_gf(m, shape)
            assert volume_gf(m, shape, "spp") == vol * vol
            sym = pp_sym_volume_gf(m, symmetrize_shape(shape))
            assert volume_gf(m, shape, "pp_sym") == sym * sym


def _volume_gf_by_substitution(m, shape, which):
    # The specialization as a substitution followed by a polynomial
    # determinant, built from public functions only.
    images = {"spp": (q, q), "pp_sym": (q**2, q)}[which]
    z = qt_path_matrix(m, shape)
    z = ExactMatrix(z.rows, z.cols, [substitute(e, *images) for i in range(z.rows) for e in z.row(i)])
    return QtPolynomial.from_scalar(determinant(z * upper_twos(z.cols) * z.transpose()))


SMALL_SHAPES = [()] + strict_partitions(6, 4)


@pytest.mark.parametrize("which", ["spp", "pp_sym"])
def test_volume_gf_matches_substituted_determinant(which):
    cases = [(m, shape) for shape in SMALL_SHAPES for m in range(4)] + [(6, (9, 7, 6, 3, 2))]
    for m, shape in cases:
        assert volume_gf(m, shape, which) == _volume_gf_by_substitution(m, shape, which), (m, shape)


def test_volume_gf_edge_cases(monkeypatch):
    for which in ("spp", "pp_sym"):
        for m in range(4):
            assert volume_gf(m, (), which) == 1
        for shape in SMALL_SHAPES[::7]:
            assert volume_gf(0, shape, which) == 1

    def no_work(*args):
        raise AssertionError("volume_gf did work before validating its input")

    for name in ("qt_path_matrix", "permanent", "kronecker_pack", "division_free_determinant"):
        monkeypatch.setattr(partitions, name, no_work)
    with pytest.raises(ValueError, match="which must be"):
        volume_gf(2, (3, 1), "qt")
    monkeypatch.undo()
    monkeypatch.setattr(partitions, "permanent", no_work)
    for which in ("spp", "pp_sym"):
        with pytest.raises(ValueError, match="largest entry bound"):
            volume_gf(-1, (3, 1), which)
        with pytest.raises(ValueError):
            volume_gf(2, (1, 3), which)


def test_volume_gf_is_one_evaluation_on_ints(monkeypatch):
    want = {which: _volume_gf_by_substitution(4, (6, 4, 3, 1), which) for which in ("spp", "pp_sym")}
    calls = []

    def forbidden(*args):
        raise AssertionError("volume_gf substituted or took a polynomial determinant")

    def int_determinant(matrix):
        entries = [e for i in range(matrix.rows) for e in matrix.row(i)]
        assert all(type(e) is int for e in entries)
        calls.append(matrix.rows)
        return division_free_determinant(matrix)

    monkeypatch.setattr(QtPolynomial, "substitute", forbidden)
    monkeypatch.setattr(ring, "substitute", forbidden)
    monkeypatch.setattr(linalg, "determinant", forbidden)
    monkeypatch.setattr(partitions, "determinant", forbidden)
    monkeypatch.setattr(partitions, "division_free_determinant", int_determinant)
    for which, gf in want.items():
        assert volume_gf(4, (6, 4, 3, 1), which) == gf
    assert calls == [4, 4]


def test_symmetric_volume_is_qt_specialization():
    # Volume of a symmetric filling doubles the off-diagonal entries.
    for p in enumerate_spp(2, (2, 1)):
        sym = to_symmetric_plane_partition(p)
        sym_volume = sum(sum(row) for row in sym)
        assert sym_volume == 2 * p.off_diagonal_sum() + p.diagonal_sum()


def test_plane_partition_enumeration():
    # Column shapes and boxes agree with the classical product counts.
    assert sum(1 for _ in enumerate_plane_partitions(2, (1, 1))) == 6  # C(4,2)
    assert sum(1 for _ in enumerate_plane_partitions(2, (2, 2))) == 20  # 2x2x2 box


def test_lattice_path_gf_examples():
    assert lattice_path_gf(3, 2, 3, 2) == 1
    assert lattice_path_gf(1, 0, 0, 1) == t * (1 + q)
    assert lattice_path_gf(2, 0, 2, 3) == QtPolynomial({(6, 3): 1})  # vertical-only
    assert lattice_path_gf(0, 1, 1, 2) == 0
    assert lattice_path_gf(2, 0, 0, 2) == QtPolynomial({(0, 2): 1}) * qbinomial(4, 2)


def test_lattice_recurrence():
    for a in range(5):
        for b in range(4):
            for c in range(5):
                for d in range(5):
                    assert lattice_gf_recurrence_holds(a, b, c, d)


def test_count_identity_examples():
    # Smallest cases: 1 = 1 = 2 * (1/2), then 4 = 2 * 2, then 9 = 2 * (9/2).
    assert spp_count(0, (1,)) == 1
    assert count_tilings(mirrored_hook_region(0, (1,))) == Fraction(1, 2)
    assert check_count_identity(0, (1,))
    assert check_count_identity(1, (1,))
    assert check_count_identity(1, (2,))
    assert check_count_identity(2, (3, 1))


# ---------------------------------------------------------------------------
# Oracles that share no code with the filling engine
# ---------------------------------------------------------------------------


def brute_fillings(m, cells):
    """Every map from the (row, column) cells to 0..m that weakly decreases
    along rows and down columns, by trying all (m+1)^len(cells) maps."""
    cells = sorted(cells)
    for values in itertools.product(range(m + 1), repeat=len(cells)):
        f = dict(zip(cells, values))
        if all(v >= f.get((i, j + 1), -1) and v >= f.get((i + 1, j), -1) for (i, j), v in f.items()):
            yield f


def shifted_cells(shape):
    return {(i, j) for i, part in enumerate(shape, start=1) for j in range(i, part + i)}


def symmetric_cells(shape):
    return shifted_cells(shape) | {(j, i) for i, j in shifted_cells(shape)}


def volume_terms(fillings):
    return {(v, 0): c for v, c in Counter(sum(f.values()) for f in fillings).items()}


SMALL_STRICT_SHAPES = [()] + strict_partitions(3, 2)


@pytest.mark.parametrize("shape", SMALL_STRICT_SHAPES)
def test_oracles_match_brute_force_over_all_fillings(shape):
    for m in range(3):
        shifted = list(brute_fillings(m, shifted_cells(shape)))
        qt = Counter(
            (sum(v for (i, j), v in f.items() if i != j), sum(v for (i, j), v in f.items() if i == j))
            for f in shifted
        )
        assert qt_gf_enumerated(m, shape).terms() == dict(qt)
        assert spp_volume_gf(m, shape).terms() == volume_terms(shifted)
        assert spp_count(m, shape) == len(shifted)
        assert sorted(p.rows for p in enumerate_spp(m, shape)) == sorted(
            tuple(tuple(f[i, j] for j in range(i, part + i)) for i, part in enumerate(shape, start=1))
            for f in shifted
        )
        cells = symmetric_cells(shape)
        sym_shape = symmetrize_shape(shape)
        assert sorted(cells) == [(i, j) for i, row in enumerate(sym_shape, 1) for j in range(1, row + 1)]
        plane = list(brute_fillings(m, cells))
        assert sum(1 for _ in enumerate_plane_partitions(m, sym_shape)) == len(plane)
        symmetric = [f for f in plane if all(f[i, j] == f[j, i] for i, j in f)]
        assert pp_sym_volume_gf(m, sym_shape).terms() == volume_terms(symmetric)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def andrews_symmetric_box(n, c):
    """Coefficient list of Andrews' product (the MacMahon conjecture) for
    symmetric plane partitions in an n x n x c box, by exact division."""
    num, den = [1], [1]
    factors = [(c + 2 * i - 1, 2 * i - 1) for i in range(1, n + 1)]
    factors += [(2 * (c + i + j - 1), 2 * (i + j - 1)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for top, bottom in factors:
        num = _poly_mul(num, [1] + [0] * (top - 1) + [-1])
        den = _poly_mul(den, [1] + [0] * (bottom - 1) + [-1])
    quotient = []
    for k in range(len(num)):
        quotient.append(num[k] - sum(den[j] * quotient[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    assert _poly_mul(quotient, den)[: len(num)] == num  # the division is exact
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetric_volume_gf_matches_andrews_box_product(n):
    staircase = tuple(range(n, 0, -1))
    square = symmetrize_shape(staircase)
    assert square == (n,) * n
    for c in range(5):
        want = {(v, 0): a for v, a in enumerate(andrews_symmetric_box(n, c)) if a}
        assert pp_sym_volume_gf(c, square).terms() == want


def _is_symmetric(pp):
    return all(
        j < len(pp) and i < len(pp[j]) and v == pp[j][i] for i, row in enumerate(pp) for j, v in enumerate(row)
    )


def test_symmetric_volume_gf_matches_enumerate_and_filter_at_verify_sizes():
    for shape in strict_partitions(4, 3):
        sym_shape = symmetrize_shape(shape)
        for m in range(4):
            kept = Counter(
                sum(map(sum, pp)) for pp in enumerate_plane_partitions(m, sym_shape) if _is_symmetric(pp)
            )
            assert pp_sym_volume_gf(m, sym_shape).terms() == {(v, 0): c for v, c in kept.items()}


def test_asymmetric_shape_has_no_symmetric_filling():
    assert pp_sym_volume_gf(2, (2, 1, 1)) == 0
    with pytest.raises(ValueError, match="largest entry bound"):
        pp_sym_volume_gf(-1, (2, 1, 1))


def test_long_rows_do_not_recurse():
    assert spp_count(0, (3000,)) == 1
    assert pp_sym_volume_gf(0, symmetrize_shape((1200,))) == 1


def test_no_function_in_partitions_recurses():
    # ring is checked too: partitions builds its path matrices on qbinomial.
    for module in (partitions, ring):
        tree = ast.parse(inspect.getsource(module))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                called = {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                assert fn.name not in called, f"{module.__name__}.{fn.name}"


def test_repeated_cell_is_checked_against_its_bounds():
    # Cell 1 is at most cell 0 (west); cell 2 repeats cell 0 but sits east
    # of cell 1, so only fillings with equal first two cells survive.
    plan = [(3, 3, None), (0, 3, None), (1, 3, 0)]
    assert list(partitions._fillings(2, plan)) == [[2, 2, 2], [1, 1, 1], [0, 0, 0]]


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


def test_budget_counts_cells_placed():
    # Fillings (1,1), (1,0), (0,0): cells are placed 2 + 1 + 2 = 5 times.
    assert spp_count(1, (2,), Budget(5)) == 3
    with pytest.raises(BudgetExceeded):
        spp_count(1, (2,), Budget(4))


@pytest.mark.parametrize(
    "call",
    [
        lambda b: list(enumerate_spp(4, (5, 3, 1), b)),
        lambda b: list(enumerate_plane_partitions(4, (4, 4, 3), b)),
        lambda b: spp_count(4, (5, 3, 1), b),
        lambda b: qt_gf_enumerated(4, (5, 3, 1), b),
        lambda b: spp_volume_gf(4, (5, 3, 1), b),
        lambda b: pp_sym_volume_gf(4, symmetrize_shape((5, 3, 1)), b),
        lambda b: check_count_identity(4, (5, 3, 1), b),
    ],
    ids=["enumerate_spp", "enumerate_plane_partitions", "spp_count", "qt_gf_enumerated",
         "spp_volume_gf", "pp_sym_volume_gf", "check_count_identity"],
)
def test_every_partition_oracle_is_budgeted(call):
    with pytest.raises(BudgetExceeded):
        call(Budget(1000))


def test_default_budget_reads_the_environment(monkeypatch):
    monkeypatch.setenv("TILING_REFLECT_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match="budget of 1000 states"):
        spp_volume_gf(6, (9, 7, 6, 3, 2))
