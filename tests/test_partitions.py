"""Shifted/symmetric plane partitions and their generating functions."""

from fractions import Fraction

import pytest

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
    qt_weight,
    shifted_from_symmetric,
    spp_count,
    spp_volume_gf,
    symmetrize_shape,
    to_symmetric_plane_partition,
    volume_gf,
)
from pathtiles.ring import QtPolynomial, q, qbinomial, t


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
