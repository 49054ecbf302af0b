"""Exact scalar arithmetic: rationals and (q,t)-polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtiles import ring
from pathtiles.ring import (
    ONE,
    QtPolynomial,
    parse_polynomial,
    parse_scalar,
    q,
    qbinomial,
    qint,
    scalar_str,
    substitute,
    t,
)

coefficients = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polynomials = st.dictionaries(exponents, coefficients, max_size=5).map(QtPolynomial)

# Integer polynomials large enough for the packed multiply.  A product of two
# of them has at most 19 * 11 slots; of two t-free ones at most 119.
big_ints = st.integers(-(10**30), 10**30).filter(bool)
int_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 5)), big_ints, min_size=10, max_size=60
).map(QtPolynomial)
q_only_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 59), st.just(0)), big_ints, min_size=11, max_size=60
).map(QtPolynomial)


def schoolbook(a, b):
    """Independent product oracle: every term pair, summed in a dict."""
    out = {}
    for (aq, at), ac in a.terms().items():
        for (bq, bt), bc in b.terms().items():
            key = (aq + bq, at + bt)
            out[key] = out.get(key, 0) + ac * bc
    return {key: c for key, c in out.items() if c}


def test_qint_values():
    assert qint(0) == 0
    assert qint(1) == 1
    assert qint(3) == 1 + q + q**2


def test_qint_matches_polynomial_division():
    # (1 - q^n) = qint(n) * (1 - q), so qint is the exact quotient.
    for n in range(8):
        assert qint(n) * (1 - q) == 1 - q**n


def test_qbinomial_base_cases():
    assert qbinomial(5, 0) == ONE
    assert qbinomial(2, 3) == 0
    assert qbinomial(-1, 0) == 0
    assert qbinomial(3, -1) == 0


def test_qbinomial_2x2_box():
    # Sum of q^(area) over partitions inside a 2x2 box.
    assert qbinomial(4, 2) == 1 + q + 2 * q**2 + q**3 + q**4


def test_qbinomial_brute_force_box_counting():
    # [m+n choose m]_q enumerates partitions in an m x n box by area.
    def box_gf(m, n):
        total = QtPolynomial()
        def rec(row, prev, area):
            nonlocal total
            if row == m:
                total = total + QtPolynomial({(area, 0): 1})
                return
            for part in range(prev + 1):
                rec(row + 1, part, area + part)
        rec(0, n, 0)
        return total

    for m in range(4):
        for n in range(4):
            assert qbinomial(m + n, m) == box_gf(m, n)


def test_qbinomial_symmetry_and_pascal():
    for n in range(7):
        for k in range(n + 1):
            assert qbinomial(n, k) == qbinomial(n, n - k)
            if n >= 1:
                assert qbinomial(n, k) == qbinomial(n - 1, k - 1) + q**k * qbinomial(n - 1, k)


def test_qbinomial_at_q_one_is_binomial():
    from math import comb

    for n in range(7):
        for k in range(n + 1):
            assert qbinomial(n, k).substitute(1, 1) == comb(n, k)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        QtPolynomial({(-1, 0): 1})


def test_substitution_examples():
    assert substitute(t * q, q, q) == q**2
    assert substitute(t, q**2, q) == q
    assert substitute(1 + q * t, q**2, q) == 1 + q**3


@given(polynomials, polynomials, polynomials)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polynomials)
@settings(max_examples=30, deadline=None)
def test_round_trip_canonical_form(p):
    assert parse_polynomial(str(p)) == p


def test_canonical_form_layout():
    p = QtPolynomial({(0, 0): 1, (2, 1): 2, (3, 0): Fraction(-1, 2)})
    assert str(p) == "1 + 2*q^2*t - 1/2*q^3"
    assert parse_polynomial("1 + 2*q^2*t - 1/2*q^3") == p
    assert str(QtPolynomial()) == "0"
    assert str(q - 1) == "-1 + q"


def test_parse_scalar_dispatch():
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    assert parse_scalar("7") == 7
    assert parse_scalar("q^2*t") == q**2 * t
    assert scalar_str(Fraction(9, 2)) == "9/2"
    assert scalar_str(3) == "3"


def test_power_and_constants():
    assert (1 + q) ** 2 == 1 + 2 * q + q**2
    assert q**0 == ONE
    with pytest.raises(ValueError):
        q ** (-1)


def test_constant_value():
    assert QtPolynomial({(0, 0): Fraction(5, 3)}).constant_value() == Fraction(5, 3)
    with pytest.raises(ValueError):
        (1 + q).constant_value()


def test_constants_hash_like_their_scalars():
    for scalar in (2, Fraction(5, 3), 0):
        constant = QtPolynomial({(0, 0): scalar})
        assert constant == scalar
        assert hash(constant) == hash(scalar)
        assert len({constant, scalar}) == 1
    assert QtPolynomial() == 0 and hash(QtPolynomial()) == hash(0)
    assert hash(1 + q) == hash(q + 1)


def _assert_packed_matches_schoolbook(a, b, packs=True):
    # packs=False: the operands may be too sparse to pack (None is allowed).
    expected = schoolbook(a, b)
    packed = ring._mul_packed(a.terms(), b.terms())
    assert packed == expected or (not packs and packed is None)
    product = a * b
    assert product.terms() == expected
    assert all(type(c) is int for c in product.terms().values())


@given(int_polynomials, int_polynomials)
@settings(max_examples=40, deadline=None)
def test_packed_multiply_matches_schoolbook(a, b):
    _assert_packed_matches_schoolbook(a, b, packs=len(a.terms()) * len(b.terms()) >= 19 * 11)


@given(q_only_polynomials, q_only_polynomials, int_polynomials)
@settings(max_examples=20, deadline=None)
def test_packed_multiply_t_degree_zero(a, b, c):
    _assert_packed_matches_schoolbook(a, b)
    _assert_packed_matches_schoolbook(a, c, packs=False)


def test_packed_multiply_small_and_single_term_operands():
    a = QtPolynomial({(0, 0): -(10**30)})
    _assert_packed_matches_schoolbook(a, QtPolynomial({(0, 0): 10**30 - 1}))
    _assert_packed_matches_schoolbook(a, qint(40))
    _assert_packed_matches_schoolbook(1 - q, 1 + q)
    _assert_packed_matches_schoolbook(1 - t, 1 + t + t**2)


def test_sparse_products_skip_packing():
    # Exponents far apart would need ~4 million slots for 144 term pairs.
    a = QtPolynomial({(10**5 * i, i % 2): i + 1 for i in range(12)})
    b = QtPolynomial({(10**5 * i + 1, 0): -(10**30) for i in range(12)})
    assert ring._mul_packed(a.terms(), b.terms()) is None
    assert (a * b).terms() == schoolbook(a, b)


def test_packed_multiply_cancellation():
    # (1 + q + ... + q^39) * (1 - q) * f = (1 - q^40) * f: every middle
    # coefficient of the product cancels to zero.
    f = 1 + t + t**2 + 3 * t**3 - 5 * t**4
    a, b = qint(40), (1 - q) * f
    assert len(a.terms()) * len(b.terms()) > ring._PACK_MIN_PAIRS
    assert a * b == (1 - q**40) * f
    _assert_packed_matches_schoolbook(a, b)
    big = QtPolynomial({(i, i % 3): (-1) ** i * 10**30 for i in range(30)})
    _assert_packed_matches_schoolbook(big, big)
    assert (big * big) + (-big) * big == 0


def test_slot_width_leaves_a_sign_bit():
    assert ring.slot_width(0) == 1
    for w in range(1, 5):
        assert ring.slot_width(2 ** (8 * w - 1) - 1) == w
        assert ring.slot_width(2 ** (8 * w - 1)) == w + 1


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_kronecker_pack_round_trip(stride):
    # Slots e_q * stride + e_t stay distinct when e_t < stride.
    for bound in (1, 127, 128, 2**31 - 1, 10**30):
        width = ring.slot_width(bound)
        terms = {(i, i % stride): (-1) ** i * (bound - i % 3) for i in range(12)}
        packed = ring.kronecker_pack(terms, stride, width)
        assert packed == sum(c * 2 ** (8 * width * (eq * stride + et)) for (eq, et), c in terms.items())
        slots = 11 * stride + stride
        coeffs = ring.kronecker_unpack(packed, slots, width)
        assert coeffs == [terms.get(divmod(i, stride), 0) for i in range(slots)]
    assert ring.kronecker_pack({}, stride, 3) == 0
    assert ring.kronecker_unpack(0, 4, 3) == [0, 0, 0, 0]


def test_mixed_int_and_fraction_operands():
    a = QtPolynomial({(i, i % 2): i + 1 for i in range(20)})
    b = QtPolynomial({(i, 0): Fraction(1, 2) if i % 3 else 2 for i in range(20)})
    product = a * b
    assert product.terms() == schoolbook(a, b)
    assert product == b * a
    for c in product.terms().values():
        assert type(c) is int or c.denominator != 1
    assert a * Fraction(3, 2) * 2 == 3 * a
    assert all(type(c) is int for c in (a * Fraction(3, 2) * 2).terms().values())


def test_integral_coefficients_are_ints():
    p = QtPolynomial({(0, 0): Fraction(4, 2)})
    assert type(p.terms()[(0, 0)]) is int
    assert p == 2
    assert p == QtPolynomial({(0, 0): 2})
    assert hash(p) == hash(QtPolynomial({(0, 0): 2}))
    assert str(p) == "2"
    half_q = QtPolynomial({(1, 0): Fraction(1, 2)})
    assert type((half_q + half_q).terms()[(1, 0)]) is int
    assert type((half_q * 2).terms()[(1, 0)]) is int
    assert type(QtPolynomial.from_scalar(Fraction(6, 3)).terms()[(0, 0)]) is int
    parsed = parse_polynomial("1/2*q + 1/2*q - 3/2")
    assert parsed.terms() == {(1, 0): 1, (0, 0): Fraction(-3, 2)}
    assert type(parsed.terms()[(1, 0)]) is int
    assert str(parsed) == "-3/2 + q"
