"""Exact scalar arithmetic: rationals and (q,t)-polynomials."""

import random
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


def test_qbinomial_far_past_the_recursion_limit():
    assert qbinomial(3000, 1) == qint(3000)
    assert qbinomial(3000, 2999) == qint(3000)


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


@pytest.mark.parametrize("text", ["+", "-", "q +", "2 + + q", "q - - t"])
def test_parse_scalar_rejects_empty_terms(text):
    with pytest.raises(ValueError, match="cannot parse polynomial term"):
        parse_scalar(text)


def test_parse_scalar_dispatch():
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    assert parse_scalar("7") == 7
    assert parse_scalar("q^2*t") == q**2 * t
    # Factors without a "*" between them multiply.
    assert parse_scalar("qq") == q**2 and parse_scalar("q t") == q * t and parse_scalar("2t^2q") == 2 * q * t**2
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


def _packed_product(a, b):
    """The kernel's packed route on the one-pair batch a * b, or None."""
    a, b = a.terms(), b.terms()
    out = ring._mac_packed([[(1, a, b)]], len(a) * len(b))
    return out if out is None else ring.polynomial(out[0]).terms()


def _assert_packed_matches_schoolbook(a, b, packs=True):
    # packs=False: the operands may be too sparse to pack (None is allowed).
    expected = schoolbook(a, b)
    packed = _packed_product(a, b)
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
    assert _packed_product(a, b) is None
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
        # Unpacking returns the nonzero terms only.
        nonzero = {k: c for k, c in terms.items() if c}
        assert ring.kronecker_unpack(packed, stride, width) == nonzero
        assert ring.kronecker_unpack(-packed, stride, width) == {k: -c for k, c in nonzero.items()}
    assert ring.kronecker_pack({}, stride, 3) == 0
    assert ring.kronecker_unpack(0, stride, 3) == {}


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


# -- the batched multiply-accumulate kernel ---------------------------------


def batch_oracle(targets):
    """Each target's signed sum of schoolbook products."""
    out = []
    for target in targets:
        total = {}
        for sign, a, b in target:
            for key, c in schoolbook(QtPolynomial.from_scalar(a), QtPolynomial.from_scalar(b)).items():
                total[key] = total.get(key, 0) + sign * c
        out.append({key: c for key, c in total.items() if c})
    return out


def _packed_batch(targets):
    """The kernel's packed route on a batch, or None where it is not taken."""
    batch = [
        [(sign, QtPolynomial.from_scalar(a).terms(), QtPolynomial.from_scalar(b).terms()) for sign, a, b in target]
        for target in targets
    ]
    term_pairs = sum(len(a) * len(b) for target in batch for _, a, b in target)
    enough = term_pairs > ring._PACK_MIN_PAIRS + ring._PACK_PAIRS_PER_TARGET * (len(batch) - 1)
    packed = ring._mac_packed(batch, term_pairs) if enough else None
    return packed if packed is None else [ring.polynomial(x).terms() for x in packed]


def _sums(targets):
    """multiply_accumulate's results, records and term maps alike, read by
    ring.polynomial."""
    return [ring.polynomial(x) for x in ring.multiply_accumulate(targets)]


def _assert_batch_matches_oracle(targets, packs=None):
    # packs: True when the batch must take the packed route, False when it
    # must fall back to the dict loop, None when either is allowed.
    expected = batch_oracle(targets)
    got = _sums(targets)
    assert [p.terms() for p in got] == expected
    for p in got:
        assert all(type(c) is int or c.denominator != 1 for c in p.terms().values())
    packed = _packed_batch(targets)
    if packs is not None:
        assert (packed is not None) == packs
    assert packed is None or packed == expected


@st.composite
def batches(draw, operands):
    # Operands are drawn from a small pool, so targets share operands.
    pool = draw(st.lists(operands, min_size=1, max_size=4))
    pair = st.tuples(st.sampled_from((1, -1)), st.sampled_from(pool), st.sampled_from(pool))
    return draw(st.lists(st.lists(pair, max_size=5), min_size=1, max_size=6))


@given(batches(int_polynomials))
@settings(max_examples=40, deadline=None)
def test_multiply_accumulate_matches_schoolbook(targets):
    _assert_batch_matches_oracle(targets)


@given(batches(q_only_polynomials))
@settings(max_examples=20, deadline=None)
def test_multiply_accumulate_t_degree_zero(targets):
    _assert_batch_matches_oracle(targets)


small_int_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 3)), st.integers(-300, 300).filter(bool), min_size=16, max_size=40
).map(QtPolynomial)


@given(batches(small_int_polynomials))
@settings(max_examples=30, deadline=None)
def test_multiply_accumulate_narrow_slots(targets):
    # Coefficients this small give slots of at most 8 bytes, which pack
    # and unpack through machine words.
    _assert_batch_matches_oracle(targets)


def test_multiply_accumulate_cancellation():
    f = 1 + t + t**2 + 3 * t**3 - 5 * t**4
    a, b = qint(40) * f, (1 - q) * f * (2 - t)
    _assert_batch_matches_oracle([[(1, a, b), (-1, b, a)]], packs=True)
    assert _sums([[(1, a, b), (-1, b, a)]]) == [0]
    # a^2 - b^2 == (a + b)(a - b), with every middle term of a cancelling.
    assert _sums([[(1, a, a), (-1, b, b)]]) == [(a + b) * (a - b)]
    big = QtPolynomial({(i, i % 3): (-1) ** i * 10**30 for i in range(30)})
    _assert_batch_matches_oracle([[(1, big, big), (-1, big, big)], [(1, big, a), (1, a, big), (-1, a, a)]], packs=True)


def test_multiply_accumulate_returns_records_where_the_batch_packs():
    # One entry, two result forms: a packed batch gives a record per target,
    # any other batch a term map per target, and polynomial reads both.
    a, b = qint(12) * (1 + t), 3 - q * t
    packs, does_not = [[(1, a, b), (1, b, a)], [(1, a, a), (-1, b, b)]], [[(1, b, b)], [(-1, b, 2)]]
    for targets, form in ((packs, ring._Packed), (does_not, dict)):
        got = ring.multiply_accumulate(targets)
        assert [type(x) for x in got] == [form] * len(targets)
        assert [ring.polynomial(x).terms() for x in got] == batch_oracle(targets)


def test_multiply_accumulate_width_counts_the_pairs_of_a_target():
    # Each product's largest coefficient is 836^2 * 12 = 8,386,752, just
    # below 2^23, so one product fits 3-byte slots; a sum of two does not.
    a = 836 * qint(12)
    _assert_batch_matches_oracle([[(1, a, a), (1, a, a)]], packs=True)
    _assert_batch_matches_oracle([[(1, a, a)], [(-1, a, a), (-1, a, a), (-1, a, a)]], packs=True)


def _layout_spy(monkeypatch):
    """Record the (stride, width) of every kernel unpack."""
    layouts = []
    real = ring.kronecker_unpack
    monkeypatch.setattr(ring, "kronecker_unpack", lambda v, s, w: layouts.append((s, w)) or real(v, s, w))
    return layouts


def test_multiply_accumulate_width_is_a_per_target_sum(monkeypatch):
    # One coefficient of 151 among 63 ones: a * a has 6 * 151^2 = 136,806 at
    # q^0, which needs 3-byte slots.  The per-target bound is 6 * 151 *
    # L1(a) = 193,884 (3 bytes); the old batch-wide rule, 151^2 * 64 terms *
    # 6 pairs = 8,755,584, asked for 4; one product's bound alone, 32,314,
    # fits 2 bytes, too few for the sum.
    a = 151 + QtPolynomial({(i, 0): 1 for i in range(1, 64)})
    layouts = _layout_spy(monkeypatch)
    _assert_batch_matches_oracle([[(1, a, a)] * 6], packs=True)
    assert layouts and set(layouts) == {(1, 3)}


def test_multiply_accumulate_stride_follows_the_live_pairs(monkeypatch):
    # The largest left and right t-degrees (3 each) never meet in one
    # product, so the stride is 3 + 0 + 1, not 3 + 3 + 1; a stride of 3
    # would carry a * b's t^3 terms into the next power of q.
    a, b = qint(12) * (1 + t**3), qint(12) * 5
    layouts = _layout_spy(monkeypatch)
    _assert_batch_matches_oracle([[(1, a, b), (-1, b, b)], [(1, b, b), (1, b, a)]], packs=True)
    assert layouts and {stride for stride, _ in layouts} == {4}


def test_multiply_accumulate_stride_fits_both_t_degrees():
    a = qint(12) * (1 + t + t**2)
    b = qint(12) * (1 - t**3) * 7
    _assert_batch_matches_oracle([[(1, a, b)], [(1, b, a), (-1, a, a)]], packs=True)


def test_multiply_accumulate_scalars_and_empty_targets():
    a = qint(20) * (1 + t)
    targets = [[], [(1, 0, a), (1, a, QtPolynomial())], [(1, 3, a), (-1, a, 2)], [(1, Fraction(1, 2), 4)]]
    _assert_batch_matches_oracle(targets)
    assert _sums(targets) == [0, 0, a, 2]


def test_multiply_accumulate_mixed_int_and_fraction_operands():
    a = QtPolynomial({(i, i % 2): i + 1 for i in range(20)})
    b = QtPolynomial({(i, 0): Fraction(1, 2) if i % 3 else 2 for i in range(20)})
    _assert_batch_matches_oracle([[(1, a, a), (-1, a, b)], [(1, b, b)]], packs=False)
    # Halves that sum to integers come back as ints.
    assert _sums([[(1, b, a), (1, b, a)]]) == [2 * b * a]
    _assert_batch_matches_oracle([[(1, b, a), (1, b, a)]], packs=False)


def test_multiply_accumulate_sparse_batches_skip_packing():
    a = QtPolynomial({(10**5 * i, i % 2): i + 1 for i in range(12)})
    b = QtPolynomial({(10**5 * i + 1, 0): -(10**30) for i in range(12)})
    _assert_batch_matches_oracle([[(1, a, b), (-1, b, a)], [(1, a, a)]], packs=False)


def test_multiply_accumulate_needs_term_pairs_for_every_target(monkeypatch):
    # Every target costs one unpack, so a batch packs only once its term
    # pairs exceed 128 plus 32 for each target after the first.
    routes = []
    real = ring._mac_packed
    monkeypatch.setattr(ring, "_mac_packed", lambda batch, *args: routes.append(len(batch)) or real(batch, *args))
    a, b = qint(4) * (1 + t), 1 - 2 * q
    few = [[(1, a, b)]] * 64
    many = [[(1, a, b), (-1, b, a), (1, a, b)]] * 64
    assert _sums(few) == [a * b] * 64
    assert routes == []
    assert _sums(many) == [a * b] * 64
    assert routes == [64]
    _assert_batch_matches_oracle(many, packs=True)


@pytest.mark.parametrize("stride", [1, 3])
def test_unpack_reads_to_the_top_nonzero_slot(stride):
    for width in (1, 2, 8, 9, 13):
        top = 2 ** (8 * width - 1) - 1
        for lead in (top, -top, 1, -1):
            terms = {(i, i % stride): (-1) ** i * (top - i) for i in range(20)}
            terms[(20, stride - 1)] = lead
            packed = ring.kronecker_pack(terms, stride, width)
            assert ring.kronecker_unpack(packed, stride, width) == terms
            assert ring.kronecker_unpack(-packed, stride, width) == {k: -c for k, c in terms.items()}
    assert ring.kronecker_unpack(0, stride, 3) == {}


@pytest.mark.parametrize("count", [3, 40])
def test_kronecker_pack_round_trip_at_every_width(count):
    # Slots of at most 8 bytes pack through machine words, few terms or
    # many; wider slots pack term by term.
    for width in range(1, 11):
        bound = 2 ** (8 * width - 1) - 1
        terms = {(i, i % 2): (-1) ** i * (bound - i) for i in range(count)}
        packed = ring.kronecker_pack(terms, 2, width)
        assert packed == sum(c * 2 ** (8 * width * (2 * eq + et)) for (eq, et), c in terms.items())
        assert ring.kronecker_unpack(packed, 2, width) == terms


def test_kronecker_pack_with_t_degrees_above_the_stride():
    # The specialization (q, t) -> (q^s, q) packs t-degrees of s and more;
    # the top slot then need not belong to the largest key.
    for count in (2, 20):
        terms = {(i, 0): i + 1 for i in range(count - 1)}
        terms[(0, 3 * count)] = -7
        for stride in (1, 2):
            packed = ring.kronecker_pack(terms, stride, 2)
            assert packed == sum(c * 2 ** (16 * (stride * eq + et)) for (eq, et), c in terms.items())


def _record_terms(rng, count, width):
    # count terms up to q^6 t^3 with signed coefficients that fill width
    # bytes; the top q-row and the top t-degree are always present.
    top = 2 ** (8 * width - 1) - 1
    if count == 1:
        return {(6, 3): -top}
    terms = {(rng.randint(0, 6), rng.randint(0, 3)): rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(count - 2)}
    terms[(6, rng.randint(0, 3))] = -top
    terms[(rng.randint(0, 6), 3)] = top
    return terms


@pytest.mark.parametrize("count", [1, 3, 30])
def test_moved_record_is_the_packed_terms(count):
    # A record's stats are those of its terms, and moved to any stride above
    # its top t-degree (3) and any width at least its own, shrinking or
    # growing the stride, it is kronecker_pack of its terms there.
    rng = random.Random(count)
    for own_width in range(1, 14):
        terms = _record_terms(rng, count, own_width)
        sizes = [abs(c) for c in terms.values()]
        for own_stride in (4, 6):
            record = ring.packed_record(ring.kronecker_pack(terms, own_stride, own_width), own_stride, own_width, sum(sizes) + 5)
            assert record.stats() == (6, 3, max(sizes), len(terms)) and record.l1 == sum(sizes) + 5
            for stride in range(4, 8):
                for width in range(own_width, 14):
                    assert ring._move(record, stride, width) == ring.kronecker_pack(terms, stride, width)
    assert ring.packed_record(0, 5, 3, 0) == {}


# -- substitution -----------------------------------------------------------


def _value(p, x, y):
    return sum(c * Fraction(x) ** eq * Fraction(y) ** et for (eq, et), c in QtPolynomial.from_scalar(p).terms().items())


@given(polynomials, polynomials, polynomials)
@settings(max_examples=40, deadline=None)
def test_substitute_matches_evaluation_at_integer_points(p, q_image, t_image):
    image = p.substitute(q_image, t_image)
    for x, y in ((0, 0), (1, 2), (-2, 3), (3, -1)):
        assert _value(image, x, y) == _value(p, _value(q_image, x, y), _value(t_image, x, y))


def test_substitute_computes_each_power_once(monkeypatch):
    calls = []
    power = QtPolynomial.__pow__

    def counting_pow(self, exponent):
        calls.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(QtPolynomial, "__pow__", counting_pow)
    p = QtPolynomial({(e, f): e + f + 1 for e in range(4) for f in range(3)})
    p.substitute(1 + t, q * t)
    # Four distinct q-exponents and three distinct t-exponents.
    assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3]
