"""Exact scalar arithmetic: rationals and sparse polynomials in q and t.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Polynomials are stored sparsely as a map from exponent pairs
``(e_q, e_t)`` to nonzero rational coefficients; exponents must be
nonnegative.  A coefficient is stored as an ``int`` when it is integral and
as a ``Fraction`` only when it is not, so ``terms()`` returns a dict
``{(e_q, e_t): int | Fraction}`` and integer polynomials never touch
``Fraction`` arithmetic.  Since ``hash(Fraction(n)) == hash(n)`` and the two
compare equal, the choice is invisible to ``==``, ``hash`` and ``str``.

Integer products with many term pairs use Kronecker substitution
(D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 2009), batched: ``multiply_accumulate``
takes many targets, each a signed sum of products a * b, picks one slot
layout for the whole batch from its operands, packs each distinct operand
into one big integer once, sums every target's products on ints and unpacks
each target once.  ``QtPolynomial.__mul__`` is its one-pair case, and the
polynomial determinants of ``linalg`` make one call per batch.  Rational
and very sparse batches, and batches with too few term pairs per target,
use the schoolbook dict loop.  The byte-slot packer and unpacker
(``kronecker_pack``, ``kronecker_unpack``, ``slot_width``) are public
because whole formulas are evaluated the same way: the volume GFs of
``partitions`` pack every matrix entry once and unpack only the result.
Everything is immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from itertools import chain
from operator import itemgetter

# Term pairs (sum of |a| * |b|) above which an all-int product is packed.
# Measured on CPython 3.11, x86-64: the dict loop and the packed multiply
# break even near 12x12 dense terms; packing is 1.2-1.7x faster at 16x16 and
# about 3x faster at 32x32.  CHANGES.md has the table.
_PACK_MIN_PAIRS = 128

# Term pairs a batch needs for each target after the first: packing pays a
# fixed cost per target (its unpack) that the dict loop does not.  Measured
# the same way on batches of 1-64 targets of dense int products, the routes
# break even near 128 + 32 * (targets - 1) term pairs; CHANGES.md has the
# table.
_PACK_PAIRS_PER_TARGET = 32

_LITTLE_ENDIAN = sys.byteorder == "little"

# Term count from which kronecker_pack writes machine words rather than
# converting each coefficient to bytes.  Measured on CPython 3.11, x86-64,
# at slot widths 2-6 bytes: the two break even between 6 and 12 terms, and
# words are about 2x faster at 48 terms.  The volume GFs pack hundreds of
# entries of 0-12 terms per call, and packing all of them as words made
# their benchmark ops slower; CHANGES.md has the runs.
_WORD_PACK_MIN_TERMS = 12

# Scalar = int | Fraction | QtPolynomial; kept loose on purpose so plain
# Python ints flow through matrix/graph code unchanged.


class QtPolynomial:
    """A polynomial in q and t with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (eq, et), coeff in dict(terms).items():
                if eq < 0 or et < 0:
                    raise ValueError(f"negative exponent in term q^{eq}*t^{et}")
                c = _coefficient(coeff)
                if c:
                    clean[(int(eq), int(et))] = c
        self._terms = clean

    @classmethod
    def from_scalar(cls, value) -> "QtPolynomial":
        if isinstance(value, QtPolynomial):
            return value
        return cls({(0, 0): value})

    def terms(self) -> dict[tuple[int, int], int | Fraction]:
        """A copy of the term map; integral coefficients are ints."""
        return dict(self._terms)

    def constant_value(self):
        """The value as an int or Fraction, if the polynomial is constant."""
        if not self._terms:
            return 0
        if set(self._terms) == {(0, 0)}:
            return self._terms[(0, 0)]
        raise ValueError(f"not a constant polynomial: {self}")

    def coefficient(self, eq: int, et: int) -> int | Fraction:
        return self._terms.get((eq, et), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                out.pop(key, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pair = (1, self._terms, other._terms)
        if len(self._terms) * len(other._terms) <= _PACK_MIN_PAIRS:
            return _raw(_mac_dict((pair,)))
        return _raw(_multiply_accumulate([[pair]])[0])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _raw({(0, 0): 1})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant compares equal to its scalar, so it must hash like it.
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            return hash(self._terms[(0, 0)])
        return hash(frozenset(self._terms.items()))

    def substitute(self, q_image, t_image) -> "QtPolynomial":
        """Simultaneously substitute for q and t and expand exactly.

        Each power of an image that some term needs is computed once.
        """
        qi = QtPolynomial.from_scalar(q_image)
        ti = QtPolynomial.from_scalar(t_image)
        q_pow = {e: qi**e for e in {eq for eq, _ in self._terms}}
        t_pow = {e: ti**e for e in {et for _, et in self._terms}}
        total = QtPolynomial()
        for (eq, et), coeff in sorted(self._terms.items()):
            total = total + coeff * q_pow[eq] * t_pow[et]
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (eq, et), coeff in sorted(self._terms.items()):
            if not pieces:
                pieces.append(_format_monomial(coeff, eq, et))
            else:
                pieces.append(" + " if coeff > 0 else " - ")
                pieces.append(_format_monomial(abs(coeff), eq, et))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"QtPolynomial({self})"


def _raw(terms: dict) -> QtPolynomial:
    p = QtPolynomial()
    p._terms = terms
    return p


def _coerce(value):
    if isinstance(value, QtPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return QtPolynomial.from_scalar(value)
    return NotImplemented


def _coefficient(value) -> int | Fraction:
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def multiply_accumulate(targets) -> list[QtPolynomial]:
    """Many sums of products at once: for each target, a list of
    (sign, a, b) with sign +1 or -1 and ring elements a, b, the polynomial
    sum of sign * a * b.

    Integer batches with enough term pairs per target go through one
    Kronecker layout chosen from all the operands of the batch: each
    distinct operand is packed once, every target is summed on ints and
    unpacked once.
    """
    batch = [[(sign, _coerce(a)._terms, _coerce(b)._terms) for sign, a, b in target] for target in targets]
    return [_raw(terms) for terms in _multiply_accumulate(batch)]


def _multiply_accumulate(batch: list) -> list[dict]:
    """multiply_accumulate on term maps; returns one term map per target."""
    term_pairs = sum(len(a) * len(b) for target in batch for _, a, b in target)
    if term_pairs > _PACK_MIN_PAIRS + _PACK_PAIRS_PER_TARGET * (len(batch) - 1):
        packed = _mac_packed(batch, term_pairs)
        if packed is not None:
            return packed
    return [_mac_dict(target) for target in batch]


def _mac_dict(target: list) -> dict:
    """The schoolbook sum of one target's signed products."""
    out: dict[tuple[int, int], int | Fraction] = {}
    for sign, a, b in target:
        for (aq, at), ac in a.items():
            if sign < 0:
                ac = -ac
            for (bq, bt), bc in b.items():
                key = (aq + bq, at + bt)
                s = out.get(key, 0) + ac * bc
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    # Rational products and sums can come out integral.
    for key, c in out.items():
        if type(c) is not int and c.denominator == 1:
            out[key] = c.numerator
    return out


def _extent(operands) -> tuple[int, int, int, int]:
    """(max deg_q, max deg_t, max |coefficient|, max term count) of nonempty
    term maps."""
    values = list(chain.from_iterable(map(dict.values, operands)))
    return (
        max(map(max, operands))[0],
        max(map(itemgetter(1), chain.from_iterable(operands))),
        max(max(values), -min(values)),
        max(map(len, operands)),
    )


def _mac_packed(batch: list, term_pairs: int) -> list[dict] | None:
    """Kronecker substitution for a whole batch of int term maps.

    Term (e_q, e_t) goes to slot e_q * stride + e_t with stride =
    max deg_t(a) + max deg_t(b) + 1 over the left and right operands, so no
    product exponent carries across slots.  Every product coefficient is at
    most max|a| * max|b| * min(max |a|, max |b| term counts), and a target
    adds up to `most` products, so the slot holds that times `most` plus a
    sign bit.

    Returns None for a rational batch, and when the targets together have
    more slots than term pairs: unpacking visits every slot, so the dict
    loop does less work on such sparse input.
    """
    lefts: dict[int, dict] = {}
    rights: dict[int, dict] = {}
    most = 0
    for target in batch:
        live = 0
        for _, a, b in target:
            if a and b:
                lefts[id(a)] = a
                rights[id(b)] = b
                live += 1
        most = max(most, live)
    operands = lefts | rights
    if not set(map(type, chain.from_iterable(map(dict.values, operands.values())))) <= {int}:
        return None
    aq, at, a_big, a_len = _extent(lefts.values())
    bq, bt, b_big, b_len = _extent(rights.values())
    stride = at + bt + 1
    if (aq + bq + 1) * stride * len(batch) > term_pairs:
        return None
    width = slot_width(a_big * b_big * min(a_len, b_len) * most)
    packed = {key: kronecker_pack(terms, stride, width) for key, terms in operands.items()}
    out = []
    for target in batch:
        acc = 0
        for sign, a, b in target:
            if a and b:
                product = packed[id(a)] * packed[id(b)]
                acc = acc + product if sign > 0 else acc - product
        out.append(_unpack_terms(acc, stride, width))
    return out


def _unpack_terms(value: int, stride: int, width: int) -> dict:
    """Term map of a packed value, reading only up to its top nonzero slot.

    Slots below the top one hold less than X / 2 together, where
    X = 2^(8 * width), so a value whose top nonzero slot is s has
    X^s / 2 < |value| < X^(s+1) / 2, and its bit length fixes s.
    """
    if not value:
        return {}
    slots = abs(value).bit_length() // (8 * width) + 1
    half = 1 << (8 * width - 1)
    return {divmod(i, stride): v - half for i, v in enumerate(_biased_slots(value, slots, width)) if v != half}


def slot_width(bound: int) -> int:
    """Bytes per slot for signed coefficients of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


def kronecker_pack(terms: dict, stride: int, width: int) -> int:
    """The terms evaluated at q = X^stride, t = X with X = 2^(8 * width).

    Term (e_q, e_t) lands in slot e_q * stride + e_t; no two terms may share
    a slot, and every |c| must be below 2^(8 * width - 1).  An empty term
    map packs to 0.  Many terms in slots of at most 8 bytes are written as
    machine words biased by 2^(8 * width - 1), which makes every slot
    nonnegative, and narrowed to width bytes by strided copies: no per-term
    int conversion, but a fixed cost that a few terms do not repay.
    """
    at = [eq * stride + et for eq, et in terms]
    slots = max(at, default=-1) + 1
    if width <= 8 and len(terms) >= _WORD_PACK_MIN_TERMS:
        half = 1 << (8 * width - 1)
        words = array("Q", (half,)) * slots
        for i, c in zip(at, terms.values()):
            words[i] = c + half
        if not _LITTLE_ENDIAN:
            words.byteswap()
        raw = words.tobytes()
        data = bytearray(slots * width)
        for j in range(width):
            data[j::width] = raw[j::8]
        return int.from_bytes(data, "little") - _bias(slots, width)
    pos, neg = bytearray(slots * width), bytearray(slots * width)
    for i, c in zip(at, terms.values()):
        i *= width
        if c > 0:
            pos[i : i + width] = c.to_bytes(width, "little")
        else:
            neg[i : i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _bias(slots: int, width: int) -> int:
    """2^(8 * width - 1) in each of slots 0 .. slots - 1."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * slots, "little")


def kronecker_unpack(value: int, slots: int, width: int) -> list[int]:
    """Coefficients of slots 0 .. slots - 1 of a packed value, inverse to
    kronecker_pack for any polynomial of degree < slots whose coefficients
    fit the slot width."""
    half = 1 << (8 * width - 1)
    return [v - half for v in _biased_slots(value, slots, width)]


def _biased_slots(value: int, slots: int, width: int) -> list[int]:
    """Slots 0 .. slots - 1 of value, each plus 2^(8 * width - 1).

    Adding that bias to every slot makes all slots nonnegative, so the bytes
    of the biased value are the slots themselves.  Slots of at most 8 bytes
    are widened to machine words by strided copies and read in one call.
    """
    size = slots * width
    data = (value + _bias(slots, width)).to_bytes(size, "little")
    if width > 8:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]
    raw = bytearray(8 * slots)
    for j in range(width):
        raw[j::8] = data[j::width]
    words = array("Q", raw)
    if not _LITTLE_ENDIAN:
        words.byteswap()
    return words.tolist()


def _format_monomial(coeff: Fraction, eq: int, et: int) -> str:
    vars_part = []
    if eq:
        vars_part.append("q" if eq == 1 else f"q^{eq}")
    if et:
        vars_part.append("t" if et == 1 else f"t^{et}")
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return "*".join(vars_part)
    if coeff == -1:
        return "-" + "*".join(vars_part)
    return str(coeff) + "*" + "*".join(vars_part)


ZERO = QtPolynomial()
ONE = QtPolynomial({(0, 0): 1})
q = QtPolynomial({(1, 0): 1})
t = QtPolynomial({(0, 1): 1})


def qint(n: int) -> QtPolynomial:
    """q-analogue of n: 1 + q + ... + q^(n-1), with qint(0) = 0."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    return QtPolynomial({(i, 0): 1 for i in range(n)})


_QBINOMIAL_CACHE: dict[tuple[int, int], QtPolynomial] = {}


def qbinomial(n: int, k: int) -> QtPolynomial:
    """Gaussian binomial coefficient; 0 unless 0 <= k <= n.

    Computed division-free and bottom-up on integer coefficient lists by
    the recurrence C(n, k) = C(n-1, k-1) + q^k * C(n-1, k).  The band
    B[j][i] = C(j + i, j) is symmetric in j and i, so it is filled along
    the longer side i with one row over the shorter side j: in step i,
    row[j] += q^i * row[j-1] turns C(j + i - 1, j) into C(j + i, j).
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    key = (n, k)
    cached = _QBINOMIAL_CACHE.get(key)
    if cached is None:
        short = min(k, n - k)
        row = [[1] for _ in range(short + 1)]
        for i in range(1, n - short + 1):
            for j in range(1, short + 1):
                target, lower = row[j], row[j - 1]
                target.extend([0] * (len(lower) + i - len(target)))
                for e, c in enumerate(lower, start=i):
                    target[e] += c
        cached = _QBINOMIAL_CACHE[key] = QtPolynomial({(e, 0): c for e, c in enumerate(row[short])})
    return cached


def substitute(p: QtPolynomial, q_image, t_image) -> QtPolynomial:
    return QtPolynomial.from_scalar(p).substitute(q_image, t_image)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_MONOMIAL_RE = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<vars>(?:[qt](?:\^\d+)?(?:\*)?)*)$")


def parse_polynomial(text: str) -> QtPolynomial:
    """Parse the canonical text form; inverse of str()."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ZERO
    # Split into signed terms at top level (no parentheses in this form).
    chunks = re.split(r"\s*([+-])\s*", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    total: dict[tuple[int, int], Fraction] = {}
    for sign, term in zip(chunks[0::2], chunks[1::2]):
        coeff, eq, et = _parse_term(term)
        if sign == "-":
            coeff = -coeff
        total[(eq, et)] = total.get((eq, et), 0) + coeff
    return QtPolynomial(total)


def _parse_term(term: str) -> tuple[Fraction, int, int]:
    m = _MONOMIAL_RE.match(term.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse polynomial term: {term!r}")
    coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
    eq = et = 0
    for factor in filter(None, m.group("vars").split("*")):
        name, _, exp = factor.partition("^")
        power = int(exp) if exp else 1
        if name == "q":
            eq += power
        else:
            et += power
    return coeff, eq, et


def parse_rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str):
    """Parse a canonical scalar string: a rational or a polynomial in q, t."""
    s = text.strip()
    if _RATIONAL_RE.match(s):
        value = parse_rational(s)
        return int(value) if value.denominator == 1 else value
    return parse_polynomial(s)


def scalar_str(value) -> str:
    """Canonical text form of any ring element."""
    if isinstance(value, QtPolynomial):
        return str(value)
    return str(Fraction(value)) if not isinstance(value, int) else str(value)
