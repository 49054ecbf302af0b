"""Exact scalar arithmetic: rationals and sparse polynomials in q and t.

Rationals are plain ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Polynomials are stored sparsely as a map from exponent pairs
``(e_q, e_t)`` to nonzero rational coefficients; exponents must be
nonnegative.  A coefficient is stored as an ``int`` when it is integral and
as a ``Fraction`` only when it is not, so ``terms()`` returns a dict
``{(e_q, e_t): int | Fraction}`` and integer polynomials never touch
``Fraction`` arithmetic.  Since ``hash(Fraction(n)) == hash(n)`` and the two
compare equal, the choice is invisible to ``==``, ``hash`` and ``str``.

Products of two integer polynomials with many term pairs use Kronecker
substitution (D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 2009): both operands are packed
into one big integer each, multiplied once, and unpacked.  Rational, small
and very sparse products use the schoolbook dict loop.  The byte-slot packer
and unpacker (``kronecker_pack``, ``kronecker_unpack``, ``slot_width``) are
public because whole formulas are evaluated the same way: the volume GFs of
``partitions`` pack every matrix entry once and unpack only the result.
Everything is immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

# Term pairs (|a| * |b|) above which an all-int product is packed.  Measured
# on CPython 3.11, x86-64: the dict loop and the packed multiply break even
# near 12x12 dense terms; packing is 1.2-1.7x faster at 16x16 and about 3x
# faster at 32x32.  CHANGES.md has the table.
_PACK_MIN_PAIRS = 128

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

    @property
    def is_zero(self) -> bool:
        return not self._terms

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
        a, b = self._terms, other._terms
        if len(a) * len(b) > _PACK_MIN_PAIRS and _all_int(a) and _all_int(b):
            packed = _mul_packed(a, b)
            if packed is not None:
                return _raw(packed)
        out: dict[tuple[int, int], int | Fraction] = {}
        for (aq, at), ac in a.items():
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
        return _raw(out)

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
        """Simultaneously substitute for q and t and expand exactly."""
        qi = QtPolynomial.from_scalar(q_image)
        ti = QtPolynomial.from_scalar(t_image)
        total = QtPolynomial()
        for (eq, et), coeff in sorted(self._terms.items()):
            total = total + coeff * (qi ** eq) * (ti ** et)
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


def _all_int(terms: dict) -> bool:
    return all(type(c) is int for c in terms.values())


def _mul_packed(a: dict, b: dict) -> dict | None:
    """Product of two int term maps by Kronecker substitution.

    Term (e_q, e_t) goes to slot e_q * stride + e_t with stride =
    deg_t(a) + deg_t(b) + 1, so product exponents never carry across slots.
    Every slot is wide enough for any product coefficient plus a sign bit:
    |c| <= max|a| * max|b| * min(|a|, |b|).

    Returns None when the product has more slots than term pairs: unpacking
    visits every slot, so the dict loop does less work on such sparse input.
    """
    stride = max(et for _, et in a) + max(et for _, et in b) + 1
    slots = (max(eq for eq, _ in a) + max(eq for eq, _ in b) + 1) * stride
    if slots > len(a) * len(b):
        return None
    width = slot_width(max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)))
    product = kronecker_pack(a, stride, width) * kronecker_pack(b, stride, width)
    coeffs = kronecker_unpack(product, slots, width)
    return {divmod(i, stride): c for i, c in enumerate(coeffs) if c}


def slot_width(bound: int) -> int:
    """Bytes per slot for signed coefficients of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


def kronecker_pack(terms: dict, stride: int, width: int) -> int:
    """The terms evaluated at q = X^stride, t = X with X = 2^(8 * width).

    Term (e_q, e_t) lands in slot e_q * stride + e_t; no two terms may share
    a slot, and every |c| must be below 2^(8 * width - 1).  An empty term
    map packs to 0.
    """
    size = (max((eq * stride + et for eq, et in terms), default=-1) + 1) * width
    pos, neg = bytearray(size), bytearray(size)
    for (eq, et), c in terms.items():
        i = (eq * stride + et) * width
        if c > 0:
            pos[i : i + width] = c.to_bytes(width, "little")
        else:
            neg[i : i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def kronecker_unpack(value: int, slots: int, width: int) -> list[int]:
    """Coefficients of slots 0 .. slots - 1 of a packed value, inverse to
    kronecker_pack for any polynomial of degree < slots whose coefficients
    fit the slot width.

    Adding 2^(8 * width - 1) to every slot makes all slots nonnegative, so
    the bytes of the biased value are the slots themselves.
    """
    size = slots * width
    bias = int.from_bytes((b"\0" * (width - 1) + b"\x80") * slots, "little")
    data = (value + bias).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, size, width)]


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

    Computed division-free through the recurrence
    C(n, k) = C(n-1, k-1) + q^k * C(n-1, k).
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    key = (n, k)
    cached = _QBINOMIAL_CACHE.get(key)
    if cached is None:
        cached = qbinomial(n - 1, k - 1) + QtPolynomial({(k, 0): 1}) * qbinomial(n - 1, k)
        _QBINOMIAL_CACHE[key] = cached
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
    coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
    eq = et = 0
    for factor in filter(None, m.group("vars").split("*")):
        name, _, exp = factor.partition("^")
        power = int(exp) if exp else 1
        if name == "q":
            eq += power
        else:
            et += power
    return coeff, eq, et


def parse_scalar(text: str):
    """Parse a canonical scalar string: a rational or a polynomial in q, t."""
    s = text.strip()
    if _RATIONAL_RE.match(s):
        value = Fraction(s)
        return int(value) if value.denominator == 1 else value
    return parse_polynomial(s)


def scalar_str(value) -> str:
    """Canonical text form of any ring element."""
    if isinstance(value, QtPolynomial):
        return str(value)
    return str(Fraction(value)) if not isinstance(value, int) else str(value)
