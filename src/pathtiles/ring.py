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
substitution", J. Symbolic Comput. 2009), batched.  ``multiply_accumulate``
is the kernel's one entry: it takes many targets, each a signed sum of
products a * b of ring elements, term maps or packed records, lays the
batch out by the products it holds, packs each distinct operand into one
big integer once and sums every target's products on ints.  Each packed
sum comes back as a record of its int, layout and stats, read off its
slots; a batch that does not pack (rational, very sparse, or too few term
pairs per target) is summed by the schoolbook dict loop and comes back as
term maps.  ``polynomial`` reads either.  ``QtPolynomial.__mul__`` is its
one-pair case.  The polynomial determinants of ``linalg`` make one batch
per expansion row, and the next batch moves each record to its own layout
by byte copies (``_move``) rather than unpacking and packing it again, so
only the last row is unpacked.  The byte-slot packer ``kronecker_pack``,
``slot_width`` and the single unpacker ``kronecker_unpack``, which reads a
packed value up to its top nonzero slot into a term map, are public
because whole formulas are evaluated the same way: ``partitions`` builds
its path matrices as packed ints in this layout, with ``kronecker_pack``
as their reference, and hands them on as records (``packed_record``) or
reads them with ``QtPolynomial.from_packed``.  Everything is immutable
after construction, so values can be shared freely.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
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

    @classmethod
    def from_packed(cls, value: int, stride: int, width: int) -> "QtPolynomial":
        """The polynomial of a packed value; kronecker_unpack's maps are clean."""
        return _raw(kronecker_unpack(value, stride, width))

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
        # The one-pair case of multiply_accumulate's packing rule, checked
        # here so that small products build no batch: that would cost them
        # about 16% (20k small products, CPython 3.11, x86-64).
        pair = (1, self._terms, other._terms)
        if len(self._terms) * len(other._terms) <= _PACK_MIN_PAIRS:
            return _raw(_mac_dict((pair,)))
        return polynomial(multiply_accumulate([[pair]])[0])

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


def multiply_accumulate(targets) -> list:
    """Many sums of products at once: for each target, a list of
    (sign, a, b) with sign +1 or -1 and a, b ring elements, term maps or
    packed records, the sum of sign * a * b.  A batch that packs
    (``_mac_packed``) gives one record per target, any other batch one
    schoolbook term map per target; ``polynomial`` reads both."""
    pick = lambda x: x if type(x) in (_Packed, dict) else _coerce(x)._terms
    batch = [[(sign, pick(a), pick(b)) for sign, a, b in target] for target in targets]
    term_pairs = sum(len(a) * len(b) for target in batch for _, a, b in target)
    if term_pairs > _PACK_MIN_PAIRS + _PACK_PAIRS_PER_TARGET * (len(batch) - 1):
        packed = _mac_packed(batch, term_pairs)
        if packed is not None:
            return packed
    terms = lambda x: kronecker_unpack(x.value, x.stride, x.width) if type(x) is _Packed else x
    return [_mac_dict([(sign, terms(a), terms(b)) for sign, a, b in target]) for target in batch]


def polynomial(value):
    """A packed record or term map as a QtPolynomial; other scalars as they are."""
    if type(value) is _Packed:
        return _raw(kronecker_unpack(value.value, value.stride, value.width))
    return _raw(value) if type(value) is dict else value


class _Packed:
    """A nonzero int polynomial packed at (stride, width), with a bound l1 on
    its L1 norm.  ``stats`` reads its top q-row, exact top t-degree, largest
    |coefficient| and term count off its slots once, when first needed."""

    __slots__ = ("value", "stride", "width", "l1", "_stats")

    def __len__(self) -> int:
        return self.stats()[3]

    def stats(self) -> tuple[int, int, int, int]:
        if self._stats is None:
            slots, stride = _biased_slots(self.value, self.width), self.stride
            half, count, top_t = 1 << (8 * self.width - 1), len(slots), stride - 1
            while slots[top_t::stride].count(half) == len(range(top_t, count, stride)):
                top_t -= 1  # the last column mod stride holding a nonzero slot
            big = max(max(slots) - half, half - min(slots))
            self._stats = ((count - 1) // stride, top_t, big, count - slots.count(half))
        return self._stats


def packed_record(value: int, stride: int, width: int, l1: int):
    """The record of a packed value with L1 norm at most l1, or {} for 0."""
    if not value:
        return {}
    x = _Packed()
    x.value, x.stride, x.width, x.l1, x._stats = value, stride, width, l1, None
    return x


def _move(x: _Packed, stride: int, width: int) -> int:
    """A record's value at a stride above its top t-degree and a width of
    at least its own: its biased slots, widened by strided copies, are
    copied q-row by q-row into a pattern of biased zeros at the new stride,
    and the pattern is subtracted.  No per-term work."""
    if (stride, width) == (x.stride, x.width):
        return x.value
    top_q, top_t = x.stats()[:2]
    w0, n, slots = x.width, top_t + 1, top_q * x.stride + top_t + 1
    wide = _reslot((x.value + _bias(slots, w0)).to_bytes(slots * w0, "little"), w0, width)
    empty = (b"\0" * (w0 - 1) + b"\x80").ljust(width, b"\0")
    out = bytearray(empty * (top_q * stride + n))
    row, old, new = n * width, x.stride * width, stride * width
    for r in range(top_q + 1):
        out[r * new : r * new + row] = wide[r * old : r * old + row]
    return int.from_bytes(out, "little") - int.from_bytes(empty * (len(out) // width), "little")


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


def _mac_packed(batch: list, term_pairs: int) -> list | None:
    """Kronecker substitution for a whole batch of int term maps and
    records, laid out by the products it holds, with one record per target.

    Term (e_q, e_t) goes to slot e_q * stride + e_t with stride = the
    largest deg_t(a) + deg_t(b) of a live pair, plus 1, so no product
    exponent carries across slots.  A coefficient of a * b is at most
    min(max|a| * L1(b), L1(a) * max|b|), so the slot holds the largest
    per-target sum of that bound plus a sign bit, and no fewer bytes than a
    record operand, which is moved (``_move``).  Each sum's record has L1
    bound the sum of L1(a) * L1(b) over its pairs.

    Returns None for a rational batch, and when the targets together have
    more slots than term pairs: unpacking visits every slot, so the dict
    loop does less work on such sparse input.
    """
    # id -> (deg_q, deg_t, max |coefficient|, L1 norm) of each live operand.
    stats: dict[int, tuple[int, int, int, int]] = {}
    operands: dict[int, dict | _Packed] = {}
    top_q = top_t = bound = 0
    norms = []  # each target's bound on its L1 norm
    for target in batch:
        total = l1 = 0
        for _, a, b in target:
            if not (a and b):
                continue
            for x in (a, b):
                if type(x) is _Packed:
                    stats[id(x)] = (*x.stats()[:3], x.l1)
                elif id(x) not in stats:
                    values = x.values()
                    if set(map(type, values)) != {int}:
                        return None
                    sizes = list(map(abs, values))
                    stats[id(x)] = (max(x)[0], max(map(itemgetter(1), x)), max(sizes), sum(sizes))
                operands[id(x)] = x
            aq, at, a_big, a_l1 = stats[id(a)]
            bq, bt, b_big, b_l1 = stats[id(b)]
            top_q, top_t = max(top_q, aq + bq), max(top_t, at + bt)
            total += min(a_big * b_l1, a_l1 * b_big)
            l1 += a_l1 * b_l1
        bound = max(bound, total)
        norms.append(l1)
    stride = top_t + 1
    if (top_q + 1) * stride * len(batch) > term_pairs:
        return None
    width = max([slot_width(bound)] + [x.width for x in operands.values() if type(x) is _Packed])
    move = lambda x: _move(x, stride, width) if type(x) is _Packed else kronecker_pack(x, stride, width)
    packed = {key: move(x) for key, x in operands.items()}
    out = []
    for target, l1 in zip(batch, norms):
        acc = 0
        for sign, a, b in target:
            if a and b:
                product = packed[id(a)] * packed[id(b)]
                acc = acc + product if sign > 0 else acc - product
        out.append(packed_record(acc, stride, width, l1))
    return out


def slot_width(bound: int) -> int:
    """Bytes per slot for signed coefficients of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


def kronecker_pack(terms: dict, stride: int, width: int) -> int:
    """The terms evaluated at q = X^stride, t = X with X = 2^(8 * width).

    Term (e_q, e_t) lands in slot e_q * stride + e_t; no two terms may share
    a slot, and every |c| must be below 2^(8 * width - 1).  An empty term
    map packs to 0.  Every slot is written biased by 2^(8 * width - 1),
    which makes it nonnegative, and the bias is subtracted once at the end.
    Slots of at most 8 bytes are written as machine words and narrowed to
    width bytes by strided copies, with no per-term int conversion; wider
    slots are written term by term.
    """
    at = [eq * stride + et for eq, et in terms]
    slots = max(at, default=-1) + 1
    half, bias = 1 << (8 * width - 1), _bias(slots, width)
    if width <= 8:
        words = array("Q", (half,)) * slots
        for i, c in zip(at, terms.values()):
            words[i] = c + half
        if not _LITTLE_ENDIAN:
            words.byteswap()
        data = _reslot(words.tobytes(), 8, width)
    else:
        data = bytearray(bias.to_bytes(slots * width, "little"))
        for i, c in zip(at, terms.values()):
            data[i * width : (i + 1) * width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(data, "little") - bias


def _reslot(data, old: int, new: int) -> bytearray:
    """Little-endian slots of old bytes copied into slots of new bytes by
    strided slices: each keeps its low min(old, new) bytes, zero above."""
    out = bytearray(len(data) // old * new)
    for j in range(min(old, new)):
        out[j::new] = data[j::old]
    return out


def _bias(slots: int, width: int) -> int:
    """2^(8 * width - 1) in each of slots 0 .. slots - 1."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * slots, "little")


def kronecker_unpack(value: int, stride: int, width: int) -> dict:
    """Term map of a packed value, inverse to kronecker_pack at the same
    stride and width: slot i holds term divmod(i, stride)."""
    half = 1 << (8 * width - 1)
    return {divmod(i, stride): v - half for i, v in enumerate(_biased_slots(value, width)) if v != half}


def _biased_slots(value: int, width: int) -> list[int]:
    """The slots of a packed value up to its top nonzero one (slot 0 for 0),
    each plus 2^(8 * width - 1).

    Slots below the top nonzero one hold less than X / 2 together, where
    X = 2^(8 * width), so a value whose top nonzero slot is s has
    X^s / 2 < |value| < X^(s+1) / 2, and its bit length fixes s.  Adding
    2^(8 * width - 1) to every slot makes all slots nonnegative, so the bytes
    of the biased value are the slots themselves.  Slots of at most 8 bytes
    are widened to machine words by strided copies and read in one call.
    """
    slots = abs(value).bit_length() // (8 * width) + 1
    data = (value + _bias(slots, width)).to_bytes(slots * width, "little")
    if width > 8:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    words = array("Q", _reslot(data, width, 8))
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
# A term is never empty, so "+", "q +" and "2 + + q" do not parse.
_MONOMIAL_RE = re.compile(r"^(?!$)(?:(?P<coeff>\d+(?:/\d+)?)\*?)?(?P<vars>(?:[qt](?:\^\d+)?(?:\*)?)*)$")


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
    # The "*" between factors is optional, so "qq" is q^2 and "qt" is q*t.
    for name, exp in re.findall(r"([qt])(?:\^(\d+))?", m.group("vars")):
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
