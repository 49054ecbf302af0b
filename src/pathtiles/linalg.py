"""Ring-generic exact linear algebra.

Dense matrices over any commutative ring of int / Fraction / QtPolynomial
entries, with exact determinants, Pfaffians of skew-symmetric matrices, and
sums of maximum minors of rectangular matrices.  Determinants dispatch on the
entry types: fraction-free Bareiss elimination for numeric entries, and
``division_free_determinant`` for polynomial ones, because polynomial rings
have no cheap exact division.

Bareiss elimination (E. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968) runs on ints:
each row is first multiplied by the lcm of its denominators, the
elimination divides exactly by the previous pivot, and the result is divided
by the product of the row scales.  A numeric determinant is therefore an int
when it is integral and a Fraction only when it is not.

``division_free_determinant`` is a Laplace expansion over column subsets:
O(2^n * n) ring products and no division, so it is exponential in the order
and capped at order 20.  Each row of the expansion is one batch of signed
sums of products; only how a batch is summed depends on the entry ring.
Polynomial rows make one ``ring.multiply_accumulate`` call, which packs each
minor and entry once and unpacks each new minor once.  Callers that evaluate
a polynomial determinant at a Kronecker point (ring.kronecker_pack) call it
directly on the packed ints: their entries run to thousands of bits, and
CPython's exact ``//`` on such ints is quadratic in their length, so at the
orders used (up to about 8) Bareiss' n^3 divisions cost more than the DP's
products.  The same expansion serves ``permanent`` (unsigned) and
``sum_max_minors`` of wide matrices with few rows: run over the m rows of
an m x n matrix, its last row holds every maximal minor once, so one pass
replaces C(n, m) separate determinants.  Its rows hold C(n, r) subsets, so
for m close to n ``sum_max_minors`` keeps one determinant per minor.

``pfaffian`` is ``pfaffian_by_expansion`` at every order: expansion along
the first row, evaluated bottom-up over the index subsets it reaches.  For
order n those are the s-subsets of the top (n + s) / 2 indices, even s,
F(n + 1) subsets in all, so the cost grows like phi^n, not 2^n, and nothing
in this module recurses.  ``pfaffian_by_matchings``, the crossing-signed
sum over perfect matchings (``one_factors``, ``crossing_number``), shares
no code with it and is kept only as its oracle.

``upper_twos_gram`` forms Z U Z^T, the matrix of the squared minor-sum
identity, by running sums and dot products without forming U; polynomial
entries make one kernel call for all of it.  The Okada-Stembridge Pfaffian
Pf[Z E Z^T] of ``sum_max_minors_pfaffian`` is read off the same Gram matrix:
E = skew_ones(n) = U - J with J the all-ones matrix, so
Z E Z^T = Z U Z^T - s s^T, where s holds the row sums of Z.  An odd row
count borders that matrix by s, which is Z E Z^T for Z with a unit corner
added.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .ring import multiply_accumulate, parse_scalar, scalar_str


class ExactMatrix:
    """Dense row-major matrix of exact ring elements."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int):
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        entries, cols = self._entries, self.cols
        return ExactMatrix(cols, self.rows, [x for j in range(cols) for x in entries[j::cols]])

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return ExactMatrix(
            len(row_idx),
            len(col_idx),
            [self.entry(i, j) for i in row_idx for j in col_idx],
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        # Each entry is sum() of a row slice times a column slice: the
        # same products and additions, in the same order, as a loop.
        columns = [other._entries[j :: other.cols] for j in range(other.cols)]
        out = [sum(map(operator.mul, self.row(i), col)) for i in range(self.rows) for col in columns]
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self._entries, other._entries))

    def __repr__(self):
        body = "; ".join(" ".join(scalar_str(x) for x in self.row(i)) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def to_lists(self) -> list[list[str]]:
        """JSON form: array of arrays of canonical scalar strings."""
        return [[scalar_str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_lists(cls, data) -> "ExactMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix must be an array of rows")
        for i, row in enumerate(data):
            for j, s in enumerate(row):
                if not isinstance(s, str):
                    raise ValueError(f"matrix entry ({i},{j}) is {s!r}; entries must be scalar strings")
        return cls.from_rows([[parse_scalar(s) for s in row] for row in data])


def _is_numeric(entries) -> bool:
    return all(isinstance(e, (int, Fraction)) for e in entries)


def determinant(matrix: ExactMatrix):
    """Exact determinant over the commutative ring of the entries."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of non-square {matrix.rows}x{matrix.cols} matrix")
    if matrix.rows == 0:
        return 1
    if _is_numeric(matrix._entries):
        return _det_bareiss(matrix)
    return division_free_determinant(matrix)


def _det_bareiss(matrix: ExactMatrix):
    n = matrix.rows
    a = []
    scale = 1
    for i in range(n):
        row = matrix.row(i)
        d = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
        prev = pivot
    det = sign * a[n - 1][n - 1]
    return det // scale if det % scale == 0 else Fraction(det, scale)


def division_free_determinant(matrix: ExactMatrix):
    """Determinant by Laplace expansion over column subsets: O(2^n * n)
    ring products, no division, order <= 20."""
    return _square_subset_dp(matrix, "determinant", signed=True)


def permanent(matrix: ExactMatrix):
    """Permanent of a square matrix by the same column-subset expansion,
    unsigned; order <= 20."""
    return _square_subset_dp(matrix, "permanent", signed=False)


def _square_subset_dp(matrix: ExactMatrix, name: str, signed: bool):
    n = matrix.rows
    if matrix.cols != n:
        raise ValueError(f"{name} of non-square {n}x{matrix.cols} matrix")
    if n > 20:
        raise ValueError(f"{name} limited to order <= 20")
    return _column_subset_dp(matrix, signed)[(1 << n) - 1]


def _column_subset_dp(matrix: ExactMatrix, signed: bool) -> dict:
    """Row r maps each r-subset of columns to the expansion of the first r
    rows on it; one DP row is one batch of sums of products.  Returns the
    last row: each rows-subset of columns, as a bitmask, with the minor (or,
    unsigned, the permanent) on those columns in sorted order."""
    n = matrix.cols
    sums = _sums_of_products(matrix._entries)
    state = {0: 1}
    for r in range(matrix.rows):
        row = matrix.row(r)
        targets: dict[int, list] = {}
        for mask, value in state.items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                # The sign of j's position within the enlarged, sorted subset.
                odd = signed and (r + (mask & ((1 << j) - 1)).bit_count()) % 2
                targets.setdefault(mask | 1 << j, []).append((-1 if odd else 1, value, row[j]))
        state = dict(zip(targets, sums(targets.values())))
    return state


def _sums_of_products(entries):
    """The batch summer for a ring: ring.multiply_accumulate when any entry
    is a polynomial, plain int / Fraction arithmetic otherwise."""
    return _numeric_sums if _is_numeric(entries) else multiply_accumulate


def _numeric_sums(targets) -> list:
    out = []
    for target in targets:
        acc = 0
        for sign, a, b in target:
            acc = acc + a * b if sign > 0 else acc - a * b
        out.append(acc)
    return out


def upper_twos_gram(z: ExactMatrix) -> ExactMatrix:
    """Z U Z^T for U = upper_twos(z.cols), without forming U.

    Row a of Z U is a running sum, (Z U)[a][l] = Z[a][l] + 2 * sum_{j<l}
    Z[a][j] = (Z U)[a][l-1] + Z[a][l-1] + Z[a][l], and each entry of the
    result is one dot product of a row of Z U with a row of Z.  Polynomial
    entries make one ring.multiply_accumulate call for all of them.
    """
    rows = z.to_rows()
    zu = []
    for row in rows:
        acc, out = 0, []
        for prev, x in zip([0] + row, row):
            acc = acc + prev + x
            out.append(acc)
        zu.append(out)
    targets = [[(1, x, y) for x, y in zip(left, right)] for left in zu for right in rows]
    return ExactMatrix(z.rows, z.rows, _sums_of_products(z._entries)(targets))


def _require_skew(matrix: ExactMatrix) -> None:
    if matrix.rows != matrix.cols:
        raise ValueError("skew-symmetric matrix must be square")
    for i in range(matrix.rows):
        for j in range(i, matrix.cols):
            if matrix.entry(i, j) + matrix.entry(j, i) != 0:
                raise ValueError(
                    f"matrix is not skew-symmetric: entries ({i},{j}) and ({j},{i}) "
                    f"sum to {scalar_str(matrix.entry(i, j) + matrix.entry(j, i))}"
                )


def one_factors(n: int):
    """All perfect matchings of {0, ..., n-1} as tuples of (i, j) pairs, i < j.

    Depth-first on an explicit stack: the smallest unmatched element is
    paired with each later one in increasing order.
    """
    if n % 2:
        raise ValueError("one_factors requires an even ground set")
    stack = [((), tuple(range(n)))]
    while stack:
        prefix, items = stack.pop()
        if not items:
            yield prefix
            continue
        first = items[0]
        for idx in range(len(items) - 1, 0, -1):
            stack.append((prefix + ((first, items[idx]),), items[1:idx] + items[idx + 1 :]))


def crossing_number(pairs) -> int:
    """Number of crossing pairs: (i,j),(k,l) with i<k<j<l or k<i<l<j."""
    count = 0
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if i < k < j < l or k < i < l < j:
            count += 1
    return count


def pfaffian_by_matchings(matrix: ExactMatrix):
    """Pfaffian as the crossing-number-signed sum over 1-factors."""
    _require_skew(matrix)
    n = matrix.rows
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    if n == 0:
        return 1
    total = 0
    for pairing in one_factors(n):
        term = 1
        for i, j in pairing:
            term = term * matrix.entry(i, j)
        if crossing_number(pairing) % 2:
            term = -term
        total = total + term
    return total


def pfaffian_by_expansion(matrix: ExactMatrix):
    """Pfaffian by expansion along the first row, evaluated bottom-up.

    Pf(S) = sum over the other elements j of S, at 1-based position p after
    the first element f, of (-1)^(p+1) a[f][j] Pf(S - {f, j}).  Each step
    drops the smallest index, so the subsets reached from {0, ..., n-1} are
    exactly the s-subsets of the top (n + s) / 2 indices for even s:
    F(n + 1) of them in all (Fibonacci), about phi^n.  They are evaluated
    by size, each from the level below, and keyed by bitmask.
    """
    _require_skew(matrix)
    n = matrix.rows
    if n % 2:
        raise ValueError("Pfaffian requires even order")
    entries = matrix._entries
    pf = {0: 1}
    for s in range(2, n + 1, 2):
        below, pf = pf, {}
        for subset in itertools.combinations(range((n - s) // 2, n), s):
            first, rest = subset[0], subset[1:]
            row = entries[first * n : (first + 1) * n]
            key = 0
            for j in rest:
                key |= 1 << j
            total, plus = 0, True
            for j in rest:
                term = row[j] * below[key ^ (1 << j)]
                total = total + term if plus else total - term
                plus = not plus
            pf[key | (1 << first)] = total
    return pf[(1 << n) - 1]


# Every caller's Pfaffian; pfaffian_by_matchings shares no code with it and
# is kept as its oracle.
pfaffian = pfaffian_by_expansion


def upper_twos(n: int) -> ExactMatrix:
    """Upper triangular matrix with 1 on the diagonal and 2 above it."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ExactMatrix(
        n, n, [2 if i < j else (1 if i == j else 0) for i in range(n) for j in range(n)]
    )


def skew_ones(n: int) -> ExactMatrix:
    """Skew-symmetric matrix with 1 above the diagonal and -1 below it."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ExactMatrix(
        n, n, [1 if i < j else (0 if i == j else -1) for i in range(n) for j in range(n)]
    )


def shift_entries(matrix: ExactMatrix, x) -> ExactMatrix:
    """Add x to every entry."""
    return ExactMatrix(matrix.rows, matrix.cols, [e + x for e in matrix._entries])


def sum_max_minors(matrix: ExactMatrix):
    """Sum of all maximal (rows x rows) minors of a wide matrix.

    This is the direct route the Pfaffian and determinant routes are
    checked against.  A square matrix takes one determinant.  A wide one
    with few rows (m rows, n columns) runs the column-subset expansion of
    the determinant over every row, whose last row holds each maximal minor
    once: about sum_{r<m} C(n, r) (n - r) ring products.  That grows like
    2^n, so where it exceeds C(n, m) determinants of about m^3 products each
    (m close to n), the minors are taken one by one instead.  An empty
    (0 x n) matrix has minor sum 1 by the empty-determinant convention.
    """
    m, n = matrix.rows, matrix.cols
    if m > n:
        raise ValueError("matrix must have rows <= cols")
    if m == n:
        return determinant(matrix)
    if sum(math.comb(n, r) * (n - r) for r in range(m)) <= math.comb(n, m) * m**3:
        return functools.reduce(operator.add, _column_subset_dp(matrix, signed=True).values())
    total = 0
    for cols in itertools.combinations(range(n), m):
        total = total + determinant(matrix.submatrix(range(m), cols))
    return total


def sum_max_minors_pfaffian(matrix: ExactMatrix):
    """Maximal-minor sum as the Okada-Stembridge Pfaffian Pf[Z E Z^T].

    Q = Z E Z^T is upper_twos_gram(Z) - s s^T for the row sums s of Z; for
    odd m it is bordered as [[0, s^T], [-s, Q]], an order m + 1 Pfaffian.
    An empty (0 x n) matrix gives 1, as in sum_max_minors.
    """
    m, n = matrix.rows, matrix.cols
    if m > n:
        raise ValueError("matrix must have rows <= cols")
    gram = upper_twos_gram(matrix).to_rows()
    sums = [sum(row) for row in matrix.to_rows()]
    q = [[g - a * b for g, b in zip(row, sums)] for row, a in zip(gram, sums)]
    if m % 2:
        q = [[0] + sums] + [[-a] + row for row, a in zip(q, sums)]
    return pfaffian(ExactMatrix.from_rows(q))


def sum_max_minors_squared(matrix: ExactMatrix):
    """The pair (det[Z U Z^T], det[Z U^T Z^T]); each equals the squared minor sum.

    The first Gram matrix comes from upper_twos_gram, the second from the
    generic triple product, so the two agree only if both routes do.
    """
    m, n = matrix.rows, matrix.cols
    if m > n:
        raise ValueError("matrix must have rows <= cols")
    tilde = matrix * upper_twos(n).transpose() * matrix.transpose()
    return determinant(upper_twos_gram(matrix)), determinant(tilde)


def _block_skew(z: ExactMatrix, a: ExactMatrix, h: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Assemble [[Z A Z^T, H], [-H^T, B]]."""
    top_left = z * a * z.transpose()
    m = top_left.rows
    k = b.rows
    out = []
    for i in range(m):
        out.append(top_left.row(i) + h.row(i))
    ht = h.transpose()
    for i in range(k):
        out.append([-x for x in ht.row(i)] + b.row(i))
    return ExactMatrix.from_rows(out)


def skew_shift_block_invariant(z: ExactMatrix, a: ExactMatrix, h: ExactMatrix | None, b: ExactMatrix | None, x) -> bool:
    """Whether det[[Z A Z^T, H], [-H^T, B]] is unchanged by adding x to all of A.

    A and B must be skew-symmetric and the total order m + k even; with
    k = 0 this reduces to det[Z A Z^T] == det[Z A(x) Z^T].
    """
    _require_skew(a)
    if a.rows != z.cols:
        raise ValueError("A must be square of order matching Z's columns")
    if h is None:
        h = ExactMatrix.zero(z.rows, 0)
    if b is None:
        b = ExactMatrix.zero(0, 0)
    _require_skew(b)
    if h.rows != z.rows or h.cols != b.rows:
        raise ValueError("H must be (rows of Z) x (order of B)")
    if (z.rows + b.rows) % 2:
        raise ValueError("total block order must be even")
    lhs = determinant(_block_skew(z, a, h, b))
    rhs = determinant(_block_skew(z, shift_entries(a, x), h, b))
    return lhs == rhs


def random_integer_matrix(rng, rows: int, cols: int, low: int = -3, high: int = 3) -> ExactMatrix:
    return ExactMatrix(rows, cols, [rng.randint(low, high) for _ in range(rows * cols)])


def random_skew_matrix(rng, n: int, low: int = -4, high: int = 4) -> ExactMatrix:
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(low, high)
            entries[i][j] = v
            entries[j][i] = -v
    return ExactMatrix.from_rows(entries)
