"""Shifted and symmetric plane partitions and their generating functions.

A shifted plane partition of strict shape (p_1 > ... > p_k) fills row i with
entries in columns i .. p_i + i - 1, weakly decreasing along rows and
columns.  Reflecting across the main diagonal gives the symmetric plane
partitions of the symmetrized shape.  The (q,t)-weight of a filling is
q^(sum of off-diagonal entries) * t^(sum of diagonal entries); its square
has a determinant formula through the weighted-lattice path matrix, whose
entries are products of a power of t with a Gaussian binomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dag import Budget
from .linalg import ExactMatrix, determinant, upper_twos
from .lozenge import (
    count_tilings,
    mirrored_hook_region,
    mirrored_tiling_gf_formula,
    validate_strict_partition,
)
from .ring import QtPolynomial, qbinomial


@dataclass(frozen=True)
class ShiftedPlanePartition:
    """Rows of a shifted filling; rows[i-1][j-i] is the entry in (i, j)."""

    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        validate_strict_partition(self.shape)
        if len(self.rows) != len(self.shape):
            raise ValueError("row count does not match the shape")
        for a, (part, row) in enumerate(zip(self.shape, self.rows)):
            if len(row) != part:
                raise ValueError(f"row {a + 1} must have {part} entries")
            if any(v < 0 for v in row):
                raise ValueError("entries must be nonnegative")
            if any(row[b] < row[b + 1] for b in range(len(row) - 1)):
                raise ValueError(f"row {a + 1} is not weakly decreasing")
        for i in range(2, len(self.rows) + 1):
            for j in range(i, self.shape[i - 1] + i):
                if self.entry(i, j) > self.entry(i - 1, j):
                    raise ValueError(f"column through ({i},{j}) is not weakly decreasing")

    def entry(self, i: int, j: int) -> int:
        """1-based (row, column) access within the shifted diagram."""
        return self.rows[i - 1][j - i]

    def volume(self) -> int:
        return sum(sum(row) for row in self.rows)

    def diagonal_sum(self) -> int:
        return sum(row[0] for row in self.rows)

    def off_diagonal_sum(self) -> int:
        return self.volume() - self.diagonal_sum()


def enumerate_spp(m: int, shape):
    """All shifted plane partitions of the shape with entries at most m.

    Row-major backtracking; each cell is bounded by min(m, west, north), so
    the stream has no rejected fillings.
    """
    shape = validate_strict_partition(shape)
    if m < 0:
        raise ValueError("largest entry bound must be >= 0")
    k = len(shape)
    if k == 0:
        yield ShiftedPlanePartition((), ())
        return
    rows: list[list[int]] = [[] for _ in range(k)]

    def cell_bound(a: int, b: int) -> int:
        bound = m
        if b > 0:
            bound = min(bound, rows[a][b - 1])
        if a > 0:
            j = (a + 1) + b  # column index of cell (a+1, j), 1-based
            bound = min(bound, rows[a - 1][j - a])
        return bound

    def rec(a: int, b: int):
        if a == k:
            yield ShiftedPlanePartition(shape, tuple(tuple(r) for r in rows))
            return
        nxt = (a, b + 1) if b + 1 < shape[a] else (a + 1, 0)
        for v in range(cell_bound(a, b), -1, -1):
            rows[a].append(v)
            yield from rec(*nxt)
            rows[a].pop()

    yield from rec(0, 0)


def spp_count(m: int, shape) -> int:
    return sum(1 for _ in enumerate_spp(m, shape))


def symmetrize_shape(shape) -> tuple[int, ...]:
    """Symmetric partition obtained by reflecting the shifted diagram.

    Row i has p_i + i - 1 boxes for i <= k; below the Durfee square the rows
    are forced by symmetry (row length = number of earlier rows reaching
    column i).
    """
    shape = validate_strict_partition(shape)
    k = len(shape)
    if k == 0:
        return ()
    arm = [shape[i - 1] + i - 1 for i in range(1, k + 1)]
    total_rows = arm[0]
    out = list(arm)
    for i in range(k + 1, total_rows + 1):
        out.append(sum(1 for length in arm if length >= i))
    return tuple(out)


def to_symmetric_plane_partition(spp: ShiftedPlanePartition) -> tuple[tuple[int, ...], ...]:
    """Reflect a shifted filling across the diagonal into a symmetric one."""
    sym_shape = symmetrize_shape(spp.shape)
    out = []
    for i in range(1, len(sym_shape) + 1):
        row = []
        for j in range(1, sym_shape[i - 1] + 1):
            row.append(spp.entry(i, j) if j >= i else spp.entry(j, i))
        out.append(tuple(row))
    return tuple(out)


def shifted_from_symmetric(pp) -> ShiftedPlanePartition:
    """Inverse of the reflection; rejects asymmetric or malformed input."""
    rows = tuple(tuple(r) for r in pp)
    shape = tuple(len(r) for r in rows)
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError("row lengths must weakly decrease")
    for i in range(1, len(rows) + 1):
        for j in range(1, shape[i - 1] + 1):
            if j <= len(rows) and shape[j - 1] >= i:
                if rows[i - 1][j - 1] != rows[j - 1][i - 1]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
            else:
                raise ValueError("shape is not symmetric")
    durfee = sum(1 for i in range(1, len(rows) + 1) if shape[i - 1] >= i)
    strict = tuple(shape[i - 1] - i + 1 for i in range(1, durfee + 1))
    kept = tuple(tuple(rows[i - 1][i - 1 : shape[i - 1]]) for i in range(1, durfee + 1))
    return ShiftedPlanePartition(strict, kept)


def qt_weight(spp: ShiftedPlanePartition) -> QtPolynomial:
    """Monomial q^(off-diagonal volume) * t^(diagonal volume)."""
    return QtPolynomial({(spp.off_diagonal_sum(), spp.diagonal_sum()): 1})


def qt_gf_enumerated(m: int, shape) -> QtPolynomial:
    """The (q,t)-generating function by direct enumeration (the oracle)."""
    total = QtPolynomial()
    for spp in enumerate_spp(m, shape):
        total = total + qt_weight(spp)
    return total


def spp_volume_gf(m: int, shape) -> QtPolynomial:
    """Volume generating function of shifted fillings, enumerated directly."""
    total = QtPolynomial()
    for spp in enumerate_spp(m, shape):
        total = total + QtPolynomial({(spp.volume(), 0): 1})
    return total


def enumerate_plane_partitions(m: int, shape):
    """All plane partitions of an arbitrary partition shape, entries <= m."""
    shape = tuple(int(p) for p in shape)
    if any(a < b for a, b in zip(shape, shape[1:])) or any(p < 1 for p in shape):
        raise ValueError("shape must be a partition")
    k = len(shape)
    if k == 0:
        yield ()
        return
    rows: list[list[int]] = [[] for _ in range(k)]

    def rec(a: int, b: int):
        if a == k:
            yield tuple(tuple(r) for r in rows)
            return
        bound = m
        if b > 0:
            bound = min(bound, rows[a][b - 1])
        if a > 0:
            bound = min(bound, rows[a - 1][b])
        nxt = (a, b + 1) if b + 1 < shape[a] else (a + 1, 0)
        for v in range(bound, -1, -1):
            rows[a].append(v)
            yield from rec(*nxt)
            rows[a].pop()

    yield from rec(0, 0)


def pp_sym_volume_gf(m: int, sym_shape) -> QtPolynomial:
    """Volume GF of symmetric plane partitions, by enumerate-and-filter.

    Independent of the shifted-partition route: plain plane partitions of the
    symmetric shape are enumerated and the asymmetric ones discarded.
    """
    total = QtPolynomial()
    for pp in enumerate_plane_partitions(m, sym_shape):
        if _is_symmetric_filling(pp):
            volume = sum(sum(row) for row in pp)
            total = total + QtPolynomial({(volume, 0): 1})
    return total


def _is_symmetric_filling(pp) -> bool:
    for i, row in enumerate(pp, start=1):
        for j in range(1, len(row) + 1):
            if j <= len(pp) and len(pp[j - 1]) >= i:
                if row[j - 1] != pp[j - 1][i - 1]:
                    return False
            else:
                return False
    return True


def qt_path_matrix(m: int, shape) -> ExactMatrix:
    """Path matrix of the (q,t)-weighted lattice: row i, column j carries
    t^(m+i-j) * qbinomial(p_i - 1 + m + i - j, m + i - j)."""
    shape = validate_strict_partition(shape)
    if m < 0:
        raise ValueError("largest entry bound must be >= 0")
    k = len(shape)
    rows = []
    for i, part in enumerate(shape, start=1):
        rows.append(
            [lattice_path_gf(part - 1, k - i, 0, m + k - j) for j in range(1, m + k + 1)]
        )
    if not rows:
        return ExactMatrix.zero(0, m)
    return ExactMatrix.from_rows(rows)


def qt_gf_determinant(m: int, shape) -> QtPolynomial:
    """det[M(q,t) U M(q,t)^T]: the square of the (q,t)-generating function."""
    shape = validate_strict_partition(shape)
    z = qt_path_matrix(m, shape)
    value = determinant(z * upper_twos(z.cols) * z.transpose())
    return QtPolynomial.from_scalar(value)


def volume_gf(m: int, shape, which: str) -> QtPolynomial:
    """Squared volume GF via the specialized determinant.

    which = "spp" substitutes (q, t) -> (q, q) and equals the squared volume
    GF of the shifted fillings; which = "pp_sym" substitutes
    (q, t) -> (q^2, q) and equals the squared volume GF of the symmetric
    fillings of the symmetrized shape.
    """
    shape = validate_strict_partition(shape)
    if which == "spp":
        images = (QtPolynomial({(1, 0): 1}), QtPolynomial({(1, 0): 1}))
    elif which == "pp_sym":
        images = (QtPolynomial({(2, 0): 1}), QtPolynomial({(1, 0): 1}))
    else:
        raise ValueError("which must be 'spp' or 'pp_sym'")
    z = qt_path_matrix(m, shape)
    entries = [
        QtPolynomial.from_scalar(z.entry(i, j)).substitute(*images)
        for i in range(z.rows)
        for j in range(z.cols)
    ]
    z = ExactMatrix(z.rows, z.cols, entries)
    value = determinant(z * upper_twos(z.cols) * z.transpose())
    return QtPolynomial.from_scalar(value)


def lattice_path_gf(a: int, b: int, c: int, d: int) -> QtPolynomial:
    """Closed form for the up/left weighted lattice path GF from (a,b) to (c,d).

    Horizontal steps have weight 1; a vertical step in column x has weight
    q^x * t.  The value is q^(c(d-b)) * t^(d-b) * qbinomial((a-c)+(d-b), d-b)
    when c <= a and b <= d, else 0.
    """
    if c > a or b > d:
        return QtPolynomial()
    up = d - b
    return QtPolynomial({(c * up, up): 1}) * qbinomial((a - c) + up, up)


def lattice_gf_recurrence_holds(a: int, b: int, c: int, d: int) -> bool:
    """First-step recurrence of the closed form, checked exactly.

    Partitioning by the first step requires a first step, so the degenerate
    endpoint pair (a, b) == (c, d) is outside the recurrence's domain and is
    reported as holding vacuously.
    """
    if (a, b) == (c, d):
        return True
    q_pow_a_t = QtPolynomial({(a, 1): 1})
    lhs = lattice_path_gf(a, b, c, d)
    rhs = q_pow_a_t * lattice_path_gf(a, b + 1, c, d) + lattice_path_gf(a - 1, b, c, d)
    return lhs == rhs


def check_count_identity(m: int, shape, budget: Budget | None = None) -> bool:
    """Squared shifted count == squared symmetric count == 2^k * two-sided GF.

    Counts come from enumeration; the two-sided tiling GF is evaluated both
    by the brute-force tiler and by the determinant formula.
    """
    shape = validate_strict_partition(shape)
    k = len(shape)
    spp = spp_count(m, shape)
    sym = sum(
        1 for pp in enumerate_plane_partitions(m, symmetrize_shape(shape)) if _is_symmetric_filling(pp)
    )
    gf_formula = mirrored_tiling_gf_formula(m, shape)
    gf_tiler = count_tilings(mirrored_hook_region(m, shape), budget)
    return (
        spp == sym
        and gf_formula == gf_tiler
        and Fraction(spp) ** 2 == 2**k * Fraction(gf_formula)
    )
