"""Shifted and symmetric plane partitions and their generating functions.

A shifted plane partition of strict shape (p_1 > ... > p_k) fills row i with
entries in columns i .. p_i + i - 1, weakly decreasing along rows and
columns.  Reflecting across the main diagonal gives the symmetric plane
partitions of the symmetrized shape.  The (q,t)-weight of a filling is
q^(sum of off-diagonal entries) * t^(sum of diagonal entries); its square
has a determinant formula through the weighted-lattice path matrix, whose
entries are products of a power of t with a Gaussian binomial.  The volume
GFs specialize it to (q, t) -> (q, q) and (q^2, q), which is Kronecker
packing at stride 1 and 2.  Both determinant routes build that matrix at
(q, t) = (X^s, X) as ints, with no term maps: the Gaussian binomials at
q = X^s come from the q-Pascal rule, one shift and one add per entry, and
each entry is shifted up by its power of t.  Its polynomial form
``qt_path_matrix`` is their oracle.  ``volume_gf`` takes the whole
determinant on ints, ``qt_gf_determinant`` only Z U Z^T.  The packed size
grows like s * m^2, so it is charged to the budget before anything is built.

Every enumeration runs on one filling engine: an explicit-stack odometer
over the cells of a diagram, each bounded by its west and north neighbours,
that spends one budget state per cell placed.  Symmetric fillings fill the
whole symmetrized diagram with each cell below the diagonal repeating its
mirror image, so no asymmetric filling is visited.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb

from .budget import Budget
from .linalg import ExactMatrix, determinant, division_free_determinant, permanent, upper_twos_gram
from .lozenge import (
    count_tilings,
    mirrored_hook_region,
    mirrored_tiling_gf_formula,
    validate_strict_partition,
)
from .ring import QtPolynomial, packed_record, qbinomial, slot_width


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


def _check_bound(m: int) -> None:
    if m < 0:
        raise ValueError("largest entry bound must be >= 0")


def _fillings(m: int, plan, budget: Budget | None = None):
    """Every filling of the planned cells with entries in 0..m, each entry
    at most its west and north neighbours, largest entries first.

    plan[i] = (west, north, source): indices of earlier cells, len(plan) for
    a missing neighbour, and source None for a free cell.  A cell with a
    source repeats that cell's entry and is only checked against its bounds.
    The search is an explicit odometer spending one budget state per cell
    placed; each filling is a fresh list in plan order.
    """
    _check_bound(m)
    spend = (budget if budget is not None else Budget()).spend
    n = len(plan)
    vals = [0] * n + [m]
    free = [s is None for _, _, s in plan]
    i = 0
    while True:
        while i < n:  # place each later cell at its largest admissible value
            west, north, source = plan[i]
            bound = vals[west] if vals[west] < vals[north] else vals[north]
            value = bound if source is None else vals[source]
            if value > bound:
                break
            spend()
            vals[i] = value
            i += 1
        else:
            yield vals[:n]
        i -= 1  # back to the last free cell that can still decrease
        while i >= 0 and not (free[i] and vals[i]):
            i -= 1
        if i < 0:
            return
        spend()
        vals[i] -= 1
        i += 1


def _plan(shape, shifted: bool = False, mirrored: bool = False):
    """Engine plan of a shape's cells row by row; row r starts in column r
    when shifted, and when mirrored each cell below the diagonal repeats
    its mirror image."""
    cells = [(r, c) for r, part in enumerate(shape) for c in range(r * shifted, r * shifted + part)]
    index = {cell: i for i, cell in enumerate(cells)}
    n = len(cells)
    return [
        (index.get((r, c - 1), n), index.get((r - 1, c), n), index[c, r] if mirrored and c < r else None)
        for r, c in cells
    ]


def _rows(values, shape) -> tuple[tuple[int, ...], ...]:
    it = iter(values)
    return tuple(tuple(islice(it, part)) for part in shape)


def enumerate_spp(m: int, shape, budget: Budget | None = None):
    """All shifted plane partitions of the shape with entries at most m."""
    shape = validate_strict_partition(shape)
    for values in _fillings(m, _plan(shape, shifted=True), budget):
        yield ShiftedPlanePartition(shape, _rows(values, shape))


def spp_count(m: int, shape, budget: Budget | None = None) -> int:
    shape = validate_strict_partition(shape)
    return sum(1 for _ in _fillings(m, _plan(shape, shifted=True), budget))


def symmetrize_shape(shape) -> tuple[int, ...]:
    """Symmetric partition obtained by reflecting the shifted diagram.

    Row i has p_i + i - 1 boxes for i <= k; below the Durfee square the rows
    are forced by symmetry (row length = number of earlier rows reaching
    column i).
    """
    arm = [part + i for i, part in enumerate(validate_strict_partition(shape))]
    below = range(len(arm) + 1, max(arm, default=0) + 1)
    return tuple(arm) + tuple(sum(1 for length in arm if length >= i) for i in below)


def to_symmetric_plane_partition(spp: ShiftedPlanePartition) -> tuple[tuple[int, ...], ...]:
    """Reflect a shifted filling across the diagonal into a symmetric one."""
    return tuple(
        tuple(spp.entry(i, j) if j >= i else spp.entry(j, i) for j in range(1, length + 1))
        for i, length in enumerate(symmetrize_shape(spp.shape), start=1)
    )


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


def qt_gf_enumerated(m: int, shape, budget: Budget | None = None) -> QtPolynomial:
    """The (q,t)-generating function by direct enumeration (the oracle)."""
    shape = validate_strict_partition(shape)
    diagonal = list(accumulate(shape, initial=0))[:-1]  # first cell of each row
    counts = Counter()
    for values in _fillings(m, _plan(shape, shifted=True), budget):
        t_exp = sum(map(values.__getitem__, diagonal))
        counts[sum(values) - t_exp, t_exp] += 1
    return QtPolynomial(counts)


def _volume_gf(fillings) -> QtPolynomial:
    return QtPolynomial({(v, 0): c for v, c in Counter(map(sum, fillings)).items()})


def spp_volume_gf(m: int, shape, budget: Budget | None = None) -> QtPolynomial:
    """Volume generating function of shifted fillings, enumerated directly."""
    shape = validate_strict_partition(shape)
    return _volume_gf(_fillings(m, _plan(shape, shifted=True), budget))


def _validate_partition(shape) -> tuple[int, ...]:
    shape = tuple(int(p) for p in shape)
    if any(a < b for a, b in zip(shape, shape[1:])) or any(p < 1 for p in shape):
        raise ValueError("shape must be a partition")
    return shape


def enumerate_plane_partitions(m: int, shape, budget: Budget | None = None):
    """All plane partitions of an arbitrary partition shape, entries <= m."""
    shape = _validate_partition(shape)
    for values in _fillings(m, _plan(shape), budget):
        yield _rows(values, shape)


def pp_sym_volume_gf(m: int, sym_shape, budget: Budget | None = None) -> QtPolynomial:
    """Volume GF of symmetric plane partitions of a symmetric shape.

    Fills the whole diagram rather than the shifted half, each cell below
    the diagonal repeating its mirror image, so only symmetric fillings are
    visited.  An asymmetric shape has none.
    """
    shape = _validate_partition(sym_shape)
    _check_bound(m)
    if shape != tuple(sum(1 for p in shape if p > c) for c in range(max(shape, default=0))):
        return QtPolynomial()
    return _volume_gf(_fillings(m, _plan(shape, mirrored=True), budget))


def qt_path_matrix(m: int, shape) -> ExactMatrix:
    """Path matrix of the (q,t)-weighted lattice: row i, column j carries
    t^(m+i-j) * qbinomial(p_i - 1 + m + i - j, m + i - j)."""
    shape = validate_strict_partition(shape)
    _check_bound(m)
    k = len(shape)
    rows = []
    for i, part in enumerate(shape, start=1):
        rows.append(
            [lattice_path_gf(part - 1, k - i, 0, m + k - j) for j in range(1, m + k + 1)]
        )
    if not rows:
        return ExactMatrix.zero(0, m)
    return ExactMatrix.from_rows(rows)


def _path_cells(m: int, shape: tuple[int, ...], stride: int):
    """Row order and cells (p_i - 1, u) of Z at stride `stride`, row by row
    in that order; u = m + i - j, and a cell with u < 0 is a zero entry.
    Rows come lowest top degree (m + i - 1) * (stride * (p_i - 1) + 1)
    first: det[Z U Z^T] ignores row order, and its DP multiplies each row
    into every minor of the rows before it.
    """
    k, cols = len(shape), m + len(shape)
    order = sorted(range(k), key=lambda i: (m + i) * (stride * (shape[i] - 1) + 1))
    return order, [(shape[i] - 1, u) for i in order for u in range(m + i, m + i - cols, -1)]


def _packed_path_matrix(m: int, shape: tuple[int, ...], stride: int, bound):
    """Z at (q, t) = (X^stride, X) for a validated shape and m, by the
    q-Pascal rule on ints.  Entry (i, j) is t^u * qbinomial(p_i - 1 + u, u)
    with u = m + i - j (0 for u < 0), so it packs as that q-binomial
    shifted up u slots, with L1 norm C(p_i - 1 + u, u).  X = 2^(8 * width)
    for width = slot_width(bound(norms, cells)), the norms and cells of Z
    in its row order (see ``_path_cells``).

    With Y = X^stride, B[u][x] = qbinomial(x + u, u) at q = Y has
    B[u][0] = B[0][x] = 1 and B[u][x] = B[u-1][x] + Y^u * B[u][x-1], so one
    column over u is advanced along x by a shift and an add per entry, and
    row i reads it at x = p_i - 1.  Rows are read smallest part first, and
    row i reads only u <= m + i, so the column is cut to that length before
    each read.  Every packed slot is charged to the budget first, since Z's
    size grows like stride * m^2.  Returns (order, norms, packed, width),
    row r holding Z's row order[r].
    """
    k, cols = len(shape), m + len(shape)
    order, cells = _path_cells(m, shape, stride)
    Budget().spend(sum(u * (stride * a + 1) + 1 for a, u in cells if u >= 0))
    norms = ExactMatrix(k, cols, [comb(a + u, u) if u >= 0 else 0 for a, u in cells])
    width = slot_width(bound(norms, cells))
    slot, step = 8 * width, 8 * width * stride
    column, x, shifted = [1] * cols, 0, {}
    for i in reversed(range(k)):  # smallest part first
        while x < shape[i] - 1:
            x += 1
            for u in range(1, len(column)):
                column[u] = column[u - 1] + (column[u] << step * u)
        del column[m + i + 1 :]
        shifted[x] = [c << slot * u for u, c in enumerate(column)]
    packed = [shifted[a][u] if u >= 0 else 0 for a, u in cells]
    return order, norms, ExactMatrix(k, cols, packed), width


def _gram_coefficient_bound(norms: ExactMatrix, cells) -> int:
    """The largest coefficient any entry of Z U Z^T can have, for Z's L1
    norms and cells in one row order.

    A coefficient of a * b is at most min(max|a| * L1(b), L1(a) * max|b|),
    and Gram entry (a, b) sums that over l for ZU[a][l] * Z[b][l].  A
    Gaussian binomial's largest coefficient is its middle one.  The entries
    of a row carry distinct powers of t, so ZU[a][l] = Z[a][l] + 2 *
    sum_{j<l} Z[a][j] has L1 norm L1(Z[a][l]) + 2 * sum_{j<l} L1(Z[a][j]) and
    largest coefficient max(max Z[a][l], 2 * max_{j<l} max Z[a][j]).
    """
    big = [qbinomial(a + u, u).coefficient(a * u // 2, 0) for a, u in cells]
    cols = norms.cols
    rows = [(norms.row(r), big[r * cols : (r + 1) * cols]) for r in range(norms.rows)]
    bound = 0
    for l1, top in rows:
        zu_l1 = [2 * s - v for s, v in zip(accumulate(l1), l1)]
        zu_top = [max(v, 2 * p) for v, p in zip(top, accumulate(top, max, initial=0))]
        for b_l1, b_top in rows:
            bound = max(bound, sum(map(min, map(operator.mul, zu_top, b_l1), map(operator.mul, zu_l1, b_top))))
    return bound


def qt_gf_determinant(m: int, shape) -> QtPolynomial:
    """det[M(q,t) U M(q,t)^T]: the square of the (q,t)-generating function.

    Z U Z^T is formed on Z packed at stride 2(m + k) - 1, above its top
    t-degree 2(m + k - 1), in slots sized by ``_gram_coefficient_bound``.
    Its k^2 entries go to the determinant's expansion still packed, as
    records whose L1 bounds are the entries of |Z| U |Z|^T for Z's norms.
    """
    shape = validate_strict_partition(shape)
    _check_bound(m)
    stride = 2 * (m + len(shape)) - 1
    _, norms, packed, width = _packed_path_matrix(m, shape, stride, _gram_coefficient_bound)
    gram, l1 = upper_twos_gram(packed), upper_twos_gram(norms)
    entries = [packed_record(v, stride, width, bound) for v, bound in zip(gram._entries, l1._entries)]
    return QtPolynomial.from_scalar(determinant(ExactMatrix(gram.rows, gram.cols, entries)))


def volume_gf(m: int, shape, which: str) -> QtPolynomial:
    """Squared volume GF via the specialized determinant det[Z U Z^T].

    which = "spp" specializes (q, t) -> (q, q) and equals the squared volume
    GF of the shifted fillings; which = "pp_sym" specializes (q, t) ->
    (q^2, q) and equals the squared volume GF of the symmetric fillings of
    the symmetrized shape.  The specialization (q, t) -> (q^s, q) is
    Kronecker packing at stride s: every entry of the path matrix is packed
    once at q = X^s, t = X for one big power of two X, and the whole
    formula is evaluated on those ints, so the result is unpacked once.
    L1 norms are subadditive and submultiplicative and U >= 0, so every
    |coefficient| <= L1(det) <= the permanent of the norms' Gram matrix.
    """
    stride = {"spp": 1, "pp_sym": 2}.get(which)
    if stride is None:
        raise ValueError("which must be 'spp' or 'pp_sym'")
    shape = validate_strict_partition(shape)
    _check_bound(m)
    bound = lambda norms, cells: permanent(upper_twos_gram(norms))
    *_, packed, width = _packed_path_matrix(m, shape, stride, bound)
    value = division_free_determinant(upper_twos_gram(packed))
    return QtPolynomial.from_packed(value, 1, width)


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
    by the transfer-matrix tiler and by the determinant formula.
    """
    shape = validate_strict_partition(shape)
    spp = spp_count(m, shape, budget)
    sym = sum(1 for _ in _fillings(m, _plan(symmetrize_shape(shape), mirrored=True), budget))
    gf_formula = mirrored_tiling_gf_formula(m, shape)
    gf_tiler = count_tilings(mirrored_hook_region(m, shape), budget)
    return spp == sym and gf_formula == gf_tiler and spp**2 == 2 ** len(shape) * gf_formula
