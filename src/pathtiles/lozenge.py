"""Triangular-lattice regions, lozenge tilings, and free boundaries.

Coordinates.  Lattice lines are vertical at integer x; the strip between
lines x and x+1 holds an alternating column of unit triangles.  A cell is
(x, y, orient): a left-pointing cell L(x, y) has its apex at vertex (x, y)
and its vertical side on line x+1 spanning heights y-1 .. y+1 (heights are
doubled so everything stays integral); a right-pointing cell R(x, y) has its
vertical side on line x spanning y-1 .. y+1 and its apex at (x+1, y).
Parity: x + y is even for L cells and odd for R cells.  A lozenge is any
edge-adjacent L/R pair; the three orientations need no separate encoding.

Free boundaries.  A free edge is a vertical boundary edge, identified by
(line, y).  A lozenge crossing it is represented as a half-lozenge covering
only the interior cell, with the full lozenge's weight.

Hook regions.  The one-sided region with a free right boundary on line 0 is
assembled from chevron-shaped hooks stacked down the axis; its two-sided
counterpart extends every hook across the axis and puts weight 1/2 on the
horizontal lozenge ending each shifted hook.  The squared free-boundary
count of the one-sided region equals 2^(surviving hooks) times the weighted
count of the two-sided one, and both sides are also evaluated through
maximal-minor sums and determinants of binomial path matrices.  Both
builders emit their cells column by column from the hook arithmetic: the
plain hooks start right of the forced leftmost strip, a shifted hook adds
its labelled cells unless it is removed, and a free edge sits at line 0 on
every hook that reaches column -1.  wedge_hook gives a whole hook from the
same generator as a cell set, and shifted_wedge_hook moves its leftmost
cell to the right end.

Tilers.  Every tiler works on one integer plan of the region.  A cell is
keyed by 2 * ((x - x0) * h + y - y0) + (orient == "R"), with x0 the least x,
y0 one below the least y and h the y-span plus 2: sorted keys give the
sorted cell order (cell i has the i-th smallest key), and each partner of a
cell lies at a fixed key offset from it, derived from the one partner table.
The offsets of the later partners are +2h+1 and +3 for an L cell and +1 for
an R cell.  The plan also holds the cells with a free half and integer
weights: with D the lcm of the region's weight denominators, a cover of c
cells weighs D^c times its weight, so every tiling weighs exactly
D^(number of cells) times its own weight and a count is divided by that
once, at the end: the result is an int when it is integral and a Fraction
only when it is not.  Cells are decoded from keys only for the covers a
tiler returns.
count_tilings and count_symmetric_tilings share one transfer-matrix scan
whose states are bitmasks of the cells ahead already covered; its moves at
a cell are the covers, or for a symmetric count the symmetry orbits of
covers, whose least cell it is.  iter_tilings and sample_tiling share one
depth-first search on an explicit stack.  Each tiler spends a Budget, and
none recurses.  A symmetry is built once, as a permutation of the cell
indices: each key is decoded, its cell mirrored (central: (sx - x, sy - y),
vertical: (sx - x, y), with sx and sy the sums of the least and largest
coordinates, orientation flipped) and encoded again.  A mirror maps the
bounding box onto itself, so no image key aliases another cell.  The region
is invariant when every image is a cell and the permutation maps the free
cells and the weighted covers, weights included, onto themselves.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .budget import Budget
from .linalg import ExactMatrix, determinant, sum_max_minors, upper_twos_gram
from .ring import parse_rational


class Cell(NamedTuple):
    x: int
    y: int
    orient: str  # "L" or "R"


# The lozenge partners of an L and of an R cell, as (dx, dy, orientation).
_PARTNER_STEPS = {
    "L": ((1, 0, "R"), (0, 1, "R"), (0, -1, "R")),
    "R": ((-1, 0, "L"), (0, 1, "L"), (0, -1, "L")),
}


def cell_partners(cell: Cell) -> tuple[Cell, Cell, Cell]:
    """The up-to-three cells this cell can form a lozenge with."""
    x, y, o = cell
    return tuple(Cell(x + dx, y + dy, p) for dx, dy, p in _PARTNER_STEPS[o])


def cell_vertical_side(cell: Cell) -> tuple[int, int]:
    """The (line, center-height) of the cell's vertical side."""
    return (cell.x + 1, cell.y) if cell.orient == "L" else (cell.x, cell.y)


def is_horizontal_pair(a: Cell, b: Cell) -> bool:
    """Whether two cells form a horizontal lozenge (shared vertical side)."""
    return a.orient != b.orient and cell_vertical_side(a) == cell_vertical_side(b)


class Region:
    """A finite set of cells with lozenge weights and optional free edges."""

    def __init__(self, cells, free_edges=(), weights=None):
        self.cells = frozenset([c if type(c) is Cell else Cell(*c) for c in cells])
        for x, y, orient in self.cells:
            if orient not in ("L", "R"):
                raise ValueError(f"bad orientation {orient!r}")
            if (x + y) % 2 != (orient == "R"):
                raise ValueError(f"cell {Cell(x, y, orient)} violates the lattice parity")
        self.free_edges = frozenset((int(a), int(b)) for a, b in free_edges)
        for line, y in self.free_edges:
            # A tuple equals the Cell with the same fields.
            if ((line - 1, y, "L") in self.cells) + ((line, y, "R") in self.cells) != 1:
                raise ValueError(f"free edge ({line},{y}) is not on the region boundary")
        self.weights: dict[frozenset, Fraction] = {}
        for key, value in (weights or {}).items():
            group = frozenset(c if type(c) is Cell else Cell(*c) for c in key)
            if not group <= self.cells:
                raise ValueError(f"weighted lozenge {sorted(group)} not inside the region")
            if len(group) == 2:
                a, b = sorted(group)
                if b not in cell_partners(a):
                    raise ValueError(f"weighted pair {sorted(group)} is not a lozenge")
            elif len(group) != 1:
                raise ValueError("weight keys must cover one or two cells")
            elif cell_vertical_side(min(group)) not in self.free_edges:
                raise ValueError(f"weighted cell {min(group)} has no free half")
            self.weights[group] = Fraction(value)

    def __len__(self) -> int:
        return len(self.cells)

    def weight_of(self, cover: frozenset):
        return self.weights.get(cover, 1)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def to_json(self) -> dict:
        doc = {
            "cells": [[c.x, c.y, c.orient] for c in self.sorted_cells()],
            "free_edges": [list(e) for e in sorted(self.free_edges)],
            "weights": [
                {"cells": [[c.x, c.y, c.orient] for c in sorted(k)], "w": str(w)}
                for k, w in sorted(self.weights.items(), key=lambda kv: sorted(kv[0]))
            ],
        }
        return doc

    @classmethod
    def from_json(cls, doc) -> "Region":
        if not isinstance(doc, dict):
            raise ValueError("region file must hold a JSON object")
        fields = {key: doc.get(key, []) for key in ("cells", "free_edges", "weights")}
        for key, value in fields.items():
            if not isinstance(value, list):
                raise ValueError(f"region field {key!r} must be an array")
        for edge in fields["free_edges"]:
            if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
                raise ValueError(f"free edge {edge!r} must be [line, y] with integers")
        weights = {}
        for item in fields["weights"]:
            shaped = isinstance(item, dict) and isinstance(item.get("cells"), list)
            if not (shaped and isinstance(item.get("w"), (str, int))):
                raise ValueError(f"weight {item!r} must be an object with a 'cells' array and a 'w' scalar")
            weights[frozenset(map(_cell_from_json, item["cells"]))] = parse_rational(str(item["w"]))
        return cls(list(map(_cell_from_json, fields["cells"])), map(tuple, fields["free_edges"]), weights)


def _cell_from_json(cell) -> tuple[int, int, str]:
    shaped = isinstance(cell, list) and len(cell) == 3
    if not (shaped and type(cell[0]) is int and type(cell[1]) is int and isinstance(cell[2], str)):
        raise ValueError(f"cell {cell!r} must be [x, y, orientation] with integers x, y")
    return tuple(cell)


# ---------------------------------------------------------------------------
# Tilers: one transfer-matrix scan and one depth-first search core
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """A region on integer cell keys (see _cell_key): cell i has the i-th
    smallest key, and a cell's partners sit at fixed key offsets.

    D (scale) is the lcm of the region's weight denominators, and a cover of
    c cells weighs D^c times its weight.  Every tiling covers each cell once,
    so it weighs exactly D^len(keys) times its own weight.
    """

    keys: list[int]
    index: dict[int, int]  # key -> cell index
    offsets: tuple[tuple[int, ...], tuple[int, ...]]  # per orientation bit, partner key offsets in cell_partners order
    later: tuple[tuple[int, ...], tuple[int, ...]]  # the positive ones: the partners later in sorted order
    free: set[int]  # indices of the cells with a free half
    weights: dict[tuple[int, ...], int]  # scaled weights of the weighted covers, by sorted indices
    scale: int
    frame: tuple[int, int, int]  # x0, y0, h

    def cell(self, i: int) -> Cell:
        x0, y0, h = self.frame
        dx, dy = divmod(self.keys[i] >> 1, h)
        return Cell(x0 + dx, y0 + dy, "LR"[self.keys[i] & 1])

    def cover_cells(self, cover: tuple[int, ...]) -> frozenset:
        return frozenset(map(self.cell, cover))

    def unscale(self, total: int):
        """A scaled weight sum over tilings, divided by D^len(keys)."""
        return _exact_quotient(total, self.scale ** len(self.keys))


def _exact_quotient(num: int, den: int):
    """num / den: an int when it is one, else a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _cell_key(frame: tuple[int, int, int], cell) -> int:
    """2 * ((x - x0) * h + y - y0) + (orient == "R"), with x0 the least x,
    y0 one below the least y and h the y-span plus 2: sorted keys list the
    cells in sorted order.  Row y0 of every column holds no cell, so a
    partner offset of +-1 row never reaches into the next column."""
    x0, y0, h = frame
    x, y, orient = cell
    return 2 * ((x - x0) * h + y - y0) + (orient == "R")


@functools.cache
def _key_offsets(h: int):
    """Per orientation bit, the key offsets of a cell's partners in
    cell_partners order, and the positive ones among them."""
    offsets = tuple(
        tuple(2 * (dx * h + dy) + (p == "R") - (o == "R") for dx, dy, p in _PARTNER_STEPS[o]) for o in "LR"
    )
    return offsets, tuple(tuple(d for d in row if d > 0) for row in offsets)


def _tiling_plan(region: Region) -> _Plan:
    cells = region.cells
    if cells:
        x0 = min(cells)[0]
        ys = [c[1] for c in cells]
        y0 = min(ys) - 1
        h = max(ys) - y0 + 1
    else:
        x0, y0, h = 0, 0, 2
    frame = (x0, y0, h)
    keys = sorted([2 * ((x - x0) * h + y - y0) + (o == "R") for x, y, o in cells])  # _cell_key, inlined
    index = {k: i for i, k in enumerate(keys)}
    offsets, later = _key_offsets(h)
    free = set()
    for line, y in region.free_edges:  # exactly one of the two cells beside it is in the region
        left = _cell_key(frame, (line - 1, y, "L"))
        free.add(index[left] if left in index else index[_cell_key(frame, (line, y, "R"))])
    scale = math.lcm(*(w.denominator for w in region.weights.values()))  # Region keeps Fractions
    weights = {}
    for group, w in region.weights.items():
        cover = tuple(sorted(index[_cell_key(frame, c)] for c in group))
        weights[cover] = w.numerator * (scale ** len(cover) // w.denominator)
    return _Plan(keys, index, offsets, later, free, weights, scale, frame)


def count_tilings(region: Region, budget: Budget | None = None):
    """Weighted number of tilings (an int when integral), by the scan."""
    plan = _tiling_plan(region)
    return _scan(plan, _cover_moves(plan), budget)


def _cover_moves(plan: _Plan):
    """Per cell i, the covers of cell i with no earlier cell, as _scan moves."""
    get, later, weights, free = plan.index.get, plan.later, plan.weights, plan.free
    pair, half = plan.scale**2, plan.scale
    for i, key in enumerate(plan.keys):
        moves = []
        for d in later[key & 1]:
            if (j := get(key + d)) is not None:
                moves.append((1 << (j - i - 1), weights.get((i, j), pair)))
        if i in free:
            moves.append((0, weights.get((i,), half)))
        yield moves


def _scan(plan: _Plan, cell_moves, budget: Budget | None = None):
    """Weight sum of the exact covers of the plan's cells, by a scan in cell
    order.  A state is the bitmask of later cells already covered, relative
    to the scan position, with the scaled weight of the partial covers
    reaching it.  cell_moves yields, per cell i, the moves covering i and no
    earlier cell: (bitmask of their other cells relative to cell i + 1,
    scaled weight).  Each cell spends its live states' count from the budget."""
    if budget is None:
        budget = Budget()
    states = {0: 1}
    for moves in cell_moves:
        budget.spend(len(states))
        nxt: dict = {}
        for mask, weight in states.items():
            rest = mask >> 1
            if mask & 1:
                nxt[rest] = nxt.get(rest, 0) + weight
                continue
            for bits, w in moves:
                if not rest & bits:
                    nxt[rest | bits] = nxt.get(rest | bits, 0) + weight * w
        states = nxt
    return plan.unscale(states.get(0, 0))


def _search(plan: _Plan, budget: Budget | None = None, shuffle=None):
    """Depth-first search, on an explicit stack, for the tilings of the plan.
    Each node spends one budget state and tries the moves (cell bitmask,
    cover) of its first uncovered cell: its lozenges in cell_partners order,
    earlier partners included, then its free half, after shuffle(a copy of
    them) if given.  Each tiling yields the chosen moves (a reused list)."""
    if budget is None:
        budget = Budget()
    get, moves = plan.index.get, []
    for i, key in enumerate(plan.keys):
        moves.append([(1 << i | 1 << j, (i, j)) for d in plan.offsets[key & 1] if (j := get(key + d)) is not None])
        if i in plan.free:
            moves[-1].append((1 << i, (i,)))
    full = (1 << len(moves)) - 1
    covered = 0  # bitmask of covered cells
    chosen: list = []
    frames: list = []  # per open node, an iterator over its untried moves
    while True:
        budget.spend()
        if covered == full:
            yield chosen
        else:
            options = moves[(~covered & (covered + 1)).bit_length() - 1]
            if shuffle is not None:
                options = list(options)
                shuffle(options)
            frames.append(iter(options))
        while frames:
            if len(chosen) == len(frames):  # the top node's move is placed
                covered ^= chosen.pop()[0]
            move = next((mv for mv in frames[-1] if not covered & mv[0]), None)
            if move is not None:
                break
            frames.pop()
        else:
            return
        covered |= move[0]
        chosen.append(move)


def iter_tilings(region: Region, budget: Budget | None = None):
    """Yield every tiling as a frozenset of covers (cell pairs or free halves)."""
    plan = _tiling_plan(region)
    for chosen in _search(plan, budget):
        yield frozenset(plan.cover_cells(cover) for _, cover in chosen)


def sample_tiling(region: Region, rng, budget: Budget | None = None):
    """First tiling found by a depth-first search with shuffled branches."""
    plan = _tiling_plan(region)
    for chosen in _search(plan, budget, rng.shuffle):
        return [plan.cover_cells(cover) for _, cover in chosen]
    raise ValueError("region has no tiling")


# ---------------------------------------------------------------------------
# Symmetric tilings
# ---------------------------------------------------------------------------


# Per mode, its symmetries in the order they are checked: whether each one
# mirrors the heights as well as the strips.
_SYMMETRIES = {"central": (True,), "vertical": (False,), "both": (True, False)}


def _symmetry_perms(plan: _Plan, mode: str) -> list[list[int]]:
    """The chosen symmetries as permutations of the cell indices, or a
    ValueError unless the region is invariant under each.  In the frame
    offsets dx = x - x0 and dy = y - y0, sx - x is w - dx with w the largest
    dx, and sy - y is h - dy."""
    if mode not in _SYMMETRIES:
        raise ValueError("mode must be 'central', 'vertical', or 'both'")
    keys, index, h = plan.keys, plan.index, plan.frame[2]
    w = (keys[-1] >> 1) // h if keys else 0
    perms = []
    for mirror_y in _SYMMETRIES[mode]:
        perm = []
        for key in keys:
            dx, dy = divmod(key >> 1, h)
            j = index.get(2 * ((w - dx) * h + (h - dy if mirror_y else dy)) + 1 - (key & 1))
            if j is None:
                raise ValueError(f"region is not invariant under the {mode} symmetry")
            perm.append(j)
        if {perm[i] for i in plan.free} != plan.free:
            raise ValueError("free edges are not invariant under the symmetry")
        for cover, weight in plan.weights.items():
            if plan.weights.get(tuple(sorted(perm[i] for i in cover))) != weight:
                raise ValueError("lozenge weights are not invariant under the symmetry")
        perms.append(perm)
    return perms


def count_symmetric_tilings(region: Region, mode: str, budget: Budget | None = None):
    """Number of tilings fixed by the chosen symmetries of the region: such
    a tiling is a disjoint union of orbits of covers, so the scan counts them
    with the orbits whose least cell is i as the moves of cell i."""
    plan = _tiling_plan(region)
    group = [list(range(len(plan.keys)))]
    for perm in _symmetry_perms(plan, mode):  # commuting involutions: their products close the group
        group += [[perm[k] for k in g] for g in group]
    return _scan(plan, _orbit_moves(plan, group), budget)


def _orbit_moves(plan: _Plan, group: list[list[int]]):
    """Per cell i, as _scan moves, the orbits whose least cell is i, each
    weighing the product of its covers' weights and built once, from its one
    cover of cell i.  An orbit that overlaps itself is in no fixed tiling."""
    get, later, free, scale = plan.index.get, plan.later, plan.free, plan.scale
    weights = {sum(1 << k for k in cover): w for cover, w in plan.weights.items()}
    for i, key in enumerate(plan.keys):
        ends = [j for d in later[key & 1] if (j := get(key + d)) is not None]
        if i in free:
            ends.append(i)  # the free half, as the cover {i, i}
        moves = []
        for j in ends:
            orbit = {1 << g[i] | 1 << g[j] for g in group}
            cells = sum(orbit)  # with fewer bits than the images have in all when two overlap
            if not cells & ((1 << i) - 1) and cells.bit_count() == len(orbit) * (1 + (j != i)):
                moves.append((cells >> i + 1, math.prod([weights.get(m, scale ** m.bit_count()) for m in orbit])))
        yield moves


def reflect_cells(cells, line: int = 0):
    """Mirror cells across the vertical lattice line x = line."""
    return frozenset(Cell(2 * line - x - 1, y, "R" if o == "L" else "L") for x, y, o in cells)


def doubled_region(region: Region, line: int = 0) -> Region:
    """Union of a region with its mirror image; free edges, which must lie on
    the mirror line, become interior.  A free half {c} and its weight become
    the crossing lozenge {c, mirror(c)}."""
    for edge in region.free_edges:
        if edge[0] != line:
            raise ValueError(f"free edge {edge} is not on the mirror line {line}")
    weights = {}
    for key, w in region.weights.items():
        mirrored = reflect_cells(key, line)
        if len(key) == 1:
            weights[key | mirrored] = w
        else:
            weights[key] = weights[mirrored] = w
    return Region(region.cells | reflect_cells(region.cells, line), (), weights)


# ---------------------------------------------------------------------------
# Hook regions with a free boundary and their two-sided counterparts
# ---------------------------------------------------------------------------


def validate_strict_partition(shape) -> tuple[int, ...]:
    shape = tuple(int(p) for p in shape)
    if any(p < 1 for p in shape):
        raise ValueError("parts must be positive")
    if any(a <= b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"parts must strictly decrease: {shape}")
    return shape


def wedge_hook(order: int, level: int = 0) -> frozenset[Cell]:
    """Chevron hook of the given order: 2*order lozenges peaking on line 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if level % 2:
        raise ValueError("level must be even")
    return frozenset(_hook_cells(level, -order, order))


def shifted_wedge_hook(order: int, level: int = 0) -> frozenset[Cell]:
    """Chevron hook with its leftmost cell moved to the right end."""
    cells = set(wedge_hook(order, level))
    cells.remove(Cell(-order, level - order + 1, "R"))
    cells.add(Cell(order, level - order + 1, "R"))
    return frozenset(cells)


def _hook_cells(level: int, lo: int, hi: int):
    """The cells of columns lo .. hi-1 of the chevron hook at the given level
    (as in wedge_hook: rising to the left of line 0, falling to its right).
    The fields are valid by construction, so each Cell is made by
    tuple.__new__, without the NamedTuple constructor's argument handling."""
    new = tuple.__new__
    for c in range(lo, min(hi, 0)):
        yield new(Cell, (c, level + c + 1, "R"))
        yield new(Cell, (c, level + c + 2, "L"))
    for c in range(max(lo, 0), hi):
        yield new(Cell, (c, level - c, "L"))
        yield new(Cell, (c, level - c + 1, "R"))


def _hook_layout(m: int, shape: tuple[int, ...]):
    """(order, level) of the plain hooks and (part, level) of the shifted
    hooks of a validated shape.

    Plain hooks of order shape[0] + 1 sit on top, then one shifted hook per
    part, all stepping down one lozenge height per hook.  The leftmost strip,
    column -(shape[0] + 1), is forced and is dropped from the region; only the
    plain hooks reach it, so each plain hook starts at its column -order + 1.
    A shifted hook of order part is a wedge_hook with its leftmost R cell
    moved to the right end: its full columns are -part + 1 .. part - 1, its
    left label is the lone L(-part, level - part + 2) and its right label the
    lone R(part, level - part + 1).
    """
    k = len(shape)
    plain = [(shape[0] + 1, 2 * (k + m - t)) for t in range(1, m + 1)] if k else []
    shifted = [(part, 2 * (k - i)) for i, part in enumerate(shape, start=1)]
    return plain, shifted


def free_hook_region(m: int, shape, removed=()) -> Region:
    """One-sided hook region with a free boundary along line 0.

    removed lists the 1-based shifted hooks whose labeled left cell is
    deleted.
    """
    shape = validate_strict_partition(shape)
    return _free_hook_region(m, shape, _validate_removed(removed, len(shape)))


def _free_hook_region(m: int, shape: tuple[int, ...], removed: frozenset[int]) -> Region:
    plain, shifted = _hook_layout(m, shape)
    cells: list[Cell] = []
    free = []  # each hook reaching column -1 has its free edge at (0, level + 1)
    for order, level in plain:
        cells.extend(_hook_cells(level, 1 - order, 0))
        free.append((0, level + 1))
    for i, (part, level) in enumerate(shifted, start=1):
        cells.extend(_hook_cells(level, 1 - part, 0))
        if i not in removed:
            cells.append(Cell(-part, level - part + 2, "L"))
        if part > 1 or i not in removed:
            free.append((0, level + 1))
    return Region(cells, free, {})


def mirrored_hook_region(m: int, shape, removed=()) -> Region:
    """Two-sided hook region: no free boundary, half-weighted right ends.

    Each shifted hook keeps a weight-1/2 horizontal lozenge at its right end;
    for hooks in removed, both labeled cells are deleted and the half-weight
    lozenge disappears with them.
    """
    shape = validate_strict_partition(shape)
    return _mirrored_hook_region(m, shape, _validate_removed(removed, len(shape)))


def _mirrored_hook_region(m: int, shape: tuple[int, ...], removed: frozenset[int]) -> Region:
    plain, shifted = _hook_layout(m, shape)
    cells: list[Cell] = []
    weights: dict[frozenset, Fraction] = {}
    for order, level in plain:
        cells.extend(_hook_cells(level, 1 - order, order))
    for i, (part, level) in enumerate(shifted, start=1):
        cells.extend(_hook_cells(level, 1 - part, part))
        if i not in removed:
            right_label = Cell(part, level - part + 1, "R")
            cells += (Cell(-part, level - part + 2, "L"), right_label)
            weights[frozenset((Cell(part - 1, level - part + 1, "L"), right_label))] = Fraction(1, 2)
    return Region(cells, (), weights)


def _validate_removed(removed, k: int) -> frozenset[int]:
    removed = frozenset(int(i) for i in removed)
    if not removed <= set(range(1, k + 1)):
        raise ValueError(f"removed hooks {sorted(removed)} out of range 1..{k}")
    return removed


def binomial_path_matrix(m: int, shape, removed=()) -> ExactMatrix:
    """Path matrix of the lattice realization of the free-boundary region.

    Row i (a surviving hook), column j in 1..m+k carries
    C(part_i - 1 + m + i - j, m + i - j).
    """
    shape = validate_strict_partition(shape)
    return _binomial_path_matrix(m, shape, _validate_removed(removed, len(shape)))


def _binomial_path_matrix(m: int, shape: tuple[int, ...], removed: frozenset[int]) -> ExactMatrix:
    k = len(shape)
    rows = []
    for i, part in enumerate(shape, start=1):
        if i in removed:
            continue
        row = []
        for j in range(1, m + k + 1):
            down = m + i - j
            row.append(math.comb(part - 1 + down, down) if down >= 0 else 0)
        rows.append(row)
    if not rows:
        return ExactMatrix.zero(0, m + k)
    return ExactMatrix.from_rows(rows)


def free_tiling_count_formula(m: int, shape, removed=()):
    """Free-boundary tiling count as a sum of maximal minors."""
    return sum_max_minors(binomial_path_matrix(m, shape, removed))


def mirrored_tiling_gf_formula(m: int, shape, removed=()):
    """Two-sided tiling generating function as det[M (U/2) M^T].

    Evaluated as det[M U M^T] / 2^rows, so the matrix products stay on ints.
    """
    return _mirrored_gf(binomial_path_matrix(m, shape, removed))


def _mirrored_gf(z: ExactMatrix):
    return _exact_quotient(determinant(upper_twos_gram(z)), 2**z.rows)


def square_identity_values(m: int, shape, removed=(), budget: Budget | None = None) -> dict:
    """All four evaluation routes of the squared free-boundary identity.

    The shape and removed set are validated once, and both formulas share
    one path matrix."""
    shape = validate_strict_partition(shape)
    removed = _validate_removed(removed, len(shape))
    if budget is None:
        budget = Budget()
    z = _binomial_path_matrix(m, shape, removed)
    return {
        "free_formula": sum_max_minors(z),  # free_tiling_count_formula
        "free_tiler": count_tilings(_free_hook_region(m, shape, removed), budget),
        "mirrored_formula": _mirrored_gf(z),  # mirrored_tiling_gf_formula
        "mirrored_tiler": count_tilings(_mirrored_hook_region(m, shape, removed), budget),
        "factor": 2 ** (len(shape) - len(removed)),
    }


def check_square_identity(m: int, shape, removed=(), budget: Budget | None = None) -> bool:
    """Whether free^2 == 2^(surviving hooks) * two-sided, on every route."""
    v = square_identity_values(m, shape, removed, budget)
    return (
        v["free_formula"] == v["free_tiler"]
        and v["mirrored_formula"] == v["mirrored_tiler"]
        and v["free_formula"] ** 2 == v["factor"] * v["mirrored_formula"]
    )


# ---------------------------------------------------------------------------
# Double staircase product formulas
# ---------------------------------------------------------------------------


def double_staircase(n: int, k: int) -> tuple[int, ...]:
    """The strict partition (n, ..., 1) + (k, ..., 1), with n parts."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return tuple(
        (n + k + 2 - 2 * i) if i <= k else (n + 1 - i) for i in range(1, n + 1)
    )


def double_staircase_free_product(m: int, n: int, k: int) -> Fraction:
    """Product formula for the free-boundary count of the double staircase."""
    if m < 0:
        raise ValueError("need m >= 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    value = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            value *= Fraction(m + i + j - 1, i + j - 1)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            value *= Fraction(m + i + j, i + j)
    return value


def double_staircase_tiling_product(m: int, n: int, k: int) -> Fraction:
    """Product formula for the two-sided double-staircase tiling GF."""
    free = double_staircase_free_product(m, n, k)
    return free * free / 2**n


# ---------------------------------------------------------------------------
# Hexagons with holes and the punctured hexagon
# ---------------------------------------------------------------------------


def _axis_triangle_cells(apex_line: int, lo: int, hi: int):
    """Columns lo .. hi-1 of the left-pointing triangle on the horizontal
    axis with its apex on line apex_line: column c spans the heights
    -(c - apex_line) .. c - apex_line."""
    for c in range(lo, hi):
        d = c - apex_line
        for y in range(-d, d + 1):
            if (c + y) % 2 == 0:
                yield Cell(c, y, "L")
            elif -d < y < d:
                yield Cell(c, y, "R")


def holed_hexagon(m: int, n: int, holes=()) -> Region:
    """Hexagon with sides (2m, n, n, 2m, n, n) minus mirrored triangular holes.

    The n horizontal lozenges on the horizontal axis are labeled inward from
    both ends; holes lists the labels (1-based, at most n // 2) punched out
    as size-2 triangles on both sides.
    """
    if m < 1 or n < 1:
        raise ValueError("hexagon sides must be positive")
    holes = frozenset(int(h) for h in holes)
    if not holes <= set(range(1, n // 2 + 1)):
        raise ValueError(f"hole labels {sorted(holes)} out of range 1..{n // 2}")
    return _punched_hexagon(m, n, 0, holes)


def punctured_hexagon(m: int, n: int, x: int, holes=()) -> Region:
    """Odd hexagon (sides 2m and 2n-1) minus a centered horizontal lozenge
    of size 2x-1, minus mirrored triangular holes.

    After the puncture, 2(n-x) horizontal lozenges remain on the axis,
    labeled inward from both ends; holes may use labels up to n - x.
    """
    if m < 1 or n < 1 or not 1 <= x <= n:
        raise ValueError("need m, n >= 1 and 1 <= x <= n")
    holes = frozenset(int(h) for h in holes)
    if not holes <= set(range(1, n - x + 1)):
        raise ValueError(f"hole labels {sorted(holes)} out of range 1..{n - x}")
    return _punched_hexagon(m, 2 * n - 1, 2 * x - 1, holes)


def _punched_hexagon(m: int, half_side: int, puncture: int, holes) -> Region:
    """The hexagon with vertical sides 2m and slant sides half_side, less a
    centred pair of size-puncture triangles and a pair of size-2 triangles
    per hole label.  Its left half is columns 0 .. half_side - 1 of the axis
    triangle with apex on line -2m, less the left triangle of each pair; the
    whole is that half and its mirror across line half_side."""
    left = set(_axis_triangle_cells(-2 * m, 0, half_side))
    left.difference_update(_axis_triangle_cells(half_side - puncture, half_side - puncture, half_side))
    for h in holes:
        left.difference_update(_axis_triangle_cells(2 * h - 2, 2 * h - 2, 2 * h))
    return Region(left | reflect_cells(left, half_side), (), {})


def check_hexagon_factorization(region: Region, budget: Budget | None = None) -> bool:
    """Whether the centrally symmetric tiling count of a region is the
    square of the count of tilings with both central and vertical symmetry."""
    central = count_symmetric_tilings(region, "central", budget)
    both = count_symmetric_tilings(region, "both", budget)
    return central == both * both


def staircase_for_hexagon(n: int) -> tuple[int, ...]:
    """Hook shape whose regions are the symmetric quotients of the hexagon."""
    top = n - 1
    return tuple(range(top, 0, -2)) if top >= 1 else ()


def staircase_for_punctured_hexagon(n: int, x: int) -> tuple[int, ...]:
    return tuple(range(2 * n - 2, 2 * x - 1, -2))
