"""Planar primitives: points, unit disks, shifted grids, coverage and assignment.

All disk predicates are exact comparisons on the stored double-precision
values; there is no tolerance fudging here.  Anything that needs robustness
against rounding (e.g. candidate construction) must arrange for it upstream.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple


class Point(NamedTuple):
    x: float
    y: float


# The largest coordinate a point may have, in absolute value.  A candidate
# center starts from the midpoint ``(p.x + q.x) / 2`` of two points, and that
# sum stays finite only up to half the largest double: two points on the
# vertical line one double beyond it sum to infinity.
MAX_COORDINATE = sys.float_info.max / 2


class UnitDisk(NamedTuple):
    """Closed disk of radius exactly 1; only the center is stored."""

    center: Point


class CellId(NamedTuple):
    cx: int
    cy: int


class GridSpec(NamedTuple):
    """An axis-aligned square grid, shifted in steps of 2 from the origin.

    ``shift_i``/``shift_j`` are integers in ``[0, edge/2)``; the grid lines sit
    at ``offset + k*edge`` for both axes.
    """

    edge: float
    shift_i: int
    shift_j: int

    @property
    def offset_x(self) -> float:
        return 2.0 * self.shift_i

    @property
    def offset_y(self) -> float:
        return 2.0 * self.shift_j


class GridSelectionError(Exception):
    """No shifted grid met the boundary-coverage budget."""


# Assignment maps a point to the index of the disk it is assigned to.
# Points absent from the mapping are uncovered.
Assignment = dict[Point, int]


def covers(disk: UnitDisk, p: Point) -> bool:
    """Closed-disk membership: squared distance at most 1, compared exactly."""
    dx = p.x - disk.center.x
    dy = p.y - disk.center.y
    return dx * dx + dy * dy <= 1.0


# Inputs of at least this many points take the window path of
# :func:`assign_points`.  Filing the points and probing each disk's 3x3
# window cost about 1.5 us per disk however few points there are, while the
# per-point loop grows with points x disks and stops at the first cover.
# Timed on uniform points (2 CPUs, Python 3.11) at m = 4, 16 and 64, in
# boxes as dense as 8 points in 4.5x4.5 and as sparse as 150 in 60x60, the
# window path wins or ties from 48 points, crosses over between 24 and 48,
# and loses by 2.5x or more at 8 points.
WINDOW_MIN_POINTS = 48


def assign_points(points: Iterable[Point], disks: list[UnitDisk]) -> Assignment:
    """Assign every covered point to the lowest-index disk containing it.

    The mapping's keys follow the input order.  Below
    :data:`WINDOW_MIN_POINTS` points each point tries the disks in index
    order, by ``covers`` inlined with the same operations.  From there on
    the points are filed once in the neighbour grid (entries
    ``(point, input index)``), and each disk in index order takes the points
    of its :func:`near` window that it covers and no earlier disk took.
    """
    points = list(points)
    assignment: Assignment = {}
    if len(points) < WINDOW_MIN_POINTS:
        centers = [d.center for d in disks]
        for p in points:
            px, py = p
            for i, (cx, cy) in enumerate(centers):
                dx = px - cx
                dy = py - cy
                if dx * dx + dy * dy <= 1.0:
                    assignment[p] = i
                    break
        return assignment
    grid: Grid = {}
    for i, p in enumerate(points):
        # ``bucket`` inlined, as in ``bit_grid``.
        col = grid.setdefault(math.floor(p.x / 2.0), {})
        col.setdefault(math.floor(p.y / 2.0), []).append((p, i))
    owner = [-1] * len(points)
    for k, d in enumerate(disks):
        x, y = d.center
        for (qx, qy), i in near(grid, bucket(d.center)):
            if owner[i] < 0:
                dx = qx - x
                dy = qy - y
                if dx * dx + dy * dy <= 1.0:
                    owner[i] = k
    for p, k in zip(points, owner):
        if k >= 0:
            assignment[p] = k
    return assignment


def coverage_value(points: Iterable[Point], disks: list[UnitDisk]) -> int:
    """Number of points covered by the union of the disks, by ``covers``.

    Each point gets a bit in a :func:`bit_grid`; each disk ORs the
    :func:`covered_bits` of its :func:`near` window, and the union's popcount
    is the count.
    """
    grid = bit_grid(points)
    covered = 0
    for d in disks:
        covered |= covered_bits(d.center, near(grid, bucket(d.center)))
    return covered.bit_count()


# The neighbour grid of the point side (a fixed-radius near-neighbour cell
# grid): entries are filed by the 2x2 bucket of a point, column -> row ->
# entries, so probes are int-keyed.  The 3x3 buckets around a center's hold
# every point ``covers`` can accept: ``covers`` implies ``|fl(dx)| <= 1``,
# and rounding is monotone, so the true offset is below 2 and the buckets of
# the two x coordinates differ by at most 1 (likewise for y).
Grid = dict[int, dict[int, list]]


def bucket(p: Point) -> tuple[int, int]:
    """The 2x2 bucket ``(floor(x/2), floor(y/2))`` that files ``p``."""
    return (math.floor(p.x / 2.0), math.floor(p.y / 2.0))


def bit_grid(points: Iterable[Point]) -> Grid:
    """The grid of ``(point, 1 << i)`` for the ``i``-th of ``points``."""
    grid: Grid = {}
    for i, p in enumerate(points):
        # ``bucket`` inlined: one call per filed point is measurably slower.
        col = grid.setdefault(math.floor(p.x / 2.0), {})
        col.setdefault(math.floor(p.y / 2.0), []).append((p, 1 << i))
    return grid


def grid_add(grid: Grid, p: Point, entry) -> None:
    """File ``entry`` in ``p``'s bucket."""
    bx, by = bucket(p)
    grid.setdefault(bx, {}).setdefault(by, []).append(entry)


def grid_remove(grid: Grid, p: Point, entry) -> None:
    """Take ``entry`` out of ``p``'s bucket; drop the bucket once it is
    empty, and its column too."""
    bx, by = bucket(p)
    col = grid[bx]
    entries = col[by]
    entries.remove(entry)
    if not entries:
        del col[by]
        if not col:
            del grid[bx]


def near(grid: Grid, key: tuple[int, int]) -> list:
    """The entries of the 3x3 buckets around bucket ``key``."""
    bx, by = key
    out: list = []
    for nx in (bx - 1, bx, bx + 1):
        col = grid.get(nx)
        if col is not None:
            for ny in (by - 1, by, by + 1):
                entries = col.get(ny)
                if entries:
                    out += entries
    return out


def covered_bits(center: Point, entries: list) -> int:
    """The OR of the bits of the ``(point, bit)`` entries whose point a disk
    at ``center`` covers, by ``covers`` inlined with the same operations."""
    x, y = center
    mask = 0
    for (qx, qy), bit in entries:
        dx = qx - x
        dy = qy - y
        if dx * dx + dy * dy <= 1.0:
            mask |= bit
    return mask


def disk_churn(before: list[UnitDisk], after: list[UnitDisk]) -> int:
    """Disks changed between two solutions: their multiset symmetric difference."""
    count = Counter(before)
    count.subtract(after)
    return sum(map(abs, count.values()))


def cell_of(p: Point, grid: GridSpec) -> CellId:
    # Half-open cells: a point exactly on a grid line belongs to the
    # larger-coordinate cell.
    cx = math.floor((p.x - grid.offset_x) / grid.edge)
    cy = math.floor((p.y - grid.offset_y) / grid.edge)
    return CellId(cx, cy)


def _near_line(coord: float, offset: float, edge: float) -> bool:
    """True iff ``coord`` is less than 1 from a line at ``offset + k*edge``."""
    r = (coord - offset) % edge
    return r < 1.0 or edge - r < 1.0


def is_boundary(disk: UnitDisk, grid: GridSpec) -> bool:
    """True iff the open disk crosses a grid line.

    A disk tangent to a line (distance exactly 1) counts as internal.
    """
    x, y = disk.center
    return _near_line(x, grid.offset_x, grid.edge) or _near_line(y, grid.offset_y, grid.edge)


def grid_shift_count(epsilon: float) -> int:
    """Number of distinct shifts per axis for accuracy ``epsilon``."""
    return math.ceil(8.0 / epsilon)


def select_grid(
    opt_disks: list[UnitDisk],
    alg_disks: list[UnitDisk],
    opt_assignment: Assignment,
    alg_assignment: Assignment,
    epsilon: float,
    edge: float,
    shifts: int,
) -> GridSpec:
    """First grid (row-major shift scan) whose boundary disks cover few points.

    The budget is ``(epsilon/2) * opt_value`` where ``opt_value`` is the number
    of points assigned in ``opt_assignment``, compared exactly with ``epsilon``
    read as the decimal it was written as.  A qualifying grid is guaranteed
    to exist whenever ``opt_value`` exceeds ``(1+epsilon)`` times the number of
    points assigned in ``alg_assignment``; calling this without that gap may
    exhaust the scan.

    A grid's count is the points assigned to its boundary disks (see
    :func:`is_boundary`), over both solutions.  The points are counted per
    disk center once, and each center's x and y boundary flags once per axis
    shift, since a grid's x lines depend only on ``shift_i`` and its y lines
    only on ``shift_j``; the scan then only sums.  A shift's flags are built
    when the scan first reaches it, so a scan that stops early builds few.
    """
    budget = Fraction(str(epsilon)) * len(opt_assignment) / 2
    held: Counter[Point] = Counter()
    for disks, assignment in ((opt_disks, opt_assignment), (alg_disks, alg_assignment)):
        for idx, count in Counter(assignment.values()).items():
            held[disks[idx].center] += count
    counts = list(held.values())
    y_flags: list[list[bool]] = []
    limit = math.floor(budget)  # counts are integers
    for i in range(shifts):
        # Offsets as ``GridSpec.offset_x``/``offset_y`` compute them.
        x_i = [_near_line(c.x, 2.0 * i, edge) for c in held]
        for j in range(shifts):
            if j == len(y_flags):
                y_flags.append([_near_line(c.y, 2.0 * j, edge) for c in held])
            total = sum(n for n, fx, fy in zip(counts, x_i, y_flags[j]) if fx or fy)
            if total <= limit:
                return GridSpec(edge, i, j)
    raise GridSelectionError(
        f"no grid with boundary coverage <= {budget} among {shifts}x{shifts} shifts"
    )


SQRT2 = math.sqrt(2.0)


def cell_cover(cell: CellId, grid: GridSpec) -> list[UnitDisk]:
    """Unit disks whose union contains the closed cell.

    The cell is tiled row-major with squares of side sqrt(2), each circumscribed
    by one unit disk; the outermost tiles may stick out past the cell.
    """
    k = math.ceil(grid.edge / SQRT2)
    x0 = grid.offset_x + cell[0] * grid.edge
    y0 = grid.offset_y + cell[1] * grid.edge
    disks = []
    for row in range(k):
        cy = y0 + (row + 0.5) * SQRT2
        for col in range(k):
            cx = x0 + (col + 0.5) * SQRT2
            disks.append(UnitDisk(Point(cx, cy)))
    return disks


def cell_cover_size(edge: float) -> int:
    return math.ceil(edge / SQRT2) ** 2
