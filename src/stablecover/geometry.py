"""Planar primitives: points, unit disks, shifted grids, coverage and assignment.

All disk predicates are exact comparisons on the stored double-precision
values; there is no tolerance fudging here.  Anything that needs robustness
against rounding (e.g. candidate construction) must arrange for it upstream.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple


class Point(NamedTuple):
    x: float
    y: float


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


def assign_points(points: Iterable[Point], disks: list[UnitDisk]) -> Assignment:
    """Assign every covered point to the lowest-index disk containing it."""
    assignment: Assignment = {}
    for p in points:
        for i, d in enumerate(disks):
            if covers(d, p):
                assignment[p] = i
                break
    return assignment


def coverage_value(points: Iterable[Point], disks: list[UnitDisk]) -> int:
    """Number of points covered by the union of the disks."""
    return sum(1 for p in points if any(covers(d, p) for d in disks))


def disk_churn(before: list[UnitDisk], after: list[UnitDisk]) -> int:
    """Disks changed between two solutions: their multiset symmetric difference."""
    a, b = Counter(before), Counter(after)
    return sum((a - b).values()) + sum((b - a).values())


def cell_of(p: Point, grid: GridSpec) -> CellId:
    # Half-open cells: a point exactly on a grid line belongs to the
    # larger-coordinate cell.
    cx = math.floor((p.x - grid.offset_x) / grid.edge)
    cy = math.floor((p.y - grid.offset_y) / grid.edge)
    return CellId(cx, cy)


def _axis_line_distance(coord: float, offset: float, edge: float) -> float:
    r = (coord - offset) % edge
    return min(r, edge - r)


def is_boundary(disk: UnitDisk, grid: GridSpec) -> bool:
    """True iff the open disk crosses a grid line.

    A disk tangent to a line (distance exactly 1) counts as internal.
    """
    dx = _axis_line_distance(disk.center.x, grid.offset_x, grid.edge)
    dy = _axis_line_distance(disk.center.y, grid.offset_y, grid.edge)
    return dx < 1.0 or dy < 1.0


def grid_shift_count(epsilon: float) -> int:
    """Number of distinct shifts per axis for accuracy ``epsilon``."""
    return math.ceil(8.0 / epsilon)


def boundary_assigned_count(
    disks: list[UnitDisk], assignment: Assignment, grid: GridSpec
) -> int:
    """Points assigned to disks that are boundary disks of ``grid``."""
    per_disk = [0] * len(disks)
    for idx in assignment.values():
        per_disk[idx] += 1
    return sum(
        per_disk[i] for i, d in enumerate(disks) if is_boundary(d, grid)
    )


def select_grid(
    opt_disks: list[UnitDisk],
    alg_disks: list[UnitDisk],
    opt_assignment: Assignment,
    alg_assignment: Assignment,
    epsilon: float,
    edge: float | None = None,
    shifts: int | None = None,
) -> GridSpec:
    """First grid (row-major shift scan) whose boundary disks cover few points.

    The budget is ``(epsilon/2) * opt_value`` where ``opt_value`` is the number
    of points assigned in ``opt_assignment``, compared exactly with ``epsilon``
    read as the decimal it was written as.  A qualifying grid is guaranteed
    to exist whenever ``opt_value`` exceeds ``(1+epsilon)`` times the number of
    points assigned in ``alg_assignment``; calling this without that gap may
    exhaust the scan.
    """
    if shifts is None:
        shifts = grid_shift_count(epsilon)
    if edge is None:
        edge = 2.0 * shifts
    budget = Fraction(str(epsilon)) * len(opt_assignment) / 2
    for i in range(shifts):
        for j in range(shifts):
            grid = GridSpec(edge, i, j)
            total = boundary_assigned_count(opt_disks, opt_assignment, grid)
            if total > budget:
                continue
            total += boundary_assigned_count(alg_disks, alg_assignment, grid)
            if total <= budget:
                return grid
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
