"""Planar primitives, with reference copies of the repair helpers.

``reference_assign`` is the points x disks loop that ``assign_points``
replaced, and ``reference_select_grid`` the per-grid recount that
``select_grid`` replaced, with its ``boundary_assigned_count`` and the
``is_boundary`` it called (here ``reference_is_boundary``, with its
``_axis_line_distance``); all are kept verbatim apart from their names.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecover.geometry import (
    WINDOW_MIN_POINTS,
    GridSelectionError,
    GridSpec,
    Point,
    UnitDisk,
    assign_points,
    bit_grid,
    bucket,
    cell_cover,
    cell_cover_size,
    cell_of,
    coverage_value,
    covered_bits,
    covers,
    disk_churn,
    grid_add,
    grid_remove,
    grid_shift_count,
    is_boundary,
    near,
    select_grid,
)
from stablecover.static_solver import pad_disks

G64 = GridSpec(64.0, 0, 0)


def reference_assign(points, disks):
    assignment = {}
    for p in points:
        for i, d in enumerate(disks):
            if covers(d, p):
                assignment[p] = i
                break
    return assignment


def _axis_line_distance(coord, offset, edge):
    r = (coord - offset) % edge
    return min(r, edge - r)


def reference_is_boundary(disk, grid):
    dx = _axis_line_distance(disk.center.x, grid.offset_x, grid.edge)
    dy = _axis_line_distance(disk.center.y, grid.offset_y, grid.edge)
    return dx < 1.0 or dy < 1.0


def boundary_assigned_count(disks, assignment, grid):
    """Points assigned to disks that are boundary disks of ``grid``."""
    per_disk = [0] * len(disks)
    for idx in assignment.values():
        per_disk[idx] += 1
    return sum(
        per_disk[i] for i, d in enumerate(disks) if reference_is_boundary(d, grid)
    )


def reference_select_grid(
    opt_disks, alg_disks, opt_assignment, alg_assignment, epsilon, edge=None, shifts=None
):
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


def test_covers_center_boundary_outside():
    d = UnitDisk(Point(0.0, 0.0))
    assert covers(d, Point(0.0, 0.0))
    assert covers(d, Point(0.0, 1.0))  # closed disk keeps its boundary
    assert not covers(d, Point(1.01, 0.0))


def test_neighbour_grid_window_bits_and_removal():
    pts = [Point(0.5, 0.5), Point(3.9, -1.5), Point(4.0, 0.0), Point(-1.5, 0.5)]
    grid = bit_grid(pts)
    assert [bucket(p) for p in pts] == [(0, 0), (1, -1), (2, 0), (-1, 0)]
    # Bucket (2, 0) lies two columns from (0, 0), outside its 3x3 window.
    window = near(grid, (0, 0))
    assert sorted(bit for _, bit in window) == [0b0001, 0b0010, 0b1000]
    # The unit circle keeps its boundary, as in ``covers``.
    assert covered_bits(Point(-0.5, 0.5), window) == 0b1001
    for p, bit in zip(pts, (1, 2, 4, 8)):
        grid_remove(grid, p, (p, bit))
    assert grid == {}  # emptied buckets and columns go
    grid_add(grid, pts[1], "entry")
    assert grid == {1: {-1: ["entry"]}}


def test_assign_points_tie_break_lowest_index():
    a = assign_points([Point(0.0, 0.0)], [UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(0.5, 0.0))])
    assert a == {Point(0.0, 0.0): 0}


def test_assign_points_out_of_range_uncovered():
    a = assign_points([Point(5.0, 5.0)], [UnitDisk(Point(0.0, 0.0))])
    assert a == {}


def test_assign_points_shared_disk():
    pts = [Point(0.0, 0.0), Point(0.5, 0.0)]
    a = assign_points(pts, [UnitDisk(Point(0.0, 0.0))])
    assert a == {pts[0]: 0, pts[1]: 0}


def test_assignment_counts_match_union_coverage():
    rng = random.Random(5)
    for _ in range(30):
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(25)]
        disks = [UnitDisk(Point(rng.uniform(0, 10), rng.uniform(0, 10))) for _ in range(4)]
        a = assign_points(pts, disks)
        assert len(a) == coverage_value(pts, disks)
        for p, i in a.items():
            assert covers(disks[i], p)


@st.composite
def assignment_cases(draw):
    """Points on a 0.1 or 0.5 lattice, on both sides of the window-path
    size, plus points exactly 1 from a disk's center along an axis and one
    ulp beyond; disks at lattice points and points, repeated, and padded
    with disks parked far below."""
    div = draw(st.sampled_from((10, 2)))
    side = draw(st.integers(2, 16))
    coord = st.integers(0, side * div).map(lambda k: k / div)
    lattice = st.builds(Point, coord, coord)
    size = draw(
        st.one_of(
            st.integers(0, WINDOW_MIN_POINTS - 1),
            st.integers(WINDOW_MIN_POINTS, 2 * WINDOW_MIN_POINTS + 8),
        )
    )
    points = draw(st.lists(lattice, min_size=size, max_size=size))
    centers = draw(st.lists(st.one_of(lattice, st.sampled_from(points or [Point(0.0, 0.0)])), max_size=20))
    for c in draw(st.lists(st.sampled_from(centers), max_size=4)) if centers else ():
        for dx, dy in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            x, y = c.x + dx, c.y + dy
            points.append(Point(x, y))
            points.append(
                Point(math.nextafter(x, x + dx), y) if dx else Point(x, math.nextafter(y, y + dy))
            )
    points = draw(st.permutations(points))
    disks = [UnitDisk(c) for c in centers]
    disks += draw(st.lists(st.sampled_from(disks), max_size=4)) if disks else []
    disks = draw(st.permutations(disks))
    disks += pad_disks(draw(st.integers(0, 4)), min((p.y for p in points), default=0.0))
    return points, disks


# The disk at (0, 0) covers (1, 0) but not the point one ulp beyond; the
# disk at (2, 0), filed one bucket over, covers both, and so does its
# duplicate.
@example(
    (
        [Point(1.0, 0.0), Point(math.nextafter(1.0, 2.0), 0.0)]
        + [Point(10.0 + k, 10.0) for k in range(WINDOW_MIN_POINTS)],
        [UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(2.0, 0.0)), UnitDisk(Point(2.0, 0.0))],
    )
)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(assignment_cases())
def test_assign_points_matches_reference(case):
    points, disks = case
    expected = list(reference_assign(points, disks).items())
    assert list(assign_points(points, disks).items()) == expected
    assert list(assign_points(iter(points), disks).items()) == expected


def test_disk_churn_is_multiset_symmetric_difference():
    rng = random.Random(5)
    disks = [UnitDisk(Point(float(i), 0.0)) for i in range(4)]
    assert disk_churn(disks[:1] * 2 + disks[1:2], disks[:1] + disks[2:3]) == 3
    for _ in range(200):
        before = rng.choices(disks, k=rng.randint(0, 6))
        after = rng.choices(disks, k=rng.randint(0, 6))
        a, b = Counter(before), Counter(after)
        assert disk_churn(before, after) == sum((a - b).values()) + sum((b - a).values())


def test_cell_of_examples():
    assert cell_of(Point(0.5, 0.5), G64) == (0, 0)
    assert cell_of(Point(64.0, 0.5), G64) == (1, 0)  # on the line goes right
    assert cell_of(Point(-0.5, -0.5), G64) == (-1, -1)


def test_cell_of_respects_shift():
    g = GridSpec(64.0, 1, 0)  # vertical lines now at x = 2 + 64k
    assert cell_of(Point(1.5, 0.5), g) == (-1, 0)
    assert cell_of(Point(2.0, 0.5), g) == (0, 0)


def test_is_boundary_tangent_is_internal():
    assert not is_boundary(UnitDisk(Point(1.0, 32.0)), G64)
    assert is_boundary(UnitDisk(Point(0.5, 32.0)), G64)
    assert not is_boundary(UnitDisk(Point(32.0, 32.0)), G64)


def test_shift_counts():
    assert grid_shift_count(0.25) == 32  # 32*32 = 1024 candidate grids


def test_disk_is_boundary_in_few_grids():
    # Any unit disk crosses lines of strictly fewer than 16/eps of the
    # (8/eps)^2 shifted grids; with eps=1/4 that is at most 63 of 1024.
    rng = random.Random(9)
    s = grid_shift_count(0.25)
    for _ in range(10):
        d = UnitDisk(Point(rng.uniform(0, 200), rng.uniform(0, 200)))
        bad = sum(
            1
            for i in range(s)
            for j in range(s)
            if is_boundary(d, GridSpec(64.0, i, j))
        )
        assert bad <= 16 / 0.25 - 1


def test_select_grid_all_internal_returns_first():
    disks = [UnitDisk(Point(32.0, 32.0))]
    pts = [Point(32.0, 32.0)]
    a = assign_points(pts, disks)
    g = select_grid(disks, disks, a, a, 0.25, edge=64.0, shifts=32)
    assert (g.shift_i, g.shift_j) == (0, 0)


def test_select_grid_skips_past_straddling_disk():
    # A disk straddling x=0 with every point assigned to it forces the scan
    # past all shift_i=0 grids; shifting by one step already clears it.
    disks = [UnitDisk(Point(0.0, 32.0))]
    pts = [Point(0.0, 32.0)]
    a_alg = assign_points(pts, disks)
    opt_pts = [Point(32.0 + dx, 32.0) for dx in (0.0, 0.1, 0.2, 0.3)]
    opt_disks = [UnitDisk(Point(32.0, 32.0))]
    a_opt = assign_points(opt_pts, opt_disks)
    g = select_grid(opt_disks, disks, a_opt, a_alg, 0.25, edge=64.0, shifts=32)
    assert g.shift_i == 1 and g.shift_j == 0


def test_select_grid_postcondition_recount():
    rng = random.Random(21)
    eps = 0.25
    done = 0
    while done < 10:
        pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(25)]
        opt_disks = [UnitDisk(p) for p in pts[:3]]
        alg_disks = [UnitDisk(Point(rng.uniform(0, 100), rng.uniform(0, 100))) for _ in range(3)]
        a_opt = assign_points(pts, opt_disks)
        a_alg = assign_points(pts, alg_disks)
        if len(a_opt) <= (1 + eps) * len(a_alg):
            continue
        g = select_grid(opt_disks, alg_disks, a_opt, a_alg, eps, edge=64.0, shifts=32)
        total = boundary_assigned_count(opt_disks, a_opt, g) + boundary_assigned_count(
            alg_disks, a_alg, g
        )
        assert total <= 0.5 * eps * len(a_opt)
        done += 1


def test_select_grid_exhaustion_signals():
    # Tiny grid cells make every disk a boundary disk; with points assigned
    # the budget cannot be met.
    disks = [UnitDisk(Point(0.5, 0.5))]
    pts = [Point(0.5, 0.5)]
    a = assign_points(pts, disks)
    with pytest.raises(GridSelectionError):
        select_grid(disks, disks, a, a, 0.25, edge=1.0, shifts=1)


@st.composite
def grid_selection_cases(draw):
    """Two solutions with centers on a half lattice, so many disks sit
    exactly 1 from a grid line (internal) or cross it by half a unit;
    assignments hold a drawn number of points per disk."""
    shifts = draw(st.sampled_from((1, 2, 4, 8)))
    edge = draw(st.sampled_from((2.0 * shifts, 4.0, 16.0)))
    span = int(edge) * 2
    coord = st.integers(-2, 2 * span).map(lambda k: k / 2)
    center = st.builds(Point, coord, coord)

    def solution(base):
        disks = [UnitDisk(c) for c in draw(st.lists(center, max_size=8))]
        counts = draw(st.lists(st.integers(0, 6), min_size=len(disks), max_size=len(disks)))
        points = [Point(float(base + t), 0.0) for t in range(sum(counts))]
        owners = [i for i, count in enumerate(counts) for _ in range(count)]
        return disks, dict(zip(points, draw(st.permutations(owners))))

    opt_disks, opt_assignment = solution(0)
    alg_disks, alg_assignment = solution(1000)
    epsilon = draw(st.sampled_from((0.25, 0.35, 0.5, 1.0, 2.0)))
    return opt_disks, alg_disks, opt_assignment, alg_assignment, epsilon, edge, shifts


def selected(select, case):
    try:
        return select(*case)
    except GridSelectionError as exc:
        return str(exc)


# Only grid (0, 1) has neither the opt disk at (1.5, 5) nor the alg disk at
# (5, 3.5) on a line; the disks at (3, 3) and (5, 5) are tangent to lines
# in every grid.
@example(
    (
        [UnitDisk(Point(1.5, 5.0)), UnitDisk(Point(3.0, 3.0))],
        [UnitDisk(Point(5.0, 3.5)), UnitDisk(Point(5.0, 5.0))],
        {Point(float(t), 0.0): t % 2 for t in range(8)},
        {Point(float(t), 1.0): t % 2 for t in range(8)},
        0.25, 4.0, 2,
    )
)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(grid_selection_cases())
def test_select_grid_matches_reference(case):
    assert selected(select_grid, case) == selected(reference_select_grid, case)
    opt_disks, alg_disks, *_, edge, shifts = case
    for i in range(shifts):
        for j in range(shifts):
            grid = GridSpec(edge, i, j)
            for d in opt_disks + alg_disks:
                assert is_boundary(d, grid) == reference_is_boundary(d, grid)


def test_select_grid_budget_is_exact():
    # At epsilon=0.35 and opt=360 the budget is exactly 63, while the float
    # product 0.5*0.35*360 reads 62.99999999999999.  The boundary disk at
    # (0.5, 0.5) holds 63 (then 64) points in grid (0,0); every other shift
    # makes the disk at (2, 2), with the rest of the points, a boundary disk.
    opt_disks = [UnitDisk(Point(0.5, 0.5)), UnitDisk(Point(2.0, 2.0))]
    for on_boundary, fits in ((63, True), (64, False)):
        a_opt = {Point(float(k), 0.0): int(k >= on_boundary) for k in range(360)}
        if fits:
            assert select_grid(opt_disks, [], a_opt, {}, 0.35, edge=4.0, shifts=2) == (
                GridSpec(4.0, 0, 0)
            )
        else:
            with pytest.raises(GridSelectionError):
                select_grid(opt_disks, [], a_opt, {}, 0.35, edge=4.0, shifts=2)


def test_cell_cover_count_and_budget():
    g = G64
    disks = cell_cover((0, 0), g)
    assert len(disks) == math.ceil(64.0 / math.sqrt(2.0)) ** 2 == 2116
    assert len(disks) == cell_cover_size(64.0)


def test_cell_cover_contains_cell():
    g = GridSpec(16.0, 0, 0)
    disks = cell_cover((1, 2), g)
    rng = random.Random(3)
    samples = [Point(16.0 + rng.uniform(0, 16), 32.0 + rng.uniform(0, 16)) for _ in range(100)]
    corners = [Point(16.0 + dx, 32.0 + dy) for dx in (0.0, 8.0, 16.0) for dy in (0.0, 8.0, 16.0)]
    for p in samples + corners:
        assert any(covers(d, p) for d in disks)


def test_cell_cover_single_tile():
    g = GridSpec(math.sqrt(2.0), 0, 0)
    assert len(cell_cover((0, 0), g)) == 1
