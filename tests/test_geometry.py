import math
import random

import pytest

from stablecover.geometry import (
    GridSelectionError,
    GridSpec,
    Point,
    UnitDisk,
    assign_points,
    boundary_assigned_count,
    cell_cover,
    cell_cover_size,
    cell_of,
    coverage_value,
    covers,
    grid_shift_count,
    is_boundary,
    select_grid,
)

G64 = GridSpec(64.0, 0, 0)


def test_covers_center_boundary_outside():
    d = UnitDisk(Point(0.0, 0.0))
    assert covers(d, Point(0.0, 0.0))
    assert covers(d, Point(0.0, 1.0))  # closed disk keeps its boundary
    assert not covers(d, Point(1.01, 0.0))


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
    g = select_grid(disks, disks, a, a, 0.25)
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
    g = select_grid(opt_disks, disks, a_opt, a_alg, 0.25)
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
        g = select_grid(opt_disks, alg_disks, a_opt, a_alg, eps)
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
