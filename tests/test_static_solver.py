import itertools
import math
import random

import pytest

from stablecover.adversary.streams import ExactMaintainer
from stablecover.geometry import Point, UnitDisk, covers
from stablecover.harness_cli import gen_random, parse_stream
from stablecover.static_solver import (
    SolverBudgetError,
    SolverKind,
    _circles_through,
    candidate_disks,
    coverage_masks,
    max_coverage_masks,
    solve,
)


def brute_force_value(points, m):
    """Independent oracle: enumerate every m-subset of candidate masks."""
    pts = sorted(set(points))
    masks = coverage_masks(pts, candidate_disks(pts))
    distinct = sorted(set(masks))
    best = 0
    for combo in itertools.combinations(distinct, min(m, len(distinct))):
        u = 0
        for mk in combo:
            u |= mk
        best = max(best, u.bit_count())
    return best


def test_candidates_tangent_pair_single_circle():
    cands = candidate_disks([Point(0.0, 0.0), Point(2.0, 0.0)])
    pair_centers = [d for d in cands if d.center not in ((0.0, 0.0), (2.0, 0.0))]
    assert pair_centers == [UnitDisk(Point(1.0, 0.0))]


def test_candidates_single_point():
    assert candidate_disks([Point(3.0, 4.0)]) == [UnitDisk(Point(3.0, 4.0))]


def test_candidates_cover_their_defining_points():
    rng = random.Random(12)
    for _ in range(50):
        pts = [Point(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(6)]
        for d in candidate_disks(pts):
            covered = [p for p in pts if covers(d, p)]
            assert covered, "every candidate covers at least one point"


@pytest.mark.xfail(strict=True, reason="the rounded midpoint of a diametral pair misses a point")
def test_circles_through_cover_both_points_of_a_diametral_pair():
    # A 3-4-5 diameter: the unit disk at (1.1, 1.6) holds both decimals
    # exactly.  In doubles the pair is at d^2 = 4.0, so the offset is zero and
    # both centers are the midpoint, at squared distance 1 + 2**-52 from (1.9, 1).
    p, q = Point(0.3, 2.2), Point(1.9, 1.0)
    for center in _circles_through(p, q):
        assert covers(UnitDisk(center), p) and covers(UnitDisk(center), q)


def test_candidates_realize_best_single_disk_coverage():
    # Dense-grid oracle: no disk center on a 0.01 grid beats the candidates.
    rng = random.Random(4)
    for _ in range(5):
        pts = [Point(rng.uniform(0, 1.8), rng.uniform(0, 1.8)) for _ in range(3)]
        cands = candidate_disks(pts)
        assert len(cands) <= 3 + 6
        best_cand = max(sum(covers(d, p) for p in pts) for d in cands)
        best_grid = 0
        for i in range(-100, 281):
            for j in range(-100, 281):
                d = UnitDisk(Point(i * 0.01, j * 0.01))
                best_grid = max(best_grid, sum(covers(d, p) for p in pts))
        assert best_cand >= best_grid


def test_solve_examples():
    sol = solve({Point(0.0, 0.0), Point(0.5, 0.0), Point(10.0, 10.0)}, 1)
    assert sol.value == 2
    empty = solve(set(), 3)
    assert empty.value == 0 and len(empty.disks) == 3


def test_solution_always_m_disks():
    for m in (1, 2, 5):
        sol = solve({Point(0.0, 0.0)}, m)
        assert len(sol.disks) == m and sol.value == 1


def test_exact_matches_brute_force_small():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(3, 10)
        m = rng.randint(1, 3)
        pts = {Point(rng.uniform(0, 7), rng.uniform(0, 7)) for _ in range(n)}
        assert solve(pts, m).value == brute_force_value(pts, m)


def test_greedy_within_guarantee():
    rng = random.Random(31)
    bound = 1.0 - 1.0 / math.e
    for _ in range(50):
        n = rng.randint(4, 20)
        m = rng.randint(1, 3)
        pts = {Point(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(n)}
        exact = solve(pts, m).value
        greedy = solve(pts, m, SolverKind.GREEDY).value
        assert exact >= greedy >= bound * exact - 1e-9


def test_insert_delta_at_most_one():
    rng = random.Random(8)
    for _ in range(20):
        pts = {Point(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(8)}
        extra = Point(rng.uniform(0, 8), rng.uniform(0, 8))
        m = rng.randint(1, 3)
        before = solve(pts, m).value
        after = solve(pts | {extra}, m).value
        assert after - before in (0, 1)


def test_lexicographically_smallest_optimum():
    rng = random.Random(19)
    for _ in range(20):
        pts = sorted({Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(7)})
        masks = coverage_masks(pts, candidate_disks(pts))
        m = rng.randint(1, 3)
        value, pick = max_coverage_masks(masks, m)
        chosen = pick()
        k = len(chosen)
        best_sets = []
        for combo in itertools.combinations(range(len(masks)), k):
            u = 0
            for i in combo:
                u |= masks[i]
            if u.bit_count() == value:
                best_sets.append(list(combo))
        assert chosen == min(best_sets)


def test_budget_error():
    rng = random.Random(2)
    pts = {Point(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(30)}
    with pytest.raises(SolverBudgetError):
        solve(pts, 3, node_budget=5)


def test_value_search_runs_over_maximal_masks():
    """After the first 111 events of ``gen random --n 300 --bbox 30 --seed 0
    --delete-prob 0.2``, 75 points are live.  Their 163 candidate masks hold
    109 distinct ones, 59 of them maximal.  Over every mask the value search
    at m=16 takes 9,421,440 nodes; over the maximal ones, 58,603."""
    events = parse_stream("\n".join(gen_random(300, 30.0, seed=0, delete_prob=0.2)) + "\n")
    live = set()
    for op, p in events.point_events[:111]:
        (live.add if op == "insert" else live.remove)(p)
    assert len(live) == 75
    assert solve(live, 16, node_budget=100_000).value == 37


def lattice_points(seed):
    """16 draws on a 0.1 lattice in an 8.5x8.5 box."""
    rng = random.Random(seed)
    return [Point(round(rng.uniform(0, 8.5), 1), round(rng.uniform(0, 8.5), 1)) for _ in range(16)]


@pytest.mark.parametrize("seed", [7, 16, 19])
def test_dense_lattice_extracts_at_m8(seed):
    # The value search takes 32 to 217 nodes here over the maximal masks
    # (248 to 2973 over every mask); the depth-first extraction that prefix
    # feasibility replaced ran past the 5M budget.
    sol = solve(lattice_points(seed), 8)
    assert len(sol.disks) == 8
    assert len(sol.assignment) == sol.value


def test_exact_maintainer_replays_a_dense_lattice_at_m8():
    points = list(dict.fromkeys(lattice_points(7)))
    mt = ExactMaintainer(8)
    for k, p in enumerate(points):
        mt.apply("insert", p)
        assert mt.solution() == solve(points[:k + 1], 8).disks
    for k, p in enumerate(points[:-1]):
        mt.apply("delete", p)
        assert mt.solution() == solve(points[k + 1:], 8).disks


def test_determinism():
    rng = random.Random(10)
    pts = {Point(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(15)}
    a = solve(pts, 3)
    b = solve(pts, 3)
    assert a.disks == b.disks and a.value == b.value
