"""The harness's from-scratch candidates, masks and recount against references.

``candidate_disks``, ``coverage_masks``, ``coverage_value`` and the table
that ``solve`` builds from points, ``_candidate_table``, find neighbours
through 2x2-bucket neighbour lists.  The ``reference_*`` functions below
are direct versions: a 9-bucket probe per point for the pairs, and a
``covers`` call per point and disk for the masks and the recount.  Every
output must be equal: the same disks in the same order, the same masks bit
for bit and the same counts, and the recount must be the popcount of the
masks' union.  The table must give the reference centers and the reference
masks of the sorted, deduplicated points, on every named set and on
generated sets with duplicates, pairs exactly 1 and exactly 2 apart, points
on bucket edges and negative coordinates.

The sets cover uniform floats in boxes of side 2 to 60, a half-unit lattice,
pairs exactly 2 apart, negative and large coordinates, empty and one-point
sets, and points on either side of a bucket edge (``1.9999999999999998``
next to ``4.0`` is a pair by distance, since the difference rounds to 2, but
not by bucket).  In the half-ulp case a center covers points one unit plus
half an ulp away, as ``covers`` says, and the masks and the candidate index
hold them too.
"""

import functools
import math
import operator
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecover.geometry import Point, UnitDisk, covers, coverage_value
from stablecover.static_solver import (
    CandidateIndex,
    _candidate_table,
    _circles_through,
    candidate_disks,
    coverage_masks,
    pad_disks,
)


def _bucket(p: Point) -> tuple[int, int]:
    return (math.floor(p.x / 2.0), math.floor(p.y / 2.0))


def reference_candidate_disks(points: list[Point] | set[Point]) -> list[UnitDisk]:
    """Candidate centers that realize every achievable single-disk coverage set.

    One disk centered at each point, plus for every pair at distance <= 2 the
    one or two unit circles through both points.  Output is deduplicated and
    deterministic (sorted points, then sorted pairs, plus-normal circle first).
    """
    pts = sorted(set(points))
    out: list[UnitDisk] = []
    seen: set[Point] = set()

    def emit(center: Point) -> None:
        if center not in seen:
            seen.add(center)
            out.append(UnitDisk(center))

    for p in pts:
        emit(p)

    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, p in enumerate(pts):
        buckets[_bucket(p)].append(i)
    pairs = []
    for i, p in enumerate(pts):
        bx, by = _bucket(p)
        for nx in (bx - 1, bx, bx + 1):
            for ny in (by - 1, by, by + 1):
                for j in buckets.get((nx, ny), ()):
                    if j <= i:
                        continue
                    q = pts[j]
                    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
                    if d2 <= 4.0:
                        pairs.append((i, j))
    pairs.sort()

    for i, j in pairs:
        p, q = pts[i], pts[j]
        for center in _circles_through(p, q):
            emit(center)
    return out


def reference_coverage_masks(points: list[Point], disks: list[UnitDisk]) -> list[int]:
    """Bitmask over ``points`` of what each disk covers."""
    return [sum(1 << i for i, p in enumerate(points) if covers(d, p)) for d in disks]


def reference_coverage_value(points, disks: list[UnitDisk]) -> int:
    """Number of points covered by the union of the disks."""
    return sum(1 for p in points if any(covers(d, p) for d in disks))


def _uniform(rng, n, side, x0=0.0, y0=0.0):
    return [Point(x0 + rng.uniform(0.0, side), y0 + rng.uniform(0.0, side)) for _ in range(n)]


def _lattice(rng, n, side):
    return [Point(rng.randint(0, 2 * side) / 2, rng.randint(0, 2 * side) / 2) for _ in range(n)]


def _two_apart(rng, n, x0=0.0, y0=0.0):
    """Pairs exactly 2 apart along an axis, anchored on quarter-unit spots."""
    out = []
    for _ in range(n):
        x, y = x0 + rng.randint(0, 24) / 4, y0 + rng.randint(0, 24) / 4
        out += [Point(x, y), Point(x + 2.0, y) if rng.random() < 0.5 else Point(x, y + 2.0)]
    return out


def _edges(rng, n):
    """Points on and one ulp either side of integers, the 2x2 bucket edges
    among them."""
    spots = []
    for k in range(-3, 4):
        edge = float(k)
        spots += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    return [Point(rng.choice(spots), rng.choice(spots)) for _ in range(n)]


def _sets():
    rng = random.Random(20261018)
    sets = {"empty": [], "one-point": [Point(0.5, -0.25)]}
    for side in (2.0, 3.0, 4.5, 8.0, 12.0, 20.0, 40.0, 60.0):
        for n in (5, 40, 150) if side >= 8.0 else (5, 20, 60):
            sets[f"uniform-{side}-{n}"] = _uniform(rng, n, side)
    for side, n in ((2, 12), (3, 25), (5, 60)):
        sets[f"lattice-{side}-{n}"] = _lattice(rng, n, side)
    sets["two-apart"] = _two_apart(rng, 30)
    sets["two-apart-negative"] = _two_apart(rng, 30, -7.0, -3.5)
    sets["negative"] = _uniform(rng, 80, 12.0, -13.7, -6.1)
    sets["large"] = _uniform(rng, 80, 10.0, 1.0e6, -3.0e7)
    sets["huge"] = _uniform(rng, 40, 6.0, 2.0**40, 2.0**41)
    sets["edges"] = _edges(rng, 60)
    sets["edge-pair"] = [Point(1.9999999999999998, 0.5), Point(4.0, 0.5),
                         Point(0.5, 1.9999999999999998), Point(0.5, 4.0)]
    sets["half-ulp"] = list(HALF_ULP_POINTS)
    return sets


HALF_ULP_POINTS = (Point(0.0, 1.0), Point(2.0, 1.0), Point(1.0, 1.0), Point(1.0, 0.0),
                   Point(1.0, 2.0))
HALF_ULP_CENTER = Point(0.9999999999999999, 0.9999999999999999)

SETS = _sets()


def _probe_disks(rng, pts, count):
    """Disks the masks and recount are checked on besides the candidates:
    centers jittered by an ulp around points, centers on bucket edges, and
    the parking disks of an unfilled solution."""
    out = [UnitDisk(HALF_ULP_CENTER)]
    for p in rng.sample(pts, min(count, len(pts))):
        x = math.nextafter(p.x + rng.choice((-1.0, 0.0, 1.0)), rng.choice((-math.inf, math.inf)))
        out.append(UnitDisk(Point(x, p.y + rng.uniform(-1.0, 1.0))))
        out.append(UnitDisk(Point(float(math.floor(p.x)), math.nextafter(p.y, -math.inf))))
    return out + pad_disks(2, min((p.y for p in pts), default=0.0))


@pytest.mark.parametrize("name", sorted(SETS))
def test_candidate_disks_match_reference(name):
    pts = SETS[name]
    assert candidate_disks(pts) == reference_candidate_disks(pts)
    assert candidate_disks(set(pts)) == reference_candidate_disks(pts)


@pytest.mark.parametrize("name", sorted(SETS))
def test_coverage_masks_match_reference(name):
    rng = random.Random(name)
    pts = sorted(set(SETS[name]))
    disks = reference_candidate_disks(pts) + _probe_disks(rng, pts, 20)
    assert coverage_masks(pts, disks) == reference_coverage_masks(pts, disks)
    # Any point order, duplicates included: a bit is a list position.
    shuffled = SETS[name] + SETS[name][:3]
    rng.shuffle(shuffled)
    assert coverage_masks(shuffled, disks) == reference_coverage_masks(shuffled, disks)
    # The recount is the popcount of the masks' union.
    union = functools.reduce(operator.or_, coverage_masks(pts, disks), 0)
    assert coverage_value(pts, disks) == union.bit_count()


@pytest.mark.parametrize("name", sorted(SETS))
def test_coverage_value_matches_reference(name):
    rng = random.Random(name)
    pts = SETS[name]
    cands = reference_candidate_disks(pts) + _probe_disks(rng, pts, 20)
    for m in (1, 4, 16):
        for _ in range(5):
            disks = rng.sample(cands, min(m, len(cands)))
            assert coverage_value(set(pts), disks) == reference_coverage_value(set(pts), disks)
            assert coverage_value(pts, disks) == reference_coverage_value(pts, disks)
    assert coverage_value(pts, cands) == reference_coverage_value(pts, cands)
    assert coverage_value(pts, []) == 0


def assert_table_matches_reference(points):
    pts = sorted(set(points))
    ref = reference_candidate_disks(points)
    centers, masks = _candidate_table(pts)
    assert centers == [d.center for d in ref]
    assert masks == reference_coverage_masks(pts, ref)


@pytest.mark.parametrize("name", sorted(SETS))
def test_candidate_table_matches_reference(name):
    assert_table_matches_reference(SETS[name])


# Coordinates on the quarter-unit lattice (the 2x2 bucket edges among them),
# an ulp either side of an integer, or anywhere in a box round the origin.
EDGE_SPOTS = sorted({
    s for k in range(-5, 6)
    for s in (float(k), math.nextafter(float(k), -math.inf), math.nextafter(float(k), math.inf))
})
COORDS = st.one_of(
    st.integers(-24, 24).map(lambda k: k / 4),
    st.sampled_from(EDGE_SPOTS),
    st.floats(-6.0, 6.0, allow_nan=False),
)
# Partner offsets: exactly 1 and exactly 2 apart along an axis from a
# lattice point, and about 1 or 2 apart on a diagonal.
OFFSETS = st.sampled_from(
    [(1.0, 0.0), (0.0, -1.0), (2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.6, 0.8), (1.2, -1.6)]
)


@st.composite
def point_sets(draw):
    """Points with partners at the offsets, and some of them twice."""
    pts = draw(st.lists(st.builds(Point, COORDS, COORDS), max_size=20))
    for _ in range(draw(st.integers(0, 10))):
        x, y = draw(st.integers(-24, 24)) / 4, draw(st.integers(-24, 24)) / 4
        dx, dy = draw(OFFSETS)
        pts += [Point(x, y), Point(x + dx, y + dy)]
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    return pts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(points=point_sets())
def test_candidate_table_matches_reference_on_generated_sets(points):
    assert_table_matches_reference(points)


def _relabelled(index: CandidateIndex) -> tuple[list[UnitDisk], list[int]]:
    """The index's candidates, with slot bits moved to sorted-index bits."""
    order = {p: i for i, p in enumerate(sorted(index.points))}
    disks, masks = index.candidates()
    return disks, [
        sum(1 << order[p] for p, slot in index._slot.items() if mk >> slot & 1) for mk in masks
    ]


@pytest.mark.parametrize("name", sorted(SETS))
def test_candidate_index_matches_reference(name):
    """Built in any order and thinned by deletes, the index holds the
    reference candidates with the reference masks."""
    rng = random.Random(name)
    pts = sorted(set(SETS[name]))
    shuffled = rng.sample(pts, len(pts))
    index = CandidateIndex(shuffled)
    for gone in (shuffled[::3], shuffled):
        live = sorted(index.points)
        cands = reference_candidate_disks(live)
        assert _relabelled(index) == (cands, reference_coverage_masks(live, cands))
        for p in gone:
            if p in index:
                index.remove(p)
    assert index.candidates() == ([], [])


def test_bucket_edge_pair_is_no_candidate_pair():
    """The points are 2 apart by the rounded distance, but two 2x2 buckets
    apart, so neither path makes a circle through them."""
    a, b = Point(1.9999999999999998, 0.5), Point(4.0, 0.5)
    assert (b.x - a.x) ** 2 == 4.0
    assert candidate_disks([a, b]) == [UnitDisk(a), UnitDisk(b)]


def test_half_ulp_center_covers_all_five_points():
    """The center is one unit plus half an ulp from (2, 1) and (1, 2): the
    difference rounds to 1, so ``covers`` accepts all five points, and so do
    the recount, the masks and the candidate index."""
    disk = UnitDisk(HALF_ULP_CENTER)
    assert all(covers(disk, p) for p in HALF_ULP_POINTS)
    assert coverage_value(HALF_ULP_POINTS, [disk]) == 5
    assert coverage_value(set(HALF_ULP_POINTS), [disk]) == 5

    pts = sorted(HALF_ULP_POINTS)  # (0,1) (1,0) (1,1) (1,2) (2,1)
    five = 0b11111
    assert coverage_masks(pts, [disk]) == [five] == reference_coverage_masks(pts, [disk])

    index = CandidateIndex(HALF_ULP_POINTS)
    slot_mask = index._mask_of(disk)
    relabelled = sum(1 << i for i, p in enumerate(pts) if slot_mask >> index._slot[p] & 1)
    assert relabelled == five
