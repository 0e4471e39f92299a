"""Static max-cover-by-unit-disks oracles.

``solve`` offers an exact branch-and-bound (deterministic: among equal-value
optima it returns the lexicographically smallest candidate-index set) and a
greedy fallback with the usual (1 - 1/e) guarantee.

The exact search has two phases that draw on one node budget: a value search
over the distinct coverage masks, then the extraction of the canonical index
set, which continues the same node count.  ``solve`` computes candidates,
masks and the value eagerly; the returned :class:`Solution` builds its disks
and assignment only when one of them is first read.  A caller that reads only
``value`` never runs extraction, so a value-only solve can succeed where both
phases together exhaust the budget: on one draw of 200 uniform points in a
10x10 box at ``m=4`` the value search takes 12.6k nodes and extraction more
than 5M.  Both phases are explicit-stack loops whose depth is bounded by
``m``, never by the number of masks.  The mask-based search core is shared with the line-hitting
solver in :mod:`stablecover.adversary`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from enum import Enum
from typing import Callable

from .geometry import Assignment, Point, UnitDisk, assign_points, covers


class SolverKind(Enum):
    EXACT = "exact"
    GREEDY = "greedy"


class SolverBudgetError(Exception):
    """Exact search exceeded its node budget."""


class SolverInvariantError(Exception):
    """A solver guarantee failed; indicates a bug."""


class Solution:
    """An oracle optimum: ``value`` now, ``disks`` and ``assignment`` on first read.

    ``pick`` returns the chosen candidate indices; for the exact oracle it
    runs the extraction phase, which may raise :class:`SolverBudgetError`.
    The disks are the picked candidates padded to ``m`` with point-free disks.
    """

    def __init__(
        self,
        value: int,
        points: list[Point],
        candidates: list[UnitDisk],
        m: int,
        pick: Callable[[], list[int]],
    ) -> None:
        self.value = value
        self._points = points
        self._candidates = candidates
        self._m = m
        self._pick = pick
        self._built: tuple[list[UnitDisk], Assignment] | None = None

    @property
    def disks(self) -> list[UnitDisk]:
        return self._build()[0]

    @property
    def assignment(self) -> Assignment:
        return self._build()[1]

    def _build(self) -> tuple[list[UnitDisk], Assignment]:
        if self._built is None:
            disks = [self._candidates[i] for i in self._pick()]
            if len(disks) < self._m:
                min_y = min((p.y for p in self._points), default=0.0)
                disks += pad_disks(self._m - len(disks), min_y)
            assignment = assign_points(self._points, disks)
            if len(assignment) != self.value:
                raise SolverInvariantError(
                    f"solution value {self.value} but its disks cover {len(assignment)}"
                )
            self._built = (disks, assignment)
        return self._built


DEFAULT_NODE_BUDGET = 5_000_000


def pad_disks(count: int, min_y: float, start: int = 0) -> list[UnitDisk]:
    """Deterministic throwaway disks placed well below ``min_y``."""
    return [
        UnitDisk(Point(0.0, min_y - 10.0 - 3.0 * (start + i)))
        for i in range(count)
    ]


def _bucket(p: Point) -> tuple[int, int]:
    return (math.floor(p.x / 2.0), math.floor(p.y / 2.0))


def candidate_disks(points: list[Point] | set[Point]) -> list[UnitDisk]:
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


def _circles_through(p: Point, q: Point) -> list[Point]:
    """Centers of the unit circles through two points at distance <= 2.

    The half-distance term is clamped at 1 so near-tangent pairs cannot produce
    a NaN, and the perpendicular offset is pulled in by at most a few ulps so
    that ``covers`` holds exactly for both defining points.
    """
    mx = (p.x + q.x) / 2.0
    my = (p.y + q.y) / 2.0
    dx = q.x - p.x
    dy = q.y - p.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return [Point(mx, my)]
    half2 = min((d / 2.0) ** 2, 1.0)
    h = math.sqrt(1.0 - half2)
    ux, uy = -dy / d, dx / d
    centers = []
    for sign in (1.0, -1.0):
        scale = 1.0
        for _ in range(60):
            c = Point(mx + sign * h * scale * ux, my + sign * h * scale * uy)
            if covers(UnitDisk(c), p) and covers(UnitDisk(c), q):
                centers.append(c)
                break
            scale *= 1.0 - 1e-12
        else:  # pragma: no cover - would need absurd rounding
            centers.append(Point(mx, my))
    return centers


def coverage_masks(points: list[Point], disks: list[UnitDisk]) -> list[int]:
    """Bitmask over ``points`` of what each disk covers."""
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, p in enumerate(points):
        buckets[(math.floor(p.x), math.floor(p.y))].append(i)
    masks = []
    for d in disks:
        cx, cy = math.floor(d.center.x), math.floor(d.center.y)
        m = 0
        for bx in range(cx - 1, cx + 2):
            for by in range(cy - 1, cy + 2):
                for i in buckets.get((bx, by), ()):
                    if covers(d, points[i]):
                        m |= 1 << i
        masks.append(m)
    return masks


def max_coverage_masks(
    masks: list[int],
    m: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, list[int]]:
    """Maximum union of ``m`` masks; ties by lexicographically smallest indices.

    The value search runs over distinct masks only; the returned index set is
    extracted from the full list, so equal-coverage duplicates may legitimately
    appear in it.  Returns the value and the chosen ascending index list of
    size ``min(m, len(masks))``.  Both phases draw on one ``node_budget``.
    """
    best, nodes = _best_value(masks, m, node_budget)
    return best, _extract(masks, m, best, nodes, node_budget)


def _budget_error(node_budget: int) -> SolverBudgetError:
    return SolverBudgetError(f"exceeded {node_budget} search nodes")


def _best_value(masks: list[int], m: int, node_budget: int) -> tuple[int, int]:
    """Phase 1: the largest union of ``m`` masks and the search nodes it took.

    Branch and bound over the distinct masks sorted by coverage (descending,
    ties by first occurrence).  Each node takes the next mask before skipping
    it; a skip waits on the stack until the take's subtree is done, so the
    stack holds at most one entry per taken mask.
    """
    if m <= 0 or not masks:
        return 0, 0
    ordered = sorted(dict.fromkeys(masks), key=lambda mk: -mk.bit_count())
    n = len(ordered)
    prefix = [0]
    union = 0
    for mk in ordered:
        prefix.append(prefix[-1] + mk.bit_count())
        union |= mk
    total = union.bit_count()

    best = nodes = 0
    stack = [(0, min(m, len(masks)), 0, 0)]  # (position, slots, union, value)
    while stack:
        pos, slots, mask, val = stack.pop()
        while True:
            nodes += 1
            if nodes > node_budget:
                raise _budget_error(node_budget)
            if val > best:
                best = val
            if slots == 0 or pos == n or best == total:
                break
            if val + prefix[min(pos + slots, n)] - prefix[pos] <= best:
                break
            gain = ordered[pos] & ~mask
            pos += 1
            if gain:
                stack.append((pos, slots, mask, val))
                mask |= gain
                val += gain.bit_count()
                slots -= 1
    return best, nodes


def _extract(
    masks: list[int], m: int, best: int, nodes: int, node_budget: int
) -> list[int]:
    """Phase 2: the lexicographically first index set whose union is ``best``.

    Runs over the full, undeduped list: zero-marginal picks and duplicates
    can both appear in the lexicographically smallest optimum.  The count
    continues from the ``nodes`` phase 1 spent, under the same budget.  The
    chosen prefix is the explicit stack; a branch is cut once its union plus
    the largest ``slots`` coverages from its next index cannot reach ``best``.
    """
    if m <= 0 or not masks:
        return []
    full_n = len(masks)
    m = min(m, full_n)
    top_after: list[list[int]] = [[] for _ in range(full_n + 1)]
    for i in range(full_n - 1, -1, -1):
        merged = top_after[i + 1] + [masks[i].bit_count()]
        top_after[i] = sorted(merged, reverse=True)[:m]
    # caps[i][s]: the s largest coverages among indices i.. (s <= full_n - i).
    caps = [_prefix_sums(t) for t in top_after]

    nodes += 1
    if nodes > node_budget:
        raise _budget_error(node_budget)
    chosen: list[int] = []
    frames = [(0, 0)]  # union and its size after each chosen prefix
    i = 0
    while True:
        slots = m - len(chosen)
        mask, val = frames[-1]
        while i <= full_n - slots and val + caps[i][slots] >= best:
            nm = mask | masks[i]
            nodes += 1
            if nodes > node_budget:
                raise _budget_error(node_budget)
            if slots == 1:
                if nm.bit_count() == best:
                    chosen.append(i)
                    return chosen
                i += 1
                continue
            chosen.append(i)
            frames.append((nm, nm.bit_count()))
            i += 1
            break
        else:  # no child left at this depth: backtrack
            if not chosen:
                raise SolverInvariantError(
                    "extraction must succeed once the optimum value is known"
                )
            i = chosen.pop() + 1
            frames.pop()


def _prefix_sums(values: list[int]) -> list[int]:
    out = [0]
    for v in values:
        out.append(out[-1] + v)
    return out


def _greedy_masks(masks: list[int], m: int) -> tuple[int, list[int]]:
    """Greedy max coverage: the union size and the chosen indices."""
    chosen: list[int] = []
    covered = 0
    used: set[int] = set()
    seen_mask: set[int] = set()
    distinct = []
    for i, mk in enumerate(masks):
        if mk not in seen_mask:
            seen_mask.add(mk)
            distinct.append(i)
    for _ in range(min(m, len(distinct))):
        best_gain = -1
        best_i = -1
        for i in distinct:
            if i in used:
                continue
            gain = (masks[i] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        chosen.append(best_i)
        used.add(best_i)
        covered |= masks[best_i]
    return covered.bit_count(), chosen


def solve(
    points: list[Point] | set[Point],
    m: int,
    kind: SolverKind = SolverKind.EXACT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Solution:
    """Best coverage of ``points`` by ``m`` unit disks under the given oracle.

    The value is computed here; the disks and assignment when first read.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    pts = sorted(set(points))
    cands = candidate_disks(pts)
    masks = coverage_masks(pts, cands)
    if kind is SolverKind.EXACT:
        value, nodes = _best_value(masks, m, node_budget)

        def pick() -> list[int]:
            return _extract(masks, m, value, nodes, node_budget)
    else:
        value, indices = _greedy_masks(masks, m)

        def pick() -> list[int]:
            return indices
    return Solution(value, pts, cands, m, pick)
