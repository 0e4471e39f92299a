"""Static max-cover-by-unit-disks oracles.

``solve`` offers an exact branch-and-bound (deterministic: among equal-value
optima it returns the lexicographically smallest candidate-index set) and a
greedy fallback with the usual (1 - 1/e) guarantee.

One entry, :func:`max_coverage_masks`, picks the search by :class:`SolverKind`
for ``solve`` and for the line-hitting solver in :mod:`stablecover.adversary`.
The exact search has two phases that draw on one node budget: a value search
over the distinct coverage masks, then the extraction of the canonical index
set, which continues the same node count.  Extraction walks the indices in
order and takes each one that still leaves a completion to the optimum.  Both
phases run one branch and bound, :func:`_search`, which looks for the best
union above a floor and returns at the first union that reaches a ceiling:
the value search from 0 up to the union of all masks, and each of
extraction's completion tests from one below the bits it needs up to them.
``solve`` computes candidates, masks and the value eagerly; the returned
:class:`Solution` builds its disks and assignment only when one of them is
first read.  A caller that reads only ``value`` never runs extraction, so a
value-only solve can succeed under a budget that both phases together
exceed: on four draws of 200 uniform points in a 10x10 box at ``m=4`` the
value search takes 27 to 12.6k nodes and extraction 4.1k to 13.3k.  The
search is an explicit-stack loop whose depth is bounded by ``m``, never by
the number of masks.

Candidates and masks come from one of two paths.  Called with the points,
``solve`` builds them from scratch in one table (:func:`_candidate_table`):
the candidate centers in :func:`candidate_disks` order and their masks, as
:func:`coverage_masks` gives them over the sorted points, and it makes
disks only for the candidates the solution picks.  The engines instead keep
a :class:`CandidateIndex` and pass it in their place: it adds and removes
one point's candidates per event, and gives the same candidates in the same
order with the same masks up to a relabelling of the bits, so the solve
returns the same result.  The replay harness keeps calling the from-scratch
path, which makes its re-solve an independent check on the index.

The greedy oracle is lazy greedy (CELF) run as one merge,
:func:`_greedy_masks`: a stream of the masks in :class:`RankedMasks` order,
by coverage and then by candidate position, against a heap of the entries it
has re-evaluated.  The from-scratch path sorts that order per call.  A
:class:`CandidateIndex` keeps it instead: built on the first greedy solve and
from then on moved entry by entry as events change masks, so a greedy solve
over the index reads only the top of the order, never lists the candidates,
and makes disks only for its picks.  An index that only the exact oracle
reads never builds the order.

Both paths find neighbours through the grid of 2x2 buckets in
:mod:`stablecover.geometry`: the from-scratch table files the points in one
per call, the index keeps one for its points and one for its centers.  The
table's pair scan is a forward half-window over the buckets; each pair at
distance <= 2 gives its circle centers, and a point disk's mask takes the
partner's bit when ``geometry.covered_bits`` accepts it.  Every other mask
is the ``covered_bits`` of a ``geometry.near`` window, so a bit means what
``covers`` says on either path.  The from-scratch path never reads the
index.
"""

from __future__ import annotations

import bisect
import heapq
import math
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import itemgetter, or_
from typing import Callable, Collection, Iterable, Iterator, KeysView

from .geometry import (
    Assignment, Grid, Point, UnitDisk, assign_points, bit_grid, bucket, covered_bits, covers,
    grid_add, grid_remove, near,
)


class SolverKind(Enum):
    EXACT = "exact"
    GREEDY = "greedy"


class SolverBudgetError(Exception):
    """Exact search exceeded its node budget."""


class SolverInvariantError(Exception):
    """A solver guarantee failed; indicates a bug."""


class Solution:
    """An oracle optimum: ``value`` now, ``disks`` and ``assignment`` on first read.

    ``pick`` returns the chosen candidates' keys: their indices, or a greedy
    solve's first sources over a :class:`CandidateIndex`; for the exact
    oracle it runs the extraction phase, which may raise
    :class:`SolverBudgetError`.  ``disk_of`` gives a key's disk.  The disks are the picked
    candidates padded to ``m`` with point-free disks; the assignment walks
    the points in sorted order.
    """

    def __init__(
        self,
        value: int,
        points: Collection[Point],
        m: int,
        pick: Callable[[], list[int]],
        disk_of: Callable[[int], UnitDisk],
    ) -> None:
        self.value = value
        self._points = points
        self._m = m
        self._pick = pick
        self._disk_of = disk_of
        self._built: tuple[list[UnitDisk], Assignment] | None = None

    @property
    def disks(self) -> list[UnitDisk]:
        return self._build()[0]

    @property
    def assignment(self) -> Assignment:
        return self._build()[1]

    def _build(self) -> tuple[list[UnitDisk], Assignment]:
        if self._built is None:
            disks = [self._disk_of(i) for i in self._pick()]
            if len(disks) < self._m:
                min_y = min((p.y for p in self._points), default=0.0)
                disks += pad_disks(self._m - len(disks), min_y)
            assignment = assign_points(sorted(self._points), disks)
            if len(assignment) != self.value:
                raise SolverInvariantError(
                    f"solution value {self.value} but its disks cover {len(assignment)}"
                )
            self._built = (disks, assignment)
        return self._built


DEFAULT_NODE_BUDGET = 5_000_000


def pad_disks(count: int, min_y: float = -990.0) -> list[UnitDisk]:
    """Deterministic throwaway disks parked well below ``min_y``.

    The default parks them from y=-1000 down, below anything a stream inserts;
    every initial solution starts that way.
    """
    return [UnitDisk(Point(0.0, min_y - 10.0 - 3.0 * i)) for i in range(count)]


def candidate_disks(points: Iterable[Point]) -> list[UnitDisk]:
    """Candidate centers that realize every achievable single-disk coverage set.

    One disk centered at each point, plus for every pair at distance <= 2 the
    one or two unit circles through both points.  Output is deduplicated and
    deterministic (sorted points, then sorted pairs, plus-normal circle first).
    The centers are :func:`_candidate_table`'s.
    """
    return [UnitDisk(c) for c in _candidate_table(sorted(set(points)))[0]]


def _candidate_table(pts: list[Point]) -> tuple[list[Point], list[int]]:
    """The candidate centers of sorted, distinct ``pts`` in
    :func:`candidate_disks` order, and their masks with bit ``i`` for
    ``pts[i]``: what ``coverage_masks(pts, ...)`` gives their disks.

    The points are filed once, in one :func:`~stablecover.geometry.bit_grid`.
    A pair is tested only when its points' 2x2 buckets are equal or
    neighbours: each occupied bucket is scanned against itself and its four
    forward neighbours, so each neighbouring pair of buckets once.  A point
    disk's mask is its own bit plus, for each pair at distance <= 2, the
    partner's bit when ``covered_bits`` accepts it; ``covers`` negates both
    differences for the other point, so one test serves both, and every
    point it accepts is in such a pair.  The circle centers' masks are the
    grid's :func:`_window_masks`.
    """
    grid = bit_grid(pts)
    pairs = []  # (bit, partner bit, point, partner), the lower bit first
    for bx, col in grid.items():
        ahead = grid.get(bx + 1, {})
        for by, own in col.items():
            for k, (p, bit) in enumerate(own, start=1):
                x, y = p
                for q, qbit in own[k:]:
                    if (x - q.x) ** 2 + (y - q.y) ** 2 <= 4.0:
                        pairs.append((bit, qbit, p, q))
            for other in (col.get(by + 1), ahead.get(by - 1), ahead.get(by), ahead.get(by + 1)):
                if other is None:
                    continue
                for p, bit in own:
                    x, y = p
                    for q, qbit in other:
                        if (x - q.x) ** 2 + (y - q.y) ** 2 <= 4.0:
                            pairs.append((bit, qbit, p, q) if bit < qbit else (qbit, bit, q, p))
    pairs.sort()

    centers = list(pts)
    masks = [1 << i for i in range(len(pts))]
    seen = set(pts)
    for bit, qbit, p, q in pairs:
        if covered_bits(p, [(q, qbit)]):
            masks[bit.bit_length() - 1] |= qbit
            masks[qbit.bit_length() - 1] |= bit
        for center in _circles_through(p, q):
            if center not in seen:
                seen.add(center)
                centers.append(center)
    return centers, masks + _window_masks(grid, centers[len(pts):])


def _circles_through(p: Point, q: Point) -> list[Point]:
    """Centers of the two unit circles through two points at distance <= 2.

    The points must be distinct, as both callers pair them, so the distance
    is above 0: distinct doubles differ by a nonzero amount.  The
    half-distance term is clamped at 1 so near-tangent pairs cannot produce
    a NaN, and the perpendicular offset is pulled in by at most a few ulps so
    that ``covers`` holds for both defining points, except when the offset is
    zero.  A pair exactly 2 apart in doubles, such as (0.3, 2.2) and (1.9, 1),
    has no offset to pull in: both centers are the rounded midpoint, and
    ``covers`` may reject one of the points.
    """
    mx = (p.x + q.x) / 2.0
    my = (p.y + q.y) / 2.0
    dx = q.x - p.x
    dy = q.y - p.y
    d = math.hypot(dx, dy)
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
        else:  # no pull moved a zero offset: the midpoint, which may miss p or q
            centers.append(Point(mx, my))
    return centers


def coverage_masks(points: Iterable[Point], disks: list[UnitDisk]) -> list[int]:
    """Bitmask over ``points`` of what each disk covers.

    The points go into one :func:`~stablecover.geometry.bit_grid`, and the
    masks are its :func:`_window_masks` at the disks' centers.
    """
    return _window_masks(bit_grid(points), [d.center for d in disks])


def _window_masks(grid: Grid, centers: Iterable[Point]) -> list[int]:
    """The ``covered_bits`` of each center's ``near`` window in ``grid``; a
    window is built once per bucket and shared by every center in it."""
    windows: dict[tuple[int, int], list] = {}
    masks = []
    for c in centers:
        key = bucket(c)
        window = windows.get(key)
        if window is None:
            window = windows[key] = near(grid, key)
        masks.append(covered_bits(c, window))
    return masks


# A candidate center's source: a point's own disk, ``(0, p)``, or the
# ``k``-th unit circle through a pair ``a < b`` at distance <= 2,
# ``(1, a, b, k)``.  Sorting centers by their smallest source reproduces the
# order :func:`candidate_disks` emits them in.
Source = tuple


class RankedMasks(list):
    """Greedy's start order: one ``(-popcount, key, mask)`` entry per
    candidate, ascending, so by coverage and then by ``key``.  The keys order
    the candidates as their list positions do: indices on the from-scratch
    path, first sources in a :class:`CandidateIndex`.  Equal masks may all
    appear; the greedy takes the first and skips the rest."""


def _ranked(masks: Iterable[int]) -> RankedMasks:
    """The start order of a mask list, keyed by index: a stable sort on the
    coverage alone keeps equal coverages in index order."""
    ranked = RankedMasks((-mk.bit_count(), i, mk) for i, mk in enumerate(masks))
    ranked.sort(key=itemgetter(0))
    return ranked


class CandidateIndex:
    """The candidate disks of a changing point set, kept up to date per point.

    Every live point holds a stable bit slot; each candidate's mask has a
    point's slot bit where :func:`coverage_masks` would have its sorted-index
    bit, and the candidates come out in :func:`candidate_disks` order.  The
    oracle reads masks only through equality, unions and popcounts, so a
    solve over the index returns what one from scratch returns.

    Points (with their slot bits) and centers sit in two geometry grids;
    a point's ``near`` window holds every center whose disk can cover it,
    and a center's mask is the ``covered_bits`` of its window, so the index
    and ``coverage_masks`` agree to the bit.

    The greedy oracle reads :meth:`ranked`, the disks in
    :class:`RankedMasks` order keyed by their smallest source, instead of
    :meth:`candidates`.  That order is built on the first call and from then
    on moved entry by entry whenever an event changes a disk's mask or
    smallest source, so a greedy solve starts with no rebuild.  An index the
    greedy never reads (the exact oracle's) never builds it and pays nothing
    for it.

    ``opt_bound`` is a certified upper bound on the exact optimum of the
    live points, for the ``m`` its owner solves at.  A new index starts at
    its point count, :meth:`add` raises the bound by 1 and :meth:`remove`
    caps it at the new point count; only the owner's exact solve may set it
    lower, to the solved value.  An insert raises the optimum by at most 1
    and a delete never raises it, so the bound stays certified through an
    undone event (an undone insert is a ``remove``, an undone delete an
    ``add``) and in a ``copy.deepcopy`` fork.
    """

    def __init__(self, points: Iterable[Point] = ()) -> None:
        self._slot: dict[Point, int] = {}
        self._free: list[int] = []  # min-heap of released slots
        self._point_buckets: Grid = {}  # (point, its slot bit) entries
        self._center_buckets: Grid = {}  # UnitDisk entries
        self._mask: dict[UnitDisk, int] = {}
        self._sources: dict[UnitDisk, set[Source]] = {}
        self._center_of: dict[Source, UnitDisk] = {}
        self._order: list[Source] = []  # every live source, sorted
        self._ranked: RankedMasks | None = None  # built by the first ranked()
        self.opt_bound = 0
        for p in points:
            self.add(p)

    @property
    def points(self) -> KeysView[Point]:
        return self._slot.keys()

    def __contains__(self, p: Point) -> bool:
        return p in self._slot

    def candidates(self) -> tuple[list[UnitDisk], list[int]]:
        """The candidate disks in ``candidate_disks`` order and their masks."""
        # A center first shows up at its smallest source.
        disks = list(dict.fromkeys(map(self._center_of.__getitem__, self._order)))
        return disks, [self._mask[d] for d in disks]

    def ranked(self) -> RankedMasks:
        """The live disks' masks in greedy's start order, keyed by each
        disk's smallest source (the disk is ``_center_of[key]``); the list
        is the index's own, kept up to date by every later event."""
        if self._ranked is None:
            self._ranked = RankedMasks(sorted(
                (-mk.bit_count(), min(self._sources[d]), mk) for d, mk in self._mask.items()
            ))
        return self._ranked

    def add(self, p: Point) -> None:
        if p in self._slot:
            raise ValueError(f"point {p} is already indexed")
        slot = heapq.heappop(self._free) if self._free else len(self._slot)
        bit = 1 << slot
        for d in near(self._center_buckets, bucket(p)):
            if covers(d, p):
                if self._ranked is not None:
                    self._rerank(d, self._mask[d] | bit)
                self._mask[d] |= bit
        self._slot[p] = slot
        grid_add(self._point_buckets, p, (p, bit))
        self._add_source((0, p), p)
        for key, a, b in self._pairs_with(p):
            for k, center in enumerate(_circles_through(a, b)):
                self._add_source(key + (k,), center)
        self.opt_bound += 1

    def remove(self, p: Point) -> None:
        slot = self._slot.pop(p)
        self.opt_bound = min(self.opt_bound, len(self._slot))
        heapq.heappush(self._free, slot)
        bit = 1 << slot
        grid_remove(self._point_buckets, p, (p, bit))
        self._drop_source((0, p))
        for key, _, _ in self._pairs_with(p):
            for k in (0, 1):
                self._drop_source(key + (k,))
        for d in near(self._center_buckets, bucket(p)):
            if self._ranked is not None and self._mask[d] & bit:
                self._rerank(d, self._mask[d] & ~bit)
            self._mask[d] &= ~bit

    def _pairs_with(self, p: Point) -> Iterator[tuple[Source, Point, Point]]:
        """``((1, a, b), a, b)`` for each live ``q`` that ``candidate_disks``
        pairs with ``p``, with ``a < b`` the two points."""
        for q, _ in near(self._point_buckets, bucket(p)):
            if q == p:
                continue
            a, b = (p, q) if p < q else (q, p)
            if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 <= 4.0:
                yield (1, a, b), a, b

    def _add_source(self, key: Source, center: Point) -> None:
        d = UnitDisk(center)
        sources = self._sources.get(d)
        if sources is None:
            self._sources[d] = {key}
            mask = self._mask[d] = self._mask_of(d)
            grid_add(self._center_buckets, center, d)
            if self._ranked is not None:
                self._rank(mask, key)
        else:
            if self._ranked is not None and key < (first := min(sources)):
                self._unrank(self._mask[d], first)
                self._rank(self._mask[d], key)
            sources.add(key)
        self._center_of[key] = d
        bisect.insort(self._order, key)

    def _drop_source(self, key: Source) -> None:
        d = self._center_of.pop(key)
        del self._order[bisect.bisect_left(self._order, key)]
        sources = self._sources[d]
        sources.remove(key)
        if self._ranked is not None and (not sources or key < min(sources)):
            self._unrank(self._mask[d], key)
            if sources:
                self._rank(self._mask[d], min(sources))
        if not sources:
            del self._sources[d], self._mask[d]
            grid_remove(self._center_buckets, d.center, d)

    def _rerank(self, d: UnitDisk, mask: int) -> None:
        """Move ``d``'s ranked entry from its current mask to ``mask``."""
        first = min(self._sources[d])
        self._unrank(self._mask[d], first)
        self._rank(mask, first)

    def _rank(self, mask: int, first: Source) -> None:
        bisect.insort(self._ranked, (-mask.bit_count(), first, mask))

    def _unrank(self, mask: int, first: Source) -> None:
        ranked = self._ranked
        del ranked[bisect.bisect_left(ranked, (-mask.bit_count(), first, mask))]

    def _mask_of(self, d: UnitDisk) -> int:
        """The slot mask of the live points ``coverage_masks`` would give ``d``."""
        return covered_bits(d.center, near(self._point_buckets, bucket(d.center)))


def max_coverage_masks(
    masks: list[int] | RankedMasks,
    m: int,
    kind: SolverKind = SolverKind.EXACT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, Callable[[], list]]:
    """The best union of ``m`` masks under the given oracle: its size now, and
    ``pick()`` for the chosen indices (at most ``min(m, len(masks))``).

    Exact: the value search runs here over the distinct masks; ``pick()``
    extracts the lexicographically smallest optimal index set, ascending, from
    the full list (equal-coverage duplicates may appear in it), continuing the
    node count under the same ``node_budget``.  It takes each index in turn
    whose mask, with those taken, still leaves enough later masks to reach
    the value (:func:`_extract`).  Greedy: both run here (:func:`_greedy_masks`),
    and ``pick()`` gives the indices in pick order; the greedy also takes a
    :class:`RankedMasks`, whose keys it then gives in place of indices."""
    if kind is SolverKind.EXACT:
        value = nodes = 0
        if m > 0 and masks:
            total = reduce(or_, masks).bit_count()
            value, _, nodes = _search(masks, m, 0, total, 0, node_budget)
        return value, lambda: _extract(masks, m, value, nodes, node_budget)
    value, indices = _greedy_masks(masks, m)
    return value, indices.copy


def _budget_error(node_budget: int) -> SolverBudgetError:
    return SolverBudgetError(f"exceeded {node_budget} search nodes")


def _search(
    masks: list[int], slots: int, floor: int, ceiling: int, nodes: int, node_budget: int
) -> tuple[int, list[int] | None, int]:
    """The size of the largest union above ``floor`` of at most ``slots`` of
    ``masks`` (``floor`` if none is larger), or of the first union found that
    reaches ``ceiling``, where the search returns; that union's masks, or
    None if no union reaches ``ceiling``; and the node count after the search.

    Branch and bound over the distinct masks sorted by coverage (descending,
    ties by first occurrence).  Each node takes the next mask before skipping
    it; a skip waits on the stack until the take's subtree is done, so the
    stack holds one entry per mask taken on the current path, at the position
    after that mask.  A branch whose union plus the coverages of its next
    ``slots`` masks cannot beat the best union so far is cut.
    """
    ordered = sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True)
    n = len(ordered)
    prefix = list(accumulate(map(int.bit_count, ordered), initial=0))
    best = floor
    stack = [(0, slots, 0, 0)]  # (position, slots, union, value)
    while stack:
        pos, slots, mask, val = stack.pop()
        while True:
            nodes += 1
            if nodes > node_budget:
                raise _budget_error(node_budget)
            if val > best:
                if val >= ceiling:
                    return val, [ordered[entry[0] - 1] for entry in stack], nodes
                best = val
            if slots == 0 or val + prefix[min(pos + slots, n)] - prefix[pos] <= best:
                break
            gain = ordered[pos] & ~mask
            pos += 1
            if gain:
                stack.append((pos, slots, mask, val))
                mask |= gain
                val += gain.bit_count()
                slots -= 1
    return best, None, nodes


def _extract(
    masks: list[int], m: int, best: int, nodes: int, node_budget: int
) -> list[int]:
    """Phase 2: the lexicographically smallest ascending tuple of ``m`` indices
    (at most ``len(masks)``) whose union is ``best``.

    Runs over the full, undeduped list: zero-marginal picks and duplicates
    can both appear in it.  Prefix feasibility: with ``slots`` picks left,
    the walk takes the first index ``j`` whose union with the picks so far
    reaches ``best``, or whose residual ``need`` the ``slots - 1`` masks
    after ``j`` can still cover: :func:`_search` over their residual masks,
    with a floor of ``need - 1`` and a ceiling of ``need``, gives the masks
    of a completion, which the walk reads at their first indices, or None.
    An index that fails is never tried again.  The search does not count the
    indices after ``j``: some ``m``-tuple reaches ``best``, so the first
    index it accepts leaves ``slots - 1`` after it.  The walk takes the
    completion's next index with no search once it gets there.  From the
    first failure on, a suffix maximum of the coverages rejects ``j``
    without a search when ``slots - 1`` copies of the largest one after
    ``j`` fall short of ``need``.  The count continues from the ``nodes``
    phase 1 spent, under the same budget: one node per tested index, plus
    the searches' nodes.  The budget counts search nodes only, not each
    search's O(n log n) residual build, so it does not bound extraction's
    wall time: 200 points in a 10x10 box at seed 2 (m=4, 4276 masks) take
    13,252 nodes and about 1 s.
    """
    if m <= 0 or not masks:
        return []
    n = len(masks)
    slots = min(m, n)
    chosen: list[int] = []
    union = 0
    suffix_max: list[int] | None = None  # [j]: the largest coverage in masks[j:]
    completion: list[int] = []  # later indices that complete the picks to ``best``
    for j in range(n):
        nodes += 1
        if nodes > node_budget:
            raise _budget_error(node_budget)
        covered = union | masks[j]
        need = best - covered.bit_count()
        if completion and completion[0] == j:
            del completion[0]
        elif need > 0:
            if slots == 1 or suffix_max is not None and (slots - 1) * suffix_max[j + 1] < need:
                continue
            free = ~covered
            residuals = [mk & free for mk in masks[j + 1:]]
            _, found, nodes = _search(residuals, slots - 1, need - 1, need, nodes, node_budget)
            if found is None:
                if suffix_max is None:
                    pops = map(int.bit_count, reversed(masks))
                    suffix_max = list(accumulate(pops, max, initial=0))[::-1]
                continue
            completion = sorted(j + 1 + residuals.index(mk) for mk in found)
        chosen.append(j)
        slots -= 1
        if not slots:
            return chosen
        union = covered
    raise SolverInvariantError("extraction must succeed once the optimum value is known")


def _greedy_masks(masks: list[int] | RankedMasks, m: int) -> tuple[int, list]:
    """Greedy max coverage: the union size and the chosen keys, in pick order.

    Each round takes the largest marginal gain, lowest key on ties, among the
    first occurrences of distinct masks.  A list's keys are its indices, and
    its :class:`RankedMasks` order is sorted here; a ``RankedMasks``, such as
    :meth:`CandidateIndex.ranked`, is read as it is.  Lazy evaluation (CELF;
    Minoux 1978, Leskovec et al. 2007) as a merge: the ranked stream holds
    every mask at its full coverage, and a heap holds the entries re-evaluated
    in earlier rounds at gains that can only have fallen since.  The smaller
    head of the two is re-evaluated, and it is the round's pick when its gain
    is still the one it was ranked by; a mask met again in the stream is
    skipped.  Once fewer points are left than picks, the rounds take
    zero-gain masks by key.
    """
    ranked = masks if isinstance(masks, RankedMasks) else _ranked(masks)
    stream = iter(ranked)
    head = next(stream, None)
    seen: set[int] = set()
    heap: list[tuple] = []  # re-evaluated (-gain, key, mask) entries
    chosen: list = []
    covered = 0
    while len(chosen) < m:
        if head is not None and (not heap or head < heap[0]):
            neg_gain, key, mk = head
            head = next(stream, None)
            if mk in seen:
                continue
            seen.add(mk)
            gain = (mk & ~covered).bit_count()
            if gain != -neg_gain:
                heapq.heappush(heap, (-gain, key, mk))
                continue
        elif heap:
            neg_gain, key, mk = heap[0]
            gain = (mk & ~covered).bit_count()
            if gain != -neg_gain:
                heapq.heapreplace(heap, (-gain, key, mk))
                continue
            heapq.heappop(heap)
        else:
            break
        chosen.append(key)
        covered |= mk
    return covered.bit_count(), chosen


def solve(
    points_or_index: Iterable[Point] | CandidateIndex,
    m: int,
    kind: SolverKind = SolverKind.EXACT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Solution:
    """Best coverage of the points by ``m`` unit disks under the given oracle.

    The value is computed here; the disks and assignment when first read.
    Given a :class:`CandidateIndex`, the solve reads its points, and its
    candidates and masks, or for the greedy oracle its ranked order, from
    it; given points, it builds them from scratch.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if isinstance(points_or_index, CandidateIndex):
        index = points_or_index
        pts = list(index.points)
        if kind is SolverKind.GREEDY:
            value, pick = max_coverage_masks(index.ranked(), m, kind, node_budget)
            # The picks are first sources; their disks are read now, while
            # the index still holds them.
            disks = {key: index._center_of[key] for key in pick()}
            return Solution(value, pts, m, pick, disks.__getitem__)
        cands, masks = index.candidates()
        disk_of = cands.__getitem__
    else:
        pts = sorted(set(points_or_index))
        centers, masks = _candidate_table(pts)

        def disk_of(i: int) -> UnitDisk:
            return UnitDisk(centers[i])
    value, pick = max_coverage_masks(masks, m, kind, node_budget)
    return Solution(value, pts, m, pick, disk_of)
