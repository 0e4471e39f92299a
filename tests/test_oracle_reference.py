"""The value-first iterative oracle against the recursive two-phase reference.

``reference_max_coverage_masks`` is the recursive branch-and-bound that
``max_coverage_masks`` replaced, kept verbatim apart from its name: phase 1
recursed once per distinct mask and phase 2 once per chosen index, both
counting nodes against one budget.  ``reference_greedy_masks`` is the eager
greedy loop that the lazy ``_greedy_masks`` replaced, likewise verbatim.
``reference_solve`` is the eager ``solve`` built on the two.
``reference_extract`` is the iterative depth-first extraction that the
prefix-feasibility ``_extract`` replaced, with its ``_prefix_sums``, kept
verbatim apart from its name.  ``reference_best_value`` and
``reference_reaches`` are the value search and the stop-at-target search that
the one ``_search`` replaced, and ``reference_prefix_extract`` is the
``_extract`` that called the latter, all three verbatim apart from their
names.
"""

import random
from functools import reduce
from itertools import accumulate, combinations
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecover import static_solver
from stablecover.geometry import Point, assign_points
from stablecover.harness_cli import RunConfig, format_point_event, parse_stream, run
from stablecover.static_solver import (
    DEFAULT_NODE_BUDGET,
    SolverBudgetError,
    SolverInvariantError,
    SolverKind,
    _budget_error,
    _extract,
    _greedy_masks,
    _search,
    candidate_disks,
    coverage_masks,
    max_coverage_masks,
    pad_disks,
    solve,
)


def reference_max_coverage_masks(masks, m, node_budget=DEFAULT_NODE_BUDGET):
    if m <= 0 or not masks:
        return 0, []
    seen: set[int] = set()
    idxs: list[int] = []
    for i, mk in enumerate(masks):
        if mk not in seen:
            seen.add(mk)
            idxs.append(i)
    m = min(m, len(masks))
    uni = [masks[i] for i in idxs]
    pops = [mk.bit_count() for mk in uni]
    total_mask = 0
    for mk in uni:
        total_mask |= mk
    total = total_mask.bit_count()
    n = len(uni)

    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SolverBudgetError(f"exceeded {node_budget} search nodes")

    order = sorted(range(n), key=lambda i: (-pops[i], i))
    sorted_masks = [uni[i] for i in order]
    sorted_pops = [pops[i] for i in order]
    prefix = [0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] + sorted_pops[i]

    best = 0

    def search(pos: int, slots: int, mask: int, val: int) -> None:
        nonlocal best
        spend()
        if val > best:
            best = val
        if slots == 0 or pos == n or best == total:
            return
        hi = min(pos + slots, n)
        if val + prefix[hi] - prefix[pos] <= best:
            return
        gain_mask = sorted_masks[pos] & ~mask
        if gain_mask:
            search(pos + 1, slots - 1, mask | gain_mask, val + gain_mask.bit_count())
        search(pos + 1, slots, mask, val)

    search(0, m, 0, 0)

    full_n = len(masks)
    full_pops = [mk.bit_count() for mk in masks]
    top_m_after: list[list[int]] = [[] for _ in range(full_n + 1)]
    for i in range(full_n - 1, -1, -1):
        merged = sorted(top_m_after[i + 1] + [full_pops[i]], reverse=True)[:m]
        top_m_after[i] = merged
    suffix_sum = [sum(t) for t in top_m_after]
    suffix_top = [[sum(t[:k]) for k in range(len(t) + 1)] for t in top_m_after]

    chosen: list[int] = []

    def extract(pos: int, slots: int, mask: int, val: int) -> bool:
        spend()
        if slots == 0:
            return val == best
        for i in range(pos, full_n - slots + 1):
            cap = suffix_top[i][slots] if slots < len(suffix_top[i]) else suffix_sum[i]
            if val + cap < best:
                break
            nm = mask | masks[i]
            if extract(i + 1, slots - 1, nm, nm.bit_count()):
                chosen.append(i)
                return True
        return False

    ok = extract(0, m, 0, 0)
    assert ok, "extraction must succeed once the optimum value is known"
    chosen.reverse()
    return best, chosen


def reference_extract(
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


def reference_best_value(masks: list[int], m: int, node_budget: int) -> tuple[int, int]:
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


def reference_reaches(
    masks: list[int], start: int, covered: int, slots: int, need: int, nodes: int, node_budget: int
) -> tuple[list[int] | None, int]:
    """At most ``slots`` indices in ``masks[start:]``, ascending, whose masks
    cover ``need`` bits outside ``covered`` (each the first with its
    residual mask), or None if there are none; and the node count after the
    search.

    A stop-at-target branch and bound over the distinct nonzero residual
    masks sorted by coverage (descending, ties by first occurrence), which
    returns at the first node that reaches ``need``.  Like
    :func:`reference_best_value`, each node takes the next mask before skipping it.
    Building, deduping and sorting the residuals costs O(n log n) in the
    masks after ``start`` on every call and spends no node.
    """
    free = ~covered
    residuals = [mk & free for mk in masks[start:]]
    distinct = dict.fromkeys(residuals)
    distinct.pop(0, None)
    ordered = sorted(distinct, key=int.bit_count, reverse=True)  # stable: ties keep their order
    n = len(ordered)
    prefix = list(accumulate(map(int.bit_count, ordered), initial=0))
    stack = [(0, slots, 0, 0, ())]  # (position, slots, union, value, positions taken)
    while stack:
        pos, slots, mask, val, taken = stack.pop()
        while True:
            nodes += 1
            if nodes > node_budget:
                raise _budget_error(node_budget)
            if val >= need:
                return sorted(start + residuals.index(ordered[p]) for p in taken), nodes
            if slots == 0 or val + prefix[min(pos + slots, n)] - prefix[pos] < need:
                break
            gain = ordered[pos] & ~mask
            if gain:
                stack.append((pos + 1, slots, mask, val, taken))
                mask |= gain
                val += gain.bit_count()
                slots -= 1
                taken += (pos,)
            pos += 1
    return None, nodes


def reference_prefix_extract(
    masks: list[int], m: int, best: int, nodes: int, node_budget: int
) -> list[int]:
    """Phase 2: the lexicographically smallest ascending tuple of ``m`` indices
    (at most ``len(masks)``) whose union is ``best``.

    Runs over the full, undeduped list: zero-marginal picks and duplicates
    can both appear in it.  Prefix feasibility: with ``slots`` picks left,
    the walk takes the first index ``j`` whose union with the picks so far
    reaches ``best``, or whose residual ``need`` the ``slots - 1`` masks
    after ``j`` can still cover (:func:`reference_reaches`).  An index that fails is
    never tried again.  The search does not count the indices after ``j``:
    some ``m``-tuple reaches ``best``, so the first index it accepts leaves
    ``slots - 1`` after it.  A search that succeeds gives a completion, and
    the walk takes the completion's next index with no search once it gets
    there.  From the first failure on, a suffix maximum of the coverages
    rejects ``j`` without a search when ``slots - 1`` copies of the largest
    one after ``j`` fall short of ``need``.  The count continues from the
    ``nodes`` phase 1 spent, under the same budget: one node per tested
    index, plus the searches' nodes.  The budget counts search nodes only,
    not each search's O(n log n) residual build, so it does not bound
    extraction's wall time: 200 points in a 10x10 box at seed 2 (m=4, 4276
    masks) take 13,252 nodes and about 1 s.
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
            found, nodes = reference_reaches(masks, j + 1, covered, slots - 1, need, nodes, node_budget)
            if found is None:
                if suffix_max is None:
                    pops = map(int.bit_count, reversed(masks))
                    suffix_max = list(accumulate(pops, max, initial=0))[::-1]
                continue
            completion = found
        chosen.append(j)
        slots -= 1
        if not slots:
            return chosen
        union = covered
    raise SolverInvariantError("extraction must succeed once the optimum value is known")


def reference_greedy_masks(masks, m):
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


def reference_solve(points, m, kind=SolverKind.EXACT, node_budget=DEFAULT_NODE_BUDGET):
    pts = sorted(set(points))
    cands = candidate_disks(pts)
    masks = coverage_masks(pts, cands)
    if kind is SolverKind.EXACT:
        _, indices = reference_max_coverage_masks(masks, m, node_budget)
    else:
        _, indices = reference_greedy_masks(masks, m)
    disks = [cands[i] for i in indices]
    if len(disks) < m:
        disks += pad_disks(m - len(disks), min((p.y for p in pts), default=0.0))
    assignment = assign_points(pts, disks)
    return disks, assignment, len(assignment)


def instances(count=50, seed=2024):
    """Seeded random point sets: 3-12 points in boxes of side 2-8."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        box = rng.uniform(2.0, 8.0)
        yield {Point(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(n)}


def smallest_budget(succeeds):
    """Smallest node budget for which ``succeeds(budget)`` does not raise."""
    hi = 1
    while not _ok(succeeds, hi):
        hi *= 2
    lo = hi // 2  # fails, or 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _ok(succeeds, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _ok(succeeds, budget):
    try:
        succeeds(budget)
    except SolverBudgetError:
        return False
    return True


@pytest.mark.parametrize("kind", [SolverKind.EXACT, SolverKind.GREEDY])
def test_solve_matches_reference(kind):
    for pts in instances():
        for m in range(1, 5):
            disks, assignment, value = reference_solve(pts, m, kind)
            sol = solve(pts, m, kind)
            assert sol.value == value
            assert sol.disks == disks
            assert sol.assignment == assignment
            assert sol.value == len(sol.assignment)


def test_node_budget_unchanged():
    # The value search and the extraction share one budget: at the smallest
    # budget that builds the disks, one node less still gives the value (the
    # reference's), and extraction runs out.  Success is monotone in the
    # budget, so bisection finds that smallest budget.
    for pts in instances():
        for m in range(1, 5):
            budget = smallest_budget(lambda b: solve(pts, m, node_budget=b).disks)
            assert solve(pts, m, node_budget=budget).disks
            short = solve(pts, m, node_budget=budget - 1)
            assert short.value == reference_solve(pts, m)[2]
            with pytest.raises(SolverBudgetError):
                short.disks


def test_masks_match_reference_with_duplicates():
    rng = random.Random(5)
    for _ in range(200):
        masks = [rng.getrandbits(6) for _ in range(rng.randint(1, 14))]
        m = rng.randint(1, 5)
        value, pick = max_coverage_masks(masks, m)
        assert (value, pick()) == reference_max_coverage_masks(masks, m)


def test_lazy_greedy_matches_reference():
    # Few bits and long lists force duplicate masks, zero masks, tied gains
    # and m above the number of distinct masks.
    rng = random.Random(13)
    for _ in range(3000):
        bits = rng.randint(1, 9)
        masks = [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(rng.randint(0, 24))]
        m = rng.randint(1, 12)
        assert _greedy_masks(masks, m) == reference_greedy_masks(masks, m)
    assert _greedy_masks([0, 0, 3, 3, 1], 5) == (2, [2, 0, 4]) == reference_greedy_masks([0, 0, 3, 3, 1], 5)


def deep_masks():
    """One 12-bit mask, all its non-empty proper submasks, one disjoint bit."""
    full = (1 << 12) - 1
    return [full] + list(range(1, full)) + [1 << 12]


def test_reference_recursion_limit():
    with pytest.raises(RecursionError):
        reference_max_coverage_masks(deep_masks(), 2)


def test_deep_mask_list_is_iterative():
    masks = deep_masks()
    assert len(masks) == 4096
    value, pick = max_coverage_masks(masks, 2)
    assert (value, pick()) == (13, [0, 4095])


@st.composite
def mask_lists(draw):
    """Masks of up to 10 bits, each the meet of two draws, taken from a small
    pool and the zero mask, so duplicates and zero masks are common, and an
    ``m`` up to 3 above the list's length."""
    bits = draw(st.integers(1, 10))
    draws = st.integers(0, (1 << bits) - 1)
    pool = draw(st.lists(st.tuples(draws, draws).map(lambda ab: ab[0] & ab[1]), min_size=1, max_size=12))
    masks = draw(st.lists(st.sampled_from([0, *pool]), min_size=len(pool), max_size=18))
    return masks, draw(st.integers(1, len(masks) + 3))


# Index 0 leaves 5 bits to cover, and 2 of the later masks reach only 4.
@example(([0, 5, 19, 8], 3))
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mask_lists())
def test_extraction_matches_reference(case):
    masks, m = case
    value, pick = max_coverage_masks(masks, m)
    assert pick() == reference_extract(masks, m, value, 0, DEFAULT_NODE_BUDGET)


@example(([1, 2], 2))
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mask_lists())
def test_one_search_matches_the_two_it_replaced(case):
    """Values, picks and extraction's node spend are the references'; phase 1
    spends ``reference_best_value``'s nodes when the optimum is below the
    union of all masks, and otherwise stops where the reference began to
    drain its stack, one node per pending skip, that is per mask taken."""
    masks, m = case
    value, pick = max_coverage_masks(masks, m)
    ref_value, ref_nodes = reference_best_value(masks, m, DEFAULT_NODE_BUDGET)
    assert value == ref_value
    assert pick() == reference_prefix_extract(masks, m, value, 0, DEFAULT_NODE_BUDGET)
    assert smallest_budget(lambda b: _extract(masks, m, value, 0, b)) == smallest_budget(
        lambda b: reference_prefix_extract(masks, m, value, 0, b)
    )
    nodes = smallest_budget(lambda b: max_coverage_masks(masks, m, node_budget=b))
    union = reduce(or_, masks).bit_count()
    _, picks, searched = _search(masks, m, 0, union, 0, DEFAULT_NODE_BUDGET)
    assert searched == nodes
    if value < union:
        assert picks is None and nodes == ref_nodes
    else:
        assert nodes + len(picks or ()) == ref_nodes


def test_search_meets_its_contract_by_brute_force():
    """``_search`` returns a union of at most ``slots`` distinct masks that
    beats ``floor`` and reaches ``ceiling`` when one exists, and otherwise
    the best union, or ``floor`` if none beats it; it spends at least one
    node, and the count it returns is the smallest budget that lets it
    finish."""
    rng = random.Random(29)
    for _ in range(3000):
        bits = rng.randint(1, 8)
        masks = [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(rng.randint(0, 9))]
        slots = rng.randint(0, 4)
        floor = rng.randint(0, bits)
        ceiling = rng.randint(0, bits + 1)
        start = rng.randint(0, 3)
        distinct = set(masks)
        best = max(
            reduce(or_, picked, 0).bit_count()
            for k in range(min(slots, len(distinct)) + 1)
            for picked in combinations(distinct, k)
        )
        value, picks, nodes = _search(masks, slots, floor, ceiling, start, DEFAULT_NODE_BUDGET)
        if best > floor and best >= ceiling:
            assert picks is not None
            assert len(set(picks)) == len(picks) <= slots and set(picks) <= distinct
            assert value == reduce(or_, picks, 0).bit_count()
            assert value > floor and value >= ceiling
        else:
            assert picks is None and value == max(floor, best)
        assert nodes > start
        with pytest.raises(SolverBudgetError):
            _search(masks, slots, floor, ceiling, start, nodes - 1)


def sliding_window(seed, window=8, box=4.5, steady=16):
    """``window`` inserts in a ``box`` square, then pairs of one insert and
    one random delete: the benchmark's dense point streams."""
    rng = random.Random(seed)
    live, rows = [], []
    for k in range(window + steady // 2):
        live.append(Point(rng.uniform(0.0, box), rng.uniform(0.0, box)))
        rows.append(format_point_event("insert", live[-1]))
        if k >= window:
            rows.append(format_point_event("delete", live.pop(rng.randrange(len(live)))))
    return rows


def test_replayed_extractions_match_reference(monkeypatch):
    """Every extraction of exact_maintainer replays of dense sliding windows
    (8 points in 4.5x4.5, m=4) picks what the reference picks."""
    checked = []

    def both(masks, m, best, nodes, node_budget):
        picked = _extract(masks, m, best, nodes, node_budget)
        assert picked == reference_extract(masks, m, best, nodes, node_budget)
        checked.append(picked)
        return picked

    monkeypatch.setattr(static_solver, "_extract", both)
    replay_dense_windows()
    assert len(checked) == 30 * 24


def replay_dense_windows():
    for seed in range(30):
        run(RunConfig(engine="exact_maintainer", m=4), parse_stream("\n".join(sliding_window(seed)) + "\n"))


def test_replayed_node_totals(monkeypatch):
    """Over the same replays, the maintainer's solves spend 22,223 value
    search nodes (24,623 before the search stopped at the union of all
    masks) and 44,398 extraction nodes (unchanged)."""
    totals = [0, 0]

    def counted(masks, m, best, nodes, node_budget):
        totals[0] += nodes
        totals[1] += smallest_budget(lambda b: _extract(masks, m, best, 0, b))
        return _extract(masks, m, best, nodes, node_budget)

    monkeypatch.setattr(static_solver, "_extract", counted)
    replay_dense_windows()
    assert totals == [22_223, 44_398]


@pytest.mark.parametrize(
    "masks, picked, extraction_nodes",
    [
        # The best union of 3 is 10, from masks 0, 3 and 4.
        # - Mask 0: 1 node, then a search for 4 bits from 2 later masks,
        #   which takes {8, 9} and {10, 11}, masks 3 and 4: 3 nodes.
        # - Mask 1: 1 node, then a search for 3 bits from 1 later mask, whose
        #   root bound is 2: 1 node.  It fails, so the suffix maxima are built.
        # - Mask 2: 1 node.  It covers 5 bits itself, but it needs 3 more and
        #   the largest coverage after it is 2: rejected with no search.
        # - Mask 3: 1 node.  It is next in mask 0's completion: no search.
        # - Mask 4: 1 node, and the union is 10.
        ([0b111111, 0b1000011, 0b10001111, 0b11 << 8, 0b11 << 10], [0, 3, 4], 9),
        # The best union of 3 is 6, from masks 1, 2 and 3.
        # - Mask 0: 1 node, then a search for 4 bits from {0, 5}, {0, 3} and
        #   {6}, which fails after 5 nodes.
        # - Mask 1: 1 node, then a search that takes {2, 6} and {3, 4},
        #   masks 2 and 3: 3 nodes.  Mask 0, before it, would add {2, 4} to
        #   this search.
        # - Mask 2: 1 node, next in mask 1's completion.
        # - Mask 3: 1 node, and the union is 6.
        ([0b10100, 0b100001, 0b1000100, 0b11001], [1, 2, 3], 12),
    ],
)
def test_extraction_nodes_by_hand(masks, picked, extraction_nodes):
    value, pick = max_coverage_masks(masks, 3)
    assert pick() == picked
    assert smallest_budget(lambda b: _extract(masks, 3, value, 0, b)) == extraction_nodes
