"""The value-first iterative oracle against the recursive two-phase reference.

``reference_max_coverage_masks`` is the recursive branch-and-bound that
``max_coverage_masks`` replaced, kept verbatim apart from its name: phase 1
recursed once per distinct mask and phase 2 once per chosen index, both
counting nodes against one budget.  ``reference_greedy_masks`` is the eager
greedy loop that the lazy ``_greedy_masks`` replaced, likewise verbatim.
``reference_solve`` is the eager ``solve`` built on the two.
"""

import random

import pytest

from stablecover.geometry import Point, assign_points
from stablecover.static_solver import (
    DEFAULT_NODE_BUDGET,
    SolverBudgetError,
    SolverKind,
    _greedy_masks,
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
    for pts in instances():
        for m in range(1, 5):
            ref = smallest_budget(lambda b: reference_solve(pts, m, node_budget=b))
            # Success is monotone in the budget, so the smallest budget is
            # the same when ``ref`` succeeds and ``ref - 1`` does not.
            assert solve(pts, m, node_budget=ref).disks
            # One node short, the value search still fits; extraction does not.
            short = solve(pts, m, node_budget=ref - 1)
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
