"""The value-first iterative oracle against the recursive two-phase reference.

``reference_max_coverage_masks`` is the recursive branch-and-bound that
``max_coverage_masks`` replaced, kept verbatim apart from its name: phase 1
recursed once per distinct mask and phase 2 once per chosen index, both
counting nodes against one budget.  ``reference_greedy_masks`` is the eager
greedy loop that the lazy ``_greedy_masks`` replaced, likewise verbatim.
``reference_solve`` is the eager ``solve`` built on the two.
``reference_extract`` is the iterative depth-first extraction that the
prefix-feasibility ``_extract`` replaced, with its ``_prefix_sums``, kept
verbatim apart from its name.
"""

import random

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
    _best_value,
    _budget_error,
    _extract,
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
    for seed in range(30):
        run(RunConfig(engine="exact_maintainer", m=4), parse_stream("\n".join(sliding_window(seed)) + "\n"))
    assert len(checked) == 30 * 24


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
    value, nodes = _best_value(masks, 3, DEFAULT_NODE_BUDGET)
    assert _extract(masks, 3, value, nodes, DEFAULT_NODE_BUDGET) == picked
    assert smallest_budget(lambda b: _extract(masks, 3, value, nodes, b)) == nodes + extraction_nodes
