import dataclasses
import random
from fractions import Fraction

import pytest

from stablecover.baseline import update2
from stablecover.geometry import Point, UnitDisk, assign_points, cell_of, is_boundary
from stablecover.sas_engine import (
    Branch,
    EngineConfig,
    EngineInvariantError,
    EngineState,
    StreamError,
    Swap,
    apply_event,
    apply_swap,
    extended_range,
    find_valid_swap,
    make_blocks,
    pad_opt,
    partition_ranges,
    prefix_balanced_order,
    select_group,
    update,
    within_ratio,
)
from stablecover.geometry import GridSpec
from stablecover.harness_cli import gen_random, parse_stream
from stablecover.static_solver import SolverBudgetError, SolverKind, solve


def test_config_defaults_quarter_epsilon():
    cfg = EngineConfig(m=4, epsilon=0.25)
    assert cfg.trivial_threshold == 64
    assert cfg.kappa == 8 * (6 * 128 + 4) * 4 + 1 == 24705
    assert cfg.block_min == 16
    assert cfg.block_max == (128 + 2) * 16
    assert cfg.balance_cells == 128 * 16
    assert cfg.balance_blocks == (3 * 128 + 2) * 16
    assert cfg.extend == 6 * 128 + 4
    assert cfg.cover_budget == 2116  # ceil(64/sqrt(2))^2 beats 128/eps^2 here


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(m=0, epsilon=0.25)
    with pytest.raises(ValueError):
        EngineConfig(m=2, epsilon=0.75)
    with pytest.raises(ValueError):
        EngineConfig(m=2, epsilon=0.25, kappa=3, extend=5)


# ---------------------------------------------------------------------------
# prefix_balanced_order


def test_prefix_order_lowest_id_first():
    assert prefix_balanced_order([("A", 3, 0), ("B", 0, 3)], 3) == ["A", "B"]


def test_prefix_order_single_item():
    assert prefix_balanced_order([("A", 2, 2)], 2) == ["A"]


def test_prefix_order_random_balanced():
    rng = random.Random(40)
    for _ in range(50):
        bound = rng.randint(2, 8)
        n = rng.randint(1, 12)
        algs = [rng.randint(0, bound) for _ in range(n)]
        opts = [rng.randint(0, bound) for _ in range(n)]
        diff = sum(algs) - sum(opts)
        if diff > 0:
            opts.append(diff)
            algs.append(0)
        elif diff < 0:
            algs.append(-diff)
            opts.append(0)
        while max(algs + opts) > bound:
            bound += 1
        items = list(enumerate(zip(algs, opts)))
        items = [(i, a, o) for i, (a, o) in items]
        order = prefix_balanced_order(items, bound)
        lookup = {it[0]: it for it in items}
        run = 0
        for ident in order:
            run += lookup[ident][1] - lookup[ident][2]
            assert abs(run) <= bound


def test_prefix_order_rejects_unbalanced_totals():
    with pytest.raises(ValueError):
        prefix_balanced_order([("A", 2, 1)], 5)


# ---------------------------------------------------------------------------
# make_blocks


def test_make_blocks_tail_fires_immediately():
    blocks = make_blocks([("c1", 1, 0), ("c2", 0, 0), ("c3", 1, 0)], 1, 130)
    assert len(blocks) == 1
    assert [it[0] for it in blocks[0].items] == ["c1", "c2", "c3"]


def test_make_blocks_five_five():
    blocks = make_blocks([("c1", 5, 0), ("c2", 5, 0)], 5, 7)
    assert [[it[0] for it in b.items] for b in blocks] == [["c1"], ["c2"]]


def test_make_blocks_singletons():
    blocks = make_blocks([(f"c{i}", 3, 0) for i in range(4)], 3, 4)
    assert all(len(b.items) == 1 for b in blocks)


def test_make_blocks_definition_bounds_random():
    rng = random.Random(50)
    for _ in range(60):
        per_cell = rng.randint(1, 6)
        block_min = rng.randint(1, 4)
        block_max = block_min + per_cell + rng.randint(0, 5)
        n = rng.randint(1, 15)
        items = [
            (i, rng.randint(0, per_cell), rng.randint(0, per_cell)) for i in range(n)
        ]
        if sum(it[1] for it in items) <= block_min:
            continue
        balance = max(per_cell, 1)
        # split the balancing remainder per-cell-sized so every item stays
        # inside the regime make_blocks was designed for
        diff = sum(it[1] for it in items) - sum(it[2] for it in items)
        extra_id = n
        while diff != 0:
            chunk = min(abs(diff), per_cell)
            if diff > 0:
                items.append((extra_id, 0, chunk))
                diff -= chunk
            else:
                items.append((extra_id, chunk, 0))
                diff += chunk
            extra_id += 1
        order = prefix_balanced_order(items, balance)
        lookup = {it[0]: it for it in items}
        ordered = [lookup[i] for i in order]
        blocks = make_blocks(ordered, block_min, block_max)
        flat = [it for b in blocks for it in b.items]
        assert flat == ordered  # partition, order preserved
        for b in blocks:
            assert b.alg_total <= block_max
            assert abs(b.alg_total - b.opt_total) <= 2 * balance
        for b in blocks[:-1]:
            assert b.alg_total >= block_min


# ---------------------------------------------------------------------------
# partitions, extended groups, group selection


def test_partition_family_covers_all_blocks():
    for n in (12, 17, 23):
        for kappa in (3, 5):
            for i in range(1, kappa + 1):
                ranges = partition_ranges(n, i, kappa)
                seen = []
                for lo, hi in ranges:
                    seen.extend(range(lo, hi))
                assert seen == list(range(n))
                for lo, hi in ranges[1:-1] if i > 1 else ranges[:-1]:
                    if (lo, hi) != ranges[0] or i == 1:
                        assert hi - lo <= kappa


def test_block_appears_in_few_extensions():
    n, kappa, extend = 30, 5, 2
    counts = {b: 0 for b in range(n)}
    for i in range(1, kappa + 1):
        for lo, hi in partition_ranges(n, i, kappa):
            ext = extended_range(n, lo, hi, extend)
            if ext is None:
                continue
            es, ee = ext
            for b in range(es, ee):
                counts[b] += 1
                assert not (lo <= b < hi)
    assert all(c <= 2 * extend for c in counts.values())


def brute_force_group(stats, kappa, extend):
    n = len(stats)
    for i in range(1, kappa + 1):
        groups = []
        if i > 1:
            groups.append((0, i - 1))
        j = i - 1
        while j < n:
            groups.append((j, min(j + kappa, n)))
            j += kappa
        for lo, hi in groups:
            if n - hi >= extend:
                es, ee = hi, hi + extend
            elif lo - extend >= 0:
                es, ee = lo - extend, lo
            else:
                continue
            gain = sum(s[2] for s in stats[lo:hi])
            loss = sum(s[3] for s in stats[lo:hi]) + sum(s[3] for s in stats[es:ee])
            if gain > loss:
                return (i, (lo, hi), (es, ee))
    return None


def test_select_group_matches_exhaustive_scan():
    rng = random.Random(60)
    for _ in range(60):
        kappa = rng.randint(2, 5)
        extend = rng.randint(1, min(2, kappa - 1))
        n = rng.randint(3 * kappa, 6 * kappa)
        stats = [
            (
                rng.randint(1, 4),
                rng.randint(0, 4),
                rng.randint(0, 6),
                rng.randint(0, 6),
            )
            for _ in range(n)
        ]
        got = select_group(stats, kappa, extend)
        want = brute_force_group(stats, kappa, extend)
        if want is None:
            assert got is None
        else:
            assert (got.partition, got.group, got.extension) == want
            lo, hi = got.group
            es, ee = got.extension
            gain = sum(s[2] for s in stats[lo:hi])
            loss = sum(s[3] for s in stats[lo:hi]) + sum(s[3] for s in stats[es:ee])
            assert gain > loss


# ---------------------------------------------------------------------------
# pad_opt


def test_pad_opt_noop_when_full():
    grid = GridSpec(64.0, 0, 0)
    disks = [UnitDisk(Point(32.0, 32.0))]
    assert pad_opt(disks, 1, set(), grid, 0.0) == []


def test_pad_opt_dummies_internal_and_fresh():
    grid = GridSpec(64.0, 3, 1)
    existing = [UnitDisk(Point(32.0, 32.0))]
    occupied = {cell_of(d.center, grid) for d in existing}
    dummies = pad_opt(existing, 3, occupied, grid, min_y=0.0)
    assert len(dummies) == 2
    cells = [cell_of(d.center, grid) for d in dummies]
    assert len(set(cells)) == 2
    for d, c in zip(dummies, cells):
        assert not is_boundary(d, grid)
        assert c not in occupied
        assert d.center.y < -10.0 + 0.0


# ---------------------------------------------------------------------------
# update branches


def test_update_trivial_branch_first_insert():
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25))
    rep = update(state, "insert", Point(1.0, 1.0))
    assert rep.branch is Branch.TRIVIAL_SWAP_ALL
    assert rep.alg_value == 1
    assert len(state.disks) == 2


def test_update_no_change_when_covered():
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25))
    update(state, "insert", Point(1.0, 1.0))
    rep = update(state, "insert", Point(1.1, 1.0))
    assert rep.branch is Branch.NO_CHANGE and rep.churn == 0


def test_update_stream_errors():
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25))
    update(state, "insert", Point(1.0, 1.0))
    with pytest.raises(StreamError):
        update(state, "insert", Point(1.0, 1.0))
    with pytest.raises(StreamError):
        update(state, "delete", Point(9.0, 9.0))


def test_update_random_stream_invariants():
    rng = random.Random(14)
    cfg = EngineConfig(m=3, epsilon=0.25)
    state = EngineState(config=cfg)
    present = []
    for _ in range(80):
        if present and rng.random() < 0.3:
            p = present.pop(rng.randrange(len(present)))
            rep = update(state, "delete", p)
        else:
            p = Point(rng.uniform(0, 25), rng.uniform(0, 25))
            present.append(p)
            rep = update(state, "insert", p)
        assert rep.opt_value <= (1 + cfg.epsilon) * rep.alg_value
        assert rep.churn <= cfg.churn_bound(rep.branch)
        assert (rep.churn == 0) == (rep.branch is Branch.NO_CHANGE)
        assert len(state.disks) == cfg.m


def scaled_config(**kw):
    base = dict(
        m=8,
        epsilon=0.25,
        c_star=1,
        scaled_mode=True,
        trivial_threshold=0,
        kappa=2,
        extend=1,
        block_min=1,
        block_max=2,
        balance_cells=2,
        balance_blocks=4,
        grid_shifts=2,
        grid_edge=4.0,
    )
    base.update(kw)
    return EngineConfig(**base)


def eight_singles_and_cluster():
    points = set()
    disks = []
    for i in range(8):
        c = Point(4.0 * i + 2.0, 2.0)
        disks.append(UnitDisk(c))
        points.add(c)
    cluster = [
        Point(2.0 + dx, 6.0 + dy)
        for dx, dy in ((0.1, 0.1), (-0.1, 0.1), (0.1, -0.1), (-0.1, -0.1))
    ]
    points |= set(cluster)
    return points, disks


def disks_at(*centers):
    return [UnitDisk(Point(x, y)) for x, y in centers]


def test_group_swap_on_crafted_instance():
    cfg = scaled_config()
    points, disks = eight_singles_and_cluster()
    state = EngineState(
        config=cfg, points=points, disks=disks, assignment=assign_points(points, disks)
    )
    before = state.alg_value
    swap = find_valid_swap(state, solve(state.points, cfg.m))
    assert swap == Swap([0, 1, 7], disks_at((2.0, 2.0), (1.9, 5.9)), Branch.GROUP_SWAP)
    churn = apply_swap(state, swap)
    assert state.alg_value >= before + 1
    assert churn <= 2 * (cfg.kappa + cfg.extend) * cfg.block_max
    assert len(state.disks) == cfg.m


def test_few_blocks_swap_all_when_kappa_large():
    cfg = scaled_config(kappa=4)
    points, disks = eight_singles_and_cluster()
    state = EngineState(
        config=cfg, points=points, disks=disks, assignment=assign_points(points, disks)
    )
    swap = find_valid_swap(state, solve(state.points, cfg.m))
    # Every optimum disk is internal, so the whole optimum comes in, no dummy.
    singles = [(4.0 * i + 2.0, 2.0) for i in range(7)]
    assert swap == Swap(
        list(range(8)), disks_at((1.9, 5.9), *singles), Branch.FEW_BLOCKS_SWAP_ALL
    )
    before = state.alg_value
    apply_swap(state, swap)
    assert state.alg_value >= before + 1


def test_cell_overflow_swap():
    cfg = scaled_config(m=12)
    points = set()
    disks = [UnitDisk(Point(1.2 + 0.15 * k, 1.5 + 0.1 * k)) for k in range(10)]
    cell_pts = [Point(1.5, 1.5), Point(2.5, 2.5), Point(1.5, 2.5), Point(2.5, 1.5)]
    points |= set(cell_pts)
    for i in range(2):
        c = Point(4.0 * (i + 2) + 2.0, 2.0)
        disks.append(UnitDisk(c))
        points.add(c)
    cluster = [
        Point(6.0 + dx, 6.0 + dy) for dx in (-0.2, 0.0, 0.2) for dy in (-0.2, 0.2)
    ]
    points |= set(cluster)
    state = EngineState(
        config=cfg, points=points, disks=disks, assignment=assign_points(points, disks)
    )
    before = state.alg_value
    swap = find_valid_swap(state, solve(state.points, cfg.m))
    # Cell (0, 0) retiled by 3x3 tiles of side sqrt(2), plus the least
    # uncovered point; the cell's ten disks all go.
    tiles = [
        (x, y)
        for y in (0.7071067811865476, 2.121320343559643, 3.5355339059327378)
        for x in (0.7071067811865476, 2.121320343559643, 3.5355339059327378)
    ]
    assert swap == Swap(
        list(range(10)), disks_at(*tiles, (5.8, 5.8)), Branch.CELL_OVERFLOW
    )
    assert len(swap.s_old) == len(swap.s_new) == cfg.cover_budget + 1
    churn = apply_swap(state, swap)
    assert state.alg_value >= before + 1
    assert churn <= cfg.churn_bound(Branch.CELL_OVERFLOW)


@pytest.mark.parametrize(
    "kappa, want",
    [
        (2, Swap([0, 5, 6, 7], disks_at((2.0, -6.0), (1.9, 5.9), (1.9, 6.1)),
                 Branch.GROUP_SWAP)),
        (3, Swap(list(range(8)),
                 disks_at((1.9, 5.9), (1.9, 6.1), (2.0, 2.0), (6.0, 2.0), (10.0, 2.0),
                          (14.0, 2.0), (18.0, 2.0), (2.0, -6.0)),
                 Branch.FEW_BLOCKS_SWAP_ALL)),
    ],
)
def test_padding_dummy_in_planned_swap(kappa, want):
    # The optimum's disk on (30, 4) crosses the grid line y = 4, so seven
    # internal disks and one dummy, centred in the fresh cell (0, -2), make m.
    cfg = scaled_config(kappa=kappa)
    singles = [Point(4.0 * i + 2.0, 2.0) for i in range(5)]
    cluster = [Point(2.0 + dx, 6.0 + dy) for dx in (-0.1, 0.1) for dy in (-0.1, 0.1)]
    points = set(singles + cluster + [Point(30.0, 4.0)])
    disks = [UnitDisk(c) for c in singles] + disks_at((-6.0, 2.0), (-2.0, 2.0), (2.0, 2.0))
    state = EngineState(
        config=cfg, points=points, disks=disks, assignment=assign_points(points, disks)
    )
    swap = find_valid_swap(state, solve(state.points, cfg.m))
    assert swap == want
    before = state.alg_value
    apply_swap(state, swap)
    assert state.alg_value >= before + 1


def test_solver_budget_error_propagates():
    import random as _random

    from stablecover.static_solver import SolverBudgetError

    rng = _random.Random(1)
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25, node_budget=3))
    with pytest.raises(SolverBudgetError):
        for k in range(40):
            update(state, "insert", Point(rng.uniform(0, 4), rng.uniform(0, 4)))


def test_block_ordering_range_imbalance():
    # Every contiguous run of an ordering whose prefixes stay within the
    # bound is itself within twice the bound, in both directions.
    rng = random.Random(71)
    for _ in range(40):
        bound = rng.randint(2, 9)
        n = rng.randint(2, 14)
        items = [(i, rng.randint(0, bound), rng.randint(0, bound)) for i in range(n)]
        diff = sum(a for _, a, _ in items) - sum(o for _, _, o in items)
        nid = n
        while diff != 0:
            chunk = min(abs(diff), bound)
            items.append((nid, 0, chunk) if diff > 0 else (nid, chunk, 0))
            diff += -chunk if diff > 0 else chunk
            nid += 1
        order = prefix_balanced_order(items, bound)
        lookup = {i: (a, o) for i, a, o in items}
        seq = [lookup[i] for i in order]
        for lo in range(len(seq)):
            run_alg = run_opt = 0
            for hi in range(lo, len(seq)):
                run_alg += seq[hi][0]
                run_opt += seq[hi][1]
                assert abs(run_alg - run_opt) <= 2 * bound


def test_update_reaches_group_swap_in_scaled_mode():
    cfg = scaled_config()
    points, disks = eight_singles_and_cluster()
    last = Point(1.9, 5.9)
    points.discard(last)
    state = EngineState(
        config=cfg, points=set(points), disks=disks,
        assignment=assign_points(points, disks),
    )
    state.points = set(points)
    rep = update(state, "insert", last)
    assert rep.branch in (Branch.GROUP_SWAP, Branch.NO_CHANGE)
    if rep.branch is Branch.NO_CHANGE:
        # push one more cluster point so the ratio must break
        rep = update(state, "insert", Point(2.0, 6.05))
        assert rep.branch is Branch.GROUP_SWAP
    assert rep.opt_value <= (1 + cfg.epsilon) * rep.alg_value


def test_engine_with_greedy_oracle():
    from stablecover.static_solver import SolverKind

    rng = random.Random(17)
    cfg = EngineConfig(m=3, epsilon=0.25, solver=SolverKind.GREEDY)
    state = EngineState(config=cfg)
    for _ in range(50):
        p = Point(rng.uniform(0, 20), rng.uniform(0, 20))
        rep = update(state, "insert", p)
        # the maintained ratio is relative to the configured oracle's value
        assert rep.opt_value <= (1 + cfg.epsilon) * rep.alg_value


def _snapshot(state):
    return (state.t, set(state.points), list(state.disks), dict(state.assignment))


@pytest.mark.parametrize("step", [update, update2])
def test_update_atomic_under_budget_error(step):
    rng = random.Random(3)
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25))
    live = []
    for _ in range(6):
        live.append(Point(rng.uniform(0, 3), rng.uniform(0, 3)))
        step(state, "insert", live[-1])
    # Budget 1 fails in the value search, on an insert and on a delete.
    state.config.node_budget = 1
    for op, p in (("insert", Point(1.0, 1.0)), ("delete", live[2])):
        before = _snapshot(state)
        with pytest.raises(SolverBudgetError):
            step(state, op, p)
        assert _snapshot(state) == before


@pytest.mark.parametrize("step", [update, update2])
def test_update_atomic_when_extraction_exceeds_budget(step):
    # One point: the value search takes 3 nodes, so the value is known, the
    # ratio test fails (opt 1, alg 0) and reading the optimum's disks for the
    # repair exceeds the budget in extraction.
    state = EngineState(config=EngineConfig(m=1, epsilon=0.25, node_budget=3))
    assert solve({Point(0.0, 0.0)}, 1, node_budget=3).value == 1
    before = _snapshot(state)
    with pytest.raises(SolverBudgetError):
        step(state, "insert", Point(0.0, 0.0))
    assert _snapshot(state) == before


def test_stream_error_leaves_state():
    state = EngineState(config=EngineConfig(m=2, epsilon=0.25))
    update(state, "insert", Point(0.0, 0.0))
    before = _snapshot(state)
    with pytest.raises(StreamError):
        update(state, "insert", Point(0.0, 0.0))
    assert _snapshot(state) == before


def test_ratio_test_is_exact():
    # 1.15 * 100 == 114.99999999999999 in floating point.
    assert (1.0 + 0.15) * 100 < 115
    assert within_ratio(115, 100, EngineConfig(m=2, epsilon=0.15).epsilon_exact)
    assert not within_ratio(116, 100, Fraction("0.15"))
    assert within_ratio(125, 100, Fraction("0.25"))
    assert not within_ratio(1, 0, Fraction("0.25"))


# Blocks close once they reach block_min = 2, so a block can hold more than
# block_max = 2 disks: at t=6 of this stream the planned group swap would
# change 14 disks against a GroupSwap bound of 2*(kappa+extend)*block_max = 12.
def oversized_block_config():
    return EngineConfig(
        m=16, epsilon=0.25, solver=SolverKind.GREEDY, scaled_mode=True,
        c_star=1, trivial_threshold=0, kappa=2, extend=1, block_min=2, block_max=2,
        balance_cells=2, balance_blocks=6, grid_shifts=3, grid_edge=6,
    )


def oversized_block_events():
    rows = gen_random(120, 20.0, seed=3, delete_prob=0.2)
    return parse_stream("\n".join(rows) + "\n").point_events


def test_group_swap_over_churn_bound_falls_back_in_scaled_mode():
    cfg = oversized_block_config()
    state = EngineState(config=cfg)
    branches = []
    for op, p in oversized_block_events():
        rep = update(state, op, p)
        assert rep.churn <= cfg.churn_bound(rep.branch), rep
        branches.append(rep.branch)
    assert branches[5] is Branch.FEW_BLOCKS_SWAP_ALL
    assert Branch.GROUP_SWAP in branches


def test_group_swap_over_churn_bound_raises_outside_scaled_mode():
    cfg = oversized_block_config()
    state = EngineState(config=cfg)
    events = oversized_block_events()
    for op, p in events[:5]:
        update(state, op, p)
    state.config = dataclasses.replace(cfg, scaled_mode=False)
    apply_event(state, *events[5])
    opt_sol = solve(state.points, cfg.m, cfg.solver)
    with pytest.raises(EngineInvariantError, match="group swap churn 14 exceeds bound 12"):
        find_valid_swap(state, opt_sol)
