"""Stable approximation engine for dynamic max cover by unit disks.

Per update the engine recomputes an oracle optimum; while the maintained
solution stays within a ``1+epsilon`` factor nothing changes.  Otherwise it
applies one bounded swap, constructed through a pipeline of shifted-grid
selection, prefix-balanced cell ordering, block creation, a prefix-balanced
block ordering, and a scan over a family of block partitions.  Every applied
swap is re-verified by direct recount, never trusted from construction.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

from .geometry import (
    Assignment,
    CellId,
    GridSelectionError,
    GridSpec,
    Point,
    UnitDisk,
    assign_points,
    cell_cover,
    cell_cover_size,
    cell_of,
    covers,
    disk_churn,
    grid_shift_count,
    is_boundary,
    select_grid,
)
from .static_solver import Solution, SolverKind, pad_disks, solve


class Branch(Enum):
    NO_CHANGE = "NoChange"
    TRIVIAL_SWAP_ALL = "TrivialSwapAll"
    CELL_OVERFLOW = "CellOverflow"
    FEW_BLOCKS_SWAP_ALL = "FewBlocksSwapAll"
    GROUP_SWAP = "GroupSwap"
    SINGLE_SWAP = "SingleSwap"  # used by the 2-stable baseline


class EngineInvariantError(Exception):
    """An internal guarantee failed; indicates a bug or a bad configuration."""


class StreamError(Exception):
    """Malformed update (duplicate insert or delete of an absent point)."""


@dataclass
class EngineConfig:
    """All tunables of the swap pipeline.

    A derived constant left as ``None`` follows its standard formula in
    ``epsilon`` (ceilings applied to every ``1/epsilon`` power).  Overrides
    apply in either mode and let the pipeline run at desk scale, where its
    guarantees are no longer promised; ``scaled_mode`` only turns the four
    fallbacks on: a failed grid selection, a failed group search, an
    oversized replacement or a group swap over its churn bound then swaps
    everything instead of raising.
    """

    m: int
    epsilon: float
    c_star: int = 128
    solver: SolverKind = SolverKind.EXACT
    scaled_mode: bool = False
    trivial_threshold: int | None = None
    kappa: int | None = None
    block_min: int | None = None
    block_max: int | None = None
    balance_cells: int | None = None
    balance_blocks: int | None = None
    extend: int | None = None
    grid_shifts: int | None = None
    grid_edge: float | None = None
    node_budget: int = 5_000_000
    # epsilon as the exact decimal it was written as, for the ratio test.
    epsilon_exact: Fraction = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        eps = self.epsilon
        self.epsilon_exact = Fraction(str(eps))
        if self.trivial_threshold is None:
            self.trivial_threshold = math.ceil(1.0 / eps**3)
        if self.extend is None:
            self.extend = 6 * self.c_star + 4
        if self.kappa is None:
            self.kappa = math.ceil(8.0 * (6 * self.c_star + 4) / eps) + 1
        if self.block_min is None:
            self.block_min = math.ceil(1.0 / eps**2)
        if self.block_max is None:
            self.block_max = math.ceil((self.c_star + 2) / eps**2)
        if self.balance_cells is None:
            self.balance_cells = math.ceil(self.c_star / eps**2)
        if self.balance_blocks is None:
            self.balance_blocks = math.ceil((3 * self.c_star + 2) / eps**2)
        if self.grid_shifts is None:
            self.grid_shifts = grid_shift_count(eps)
        if self.grid_edge is None:
            self.grid_edge = 2.0 * self.grid_shifts
        if self.kappa <= self.extend:
            raise ValueError("kappa must exceed the group extension length")
        if self.block_max < self.block_min:
            raise ValueError("block_max must be at least block_min")

    @property
    def cover_budget(self) -> int:
        """Disks emitted by a cell cover; also the cell-overflow threshold."""
        return max(self.balance_cells, cell_cover_size(self.grid_edge))

    def churn_bound(self, branch: Branch) -> int:
        if branch is Branch.NO_CHANGE:
            return 0
        if branch in (Branch.TRIVIAL_SWAP_ALL, Branch.FEW_BLOCKS_SWAP_ALL):
            return 2 * self.m
        if branch is Branch.CELL_OVERFLOW:
            return 2 * (self.cover_budget + 1)
        if branch is Branch.SINGLE_SWAP:
            return 2
        return 2 * (self.kappa + self.extend) * self.block_max


@dataclass
class EngineState:
    config: EngineConfig
    t: int = 0
    points: set[Point] = field(default_factory=set)
    disks: list[UnitDisk] = field(default_factory=list)
    assignment: Assignment = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.disks:
            self.disks = pad_disks(self.config.m)
        if len(self.disks) != self.config.m:
            raise ValueError(f"need exactly m={self.config.m} disks")

    @property
    def alg_value(self) -> int:
        return len(self.assignment)


@dataclass
class CellRecord:
    """A grid cell's algorithm disk indices and optimum disks (internal ones,
    or one padding dummy), with the two point counts the group test sums."""

    alg_disks: list[int] = field(default_factory=list)
    opt_disks: list[UnitDisk] = field(default_factory=list)
    pstar_count: int = 0
    palg_count: int = 0


@dataclass
class Block:
    items: list[tuple]  # consecutive (id, alg_count, opt_count) triples

    @property
    def alg_total(self) -> int:
        return sum(it[1] for it in self.items)

    @property
    def opt_total(self) -> int:
        return sum(it[2] for it in self.items)


@dataclass
class Swap:
    s_old: list[int]
    s_new: list[UnitDisk]
    branch: Branch

    def __post_init__(self) -> None:
        if len(self.s_new) > len(self.s_old):
            raise EngineInvariantError("swap adds more disks than it removes")


@dataclass
class UpdateReport:
    t: int
    op: str
    alg_value: int
    opt_value: int
    churn: int
    branch: Branch


def prefix_balanced_order(items, bound: int):
    """Order ``(id, alg_count, opt_count)`` items so every prefix is balanced.

    Requires equal totals and per-item counts at most ``bound``; then every
    prefix satisfies ``|sum(alg) - sum(opt)| <= bound``.  The first item is the
    lowest id, after which the lowest eligible id is taken each round.
    """
    items = list(items)
    if sum(it[1] for it in items) != sum(it[2] for it in items):
        raise ValueError("alg and opt totals differ; pad before ordering")
    for it in items:
        if it[1] > bound or it[2] > bound:
            raise ValueError(f"item {it[0]} exceeds the balance bound {bound}")
    remaining = sorted(items, key=lambda it: it[0])
    if not remaining:
        return []
    order = [remaining.pop(0)]
    gap = order[0][1] - order[0][2]
    while remaining:
        if gap >= 0:
            pick = next(i for i, it in enumerate(remaining) if it[2] >= it[1])
        else:
            pick = next(i for i, it in enumerate(remaining) if it[2] < it[1])
        it = remaining.pop(pick)
        order.append(it)
        gap += it[1] - it[2]
    running = 0
    for it in order:
        running += it[1] - it[2]
        if abs(running) > bound:
            raise EngineInvariantError(f"prefix imbalance {running} exceeds {bound}")
    return [it[0] for it in order]


def make_blocks(ordered, block_min: int, block_max: int) -> list[Block]:
    """Greedy partition of prefix-balance-ordered cells into blocks.

    Accumulates cells until the algorithm-disk count reaches ``block_min``,
    except that a tail whose total is at most ``block_max`` becomes the final
    block in one piece.
    """
    ordered = list(ordered)
    blocks: list[Block] = []
    j = 0
    n = len(ordered)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ordered[i][1]
    while j < n:
        if suffix[j] <= block_max:
            blocks.append(Block(ordered[j:]))
            break
        acc = 0
        jp = j
        while acc < block_min:
            acc += ordered[jp][1]
            jp += 1
        blocks.append(Block(ordered[j:jp]))
        j = jp
    return blocks


def partition_ranges(num_blocks: int, i: int, kappa: int) -> list[tuple[int, int]]:
    """Half-open group ranges of the i-th partition of the block sequence.

    The first group holds ``i-1`` blocks (dropped when empty); the rest have
    exactly ``kappa`` blocks except possibly the last.
    """
    ranges = []
    if i > 1:
        ranges.append((0, i - 1))
    j = i - 1
    while j < num_blocks:
        ranges.append((j, min(j + kappa, num_blocks)))
        j += kappa
    return ranges


def extended_range(
    num_blocks: int, lo: int, hi: int, extend: int
) -> tuple[int, int] | None:
    """Blocks appended to a group: the ``extend`` following it, else preceding."""
    if num_blocks - hi >= extend:
        return (hi, hi + extend)
    if lo - extend >= 0:
        return (lo - extend, lo)
    return None


@dataclass
class GroupChoice:
    partition: int
    group: tuple[int, int]
    extension: tuple[int, int]


def select_group(
    stats: list[tuple[int, int, int, int]], kappa: int, extend: int
) -> GroupChoice | None:
    """First group (partitions ascending, groups left to right) worth swapping.

    ``stats`` carries per-block ``(alg_disks, opt_disks, pstar_points,
    palg_points)`` in block order.  A group qualifies when the optimum's
    reliably-new points inside it strictly exceed the points held by the
    algorithm's disks in the extended group.
    """
    n = len(stats)
    pstar = [0] * (n + 1)
    palg = [0] * (n + 1)
    for i, st in enumerate(stats):
        pstar[i + 1] = pstar[i] + st[2]
        palg[i + 1] = palg[i] + st[3]
    for i in range(1, kappa + 1):
        for lo, hi in partition_ranges(n, i, kappa):
            ext = extended_range(n, lo, hi, extend)
            if ext is None:
                continue
            es, ee = ext
            gain = pstar[hi] - pstar[lo]
            loss = (palg[hi] - palg[lo]) + (palg[ee] - palg[es])
            if gain > loss:
                return GroupChoice(i, (lo, hi), (es, ee))
    return None


def pad_opt(
    internal_opt_disks: list[UnitDisk],
    m: int,
    occupied_cells: set[CellId],
    grid: GridSpec,
    min_y: float,
) -> list[UnitDisk]:
    """Dummy disks bringing the internal-optimum list up to ``m`` entries.

    Each dummy sits at the center of a previously empty cell in the grid
    column nearest x=0, on rows descending from below ``min_y``; cell centers
    keep the dummies internal whenever the cell edge is at least 2.  Dummies
    are never assigned points.
    """
    need = m - len(internal_opt_disks)
    if need < 0:
        raise EngineInvariantError("internal optimum holds more than m disks")
    if need == 0:
        return []
    col = math.floor((0.0 - grid.offset_x) / grid.edge)
    x = grid.offset_x + (col + 0.5) * grid.edge
    row = math.floor((min_y - 10.0 - grid.offset_y) / grid.edge)
    dummies: list[UnitDisk] = []
    taken = set(occupied_cells)
    while len(dummies) < need:
        cell = CellId(col, row)
        if cell not in taken:
            y = grid.offset_y + (row + 0.5) * grid.edge
            dummies.append(UnitDisk(Point(x, y)))
            taken.add(cell)
        row -= 1
    return dummies


def within_ratio(opt: int, alg: int, epsilon: Fraction) -> bool:
    """``opt <= (1 + epsilon) * alg``, compared exactly."""
    return opt * epsilon.denominator <= (epsilon.denominator + epsilon.numerator) * alg


def _swap_everything(state: EngineState, disks: list[UnitDisk], branch: Branch) -> Swap:
    return Swap(s_old=list(range(len(state.disks))), s_new=list(disks), branch=branch)


def find_valid_swap(state: EngineState, opt_sol: Solution) -> Swap:
    """Plan a coverage-increasing swap of bounded size; solves and changes nothing.

    ``opt_sol`` is the oracle optimum for ``state.points``.  Precondition: its
    value strictly exceeds ``(1+epsilon)`` times the current coverage and ``m``
    is above the trivial threshold.
    """
    cfg = state.config
    try:
        grid = select_grid(
            opt_sol.disks,
            state.disks,
            opt_sol.assignment,
            state.assignment,
            cfg.epsilon,
            edge=cfg.grid_edge,
            shifts=cfg.grid_shifts,
        )
    except GridSelectionError:
        if cfg.scaled_mode:
            return _swap_everything(state, opt_sol.disks, Branch.TRIVIAL_SWAP_ALL)
        raise

    # The optimum's points that no boundary disk of the algorithm holds are
    # reliably new; only the optimum's internal disks count them.
    alg_boundary = [is_boundary(d, grid) for d in state.disks]
    boundary_held = {p for p, i in state.assignment.items() if alg_boundary[i]}
    reliably_new = Counter(
        k for p, k in opt_sol.assignment.items() if p not in boundary_held
    )
    alg_counts = Counter(state.assignment.values())
    records: dict[CellId, CellRecord] = defaultdict(CellRecord)
    for k, d in enumerate(opt_sol.disks):
        if not is_boundary(d, grid):
            rec = records[cell_of(d.center, grid)]
            rec.opt_disks.append(d)
            rec.pstar_count += reliably_new[k]
    internal_opt = [d for rec in records.values() for d in rec.opt_disks]
    for i, d in enumerate(state.disks):
        rec = records[cell_of(d.center, grid)]
        rec.alg_disks.append(i)
        rec.palg_count += alg_counts[i]

    pstar_total = sum(rec.pstar_count for rec in records.values())
    if pstar_total < (1 + cfg.epsilon_exact / 4) * state.alg_value:
        raise EngineInvariantError(
            "internal-optimum surplus bound violated after grid selection"
        )

    # A cell holding more algorithm disks than a full cell cover admits a
    # direct swap: retile the cell and add one disk on an uncovered point.
    overflow = sorted(
        c for c, rec in records.items() if len(rec.alg_disks) > cfg.cover_budget
    )
    if overflow:
        cell = overflow[0]
        tiles = cell_cover(cell, grid)
        uncovered = min(p for p in state.points if p not in state.assignment)
        s_new = tiles + [UnitDisk(uncovered)]
        ordered = sorted(records[cell].alg_disks, key=lambda i: (alg_boundary[i], i))
        return Swap(s_old=ordered[: len(s_new)], s_new=s_new, branch=Branch.CELL_OVERFLOW)

    # Pad the internal optimum to m disks with point-free dummies, each the
    # lone optimum disk of a fresh cell, then order cells so every prefix is
    # balanced.
    min_y = min([p.y for p in state.points] + [d.center.y for d in state.disks])
    dummies = pad_opt(internal_opt, cfg.m, set(records), grid, min_y)
    for d in dummies:
        records[cell_of(d.center, grid)].opt_disks.append(d)
    padded = internal_opt + dummies

    def counts(cell: CellId) -> tuple[CellId, int, int]:
        return (cell, len(records[cell].alg_disks), len(records[cell].opt_disks))

    cell_items = [counts(cell) for cell in sorted(records)]
    cell_bound = max(
        [cfg.cover_budget]
        + [it[1] for it in cell_items]
        + [it[2] for it in cell_items]
    )
    ordered = [counts(cell) for cell in prefix_balanced_order(cell_items, cell_bound)]

    blocks = make_blocks(ordered, cfg.block_min, cfg.block_max)
    if len(blocks) < 3 * cfg.kappa:
        return _swap_everything(state, padded, Branch.FEW_BLOCKS_SWAP_ALL)

    block_items = [(rank, b.alg_total, b.opt_total) for rank, b in enumerate(blocks)]
    block_bound = max(
        [cfg.balance_blocks]
        + [it[1] for it in block_items]
        + [it[2] for it in block_items]
    )
    block_order = prefix_balanced_order(block_items, block_bound)
    ordered_blocks = [blocks[r] for r in block_order]

    stats = []
    for b in ordered_blocks:
        cells = [records[it[0]] for it in b.items]
        stats.append((
            b.alg_total,
            b.opt_total,
            sum(r.pstar_count for r in cells),
            sum(r.palg_count for r in cells),
        ))
    choice = select_group(stats, cfg.kappa, cfg.extend)
    if choice is None:
        if cfg.scaled_mode:
            return _swap_everything(state, padded, Branch.FEW_BLOCKS_SWAP_ALL)
        raise EngineInvariantError("no qualifying group found")

    lo, hi = choice.group
    es, ee = choice.extension
    group = [records[it[0]] for b in ordered_blocks[lo:hi] for it in b.items]
    extension = [records[it[0]] for b in ordered_blocks[es:ee] for it in b.items]
    s_old = sorted({i for rec in group + extension for i in rec.alg_disks})
    s_new = [d for rec in group for d in rec.opt_disks]
    if len(s_new) > len(s_old):
        if cfg.scaled_mode:
            return _swap_everything(state, padded, Branch.FEW_BLOCKS_SWAP_ALL)
        raise EngineInvariantError("replacement larger than removal set")
    # Blocks close at block_min, so one can hold more than block_max disks:
    # the plan's exact churn, as step will count it, must meet the bound.
    swap = Swap(s_old=s_old, s_new=s_new, branch=Branch.GROUP_SWAP)
    churn = disk_churn(state.disks, swapped_disks(state, swap))
    if churn > cfg.churn_bound(Branch.GROUP_SWAP):
        if cfg.scaled_mode:
            return _swap_everything(state, padded, Branch.FEW_BLOCKS_SWAP_ALL)
        raise EngineInvariantError(
            f"group swap churn {churn} exceeds bound {cfg.churn_bound(Branch.GROUP_SWAP)}"
        )
    return swap


def apply_event(state: EngineState, op: str, p: Point) -> None:
    """Mutate the point set and keep the assignment consistent."""
    if op == "insert":
        if p in state.points:
            raise StreamError(f"insert of already-present point {p}")
        state.points.add(p)
        for i, d in enumerate(state.disks):
            if covers(d, p):
                state.assignment[p] = i
                break
    elif op == "delete":
        if p not in state.points:
            raise StreamError(f"delete of absent point {p}")
        state.points.remove(p)
        state.assignment.pop(p, None)
    else:
        raise StreamError(f"unknown operation {op!r}")


def replace_disks(state: EngineState, disks: list[UnitDisk]) -> int:
    """Make ``disks`` the solution and recount the assignment; returns churn.

    Raises unless the recount covers strictly more points than before.
    """
    old, prev_value = state.disks, state.alg_value
    state.disks = disks
    state.assignment = assign_points(state.points, disks)
    if state.alg_value < prev_value + 1:
        raise EngineInvariantError(
            f"repair did not increase coverage: {prev_value} -> {state.alg_value}"
        )
    return disk_churn(old, disks)


def swapped_disks(state: EngineState, swap: Swap) -> list[UnitDisk]:
    """The solution after the swap: old disks out, new ones in, padded to m."""
    removed = set(swap.s_old)
    disks = [d for i, d in enumerate(state.disks) if i not in removed] + list(swap.s_new)
    deficit = state.config.m - len(disks)
    if deficit > 0:
        min_y = min(
            [d.center.y for d in state.disks + swap.s_new]
            + [p.y for p in state.points]
        )
        disks += pad_disks(deficit, min_y)
    return disks


def apply_swap(state: EngineState, swap: Swap) -> int:
    """Replace the swap's old disks, pad back to m, recount; returns churn."""
    return replace_disks(state, swapped_disks(state, swap))


def atomic(update_fn):
    """Make an engine update all-or-nothing: if it raises, ``t``, the points,
    the disks and the assignment are put back as they were before the call."""

    @functools.wraps(update_fn)
    def wrapper(state: EngineState, op: str, p: Point) -> UpdateReport:
        saved = (state.t, set(state.points), state.disks, dict(state.assignment))
        try:
            return update_fn(state, op, p)
        except BaseException:
            state.t, state.points, state.disks, state.assignment = saved
            raise

    return wrapper


def step(
    state: EngineState,
    op: str,
    p: Point,
    slack: Fraction,
    repair: Callable[[EngineState, Solution], tuple[int, Branch]],
) -> UpdateReport:
    """The update body every engine shares.

    Applies the event and solves.  While ``opt <= (1+slack)*alg`` nothing
    changes; otherwise ``repair`` replaces the solution through
    :func:`replace_disks` and returns the churn and the branch it took.  The
    result must hold m disks, meet the ratio and stay within the branch's
    churn bound.
    """
    cfg = state.config
    state.t += 1
    apply_event(state, op, p)
    opt_sol = solve(state.points, cfg.m, cfg.solver, cfg.node_budget)
    if within_ratio(opt_sol.value, state.alg_value, slack):
        churn, branch = 0, Branch.NO_CHANGE
    else:
        churn, branch = repair(state, opt_sol)

    if len(state.disks) != cfg.m:
        raise EngineInvariantError(
            f"{len(state.disks)} disks after t={state.t}, not m={cfg.m}"
        )
    if not within_ratio(opt_sol.value, state.alg_value, slack):
        raise EngineInvariantError(
            f"ratio 1+{slack} violated at t={state.t}: "
            f"opt={opt_sol.value} alg={state.alg_value}"
        )
    if churn > cfg.churn_bound(branch):
        raise EngineInvariantError(
            f"churn {churn} exceeds bound {cfg.churn_bound(branch)} on {branch}"
        )
    return UpdateReport(
        t=state.t,
        op=op,
        alg_value=state.alg_value,
        opt_value=opt_sol.value,
        churn=churn,
        branch=branch,
    )


def _sas_repair(state: EngineState, opt_sol: Solution) -> tuple[int, Branch]:
    """Swap everything up to the trivial threshold, else one planned swap."""
    cfg = state.config
    if cfg.m <= cfg.trivial_threshold:
        swap = _swap_everything(state, opt_sol.disks, Branch.TRIVIAL_SWAP_ALL)
    else:
        swap = find_valid_swap(state, opt_sol)
    return apply_swap(state, swap), swap.branch


@atomic
def update(state: EngineState, op: str, p: Point) -> UpdateReport:
    """One dynamic update; repairs the solution only when the ratio check fails."""
    return step(state, op, p, state.config.epsilon_exact, _sas_repair)
