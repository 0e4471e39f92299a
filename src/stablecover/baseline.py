"""Two-stable maintenance: swap a single disk whenever the 2-approximation slips.

The replacement disk is the optimum's disk covering the most points the
current solution misses; the removed disk is the current one with the fewest
assigned points.  Ties break toward the lowest index.
"""

from __future__ import annotations

from collections import Counter

from .geometry import assign_points, Point
from .sas_engine import (
    Branch,
    EngineInvariantError,
    EngineState,
    UpdateReport,
    _multiset_churn,
    apply_event,
    atomic,
)
from .static_solver import solve


@atomic
def update2(state: EngineState, op: str, p: Point) -> UpdateReport:
    cfg = state.config
    state.t += 1
    apply_event(state, op, p)
    cur = state.alg_value
    opt_sol = solve(state.points, cfg.m, cfg.solver, cfg.node_budget)

    if opt_sol.value <= 2 * cur:
        churn = 0
        branch = Branch.NO_CHANGE
    else:
        counts = Counter(state.assignment.values())
        old_idx = min(range(cfg.m), key=lambda i: (counts[i], i))
        covered = set(state.assignment)
        new_counts = Counter()
        for q, k in opt_sol.assignment.items():
            if q not in covered:
                new_counts[k] += 1
        new_idx = max(range(cfg.m), key=lambda k: (new_counts[k], -k))
        if counts[old_idx] * cfg.m > cur:
            raise EngineInvariantError("removed disk holds more than its share")
        if new_counts[new_idx] * cfg.m < cur + 1:
            raise EngineInvariantError("replacement gains less than its share")

        old_disks = list(state.disks)
        state.disks = list(state.disks)
        state.disks[old_idx] = opt_sol.disks[new_idx]
        state.assignment = assign_points(state.points, state.disks)
        if state.alg_value < cur + 1:
            raise EngineInvariantError("single swap did not increase coverage")
        churn = _multiset_churn(old_disks, state.disks)
        branch = Branch.SINGLE_SWAP

    if opt_sol.value > 2 * state.alg_value:
        raise EngineInvariantError(
            f"2-approximation violated at t={state.t}: "
            f"opt={opt_sol.value} alg={state.alg_value}"
        )
    if churn > 2:
        raise EngineInvariantError(f"churn {churn} exceeds 2")
    return UpdateReport(
        t=state.t,
        op=op,
        alg_value=state.alg_value,
        opt_value=opt_sol.value,
        churn=churn,
        branch=branch,
    )
