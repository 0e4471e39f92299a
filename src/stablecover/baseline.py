"""Two-stable maintenance: swap a single disk whenever the 2-approximation slips.

The replacement disk is the optimum's disk covering the most points the
current solution misses; the removed disk is the current one with the fewest
assigned points.  Ties break toward the lowest index.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .geometry import Point
from .sas_engine import (
    Branch,
    EngineInvariantError,
    EngineState,
    UpdateReport,
    atomic,
    replace_disks,
    step,
)
from .static_solver import Solution


def _single_swap(state: EngineState, opt_sol: Solution) -> tuple[int, Branch]:
    m, cur = state.config.m, state.alg_value
    counts = Counter(state.assignment.values())
    old_idx = min(range(m), key=lambda i: (counts[i], i))
    new_counts = Counter(
        k for q, k in opt_sol.assignment.items() if q not in state.assignment
    )
    new_idx = max(range(m), key=lambda k: (new_counts[k], -k))
    if counts[old_idx] * m > cur:
        raise EngineInvariantError("removed disk holds more than its share")
    if new_counts[new_idx] * m < cur + 1:
        raise EngineInvariantError("replacement gains less than its share")
    disks = list(state.disks)
    disks[old_idx] = opt_sol.disks[new_idx]
    return replace_disks(state, disks), Branch.SINGLE_SWAP


@atomic
def update2(state: EngineState, op: str, p: Point) -> UpdateReport:
    """One update held to ratio 2 (``opt <= 2*alg``) by single swaps."""
    return step(state, op, p, Fraction(1), _single_swap)
