"""Adversarial point stream forcing large churn on exact maintainers.

2m points arrive on the x-axis in alternating quarter/long gaps, then one
trigger point extends the chain at whichever end is worse for the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Point, UnitDisk, disk_churn
from ..static_solver import solve


def chain_points(m: int) -> list[Point]:
    """p_1..p_2m with p_{2j-1} = (2j-2) + 1/4 and p_{2j} = 2j, all at y=0."""
    pts = []
    for j in range(1, m + 1):
        pts.append(Point((2 * j - 2) + 0.25, 0.0))
        pts.append(Point(2.0 * j, 0.0))
    return pts


def trigger_options(m: int) -> tuple[Point, Point]:
    """The two chain extensions: left end (0,0) and right end (2m + 1/4, 0)."""
    return Point(0.0, 0.0), Point(2.0 * m + 0.25, 0.0)


@dataclass
class LowerBoundStream:
    m: int

    @property
    def prefix(self) -> list[Point]:
        return chain_points(self.m)

    def choose_trigger(self, current_disks: list[UnitDisk]) -> Point:
        """Pick the trigger whose forced optimum is farthest from the state.

        Evaluated against the canonical optimum after each candidate trigger;
        ties go to the left end.
        """
        base = set(self.prefix)
        best = None
        best_churn = -1
        for trig in trigger_options(self.m):
            sol = solve(base | {trig}, self.m)
            churn = disk_churn(current_disks, sol.disks)
            if churn > best_churn:
                best_churn = churn
                best = trig
        return best

    def events(self, trigger: Point) -> list[tuple[str, Point]]:
        return [("insert", p) for p in self.prefix] + [("insert", trigger)]


def lower_bound_stream(m: int) -> LowerBoundStream:
    if m < 1:
        raise ValueError("m must be at least 1")
    return LowerBoundStream(m)
