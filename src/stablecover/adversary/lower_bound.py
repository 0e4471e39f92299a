"""The alternating-gap chain: an adversarial trigger for the canonical exact maintainer.

2m points arrive on the x-axis in alternating quarter/long gaps, then one
trigger point extends the chain at whichever end is worse for the algorithm.
Against :class:`~stablecover.adversary.streams.ExactMaintainer`, which holds
the canonical optimum, the trigger forces a churn of at least ``m`` at
m = 1-4.  It does not bind every exact maintainer: a quarter gap lets one
disk hold three chain points, and at m = 6 the least churn the trigger forces
on an exact maintainer, counted in covered point sets, is 0 at either end.
"""

from __future__ import annotations

from ..geometry import Point, UnitDisk, disk_churn
from ..static_solver import solve


def chain_points(m: int) -> list[Point]:
    """p_1..p_2m with p_{2j-1} = (2j-2) + 1/4 and p_{2j} = 2j, all at y=0."""
    if m < 1:
        raise ValueError("m must be at least 1")
    pts = []
    for j in range(1, m + 1):
        pts.append(Point((2 * j - 2) + 0.25, 0.0))
        pts.append(Point(2.0 * j, 0.0))
    return pts


def trigger_options(m: int) -> tuple[Point, Point]:
    """The two chain extensions: left end (0,0) and right end (2m + 1/4, 0)."""
    return Point(0.0, 0.0), Point(2.0 * m + 0.25, 0.0)


def choose_trigger(m: int, current_disks: list[UnitDisk]) -> Point:
    """The trigger whose forced optimum is farthest from ``current_disks``.

    Evaluated against the canonical optimum after each candidate trigger;
    ties go to the left end.
    """
    base = set(chain_points(m))
    return max(
        trigger_options(m),
        key=lambda trigger: disk_churn(current_disks, solve(base | {trigger}, m).disks),
    )
