"""The benchmark's workloads: seeded stream generators plus replay settings.

A run replays a sequence of independent *chunks*. Chunk ``k`` of seed ``s``
is a complete stream generated from ``(workload, s, k)`` alone, so the same
seed always yields the same inputs.

The dense windows are small on purpose. The exact oracle's cost depends
heavily on the point configuration (one event in a hundred costs ten times
the median), and a window keeps a configuration for about ``window`` events.
With 28 live points in a 12x12 box a 25-second run sees only a few dozen
configurations, and events_per_s and update_p99_ms spread by 20-70% from seed
to seed. Eight points in a 4.5x4.5 box keep the branch-and-bound the largest
layer (about half of the replay) and let a run sample hundreds of
configurations.

Lines use m=9: at m=15 the harness's exact re-solve exceeds its node budget
on some seeds, and m=12 gives too few chunks a run to be steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stablecover import harness_cli
from stablecover.geometry import Point
from stablecover.static_solver import SolverKind

# The test suite's scaled constants: they let the grid, block and group
# pipeline run at m=16 instead of m ~ 1.2 million.
SCALED = dict(
    c_star=1, trivial_threshold=0, kappa=2, extend=1, block_min=1,
    block_max=2, balance_cells=2, balance_blocks=4, grid_shifts=2, grid_edge=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: harness_cli.RunConfig
    window: int = 0  # live points in the sliding window (point streams)
    box: float = 0.0  # side of the square the points are drawn from
    steady: int = 0  # insert/delete events after the window is full
    line_m: int = 0  # gen_lines size (line streams)

    def chunk_seed(self, seed: int, k: int) -> int:
        return random.Random(f"{self.name}:{seed}:{k}").getrandbits(32)

    def stream_text(self, seed: int, k: int) -> str:
        """Stream file text of chunk ``k``; generation is part of set-up."""
        sub = self.chunk_seed(seed, k)
        if self.line_m:
            rows = harness_cli.gen_lines(self.line_m, sub)
        else:
            rows = sliding_window(sub, self.window, self.box, self.steady)
        return "\n".join(rows) + "\n"


def sliding_window(seed: int, window: int, box: float, steady: int) -> list[str]:
    """``window`` inserts, then pairs of one insert and one random delete."""
    rng = random.Random(seed)
    rows: list[str] = []
    live: list[Point] = []

    def insert() -> None:
        p = Point(rng.uniform(0.0, box), rng.uniform(0.0, box))
        live.append(p)
        rows.append(harness_cli.format_point_event("insert", p))

    for _ in range(window):
        insert()
    for _ in range(steady // 2):
        insert()
        victim = live.pop(rng.randrange(len(live)))
        rows.append(harness_cli.format_point_event("delete", victim))
    return rows


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sas-dense",
            harness_cli.RunConfig(engine="sas", m=4, epsilon=0.25),
            window=8, box=4.5, steady=16,
        ),
        Workload(
            "exact-dense",
            harness_cli.RunConfig(engine="exact_maintainer", m=4),
            window=8, box=4.5, steady=16,
        ),
        Workload(
            "sas-greedy-sparse",
            harness_cli.RunConfig(
                engine="sas", m=16, epsilon=0.25,
                solver=SolverKind.GREEDY, scaled=SCALED,
            ),
            window=150, box=60.0, steady=250,
        ),
        Workload(
            "lines-greedy",
            harness_cli.RunConfig(engine="greedy_hitting", m=9),
            line_m=9,
        ),
    )
}
