"""Property tests of the point engines over random insert/delete streams.

Each generated stream is replayed by ``stablecover run`` through one point
engine; every report row must meet that engine's guarantee, and
``stablecover verify`` must accept the report.  Under a small search budget,
an update that runs out of budget must leave the engine state as it was.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from stablecover.baseline import update2
from stablecover.geometry import Point
from stablecover.harness_cli import POINT_ENGINES, format_point_event, main
from stablecover.sas_engine import Branch, EngineConfig, EngineState, update, within_ratio
from stablecover.static_solver import DEFAULT_NODE_BUDGET, SolverBudgetError


@st.composite
def point_streams(draw):
    """At most 25 valid events in a box of side at most 6."""
    side = draw(st.integers(1, 6))
    coord = st.floats(0.0, float(side), allow_nan=False, allow_infinity=False)
    live: list[Point] = []
    events = []
    for _ in range(draw(st.integers(1, 25))):
        if live and draw(st.booleans()):
            events.append(("delete", live.pop(draw(st.integers(0, len(live) - 1)))))
            continue
        p = Point(draw(coord), draw(coord))
        if p not in live:
            live.append(p)
            events.append(("insert", p))
    return events


def assert_guarantee(engine, m, epsilon, row):
    alg, opt, churn, branch = int(row[2]), int(row[3]), int(row[5]), row[6]
    if engine == "sas":
        eps = Fraction(epsilon)
        assert within_ratio(opt, alg, eps)
        assert churn <= EngineConfig(m=m, epsilon=float(eps)).churn_bound(Branch(branch))
    elif engine == "two_stable":
        assert opt <= 2 * alg and churn <= 2
    else:
        assert alg == opt


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    events=point_streams(),
    m=st.integers(1, 4),
    engine=st.sampled_from(POINT_ENGINES),
    epsilon=st.sampled_from(["0.15", "0.25", "0.4"]),
)
def test_point_replay_meets_guarantee_and_verifies(events, m, engine, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        stream, report = Path(tmp, "s.txt"), Path(tmp, "r.csv")
        stream.write_text("".join(format_point_event(op, p) + "\n" for op, p in events))
        options = ["--stream", str(stream), "--engine", engine,
                   "--m", str(m), "--epsilon", epsilon]
        assert main(["run", *options, "--out", str(report)]) == 0
        rows = [line.split(",") for line in report.read_text().splitlines()[1:-1]]
        assert len(rows) == len(events)
        for row in rows:
            assert_guarantee(engine, m, epsilon, row)
        assert main(["verify", *options, "--report", str(report)]) == 0


def snapshot(state):
    return (state.t, set(state.points), list(state.disks), dict(state.assignment))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    events=point_streams(),
    m=st.integers(1, 4),
    budget=st.integers(1, 60),
    step=st.sampled_from([update, update2]),
)
def test_update_out_of_budget_leaves_state_untouched(events, m, budget, step):
    state = EngineState(config=EngineConfig(m=m, epsilon=0.25, node_budget=budget))
    for op, p in events:
        before = snapshot(state)
        try:
            step(state, op, p)
        except SolverBudgetError:
            assert snapshot(state) == before
            # The restored state takes the same event under the full budget.
            state.config.node_budget = DEFAULT_NODE_BUDGET
            step(state, op, p)
            state.config.node_budget = budget
