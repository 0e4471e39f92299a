"""Property tests of the point engines over random insert/delete streams.

Each generated stream is replayed by ``stablecover run`` through one point
engine; every report row must meet that engine's guarantee, and
``stablecover verify`` must accept the report.  Under a small search budget,
an update that runs out of budget must leave the engine state, candidate
index included, as it was.  The candidate index must agree with the
from-scratch candidates and masks after every event, its ranked order with
a rebuild from its candidates, and its bound on the optimum must stay at or
above the from-scratch optimum.
"""

import copy
import tempfile
from fractions import Fraction
from functools import reduce
from operator import or_
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_oracle_reference import (
    reference_best_value, reference_greedy_masks, reference_prefix_extract,
)

from stablecover.baseline import update2
from stablecover.geometry import Point
from stablecover.harness_cli import POINT_ENGINES, format_point_event, main
from stablecover.sas_engine import (
    Branch, EngineConfig, EngineState, point_event, update, within_ratio,
)
from stablecover.static_solver import (
    DEFAULT_NODE_BUDGET,
    CandidateIndex,
    SolverBudgetError,
    SolverKind,
    _greedy_masks,
    _search,
    candidate_disks,
    coverage_masks,
    solve,
)


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


def relabelled(index):
    """The index's candidates, and its masks relabelled from slot bits to
    sorted-point bits, the labels ``coverage_masks`` uses."""
    disks, masks = index.candidates()
    slots = [index._slot[p] for p in sorted(index.points)]
    return disks, [sum(1 << i for i, s in enumerate(slots) if mk >> s & 1) for mk in masks]


def assert_matches_scratch(index):
    pts = sorted(index.points)
    cands = candidate_disks(pts)
    assert relabelled(index) == (cands, coverage_masks(pts, cands))


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
            assert relabelled(state.index) == relabelled(CandidateIndex(state.points))
            assert_matches_scratch(state.index)
            # The restored state takes the same event under the full budget.
            state.config.node_budget = DEFAULT_NODE_BUDGET
            step(state, op, p)
            state.config.node_budget = budget


@st.composite
def index_streams(draw):
    """Insert/delete streams that end by deleting every point.

    Half-unit lattice points give coincident circle centers, pair circles
    centered on live points and pairs exactly 2 apart; free floats give the
    generic case.
    """
    lattice = st.builds(lambda i, j: Point(i / 2, j / 2), st.integers(0, 4), st.integers(0, 4))
    free = st.builds(Point, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    coord = st.one_of(lattice, lattice, free)
    live: list[Point] = []
    events = []
    for _ in range(draw(st.integers(1, 30))):
        if live and draw(st.booleans()):
            events.append(("delete", live.pop(draw(st.integers(0, len(live) - 1)))))
            continue
        p = draw(coord)
        if p not in live:
            live.append(p)
            events.append(("insert", p))
    events.extend(("delete", p) for p in reversed(live))
    return events


# (1, 1) is the own disk of a live point and the circle center of the pairs
# (0, 1)-(2, 1) and (1, 0)-(1, 2), each exactly 2 apart; it outlives each of
# its sources but the last.
SHARED = [Point(0.0, 1.0), Point(2.0, 1.0), Point(1.0, 1.0), Point(1.0, 0.0), Point(1.0, 2.0)]
SHARED_CENTER = [("insert", p) for p in SHARED] + [("delete", SHARED[i]) for i in (2, 0, 1, 4, 3)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(events=index_streams(), m=st.integers(1, 4))
@example(events=SHARED_CENTER, m=2)
def test_candidate_index_matches_scratch(events, m):
    index = CandidateIndex()
    for op, p in events:
        if op == "insert":
            index.add(p)
        else:
            index.remove(p)
        assert_matches_scratch(index)
        _, masks = index.candidates()
        pts = sorted(index.points)
        scratch = coverage_masks(pts, candidate_disks(pts))
        union = reduce(or_, masks, 0).bit_count()
        value, _, nodes = _search(masks, m, 0, union, 0, DEFAULT_NODE_BUDGET)
        assert (value, nodes) == _search(scratch, m, 0, union, 0, DEFAULT_NODE_BUDGET)[::2]
        assert _greedy_masks(masks, m) == _greedy_masks(scratch, m)
    assert not index.points and index.candidates() == ([], [])
    # Emptied buckets go too, so the index does not grow with the cells a
    # wandering stream has visited.
    assert not index._point_buckets and not index._center_buckets


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    events=st.one_of(index_streams(), point_streams()),
    m=st.integers(1, 4),
    kind=st.sampled_from(list(SolverKind)),
)
@example(events=SHARED_CENTER[:5], m=2, kind=SolverKind.EXACT)
def test_solve_of_an_index_matches_solve_of_its_points(events, m, kind):
    """The kept index, an index built from the live points and the
    from-scratch table give the same solution after every event."""
    index = CandidateIndex()
    for op, p in events:
        if op == "insert":
            index.add(p)
        else:
            index.remove(p)
        by_points = solve(set(index.points), m, kind)
        for by_index in (solve(index, m, kind), solve(CandidateIndex(index.points), m, kind)):
            assert by_index.value == by_points.value
            assert by_index.disks == by_points.disks
            assert by_index.assignment == by_points.assignment


@settings(derandomize=True, max_examples=100, deadline=None)
@given(events=st.one_of(index_streams(), point_streams()), m=st.integers(1, 5))
@example(events=SHARED_CENTER[:5], m=2)
def test_reduced_index_solve_matches_the_unreduced_references(events, m):
    """An exact solve over a candidate index searches only the masks that no
    other mask contains; after every event its value is
    ``reference_best_value``'s over the index's whole mask list, and its
    disks start with the candidates ``reference_prefix_extract`` picks from
    that list."""
    index = CandidateIndex()
    for op, p in events:
        apply_event(index, op, p)
        disks, masks = index.candidates()
        value = reference_best_value(list(masks), m, DEFAULT_NODE_BUDGET)[0]
        picks = reference_prefix_extract(list(masks), m, value, 0, DEFAULT_NODE_BUDGET)
        solution = solve(index, m)
        assert solution.value == value
        assert solution.disks[:len(picks)] == [disks[i] for i in picks]


class RolledBack(Exception):
    pass


def apply_event(index, op, p):
    if op == "insert":
        index.add(p)
    else:
        index.remove(p)


def assert_ranked_matches_rebuild(index, m):
    """The kept ranked order is the candidates sorted by coverage, then by
    position, and the greedy read from it is ``_greedy_masks`` over the
    candidates, which is the eager reference greedy: the same value, the
    same disks in pick order."""
    disks, masks = index.candidates()
    rebuild = sorted(range(len(disks)), key=lambda i: (-masks[i].bit_count(), i))
    assert [(neg, index._center_of[key], mk) for neg, key, mk in index.ranked()] == [
        (-masks[i].bit_count(), disks[i], masks[i]) for i in rebuild
    ]
    value, picks = _greedy_masks(masks, m)
    assert (value, picks) == reference_greedy_masks(masks, m)
    sol = solve(index, m, SolverKind.GREEDY)
    assert sol.value == value
    assert sol.disks[:len(picks)] == [disks[i] for i in picks]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(events=index_streams(), m=st.integers(1, 6), data=st.data())
@example(events=SHARED_CENTER, m=2, data=None)
def test_ranked_order_matches_a_rebuild_after_every_event(events, m, data):
    """The order is built at a drawn event and kept from there; some events
    are first rolled back by ``point_event``, and at some the index is
    forked, after which the event goes to the fork and the original must
    still match its own rebuild.  ``m`` up to 6 leaves more slots than live
    points in many states, where the greedy takes zero-gain masks."""
    def draw(strategy, default):
        return default if data is None else data.draw(strategy)

    index = CandidateIndex()
    build_at = draw(st.integers(0, len(events)), 0)
    for t, (op, p) in enumerate(events):
        if t == build_at:
            index.ranked()
        if index._ranked is None:
            apply_event(index, op, p)
            continue
        action = draw(st.sampled_from(["apply", "roll back", "fork"]), "apply")
        if action == "roll back":
            try:
                with point_event(index, op, p):
                    assert_ranked_matches_rebuild(index, m)
                    raise RolledBack
            except RolledBack:
                pass
            assert_ranked_matches_rebuild(index, m)
        original = index
        if action == "fork":
            index = copy.deepcopy(index)
        apply_event(index, op, p)
        assert_ranked_matches_rebuild(index, m)
        if original is not index:
            assert_ranked_matches_rebuild(original, m)
    assert index.ranked() == []


# At m=2 the greedy covers 3 of these 4 points, and two disks cover all 4:
# the engine's greedy solve at the last insert must not lower the bound to 3.
GREEDY_SHORT = [
    ("insert", p) for p in (Point(3.0, 1.5), Point(3.0, 0.5), Point(3.0, 3.0), Point(1.0, 0.5))
]


def assert_bound_certified(index, m):
    assert index.opt_bound >= solve(set(index.points), m).value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    events=index_streams(),
    m=st.integers(1, 4),
    kind=st.sampled_from(list(SolverKind)),
    step=st.sampled_from([update, update2]),
    data=st.data(),
)
@example(events=GREEDY_SHORT, m=2, kind=SolverKind.GREEDY, step=update, data=None)
def test_opt_bound_stays_above_the_optimum(events, m, kind, step, data):
    """After every event the index's bound is at least the exact optimum of
    its points.  An event goes through the engine, whose oracle may skip or
    set the bound; some are first rolled back by ``point_event`` after an
    exact solve set the bound inside it, and at some the engine is forked,
    after which the event goes to the fork and the original is checked
    too."""
    actions = st.sampled_from(["apply", "roll back", "fork"])
    state = EngineState(config=EngineConfig(m=m, epsilon=0.25, solver=kind))
    for op, p in events:
        action = "apply" if data is None else data.draw(actions)
        if action == "roll back":
            try:
                with point_event(state.index, op, p):
                    state.index.opt_bound = solve(state.index, m).value
                    raise RolledBack
            except RolledBack:
                pass
            assert_bound_certified(state.index, m)
        original = state
        if action == "fork":
            state = copy.deepcopy(state)
        step(state, op, p)
        assert_bound_certified(state.index, m)
        if original is not state:
            assert_bound_certified(original.index, m)
