import copy
import functools
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from stablecover import static_solver
from stablecover.adversary import streams
from stablecover.adversary.expander import (
    build_GmL,
    double_cover,
    random_expander,
    sampled_expansion_check,
)
from stablecover.adversary.lines import (
    RationalLine,
    SparseLineRep,
    SparseLineRepError,
    _indices,
    _meets,
    _point_of,
    evaluate_hitting,
    sparse_line_rep,
    verify_sparse,
)
from stablecover.adversary.lower_bound import chain_points, choose_trigger, trigger_options
from stablecover.adversary.streams import (
    ExactHittingMaintainer,
    ExactMaintainer,
    GreedyHittingMaintainer,
    ProbeError,
    adaptive_line_stream,
    build_line_instance,
    disk_churn,
    solve_hitting,
)
from stablecover.geometry import Point
from stablecover.harness_cli import (
    EngineMaintainer, RunConfig, gen_lines, gen_random, parse_stream, run_lines, run_points,
)
from stablecover.sas_engine import EngineConfig, StreamError
from stablecover.static_solver import (
    DEFAULT_NODE_BUDGET, SolverBudgetError, SolverKind, pad_disks, solve,
)


class NoOpMaintainer:
    """Never changes its disks; the churn-zero control."""

    def __init__(self, m: int):
        self.disks = pad_disks(m)

    def apply(self, op: str, p: Point) -> None:
        pass

    def solution(self):
        return list(self.disks)


def concurrency_census(lines):
    """Map of every pairwise intersection point to the lines through it."""
    return {_point_of(key): set(_indices(mask)) for key, mask in _meets(lines).items()}


def line_list(rep):
    """A drawing's lines in edge order."""
    return [rep.lines[e] for e in sorted(rep.lines)]


def is_bipartite_lr(g):
    """Every edge joins L = {0..n-1} to R = {n..2n-1}."""
    return all((u < g.n) != (w < g.n) for u, w in g.edges)


def edge_list_text(g):
    """One ``u w`` row per edge, sorted."""
    return "".join(f"{u} {w}\n" for u, w in sorted(g.edges))


def z_vertices(ext):
    """The n/3 attachment vertices of an extended graph."""
    return range(ext.z_start, ext.z_start + ext.base.n // 3)


def side_rep(inst, side):
    """The instance's drawing cut to the base edges and one side's extension."""
    edges = {e for tri in inst.base_triples + inst.z_triples[side] for e in tri}
    return SparseLineRep(
        positions={v: inst.rep.positions[v] for e in edges for v in e},
        lines={e: inst.rep.lines[e] for e in sorted(edges)},
    )


def column(rows, index):
    """One integer column of report rows (2 alg_value, 3 opt_value, 5 churn)."""
    return [int(row.split(",")[index]) for row in rows]


# ---------------------------------------------------------------------------
# Lower-bound point stream.


def test_chain_point_formulas():
    assert chain_points(2) == [
        Point(0.25, 0.0),
        Point(2.0, 0.0),
        Point(2.25, 0.0),
        Point(4.0, 0.0),
    ]


def test_smallest_stream():
    assert len(chain_points(1)) == 2
    assert trigger_options(1) == (Point(0.0, 0.0), Point(2.25, 0.0))


def test_exact_maintainer_churn_at_trigger():
    for m in (1, 2, 3):
        mt = ExactMaintainer(m)
        for p in chain_points(m):
            mt.apply("insert", p)
        before = mt.solution()
        trig = choose_trigger(m, before)
        mt.apply("insert", trig)
        assert disk_churn(before, mt.solution()) >= m


def optimal_covered_sets(points, m, common):
    """Every optimal covered-set family of ``m`` disks over ``points``: each
    ``m``-subset of the distinct candidate masks whose union is the optimum,
    as the sorted masks of its sets within ``common``, one bit per point of
    ``sorted(common)``.  A disk held across an event covers the same points
    of ``common`` on both sides."""
    pts = sorted(points)
    bit = {p: 1 << i for i, p in enumerate(sorted(common))}
    within = {
        mk: sum(bit.get(p, 0) for i, p in enumerate(pts) if mk >> i & 1)
        for mk in static_solver.coverage_masks(pts, static_solver.candidate_disks(pts))
    }
    best = static_solver.solve(pts, m).value
    return {
        tuple(sorted(within[mk] for mk in family))
        for family in itertools.combinations(sorted(within), m)
        if functools.reduce(operator.or_, family).bit_count() == best
    }


def forced_churn(before, after, m):
    """The least covered-set churn from an optimal family of ``m`` disks
    over ``before`` to one over ``after``: a lower bound on the disk churn of
    every exact maintainer across the change.  0 is no forced churn."""
    common = set(before) & set(after)
    old, new = optimal_covered_sets(before, m, common), optimal_covered_sets(after, m, common)
    if old & new:
        return 0
    return min(
        sum(((Counter(f) - Counter(g)) + (Counter(g) - Counter(f))).values())
        for f in old for g in new
    )


def shift_pair(gap, m):
    """2m points ``gap`` apart on the x-axis, and the same after deleting
    the left end and inserting x = gap * 2m."""
    before = [Point(gap * i, 0.0) for i in range(2 * m)]
    return before, before[1:] + [Point(gap * 2 * m, 0.0)]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_shift_chain_forces_every_exact_maintainer_to_replace_all_sets(m):
    """At gap 1.5 no disk holds three points, so each side has one optimal
    family, the consecutive pairs, and the shift shares none of them."""
    before, after = shift_pair(1.5, m)
    common = set(before) & set(after)
    assert len(optimal_covered_sets(before, m, common)) == 1
    assert len(optimal_covered_sets(after, m, common)) == 1
    assert forced_churn(before, after, m) == 2 * m


def test_no_forced_churn_where_a_disk_holds_three_points():
    """The quarter-gap chain's trigger, at either end, and a gap-1.0 shift
    force nothing: some optimal family before and after agree."""
    prefix = chain_points(6)
    for trigger in trigger_options(6):
        assert forced_churn(prefix, prefix + [trigger], 6) == 0
    assert forced_churn(*shift_pair(1.0, 4), 4) == 0


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_exact_maintainer_event_out_of_budget_changes_nothing(op):
    rng = random.Random(3)
    points = {Point(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(6)}
    mt = ExactMaintainer(2)
    for p in sorted(points):
        mt.apply("insert", p)
    disks = mt.solution()
    p = Point(5.0, 5.0) if op == "insert" else min(points)
    after = points | {p} if op == "insert" else points - {p}
    mt.node_budget = 1
    with pytest.raises(SolverBudgetError):
        mt.apply(op, p)
    assert set(mt.index.points) == points and mt.solution() == disks
    mt.node_budget = DEFAULT_NODE_BUDGET
    mt.apply(op, p)
    assert mt.solution() == solve(after, 2).disks


@pytest.mark.parametrize(
    "op, p",
    [("frobnicate", Point(0.0, 0.0)), ("delete", Point(3.0, 3.0)), ("insert", Point(1.0, 0.5))],
)
def test_exact_maintainer_rejects_a_bad_event_and_changes_nothing(op, p):
    """An unknown operation, a delete of an absent point and a duplicate
    insert raise ``StreamError``, as in the SAS engine, and leave the index
    and the disks as they were."""
    points = {Point(0.0, 0.0), Point(1.0, 0.5), Point(4.0, 0.0)}
    mt = ExactMaintainer(2)
    for q in sorted(points):
        mt.apply("insert", q)
    disks, candidates = mt.solution(), mt.index.candidates()
    with pytest.raises(StreamError):
        mt.apply(op, p)
    assert set(mt.index.points) == points
    assert mt.index.candidates() == candidates and mt.solution() == disks


def test_canonical_optima_under_both_triggers_differ():
    # The two forced optima share no disk for small m; from m=4 on, chain
    # triples spanning exactly 2 admit overlapping optima, so only
    # distinctness is guaranteed there (the churn bound is what matters).
    for m in (1, 2, 3):
        base = set(chain_points(m))
        left, right = trigger_options(m)
        dl = set(solve(base | {left}, m).disks)
        dr = set(solve(base | {right}, m).disks)
        assert not (dl & dr)
    base = set(chain_points(4))
    left, right = trigger_options(4)
    assert set(solve(base | {left}, 4).disks) != set(solve(base | {right}, 4).disks)


def test_replay_noop_churn_is_zero():
    events = [("insert", p) for p in chain_points(2)]
    rows = run_points(RunConfig(m=2), events, NoOpMaintainer(2))
    assert all(churn == 0 for churn in column(rows, 5))


# ---------------------------------------------------------------------------
# Expanders.


def test_k4_double_cover():
    k4 = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    g = double_cover(k4, 4)
    assert is_bipartite_lr(g)
    assert len(g.adjacency) == 8
    assert set(g.degrees()) == {3}
    assert len(g.edges) == 12  # 3n edges


def test_random_expander_structure():
    g = random_expander(50, seed=1)
    assert set(g.degrees()) == {3}
    assert is_bipartite_lr(g)
    assert sampled_expansion_check(g, 0.1, 1000, seed=3)


def test_single_vertex_neighborhood():
    g = random_expander(30, seed=2)
    for v in list(g.left)[:5]:
        assert len(g.neighbors([v])) == 3


def test_two_triangles_negative_control():
    # Two disjoint triangles lift to two hexagons; adjacent-in-base pairs on
    # one side have only 3 joint neighbors, well under 1.99 * 2.
    tri = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    g = double_cover(tri, 6)
    s = [0, 1]
    assert len(g.neighbors(s)) < 1.99 * len(s)


def test_negative_control_fails_sampled_check():
    # Many disjoint triangles: random small subsets hit one component often
    # enough that the sampled check reliably reports the violation.
    edges = set()
    for t in range(10):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges |= {(a, b), (b, c), (a, c)}
    g = double_cover(edges, 30)
    assert not sampled_expansion_check(g, 0.1, 1000, seed=4)


def test_build_gml_structure():
    g = random_expander(6, seed=2)
    ext = build_GmL(g)
    assert len(z_vertices(ext)) == 2
    endpoints = [w for _, w in ext.z_edges]
    assert len(set(endpoints)) == 6  # all distinct R vertices
    deg = ext.degrees()
    assert all(deg[v] == 3 for v in g.left)
    assert all(deg[z] == 3 for z in z_vertices(ext))
    assert all(deg[v] == 4 for v in g.right)


def test_gml_side_expansion_sampled():
    g = random_expander(30, seed=5)
    ext = build_GmL(g)
    adj = {v: set() for v in range(2 * g.n + g.n // 3)}
    for u, w in ext.all_edges():
        adj[u].add(w)
        adj[w].add(u)
    rng = random.Random(11)
    pool = list(g.left) + list(z_vertices(ext))
    for _ in range(500):
        size = rng.randint(1, 3)  # alpha * n = 3
        s = rng.sample(pool, size)
        nbrs = set()
        for v in s:
            nbrs |= adj[v]
        assert len(nbrs) >= (9 / 8) * len(s)


# ---------------------------------------------------------------------------
# Sparse line representations.


def test_path_rep():
    rep = sparse_line_rep([0, 1, 2], [(0, 1), (1, 2)])
    lines = line_list(rep)
    assert len(lines) == 2
    census = concurrency_census(lines)
    assert len(census) == 1
    (pt, through), = census.items()
    assert pt == rep.positions[1] and len(through) == 2


def test_k4_rep_triples_only_at_vertices():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rep = sparse_line_rep([0, 1, 2, 3], edges)
    lines = line_list(rep)
    assert len(lines) == 6
    vertex_pts = set(rep.positions.values())
    for pt, through in concurrency_census(lines).items():
        if len(through) >= 3:
            assert pt in vertex_pts
        assert len(through) <= 4


def test_non_vertex_intersections_on_two_lines():
    inst = build_line_instance(6, seed=1)
    rep = side_rep(inst, "L")
    vertex_pts = set(rep.positions.values())
    for pt, through in concurrency_census(line_list(rep)).items():
        if pt not in vertex_pts:
            assert len(through) == 2


def test_gml_rep_counts():
    inst = build_line_instance(6, seed=1)
    rep = side_rep(inst, "L")
    lines = line_list(rep)
    assert len(lines) == 24
    assert max(len(v) for v in concurrency_census(lines).values()) == 4


def test_evaluate_hitting_examples():
    inst = build_line_instance(6, seed=1)
    rep = side_rep(inst, "L")
    lines = line_list(rep)
    assert evaluate_hitting(inst.r_points, lines) == 24
    assert evaluate_hitting([], lines) == 0
    l0 = inst.rep.positions[0]
    assert evaluate_hitting([l0], lines) == 3  # L vertices keep degree 3


# ---------------------------------------------------------------------------
# Adaptive schedule and hitting maintainers.


def test_adaptive_schedule_shape():
    inst = build_line_instance(6, seed=1)
    triples = list(adaptive_line_stream(inst, lambda: list(inst.r_points)[:6]))
    assert len(triples) == 8  # m + m/3 steps
    total = [ln for tri in triples for ln in tri]
    assert len(total) == 24 and all(len(tri) == 3 for tri in triples)


def test_adaptive_branch_rule():
    inst = build_line_instance(6, seed=1)
    # A solution neglecting R gets the extension that makes R indispensable;
    # a solution sitting on R gets the mirrored one.
    l_pts = [inst.rep.positions[v] for v in range(6)]
    triples = list(adaptive_line_stream(inst, lambda: l_pts))
    tail = [ln for tri in triples[6:] for ln in tri]
    assert tail == [inst.rep.lines[e] for tri in inst.z_triples["L"] for e in tri]

    r_pts = [inst.rep.positions[v] for v in range(6, 12)]
    triples = list(adaptive_line_stream(inst, lambda: r_pts))
    tail = [ln for tri in triples[6:] for ln in tri]
    assert tail == [inst.rep.lines[e] for tri in inst.z_triples["R"] for e in tri]


def test_probe_size_validation():
    inst = build_line_instance(6, seed=1)
    with pytest.raises(ProbeError):
        list(adaptive_line_stream(inst, lambda: []))


def test_final_opt_is_4m():
    inst = build_line_instance(6, seed=1)
    lines = line_list(side_rep(inst, "L"))
    value, _ = solve_hitting(lines, 6)
    assert value == 24


@pytest.mark.parametrize("kind", [SolverKind.EXACT, SolverKind.GREEDY])
def test_solve_hitting_builds_one_table_and_converts_only_chosen_points(kind, monkeypatch):
    builds, conversions = [], []

    def counted(fn, log):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(streams, "_meets", counted(streams._meets, builds))
    monkeypatch.setattr(streams, "_point_of", counted(streams._point_of, conversions))
    stream = parse_stream("\n".join(gen_lines(9, seed=1)) + "\n")
    arrived = [ln for triple in stream.line_steps for ln in triple]
    cross = [RationalLine(1, 0, 0), RationalLine(0, 1, 0)]  # one candidate, the origin
    for lines, m in [([], 3), (cross, 4), (arrived[:3], 9), (arrived, 9), (arrived, 2)]:
        builds.clear()
        conversions.clear()
        _, points = solve_hitting(lines, m, kind)
        assert len(conversions) == 0  # the value alone converts no point
        pts = points()
        assert len(pts) == m
        assert len(builds) == 1  # one table per solve, an empty one for no lines
        assert len(conversions) <= m
    assert len(streams.hitting_candidates(arrived)) > 9  # many more candidates than m


def test_greedy_hitting_trace():
    inst = build_line_instance(6, seed=1)
    mt = GreedyHittingMaintainer(6)
    rows = run_lines(RunConfig(m=6), adaptive_line_stream(inst, mt.solution), mt)
    assert len(rows) == 8
    assert all(alg <= opt for alg, opt in zip(column(rows, 2), column(rows, 3)))
    assert max(column(rows, 5)) >= 0


@pytest.mark.parametrize(
    "cls, module, failing",
    [
        (ExactHittingMaintainer, streams, "solve_hitting"),
        (GreedyHittingMaintainer, streams, "solve_hitting"),
        # The value search succeeds; extracting the points raises.
        (ExactHittingMaintainer, static_solver, "_extract"),
    ],
    ids=["ExactHittingMaintainer", "GreedyHittingMaintainer", "ExactHittingMaintainer-extraction"],
)
def test_hitting_maintainer_triple_out_of_budget_changes_nothing(cls, module, failing, monkeypatch):
    triples = parse_stream("\n".join(gen_lines(9, seed=1)) + "\n").line_steps
    mt, clean = cls(9), cls(9)
    for triple in triples[:3]:
        mt.apply_triple(triple)
        clean.apply_triple(triple)
    lines, points = list(mt.lines), mt.solution()

    def out_of_budget(*args, **kw):
        raise SolverBudgetError("exceeded 1 search nodes")

    with monkeypatch.context() as patch:
        patch.setattr(module, failing, out_of_budget)
        with pytest.raises(SolverBudgetError):
            mt.apply_triple(triples[3])
    assert mt.lines == lines and mt.solution() == points
    cands = mt.table.candidates()
    assert list(zip(cands._keys, cands.masks)) == list(streams._candidate_table(mt.lines).items())
    mt.apply_triple(triples[3])
    clean.apply_triple(triples[3])
    assert mt.lines == clean.lines and mt.solution() == clean.solution()


def test_hitting_maintainer_triple_that_breaks_the_table_changes_nothing():
    """A triple whose second line cannot be added leaves no trace of its
    first line."""
    triples = parse_stream("\n".join(gen_lines(9, seed=1)) + "\n").line_steps
    mt, clean = GreedyHittingMaintainer(9), GreedyHittingMaintainer(9)
    for triple in triples[:2]:
        mt.apply_triple(triple)
        clean.apply_triple(triple)
    lines, points = list(mt.lines), mt.solution()
    with pytest.raises(AttributeError):
        mt.apply_triple([triples[2][0], None])
    assert mt.lines == lines and mt.solution() == points
    cands = mt.table.candidates()
    assert list(zip(cands._keys, cands.masks)) == list(streams._candidate_table(lines).items())
    mt.apply_triple(triples[2])
    clean.apply_triple(triples[2])
    assert mt.lines == clean.lines and mt.solution() == clean.solution()


# Each maintainer the harness replays, and the events of one stream for it.
FORKED = {
    "sas": lambda: EngineMaintainer("sas", EngineConfig(m=3, epsilon=0.25)),
    "two_stable": lambda: EngineMaintainer("two_stable", EngineConfig(m=3, epsilon=0.25)),
    "exact_maintainer": lambda: ExactMaintainer(3),
    "exact_hitting": lambda: ExactHittingMaintainer(9),
    "greedy_hitting": lambda: GreedyHittingMaintainer(9),
}


def _fork_events(name):
    if name.endswith("_hitting"):
        return parse_stream("\n".join(gen_lines(9, seed=1)) + "\n").line_steps
    return parse_stream("\n".join(gen_random(40, 5.0, seed=3, delete_prob=0.3)) + "\n").point_events


def _feed(mt, event):
    return mt.apply_triple(event) if isinstance(event, list) else mt.apply(*event)


def _held(mt):
    """What an event may change: the points (or lines), the candidates with
    their masks, and the solution."""
    if hasattr(mt, "table"):
        cands = mt.table.candidates()
        return list(mt.lines), list(zip(cands._keys, cands.masks)), mt.solution()
    index = mt.state.index if hasattr(mt, "state") else mt.index
    return sorted(index.points), index.candidates(), mt.solution()


@pytest.mark.parametrize("name", sorted(FORKED))
def test_a_deep_copied_maintainer_forks(name):
    """A copy taken mid-stream replays the rest as the original does, and
    the events fed to the copy leave the original as it was."""
    events = _fork_events(name)
    half = len(events) // 2
    mt = FORKED[name]()
    for event in events[:half]:
        _feed(mt, event)
    held = _held(mt)
    fork = copy.deepcopy(mt)
    forked = [(_feed(fork, event), fork.solution()) for event in events[half:]]
    assert _held(mt) == held
    assert [(_feed(mt, event), mt.solution()) for event in events[half:]] == forked
    assert _held(mt) == _held(fork)


def test_edge_list_export_format():
    g = random_expander(4, seed=1)
    text = edge_list_text(g)
    rows = text.strip().splitlines()
    assert len(rows) == 12
    for row in rows:
        u, w = map(int, row.split())
        assert 0 <= u < 8 and 0 <= w < 8


def test_no_sas_check_reports_threshold():
    from stablecover.adversary.streams import no_sas_check

    rows = ["1,lines,9,10,0.900000,3,Hitting"]
    out = no_sas_check(rows, eps_star=0.2, alpha=0.3, m=60)
    assert out.maintained_ratio and out.max_churn == 3
    assert out.churn_threshold == pytest.approx(0.3)
    bad = ["1,lines,5,10,0.500000,1,Hitting"]
    assert not no_sas_check(bad, 0.2, 0.3, 60).maintained_ratio
    # A ratio of exactly 1 - eps_star is not above it; as floats, (1.0 - 0.3) * 90 < 63.
    at = ["1,lines,63,90,0.700000,0,Hitting"]
    assert not no_sas_check(at, eps_star=0.3, alpha=0.3, m=60).maintained_ratio


def test_sparse_rep_repairs_concurrent_chords():
    # Vertices 0..5 sit at x = 1..6 on the cubic; the chords (1,6), (2,5),
    # (3,4) share endpoint-sum 7 and meet at (-7, -343), off every vertex.
    # The verifier must catch this and perturb a vertex.
    edges = [(0, 5), (1, 4), (2, 3)]
    rep = sparse_line_rep(range(6), edges)
    census = concurrency_census(line_list(rep))
    assert max(len(v) for v in census.values()) == 2
    moved = [v for v in range(6) if rep.positions[v][1] != Fraction((v + 1) ** 3)]
    assert moved  # at least one vertex was nudged off the curve


def test_sparse_rep_budget_is_one_retry_per_vertex():
    # Five lines through vertex 0 wherever it moves: every retry names it.
    with pytest.raises(SparseLineRepError, match="within 6 retries"):
        sparse_line_rep(range(6), [(0, v) for v in range(1, 6)])


def test_gen_lines_draws_at_m90(monkeypatch):
    # 240 vertices: more retries than the old fixed budget of 60 allowed.
    drawn = []

    def kept(vertices, edges):
        drawn.append(sparse_line_rep(vertices, edges))
        return drawn[-1]

    monkeypatch.setattr(streams, "sparse_line_rep", kept)
    assert len(gen_lines(90, seed=1)) == 4 * 90
    (rep,) = drawn
    assert len(rep.positions) == 240
    assert verify_sparse(rep.positions, rep.lines) is None


def test_trigger_completes_full_coverage():
    # Before the trigger the chain is fully coverable in pairs; either trigger
    # still admits full coverage because consecutive triples span exactly the
    # disk diameter, so the optimum value rises to 2m+1.
    for m in (1, 2, 3, 4):
        base = set(chain_points(m))
        assert solve(base, m).value == 2 * m
        for trig in trigger_options(m):
            assert solve(base | {trig}, m).value == 2 * m + 1
