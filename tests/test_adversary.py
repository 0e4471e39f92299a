import random
from fractions import Fraction

import pytest

from stablecover.adversary import (
    ExactMaintainer,
    GreedyHittingMaintainer,
    NoOpMaintainer,
    ProbeError,
    adaptive_line_stream,
    build_GmL,
    build_line_instance,
    chain_points,
    concurrency_census,
    double_cover,
    evaluate_hitting,
    lower_bound_stream,
    random_expander,
    sampled_expansion_check,
    solve_hitting,
    sparse_line_rep,
    trigger_options,
)
from stablecover.adversary.streams import disk_churn
from stablecover.geometry import Point
from stablecover.harness_cli import RunConfig, run_lines, run_points
from stablecover.static_solver import solve


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
    s = lower_bound_stream(1)
    assert len(s.prefix) == 2
    assert trigger_options(1) == (Point(0.0, 0.0), Point(2.25, 0.0))


def test_exact_maintainer_churn_at_trigger():
    for m in (1, 2, 3):
        stream = lower_bound_stream(m)
        mt = ExactMaintainer(m)
        for p in stream.prefix:
            mt.apply("insert", p)
        before = mt.solution()
        trig = stream.choose_trigger(before)
        mt.apply("insert", trig)
        assert disk_churn(before, mt.solution()) >= m


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
    assert g.is_bipartite_lr()
    assert len(g.adjacency) == 8
    assert set(g.degrees()) == {3}
    assert len(g.edges) == 12  # 3n edges


def test_random_expander_structure():
    g = random_expander(50, seed=1)
    assert set(g.degrees()) == {3}
    assert g.is_bipartite_lr()
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
    assert len(ext.z_vertices) == 2
    endpoints = [w for _, w in ext.z_edges]
    assert len(set(endpoints)) == 6  # all distinct R vertices
    deg = ext.degrees()
    assert all(deg[v] == 3 for v in g.left)
    assert all(deg[z] == 3 for z in ext.z_vertices)
    assert all(deg[v] == 4 for v in g.right)


def test_gml_side_expansion_sampled():
    g = random_expander(30, seed=5)
    ext = build_GmL(g)
    adj = {v: set() for v in range(2 * g.n + g.n // 3)}
    for u, w in ext.all_edges():
        adj[u].add(w)
        adj[w].add(u)
    rng = random.Random(11)
    pool = list(g.left) + list(ext.z_vertices)
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
    lines = rep.line_list()
    assert len(lines) == 2
    census = concurrency_census(lines)
    assert len(census) == 1
    (pt, through), = census.items()
    assert pt == rep.positions[1] and len(through) == 2


def test_k4_rep_triples_only_at_vertices():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rep = sparse_line_rep([0, 1, 2, 3], edges)
    lines = rep.line_list()
    assert len(lines) == 6
    vertex_pts = set(rep.positions.values())
    for pt, through in concurrency_census(lines).items():
        if len(through) >= 3:
            assert pt in vertex_pts
        assert len(through) <= 4


def test_non_vertex_intersections_on_two_lines():
    inst = build_line_instance(6, seed=1)
    rep = inst.side_rep("L")
    vertex_pts = set(rep.positions.values())
    for pt, through in concurrency_census(rep.line_list()).items():
        if pt not in vertex_pts:
            assert len(through) == 2


def test_gml_rep_counts():
    inst = build_line_instance(6, seed=1)
    rep = inst.side_rep("L")
    lines = rep.line_list()
    assert len(lines) == 24
    assert max(len(v) for v in concurrency_census(lines).values()) == 4


def test_evaluate_hitting_examples():
    inst = build_line_instance(6, seed=1)
    rep = inst.side_rep("L")
    lines = rep.line_list()
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
    lines = inst.side_rep("L").line_list()
    value, _ = solve_hitting(lines, 6)
    assert value == 24


def test_greedy_hitting_trace():
    inst = build_line_instance(6, seed=1)
    mt = GreedyHittingMaintainer(6)
    rows = run_lines(RunConfig(m=6), adaptive_line_stream(inst, mt.solution), mt)
    assert len(rows) == 8
    assert all(alg <= opt for alg, opt in zip(column(rows, 2), column(rows, 3)))
    assert max(column(rows, 5)) >= 0


def test_edge_list_export_format():
    g = random_expander(4, seed=1)
    text = g.edge_list_text()
    rows = text.strip().splitlines()
    assert len(rows) == 12
    for row in rows:
        u, w = map(int, row.split())
        assert 0 <= u < 8 and 0 <= w < 8


def test_no_sas_check_reports_threshold():
    from stablecover.adversary import no_sas_check

    rows = ["1,lines,9,10,0.900000,3,Hitting"]
    out = no_sas_check(rows, eps_star=0.2, alpha=0.3, m=60)
    assert out.maintained_ratio and out.max_churn == 3
    assert out.churn_threshold == pytest.approx(0.3)
    bad = ["1,lines,5,10,0.500000,1,Hitting"]
    assert not no_sas_check(bad, 0.2, 0.3, 60).maintained_ratio


def test_sparse_rep_repairs_concurrent_chords():
    # Vertices 0..5 sit at x = 1..6 on the cubic; the chords (1,6), (2,5),
    # (3,4) share endpoint-sum 7 and meet at (-7, -343), off every vertex.
    # The verifier must catch this and perturb a vertex.
    edges = [(0, 5), (1, 4), (2, 3)]
    rep = sparse_line_rep(range(6), edges)
    census = concurrency_census(rep.line_list())
    assert max(len(v) for v in census.values()) == 2
    moved = [v for v in range(6) if rep.positions[v][1] != Fraction((v + 1) ** 3)]
    assert moved  # at least one vertex was nudged off the curve


def test_trigger_completes_full_coverage():
    # Before the trigger the chain is fully coverable in pairs; either trigger
    # still admits full coverage because consecutive triples span exactly the
    # disk diameter, so the optimum value rises to 2m+1.
    for m in (1, 2, 3, 4):
        base = set(chain_points(m))
        assert solve(base, m).value == 2 * m
        for trig in trigger_options(m):
            assert solve(base | {trig}, m).value == 2 * m + 1
