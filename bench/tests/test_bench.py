"""The benchmark's own checks: tracing must not change what it measures.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import dataclasses

import measure
import tracing
from workloads import WORKLOADS

# Shortened chunks of the real workloads, so the tests stay quick.
SMALL = {
    "sas-dense": dataclasses.replace(WORKLOADS["sas-dense"], steady=20),
    "exact-dense": dataclasses.replace(WORKLOADS["exact-dense"], steady=20),
    "sas-greedy-sparse": WORKLOADS["sas-greedy-sparse"],
    "lines-greedy": dataclasses.replace(WORKLOADS["lines-greedy"], line_m=6),
}


def traced_run(name, tmp_path):
    before = tracing.program_bindings()
    outcome = measure.run_traced(SMALL[name], 7, 1e-9, tmp_path / "spans.jsonl")
    assert tracing.program_bindings() == before
    return outcome


def test_traced_replay_matches_untraced_and_unwraps(tmp_path):
    for name in ("sas-dense", "exact-dense"):
        outcome = traced_run(name, tmp_path)
        assert outcome.problems == []
        assert len(outcome.chunks) == 1 and outcome.chunks[0].rows == outcome.chunks[0].events


def test_find_valid_swap_traced_on_sas_greedy_sparse(tmp_path):
    metrics = traced_run("sas-greedy-sparse", tmp_path).metrics
    assert metrics["sas_engine.find_valid_swap.calls"] > 0
    assert metrics["sas_engine.find_valid_swap.s"] > 0
    assert metrics["geometry.select_grid.calls"] > 0


def test_exact_maintainer_apply_traced_on_exact_dense(tmp_path):
    metrics = traced_run("exact-dense", tmp_path).metrics
    assert metrics["adversary.streams.ExactMaintainer.apply.s"] > 0
    assert metrics["static_solver.solve.engine.calls"] > 0
    assert metrics["static_solver.solve.harness.calls"] > 0


def test_solve_hitting_traced_on_lines_greedy(tmp_path):
    outcome = traced_run("lines-greedy", tmp_path)
    assert outcome.problems == []
    assert outcome.metrics["adversary.streams.solve_hitting.s"] > 0
    assert outcome.metrics["adversary.lines.incidence_tests"] > 0
    assert outcome.metrics["adversary.expander.random_expander.s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["run", 0.0, 10.0, -1, "r", None],
        ["solve", 1.0, 4.0, 0, "r", None],
        ["masks", 2.0, 3.0, 1, "r", None],
        ["solve", 5.0, 6.0, 0, "r", None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_digest_ignores_branch_labels():
    rows = ["t,op,alg_value,opt_value,ratio,churn,branch",
            "1,insert,1,1,1.000000,2,TrivialSwapAll", "# summary"]
    relabelled = "\n".join(rows).replace("TrivialSwapAll", "GridFallback")
    assert measure.digest("\n".join(rows)) == measure.digest(relabelled)
