"""The benchmark's tracer (``bench/tracing.py``) wraps program functions by
name, so renaming or inlining one breaks ``bench/run.py --trace 1``; every
name it lists must still be where it looks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stablecover.adversary.streams import HittingTable, solve_hitting
from stablecover.geometry import Point
from stablecover.harness_cli import gen_lines, parse_stream
from stablecover.static_solver import CandidateIndex, SolverKind, solve

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("home, attr", [entry[:2] for entry in tracing.FUNCTIONS])
def test_traced_function_is_an_attribute_of_its_home_module(home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None))


@pytest.mark.parametrize("home, cls_name, method", [entry[:3] for entry in tracing.METHODS])
def test_traced_method_is_in_its_class_dict(home, cls_name, method):
    cls = getattr(importlib.import_module(home), cls_name)
    assert callable(vars(cls).get(method))


POINTS = [Point(0.0, 0.0), Point(1.5, 0.2), Point(4.0, 4.0), Point(4.3, 3.1), Point(9.0, 1.0)]
LINES = [ln for triple in parse_stream("\n".join(gen_lines(6, 1))).line_steps[:3] for ln in triple]
SOLVES = {
    "points": lambda kind: solve(POINTS, 2, kind).disks,
    "index": lambda kind: solve(CandidateIndex(POINTS), 2, kind).disks,
    "lines": lambda kind: solve_hitting(LINES, 6, kind),
    "table": lambda kind: solve_hitting(HittingTable(LINES), 6, kind),
}


@pytest.mark.parametrize("kind", list(SolverKind))
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_every_solve_records_one_oracle_span(name, kind):
    """Both problems reach their search through ``max_coverage_masks``, so
    its span sees every solve, whichever the oracle."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        SOLVES[name](kind)
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("static_solver.max_coverage_masks") == 1
