import dataclasses
import math

import pytest

from stablecover import sas_engine
from stablecover.adversary.streams import GreedyHittingMaintainer
from stablecover.geometry import MAX_COORDINATE
from stablecover.harness_cli import (
    POINT_ENGINES,
    HarnessError,
    RunConfig,
    _parse_overrides,
    gen_lines,
    gen_lower_bound,
    gen_random,
    main,
    parse_stream,
    run,
)


def test_gen_random_deterministic_inserts():
    a = gen_random(50, 100.0, seed=7)
    b = gen_random(50, 100.0, seed=7)
    assert a == b
    assert len(a) == 50 and all(row.startswith("insert ") for row in a)


def test_gen_random_delete_events_reference_present_points():
    rows = gen_random(80, 50.0, seed=3, delete_prob=0.3)
    stream = parse_stream("\n".join(rows))
    present = set()
    for op, p in stream.point_events:
        if op == "insert":
            assert p not in present
            present.add(p)
        else:
            assert p in present
            present.remove(p)


def test_gen_lower_bound_event_count():
    rows = gen_lower_bound(3)
    assert len(rows) == 7  # 2m chain points plus the trigger


def test_gen_lines_triple_count():
    rows = gen_lines(6, seed=1)
    assert len(rows) == 24 and all(r.startswith("line ") for r in rows)
    stream = parse_stream("\n".join(rows))
    assert stream.kind == "lines" and len(stream.line_steps) == 8


def test_stream_roundtrip_exact_coordinates():
    rows = gen_random(30, 100.0, seed=9)
    stream = parse_stream("\n".join(rows))
    from stablecover.harness_cli import format_point_event

    again = [format_point_event(op, p) for op, p in stream.point_events]
    assert again == rows


def test_run_two_stable_row_guarantees():
    stream = parse_stream("\n".join(gen_random(100, 100.0, seed=5, delete_prob=0.2)))
    report = run(RunConfig(engine="two_stable", m=3), stream)
    rows = [r.split(",") for r in report.splitlines()[1:-1]]
    for row in rows:
        assert int(row[5]) <= 2
        assert float(row[4]) >= 0.5


def test_run_sas_small_m_uses_trivial_branches_only():
    stream = parse_stream(
        "insert 1.0 1.0\ninsert 1.2 1.0\ninsert 30.0 30.0\n"
    )
    report = run(RunConfig(engine="sas", m=2, epsilon=0.25), stream)
    branches = {r.split(",")[6] for r in report.splitlines()[1:-1]}
    assert branches <= {"TrivialSwapAll", "NoChange"}


def test_run_exact_maintainer_lower_bound_trigger_churn():
    stream = parse_stream("\n".join(gen_lower_bound(4)))
    report = run(RunConfig(engine="exact_maintainer", m=4), stream)
    last_row = report.splitlines()[-2].split(",")
    assert int(last_row[5]) >= 4


def test_byte_identical_reports():
    stream = parse_stream("\n".join(gen_random(60, 100.0, seed=13)))
    cfg = RunConfig(engine="sas", m=3)
    assert run(cfg, stream) == run(cfg, stream)


def test_malformed_stream_rejected():
    with pytest.raises(HarnessError):
        parse_stream("insert 1.0\n")
    with pytest.raises(HarnessError):
        parse_stream("teleport 1.0 2.0\n")
    with pytest.raises(HarnessError):
        parse_stream("insert 1.0 2.0\nline 1 2 3\n")
    with pytest.raises(HarnessError):
        parse_stream("line 1 2 3\nline 1 2 4\n")  # not a triple


def test_engine_stream_kind_mismatch():
    stream = parse_stream("insert 1.0 1.0\n")
    with pytest.raises(HarnessError):
        run(RunConfig(engine="greedy_hitting", m=2), stream)


def test_cli_end_to_end(tmp_path):
    stream_path = tmp_path / "s.txt"
    report_path = tmp_path / "r.csv"
    assert main(["gen", "random", "--n", "20", "--seed", "7", "--out", str(stream_path)]) == 0
    assert main([
        "run", "--stream", str(stream_path), "--engine", "sas",
        "--m", "2", "--out", str(report_path),
    ]) == 0
    assert main([
        "verify", "--stream", str(stream_path), "--report", str(report_path),
        "--engine", "sas", "--m", "2",
    ]) == 0
    # a corrupted report must fail verification
    report_path.write_text(report_path.read_text().replace("NoChange", "GroupSwap", 1))
    assert main([
        "verify", "--stream", str(stream_path), "--report", str(report_path),
        "--engine", "sas", "--m", "2",
    ]) == 1


def test_cli_malformed_stream_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("insert one two\n")
    assert main(["run", "--stream", str(bad), "--engine", "sas", "--m", "2"]) == 2


def test_cli_scaled_overrides(tmp_path):
    stream_path = tmp_path / "s.txt"
    main(["gen", "random", "--n", "6", "--seed", "1", "--bbox", "8",
          "--out", str(stream_path)])
    rc = main([
        "run", "--stream", str(stream_path), "--engine", "sas", "--m", "2",
        "--scaled", "trivial_threshold=1000", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 0


def test_line_coefficients_normalized_on_parse():
    stream = parse_stream("line 2 4 6\nline 1 0 0\nline 0 3 9\n")
    ln = stream.line_steps[0][0]
    assert (ln.a, ln.b, ln.c) == (1, 2, 3)
    with pytest.raises(HarnessError):
        parse_stream("line 0 0 5\nline 1 0 0\nline 0 1 0\n")


def test_greedy_hitting_held_to_the_greedy_bound(monkeypatch):
    """A greedy hitting maintainer that keeps its far points stabs nothing,
    below ``1 - (1 - 1/m)^m`` of the optimum from the first triple on."""
    stream = parse_stream("\n".join(gen_lines(6, 1)) + "\n")
    config = RunConfig(engine="greedy_hitting", m=6)
    assert run(config, stream)
    monkeypatch.setattr(GreedyHittingMaintainer, "apply_triple", lambda self, triple: None)
    with pytest.raises(HarnessError, match="greedy bound failed at t=1$"):
        run(config, stream)


@pytest.mark.parametrize("solved, shift, message", [
    (True, 1, "opt recount mismatch at t=1$"),
    (False, -1, "opt bound below the recount at t=1$"),
])
def test_run_checks_the_engines_opt_value(monkeypatch, solved, shift, message):
    """A solved ``opt_value`` must equal the re-solved optimum, even one
    above it that would pass as a bound; an unsolved bound must not fall
    below it."""
    stream = parse_stream("insert 1.0 1.0\n")
    config = RunConfig(engine="sas", m=2)
    assert run(config, stream)
    honest = sas_engine.update

    def skewed(state, op, p):
        report = honest(state, op, p)
        return dataclasses.replace(report, opt_value=report.opt_value + shift, opt_solved=solved)

    monkeypatch.setattr(sas_engine, "update", skewed)
    with pytest.raises(HarnessError, match=message):
        run(config, stream)


def test_run_rejects_invalid_m():
    stream = parse_stream("insert 1.0 1.0\n")
    with pytest.raises(HarnessError):
        run(RunConfig(engine="exact_maintainer", m=0), stream)


LINE_TRIPLE = "line 1 0 0\nline 0 1 0\nline 1 1 -1\n"
# Two points one apart on a vertical line at x = 8.98846567431158e+307, the
# double above MAX_COORDINATE: the midpoint of the pair overflows.
ABOVE_BOUND = math.nextafter(MAX_COORDINATE, math.inf)
OVERFLOWING_PAIR = "insert {sign}8.98846567431158e+307 0\ninsert {sign}8.98846567431158e+307 1\n"
# A 60-event stream whose first repair under the sparse scaled constants
# reaches grid selection and the padding dummies.
SPARSE_STREAM = "\n".join(gen_random(60, 8.0, seed=3, delete_prob=0.2)) + "\n"
SPARSE_SCALED = ("c_star=1,trivial_threshold=0,kappa=2,extend=1,block_min=1,block_max=2,"
                 "balance_cells=2,balance_blocks=4")


@pytest.mark.parametrize(
    "argv, stream_text",
    [
        (["run", "--stream", "STREAM"], "insert nan 1.0\n"),
        (["run", "--stream", "STREAM"], "insert 1.0 inf\n"),
        *(
            (["run", "--stream", "STREAM", "--engine", engine], OVERFLOWING_PAIR.format(sign=sign))
            for engine in POINT_ENGINES for sign in ("", "-")
        ),
        (["run", "--stream", "STREAM"], f"insert 0 {ABOVE_BOUND!r}\ninsert 1 {ABOVE_BOUND!r}\n"),
        (["run", "--stream", "STREAM"], None),
        (["run", "--stream", "STREAM", "--scaled", "kappa=abc"], "insert 1.0 1.0\n"),
        (["run", "--stream", "STREAM", "--scaled", "foo=1"], "insert 1.0 1.0\n"),
        (["run", "--stream", "STREAM", "--epsilon", "0.7"], "insert 1.0 1.0\n"),
        (["gen", "lines", "--m", "4"], None),
        (["gen", "random", "--bbox", "nan"], None),
        (["gen", "random", "--bbox", "inf"], None),
        (["gen", "random", "--bbox", "0"], None),
        (["gen", "random", "--bbox", repr(ABOVE_BOUND)], None),
        (["gen", "random", "--n", "-1"], None),
        (["gen", "random", "--delete-prob", "1.5"], None),
        (["gen", "random", "--delete-prob", "-0.1"], None),
        (["run", "--stream", "STREAM", "--scaled", "node_budget=1"],
         "insert 1.0 1.0\ninsert 1.2 1.0\n"),
        (["run", "--stream", "STREAM", "--engine", "exact_maintainer", "--m", "2",
          "--scaled", "node_budget=1"], "insert 1.0 1.0\ninsert 1.2 1.0\ninsert 5.0 5.0\n"),
        (["run", "--stream", "STREAM", "--scaled", "node_budget=0"], ""),
        (["run", "--stream", "STREAM", "--scaled", "node_budget=-3"], ""),
        (["run", "--stream", "STREAM", "--engine", "exact_maintainer", "--m", "2",
          "--scaled", "foo=1", "--epsilon", "0.9"], "insert 1.0 1.0\n"),
        (["run", "--stream", "STREAM", "--engine", "greedy_hitting", "--epsilon", "0.9"],
         LINE_TRIPLE),
        (["run", "--stream", "STREAM", "--engine", "exact_hitting", "--epsilon", "0.9"],
         LINE_TRIPLE),
        (["run", "--stream", "STREAM", "--engine", "greedy_hitting", "--m", "3"],
         "line 1 --5 0\nline 0 1 0\nline 1 1 -1\n"),
        *(
            (["run", "--stream", "STREAM", "--m", "16", "--solver", "greedy",
              "--scaled", f"c_star=1,{override}"], "insert 1.0 1.0\n")
            for override in ("grid_edge=0", "grid_edge=inf", "grid_edge=nan", "grid_shifts=0",
                             "block_min=-1,block_max=0", "extend=-1")
        ),
        *(
            (["run", "--stream", "STREAM", "--scaled", text], "insert 1.0 1.0\n")
            for text in ("=3", "kappa", "trivial_threshold=9,trivial_threshold=8", "kappa=",
                         "trivial_threshold=9,")
        ),
        (["gen", "lower_bound", "--m", "0"], None),
        *(
            (["run", "--stream", "STREAM", *options], "insert 1.0 1.0\n")
            for options in (["--epsilon", "1e-120"], ["--epsilon", "5e-324"],
                             ["--scaled", f"c_star={10**400}"],
                             ["--scaled", f"grid_shifts={10**400}"])
        ),
        (["run", "--stream", "STREAM", "--engine", "greedy_hitting", "--epsilon", "1e-120"],
         LINE_TRIPLE),
        *(
            (["run", "--stream", "STREAM", "--m", "6", "--solver", "greedy",
              "--scaled", f"{SPARSE_SCALED},{grid}"], SPARSE_STREAM)
            for grid in (f"grid_shifts={10**18},grid_edge=4", "grid_shifts=2,grid_edge=1e308")
        ),
    ],
    ids=["nan", "inf",
         *(f"above-bound-{engine}{sign}" for engine in POINT_ENGINES for sign in ("", "-neg")),
         "above-bound-y", "missing-stream", "scaled-not-a-number", "scaled-unknown-key",
         "epsilon-out-of-range", "lines-m-not-divisible-by-3",
         "bbox-nan", "bbox-inf", "bbox-zero", "bbox-above-bound", "n-negative", "delete-prob-above-1",
         "delete-prob-negative", "solver-budget", "exact-maintainer-budget", "node-budget-zero", "node-budget-negative",
         "exact-maintainer-bad-options", "greedy-hitting-epsilon", "exact-hitting-epsilon",
         "line-malformed-token",
         "grid-edge-zero", "grid-edge-inf", "grid-edge-nan", "grid-shifts-zero",
         "block-min-negative", "extend-negative",
         "scaled-empty-key", "scaled-no-value", "scaled-repeated-key", "scaled-empty-value",
         "scaled-empty-item", "lower-bound-m-zero",
         "epsilon-cubed-underflows", "epsilon-least-subnormal", "c-star-401-digits",
         "grid-shifts-401-digits", "greedy-hitting-epsilon-cubed-underflows",
         "grid-shifts-past-half-the-edge", "grid-edge-1e308-dummy-overflows"],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, stream_text):
    stream_path = tmp_path / "s.txt"
    if stream_text is not None:
        stream_path.write_text(stream_text)
    argv = [str(stream_path) if arg == "STREAM" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("engine", POINT_ENGINES)
def test_points_at_the_coordinate_bound_replay(tmp_path, engine):
    """Pairs one apart at x = +-MAX_COORDINATE and at y = +-MAX_COORDINATE
    replay and verify on every point engine, and so does a ``gen random``
    stream at the largest bbox."""
    assert float("8.98846567431158e+307") == ABOVE_BOUND
    b = MAX_COORDINATE
    pairs = [(b, 0.0), (b, 1.0), (-b, 0.0), (-b, 1.0), (0.0, b), (1.0, b), (0.0, -b), (1.0, -b)]
    bound = tmp_path / "bound.txt"
    bound.write_text("".join(f"insert {x!r} {y!r}\n" for x, y in pairs))
    gen = tmp_path / "gen.txt"
    assert main(["gen", "random", "--n", "20", "--bbox", repr(b), "--delete-prob", "0.3",
                 "--seed", "2", "--out", str(gen)]) == 0
    for stream in (bound, gen):
        replay = ["--stream", str(stream), "--engine", engine, "--m", "2"]
        report = tmp_path / f"{stream.stem}.csv"
        assert main(["run", *replay, "--out", str(report)]) == 0
        assert main(["verify", *replay, "--report", str(report)]) == 0


def test_epsilon_1e_100_replays(tmp_path):
    """The derived constants at epsilon 1e-100 are still finite floats."""
    stream = tmp_path / "s.txt"
    stream.write_text("\n".join(gen_random(20, 4.0, seed=3, delete_prob=0.3)) + "\n")
    replay = ["--stream", str(stream), "--m", "2", "--epsilon", "1e-100"]
    report = tmp_path / "r.csv"
    assert main(["run", *replay, "--out", str(report)]) == 0
    assert main(["verify", *replay, "--report", str(report)]) == 0


def test_grid_shifts_1e18_replays(tmp_path):
    """With 10**18 shifts per axis on grids of edge 2e18, grid selection
    builds only the flags of the shifts its scan reaches."""
    stream = tmp_path / "s.txt"
    stream.write_text(SPARSE_STREAM)
    replay = ["--stream", str(stream), "--m", "6", "--solver", "greedy",
              "--scaled", f"{SPARSE_SCALED},grid_shifts={10**18}"]
    report = tmp_path / "r.csv"
    assert main(["run", *replay, "--out", str(report)]) == 0
    assert main(["verify", *replay, "--report", str(report)]) == 0


@pytest.mark.parametrize("text, named", [
    ("=3", "'=3'"), ("kappa", "kappa"), ("trivial_threshold=9,trivial_threshold=8", "trivial_threshold given twice"),
    ("kappa=", "kappa"), ("c_star=1,extend=x", "extend"), ("grid_edge=wide", "grid_edge"),
])
def test_scaled_parse_error_names_the_key(tmp_path, capsys, text, named):
    stream_path = tmp_path / "s.txt"
    stream_path.write_text("insert 1.0 1.0\n")
    assert main(["run", "--stream", str(stream_path), "--scaled", text]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scaled constant") and named in err[0]


def test_scaled_overrides_parse():
    assert _parse_overrides("") == {}
    assert _parse_overrides(" kappa=3 , grid_edge=4.5") == {"kappa": 3, "grid_edge": 4.5}


@pytest.mark.parametrize("m", ["3", "10"])
def test_gen_lines_error_names_m(capsys, m):
    assert main(["gen", "lines", "--m", m]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"m={m}" in err[0]


@pytest.mark.parametrize("argv", [["--n", "0"], ["--delete-prob", "0"], ["--delete-prob", "1"]])
def test_gen_random_accepts_boundary_options(tmp_path, argv):
    assert main(["gen", "random", *argv, "--out", str(tmp_path / "s.txt")]) == 0
