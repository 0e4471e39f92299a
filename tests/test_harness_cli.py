import pytest

from stablecover.harness_cli import (
    HarnessError,
    RunConfig,
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


def test_run_rejects_invalid_m():
    stream = parse_stream("insert 1.0 1.0\n")
    with pytest.raises(HarnessError):
        run(RunConfig(engine="exact_maintainer", m=0), stream)


@pytest.mark.parametrize(
    "argv, stream_text",
    [
        (["run", "--stream", "STREAM"], "insert nan 1.0\n"),
        (["run", "--stream", "STREAM"], "insert 1.0 inf\n"),
        (["run", "--stream", "STREAM"], None),
        (["run", "--stream", "STREAM", "--scaled", "kappa=abc"], "insert 1.0 1.0\n"),
        (["run", "--stream", "STREAM", "--scaled", "foo=1"], "insert 1.0 1.0\n"),
        (["run", "--stream", "STREAM", "--epsilon", "0.7"], "insert 1.0 1.0\n"),
        (["gen", "lines", "--m", "4"], None),
        (["run", "--stream", "STREAM", "--scaled", "node_budget=1"],
         "insert 1.0 1.0\ninsert 1.2 1.0\n"),
    ],
    ids=["nan", "inf", "missing-stream", "scaled-not-a-number", "scaled-unknown-key",
         "epsilon-out-of-range", "lines-m-not-divisible-by-3", "solver-budget"],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, stream_text):
    stream_path = tmp_path / "s.txt"
    if stream_text is not None:
        stream_path.write_text(stream_text)
    argv = [str(stream_path) if arg == "STREAM" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
