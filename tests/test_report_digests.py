"""Golden digests of full ``run`` reports, branch column and trailer included.

A change that must keep reports byte-identical keeps these digests.  The
streams cover both SAS tolerances the tests use, the scaled pipeline up to
``GroupSwap`` and through all four scaled-mode fallbacks, a sparse 600-event
stream at the benchmark's scaled constants through the greedy and the exact
oracle, a 300-event stream in a 30x30 box whose exact optima need the
dominance reduction, a repair-heavy 1200-event stream at m=32 on 8x8
shifted grids, the 2-stable baseline, the exact maintainer (random, half-unit lattice and
lower-bound streams), both of these through the greedy oracle at m=12 on a
60-event stream, and the hitting maintainers on line streams (greedy at m 6, 9, 12 and 15, exact
at m 6 and 9).  The generated line text at m 9, 12, 30, 60 and 120 has
digests of its own, and so has the text of every recorded ``lines-greedy``
benchmark chunk, whose report digests cannot see the line coefficients.
The rows of the CI workflow's ``python -O`` replay table and its
paper-scale drawing must check the digests here, and its benchmark step must
run every workload at the seed ``bench/expected.json`` records digests for.
That step's short runs reach only the first chunks of each workload, so a
chunk from the middle and the last chunk of each recorded list are replayed
here, and a second CI step replays every recorded chunk; its script is run
here over the first two chunks of each workload.
"""

import dataclasses
import functools
import hashlib
import json
import random
import re
import textwrap
from pathlib import Path

import pytest

from stablecover import static_solver
from stablecover.adversary import lines as lines_module
from stablecover.geometry import Point
from stablecover.harness_cli import (
    RunConfig,
    _parse_overrides,
    format_point_event,
    gen_lines,
    gen_lower_bound,
    gen_random,
    parse_stream,
    run,
)
from stablecover.static_solver import SolverBudgetError, SolverKind

# The scaled constants of the benchmark's sas-greedy-sparse workload.
SCALED = dict(
    c_star=1, trivial_threshold=0, kappa=2, extend=1, block_min=1,
    block_max=2, balance_cells=2, balance_blocks=4, grid_shifts=2, grid_edge=4,
)

# Constants under which a stream reaches all four fallback reasons.
FALLBACKS = dict(SCALED, block_max=1, grid_shifts=4, grid_edge=8)

# The sparse constants with 8 shifts per axis, on grids of edge 16.
WIDE_GRIDS = dict(SCALED, grid_shifts=8, grid_edge=16)

RANDOM = gen_random(80, 8.0, seed=11, delete_prob=0.25)
GREEDY_RANDOM = gen_random(60, 8.0, seed=7, delete_prob=0.3)


def half_lattice(seed):
    """10 to 30 inserts and deletes of half-unit lattice points in a box of
    side 2 to 4: pairs exactly 2 apart put circle centers half an ulp off."""
    rng = random.Random(seed)
    side = rng.choice((2, 3, 4))
    live, events = [], []
    for _ in range(rng.randint(10, 30)):
        if live and rng.random() < 0.3:
            events.append(("delete", live.pop(rng.randrange(len(live)))))
            continue
        p = Point(rng.randint(0, 2 * side) / 2, rng.randint(0, 2 * side) / 2)
        if p not in live:
            live.append(p)
            events.append(("insert", p))
    return [format_point_event(op, p) for op, p in events]


CASES = {
    "sas-eps-0.25": (
        RunConfig(engine="sas", m=4, epsilon=0.25), RANDOM,
        "15a3a538b8e75efdd4d80e1209bd34de2b963559fb889a7c3848e05ec46242c0",
    ),
    "sas-eps-0.15": (
        RunConfig(engine="sas", m=4, epsilon=0.15), RANDOM,
        "39a9b58734d293e4642321b7b6e24ba571adeed560ff7f94d39627f5edae0a92",
    ),
    "sas-greedy-scaled": (
        RunConfig(engine="sas", m=16, epsilon=0.25, solver=SolverKind.GREEDY, scaled=SCALED),
        gen_random(200, 40.0, seed=3, delete_prob=0.3),
        "12034933f1db862dfd746dcddf9341582575248df4df9ec94a65e89ed7ca876a",
    ),
    # The benchmark's sas-greedy-sparse shape: the harness's from-scratch
    # candidates, masks and recount at up to 240 live points in a 60x60 box.
    "sas-greedy-sparse": (
        RunConfig(engine="sas", m=16, epsilon=0.25, solver=SolverKind.GREEDY, scaled=SCALED),
        gen_random(600, 60.0, seed=5, delete_prob=0.3),
        "915b275f0cc76c36d42a443ca091c18c4bfd3832424c1d3d5c69ef45e3cb16d1",
    ),
    # The same stream through the exact oracle, which extracts the canonical
    # optimum at every repair of up to 240 live points.
    "sas-exact-sparse": (
        RunConfig(engine="sas", m=16, epsilon=0.25, solver=SolverKind.EXACT, scaled=SCALED),
        gen_random(600, 60.0, seed=5, delete_prob=0.3),
        "138784815e559807a3336045cf6e876e814c34fd7653532bdeb12ed0328b8d65",
    ),
    # A 30x30 box at m=16 through the exact oracle.  At t=111 the value
    # search over every candidate mask took 9.4 M nodes, past the default
    # budget; over the masks that no other mask contains, it takes 59 k.
    "sas-exact-hard": (
        RunConfig(engine="sas", m=16, solver=SolverKind.EXACT),
        gen_random(300, 30.0, seed=0, delete_prob=0.2),
        "179ddeceb0438f3f7372ad2af714c01b49dd8185efd0230b4ddf66e27cb1d7e1",
    ),
    # A repair-heavy stream at m=32 with 8x8 shifted grids of edge 16: 28
    # GroupSwap, 12 FewBlocksSwapAll and 11 TrivialSwapAll rows, from the
    # window path of the assignment and the full grid scan.
    "sas-greedy-m32": (
        RunConfig(engine="sas", m=32, epsilon=0.25, solver=SolverKind.GREEDY, scaled=WIDE_GRIDS),
        gen_random(1200, 60.0, seed=5, delete_prob=0.3),
        "8c7c6f4ed22f6a631a5f797db60eeeb1f74dff49165fa83db3d8da0c81245326",
    ),
    "sas-greedy-fallbacks": (
        RunConfig(engine="sas", m=16, epsilon=0.25, solver=SolverKind.GREEDY, scaled=FALLBACKS),
        gen_random(120, 10.0, seed=830211, delete_prob=0.2),
        "bf3b97892d801c288d561aa5a0183bcb63fcf826bc3bb01f2e852946a6047e07",
    ),
    "two-stable": (
        RunConfig(engine="two_stable", m=4), RANDOM,
        "b1af40328549d708b96a5fd0987097af84cc8ddf2003068f51795f3b6bd36e21",
    ),
    "exact-maintainer-random": (
        RunConfig(engine="exact_maintainer", m=3),
        gen_random(40, 8.0, seed=5, delete_prob=0.2),
        "154693436816974010544eeff95626ccebf1d5c1754a6faf2e120c24885a74ef",
    ),
    # The greedy oracle over the other point engines' index, with more
    # slots than live points: exact_maintainer reads the greedy disks at
    # every step, two_stable at each of its swaps.
    "exact-maintainer-greedy": (
        RunConfig(engine="exact_maintainer", m=12, solver=SolverKind.GREEDY), GREEDY_RANDOM,
        "e64d8e967f5d3a0c6b05f4aefafdc7bb9decd0ac7a69dd0799fd6b9f1d3f3f63",
    ),
    "two-stable-greedy": (
        RunConfig(engine="two_stable", m=12, solver=SolverKind.GREEDY), GREEDY_RANDOM,
        "68a04ef1e76eeb0c009a267d5885dc060b5224fd5ee1f9218ebb815c2ca8c694",
    ),
    # Masks hold every point ``covers`` accepts.  At t=8 the candidate
    # centered at (0.9999999999999999, 0.5000000000000001) covers all seven
    # live points, and it precedes the disk at (1, 0.5), which covers them
    # too.  Its mask used to leave out (2, 0.5), one unit plus half an ulp
    # away, so (1, 0.5) was picked at t=8; now the earlier candidate is, and
    # at t=9, no longer a candidate, it gives way to (1, 0.5).  One row
    # changed, from the digest
    # 93cf62c9090106f7954cec2a29cc1f6c4383f3feb3ef4a9988b635507ca955b9:
    #   9,delete,6,6,1.000000,0,Recompute -> 9,delete,6,6,1.000000,2,Recompute
    "exact-maintainer-half-lattice": (
        RunConfig(engine="exact_maintainer", m=1), half_lattice(90),
        "6c9e9209b67afb1c9661f0a806b1a0e7404c8256f93e133f349a88099bebd993",
    ),
    "exact-maintainer-lower-bound": (
        RunConfig(engine="exact_maintainer", m=4), gen_lower_bound(4),
        "3752d97025303e9de0d999058df2cb90bcef729c1acd88584a90db779d9a264c",
    ),
    "greedy-hitting": (
        RunConfig(engine="greedy_hitting", m=6), gen_lines(6, seed=1),
        "82d30f3a6015f21c4fddbac824fba934735b79c6a096d1c1049d7a0e457c766d",
    ),
    "exact-hitting": (
        RunConfig(engine="exact_hitting", m=6), gen_lines(6, seed=1),
        "d0e49d934938000d8f6ace247244eb5a70cd7d846a4f72b7f7ed1154e8ccfc18",
    ),
    "greedy-hitting-m9": (
        RunConfig(engine="greedy_hitting", m=9), gen_lines(9, seed=1),
        "06fe731c71eb92aaefe2ad8c6380fedfc392b3600287da74559c250da1a46ba9",
    ),
    "greedy-hitting-m12": (
        RunConfig(engine="greedy_hitting", m=12), gen_lines(12, seed=1),
        "56d8d2e033056b744cf3446db58848a4c3ea613220b648dd0ad9af86ddb54590",
    ),
    "exact-hitting-m9": (
        RunConfig(engine="exact_hitting", m=9), gen_lines(9, seed=1),
        "ac486b1b8abb3e344d064d144accff074e49e07cec2f91d1022cdde146f02f0a",
    ),
    "greedy-hitting-m15": (
        RunConfig(engine="greedy_hitting", m=15), gen_lines(15, seed=1),
        "6da3dbf10d52b8264bc8198e9ac0a95ac2b92d93a5f6a03de121be06b1873001",
    ),
}

# The generated line streams themselves: their text pins the drawing, that
# is the vertex each of sparse_line_rep's retries moves (22 moves at m=30,
# 41 at m=60), and the census.
GEN_LINES = {
    9: "b0e50240ae2dea632d5ce251df1c815cd5ff50f8f2bb41ff5ab3b82a9989a22c",
    12: "5cb50f29ef0dcbd5d639bbf4a649f684116db6f8d3860603783c1398776e3379",
    30: "4260b3d4a2a5d657b1a52f0f59e07dad9c489f9ccc6a89160c77f2034cfe2247",
    60: "957689427f8ecdd55ec9e49a9447eca0dda627f2057e04313566a68b97d789d5",
    120: "fca732772beac1d7a63547619ad4f6009e6d339a33e50271ed22ec8ee4640fbe",
}

# One digest over the text of every recorded lines-greedy benchmark chunk,
# in chunk order: gen_lines(9, s) at each chunk's seed s.
BENCH_LINE_TEXT = "3582807f1bbc3033f32fe5ebb6eb12d8ceeb6feffd6a3fd3630ee94354b90e55"


@functools.cache
def report(name):
    config, rows, _ = CASES[name]
    return run(config, parse_stream("\n".join(rows) + "\n"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_unchanged(name):
    assert hashlib.sha256(report(name).encode()).hexdigest() == CASES[name][2]


def test_scaled_stream_reaches_group_swap():
    branches = {row.split(",")[6] for row in report("sas-greedy-scaled").splitlines()[1:-1]}
    assert {"TrivialSwapAll", "GroupSwap"} <= branches


@pytest.mark.parametrize("balance_blocks", [1, 10**6])
def test_balance_blocks_is_inert(balance_blocks):
    """No engine reads ``balance_blocks``: the m=32 replay, whose GroupSwap
    rows run the block ordering, keeps its digest at any value."""
    config, rows, digest = CASES["sas-greedy-m32"]
    scaled = dict(config.scaled, balance_blocks=balance_blocks)
    report = run(dataclasses.replace(config, scaled=scaled), parse_stream("\n".join(rows) + "\n"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, per_triple", [("greedy-hitting-m9", 0), ("exact-hitting-m9", 1)])
def test_line_resolve_never_extracts(name, per_triple, monkeypatch):
    """The harness's line re-solve reads only the optimum's value: with every
    extraction out of budget the greedy replay keeps its digest, and the exact
    replay extracts once per triple, for its engine's points."""
    extractions = []
    extract = static_solver._extract

    def counted(*args):
        extractions.append(args)
        if not per_triple:
            raise SolverBudgetError("extraction out of budget")
        return extract(*args)

    monkeypatch.setattr(static_solver, "_extract", counted)
    config, rows, digest = CASES[name]
    stream = parse_stream("\n".join(rows) + "\n")
    assert hashlib.sha256(run(config, stream).encode()).hexdigest() == digest
    assert len(extractions) == per_triple * len(stream.line_steps)


@pytest.mark.parametrize("name", ["exact-maintainer-random", "sas-greedy-sparse"])
def test_point_resolve_builds_one_table(name, monkeypatch):
    """The harness's from-scratch re-solve builds its candidates and masks in
    one table: with ``candidate_disks`` and ``coverage_masks`` raising, the
    replay keeps its digest."""

    def refused(*args):
        raise AssertionError("the re-solve builds its own table")

    monkeypatch.setattr(static_solver, "candidate_disks", refused)
    monkeypatch.setattr(static_solver, "coverage_masks", refused)
    config, rows, digest = CASES[name]
    report = run(config, parse_stream("\n".join(rows) + "\n"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["sas-eps-0.25", "exact-maintainer-random"])
def test_exact_replay_never_ranks_its_index(name, monkeypatch):
    """Only a greedy solve builds a candidate index's ranked order, so the
    exact engines never pay for its upkeep: with ``ranked`` raising, the
    dense-shaped exact replays keep their digests."""

    def refused(self):
        raise AssertionError("an exact solve ranks its index")

    monkeypatch.setattr(static_solver.CandidateIndex, "ranked", refused)
    config, rows, digest = CASES[name]
    report = run(config, parse_stream("\n".join(rows) + "\n"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["exact-hitting-m9", "greedy-hitting-m9"])
def test_line_replay_takes_no_dominance_reduction(name, monkeypatch):
    """Only point masks reach the exact oracle reduced to the masks no other
    mask contains: with both dominance filters raising, the line replays
    keep their digests."""

    def refused(masks):
        raise AssertionError("a line solve reduces its masks")

    monkeypatch.setattr(static_solver, "_maximal", refused)
    monkeypatch.setattr(static_solver, "_undominated_spans", refused)
    config, rows, digest = CASES[name]
    report = run(config, parse_stream("\n".join(rows) + "\n"))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("m", sorted(GEN_LINES))
def test_gen_lines_digest_unchanged(m):
    text = "\n".join(gen_lines(m, seed=1)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_LINES[m]


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
BENCH = Path(__file__).resolve().parents[1] / "bench"
RECORDED = json.loads((BENCH / "expected.json").read_text())


def test_gen_lines_digest_holds_over_the_bench_chunks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS["lines-greedy"]
    assert workload.line_m == 9
    text = hashlib.sha256()
    for k in range(len(RECORDED["digests"]["lines-greedy"])):
        seed = workload.chunk_seed(RECORDED["seed"], k)
        text.update(("\n".join(gen_lines(9, seed)) + "\n").encode())
    assert text.hexdigest() == BENCH_LINE_TEXT


def _step_body(step: str) -> str:
    return WORKFLOW.read_text().split(step, 1)[1].split("- name: ", 1)[0]


PINNED_STEP = "- name: Pinned replays under -O\n"


@functools.cache
def _pinned_rows() -> dict[str, tuple[str, str, str]]:
    """The pinned-replay step's table: each row's name mapped to its gen
    arguments, replay arguments and report digest."""
    table = _step_body(PINNED_STEP).split("<<'EOF'\n", 1)[1].rsplit("EOF", 1)[0]
    rows = [row.split("|") for row in textwrap.dedent(table).splitlines()]
    assert all(len(row) == 4 for row in rows)
    names = [row[0] for row in rows]
    assert len(set(names)) == len(names)
    return {name: tuple(rest) for name, *rest in rows}


def _replay_config(args: str) -> RunConfig:
    """The run settings that ``run``'s options ``args`` select."""
    tokens = args.split()
    opts = dict(zip(tokens[::2], tokens[1::2]))
    scaled = opts.pop("--scaled", None)
    config = RunConfig(
        engine=opts.pop("--engine"),
        m=int(opts.pop("--m")),
        epsilon=float(opts.pop("--epsilon", RunConfig.epsilon)),
        solver=SolverKind(opts.pop("--solver", RunConfig.solver.value)),
        scaled=None if scaled is None else _parse_overrides(scaled),
    )
    assert not opts
    return config


def _generated(args: str) -> list[str]:
    """The rows that ``gen``'s arguments ``args`` write."""
    kind, *rest = args.split()
    opts = dict(zip(rest[::2], rest[1::2]))
    if kind == "lines":
        assert opts.keys() == {"--m", "--seed"}
        return gen_lines(int(opts["--m"]), int(opts["--seed"]))
    if kind == "lower_bound":
        assert opts.keys() == {"--m"}
        return gen_lower_bound(int(opts["--m"]))
    assert kind == "random" and opts.keys() == {"--n", "--bbox", "--seed", "--delete-prob"}
    return gen_random(int(opts["--n"]), float(opts["--bbox"]), int(opts["--seed"]),
                      float(opts["--delete-prob"]))


# The cases the pinned-replay step checks under ``python -O``.
CI_REPLAYS = (
    "sas-eps-0.25", "two-stable",
    "sas-greedy-fallbacks", "sas-greedy-sparse", "sas-exact-sparse", "sas-exact-hard",
    "sas-greedy-m32",
    "exact-maintainer-random", "exact-maintainer-greedy", "exact-maintainer-lower-bound",
    "two-stable-greedy",
    "exact-hitting-m9", "greedy-hitting-m9", "greedy-hitting-m15",
)


def test_ci_pinned_step_replays_each_row():
    """Every row is generated, run, verified and checked under ``-O``, and
    the table holds the named cases and no other row."""
    body = _step_body(PINNED_STEP)
    assert sorted(_pinned_rows()) == sorted(CI_REPLAYS)
    assert 'python -O -m stablecover gen $gen --out "$stream"' in body
    assert 'python -O -m stablecover run --stream "$stream" $replay --out "$report"' in body
    assert 'python -O -m stablecover verify --stream "$stream" $replay --report "$report"' in body
    assert 'echo "$digest  $report" | sha256sum -c' in body


@pytest.mark.parametrize("name", CI_REPLAYS)
def test_ci_replay_matches_its_case(name):
    """The step's row generates the case's stream, replays it with the case's
    settings and checks the case's digest, so re-recording a digest here
    cannot leave CI checking a stale one."""
    gen, replay, digest = _pinned_rows()[name]
    config, rows, expected = CASES[name]
    assert _generated(gen) == rows
    assert _replay_config(replay) == config
    assert digest == expected


DRAWING_STEP = "- name: Paper-scale line drawing under -O\n"


def test_ci_drawing_step_checks_its_digest():
    """The step draws the m=120 stream at seed 1 and checks GEN_LINES[120]."""
    body = _step_body(DRAWING_STEP)
    assert "gen lines --m 120 --seed 1 --out \"$stream\"" in body
    assert f'echo "{GEN_LINES[120]}  $stream" | sha256sum -c' in body


BENCH_STEP = "- name: Benchmark runs at the recorded seed\n"
TRACED_BENCH_STEP = "- name: Traced benchmark runs at the recorded seed\n"


def _bench_step(step: str) -> tuple[str, int]:
    """The step's body, once its loop is checked to name every workload of
    the benchmark, and the seed the benchmark's digests are recorded for."""
    root = WORKFLOW.parents[2]
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    seed = json.loads((root / "bench" / "expected.json").read_text())["seed"]
    body = _step_body(step)
    loop = re.search(r"for workload in ([^;]+); do", body).group(1).split()
    assert sorted(loop) == sorted(workloads)
    return body, seed


def test_ci_bench_step_runs_every_workload_at_the_recorded_seed():
    """The step replays every workload of the benchmark at the seed its
    digests are recorded for, so CI checks them."""
    body, seed = _bench_step(BENCH_STEP)
    assert f'python bench/run.py --workload "$workload" --seed {seed} --seconds 2 --trace 0' in body
    assert "grep -qF '\"failed\": 0,'" in body


def test_ci_traced_bench_step_runs_every_workload_and_sees_the_oracle():
    """The traced step runs every workload under the tracer, which must find
    the program's names, and fails unless the oracle's span saw calls."""
    body, seed = _bench_step(TRACED_BENCH_STEP)
    assert f'python bench/run.py --workload "$workload" --seed {seed} --seconds 1 --trace 1' in body
    assert '$1 == "static_solver.max_coverage_masks.calls" { seen = $2 > 0 }' in body
    assert "END { exit !seen }" in body


ALL_CHUNKS_STEP = "- name: Every recorded benchmark chunk replays to its digest\n"


@pytest.mark.parametrize("altered", [None, "sas-greedy-sparse"])
def test_ci_all_chunks_step_replays_expected_json(altered, monkeypatch, tmp_path, capsys):
    """The step's script replays every chunk ``bench/expected.json`` records,
    for every workload of the benchmark, and fails on a digest that differs.
    Here it runs over the first two recorded chunks of each workload, one of
    them altered in the second case."""
    _, seed = _bench_step(BENCH_STEP)
    assert RECORDED["seed"] == seed
    workloads = json.loads((WORKFLOW.parents[2] / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(RECORDED["digests"]) == sorted(w["name"] for w in workloads)
    head, script = textwrap.dedent(_step_body(ALL_CHUNKS_STEP).split("run: |\n", 1)[1]).split("\n", 1)
    assert head == "PYTHONPATH=src:bench python - <<'EOF'"
    script = script.rsplit("EOF", 1)[0]

    monkeypatch.syspath_prepend(str(BENCH))
    import measure

    assert measure.EXPECTED == BENCH / "expected.json"
    trimmed = {name: digests[:2] for name, digests in RECORDED["digests"].items()}
    if altered:
        trimmed[altered][1] = "0" * 64
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"seed": RECORDED["seed"], "digests": trimmed}))
    monkeypatch.setattr(measure, "EXPECTED", expected)
    with pytest.raises(SystemExit) as exit_:
        exec(script, {})
    out = capsys.readouterr().out
    assert exit_.value.code == (1 if altered else 0)
    assert (f"{altered} chunk 1: digest differs" in out) == bool(altered)
    for name in trimmed:
        assert f"{name}: 2 chunks" in out


def test_bench_set_up_draws_and_parses_every_repeat(monkeypatch):
    """Each repeat of a lines-greedy chunk's set-up draws, checks and parses
    the stream anew: no generated or parsed stream is cached."""
    monkeypatch.syspath_prepend(str(BENCH))
    import measure
    from workloads import WORKLOADS

    calls = {"verify_sparse": 0, "normalized": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lines_module, "verify_sparse", counted("verify_sparse", lines_module.verify_sparse))
    monkeypatch.setattr(
        lines_module.RationalLine, "normalized",
        staticmethod(counted("normalized", lines_module.RationalLine.normalized)),
    )
    chunk = measure.set_up(WORKLOADS["lines-greedy"], RECORDED["seed"], 0)
    rows = sum(len(triple) for triple in chunk.stream.line_steps)
    assert len(chunk.setup_s) == measure.SETUP_REPEATS == 3
    assert calls == {"verify_sparse": 3, "normalized": 3 * rows}


@pytest.mark.parametrize("name", sorted(RECORDED["digests"]))
def test_bench_digests_hold_past_the_ci_prefix(name, monkeypatch):
    """The middle and the last recorded chunk replay to their digests, as
    ``bench/record.py`` replays them."""
    monkeypatch.syspath_prepend(str(BENCH))  # measure imports its siblings by name
    import measure
    from workloads import WORKLOADS

    digests = RECORDED["digests"][name]
    for k in (len(digests) // 2, len(digests) - 1):
        chunk = measure.set_up(WORKLOADS[name], RECORDED["seed"], k, repeats=1)
        measure.replay(WORKLOADS[name], chunk, None)
        assert chunk.failure is None, (k, chunk.failure)
        assert measure.digest(chunk.report) == digests[k], k
