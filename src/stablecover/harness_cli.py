"""Stream I/O, experiment orchestration and the command-line surface.

Streams are plain text, one event per line (``insert x y``, ``delete x y``,
or ``line a b c`` with exact rationals, three line-rows per arrival step).
Reports are CSV with a fixed header and a summary trailer; every value in a
row is recomputed here from first principles (coverage recount, multiset
difference, a fresh oracle solve) rather than copied from engine internals,
and any invariant violation makes the process exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import baseline, sas_engine
from .adversary.expander import SeedExhaustionError
from .adversary.lines import RationalLine, SparseLineRepError, evaluate_hitting
from .adversary.lower_bound import lower_bound_stream
from .adversary.streams import (
    ExactHittingMaintainer,
    ExactMaintainer,
    GreedyHittingMaintainer,
    build_line_instance,
    solve_hitting,
)
from .geometry import GridSelectionError, Point, UnitDisk, coverage_value, disk_churn
from .sas_engine import EngineConfig, EngineState, UpdateReport, within_ratio
from .static_solver import SolverBudgetError, SolverKind, solve

REPORT_HEADER = "t,op,alg_value,opt_value,ratio,churn,branch"

POINT_ENGINES = ("sas", "two_stable", "exact_maintainer")
LINE_ENGINES = ("greedy_hitting", "exact_hitting")


class HarnessError(Exception):
    pass


@dataclass
class RunConfig:
    engine: str = "sas"
    m: int = 2
    epsilon: float = 0.25
    solver: SolverKind = SolverKind.EXACT
    scaled: dict | None = None  # None: stock constants; dict: scaled overrides


# ---------------------------------------------------------------------------
# Stream files.


@dataclass
class UpdateStream:
    kind: str  # "points" | "lines"
    point_events: list[tuple[str, Point]] = field(default_factory=list)
    line_steps: list[list[RationalLine]] = field(default_factory=list)


def parse_stream(text: str) -> UpdateStream:
    point_events: list[tuple[str, Point]] = []
    raw_lines: list[RationalLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.strip()
        if not row or row.startswith("#"):
            continue
        parts = row.split()
        try:
            if parts[0] in ("insert", "delete") and len(parts) == 3:
                p = Point(float(parts[1]), float(parts[2]))
                if not (math.isfinite(p.x) and math.isfinite(p.y)):
                    raise ValueError("coordinates must be finite")
                point_events.append((parts[0], p))
            elif parts[0] == "line" and len(parts) == 4:
                a, b, c = (Fraction(tok) for tok in parts[1:])
                raw_lines.append(RationalLine.normalized(a, b, c))
            else:
                raise ValueError("unrecognized record")
        except (ValueError, ZeroDivisionError) as exc:
            raise HarnessError(f"malformed stream line {lineno}: {raw!r} ({exc})")
    if point_events and raw_lines:
        raise HarnessError("stream mixes point and line events")
    if raw_lines:
        if len(raw_lines) % 3 != 0:
            raise HarnessError("line streams must arrive in triples")
        steps = [raw_lines[i : i + 3] for i in range(0, len(raw_lines), 3)]
        return UpdateStream(kind="lines", line_steps=steps)
    return UpdateStream(kind="points", point_events=point_events)


def load_stream(path: str | Path) -> UpdateStream:
    return parse_stream(Path(path).read_text())


def format_point_event(op: str, p: Point) -> str:
    return f"{op} {p.x!r} {p.y!r}"


def format_line_event(line: RationalLine) -> str:
    return f"line {line.a} {line.b} {line.c}"


# ---------------------------------------------------------------------------
# Generators.


def gen_random(n: int, bbox: float, seed: int, delete_prob: float = 0.0) -> list[str]:
    rng = random.Random(seed)
    rows: list[str] = []
    present: list[Point] = []
    for _ in range(n):
        if present and rng.random() < delete_prob:
            victim = present.pop(rng.randrange(len(present)))
            rows.append(format_point_event("delete", victim))
        else:
            p = Point(rng.uniform(0.0, bbox), rng.uniform(0.0, bbox))
            present.append(p)
            rows.append(format_point_event("insert", p))
    return rows


def gen_lower_bound(m: int) -> list[str]:
    """2m chain inserts plus the trigger that is adversarial for a canonical
    exact maintainer, which holds the prefix's canonical optimum by then."""
    stream = lower_bound_stream(m)
    trigger = stream.choose_trigger(solve(stream.prefix, m).disks)
    return [format_point_event(op, p) for op, p in stream.events(trigger)]


def gen_lines(m: int, seed: int) -> list[str]:
    """Non-adaptive flattening of the schedule (the attachment side is fixed
    to L); the adaptive variant is available through the library API."""
    instance = build_line_instance(m, seed)
    rows = []
    for tri in instance.schedule_lines(instance.base_triples):
        rows.extend(format_line_event(ln) for ln in tri)
    for tri in instance.schedule_lines(instance.z_triples["L"]):
        rows.extend(format_line_event(ln) for ln in tri)
    return rows


# ---------------------------------------------------------------------------
# Replay.


def _engine_config(config: RunConfig) -> EngineConfig:
    try:
        return EngineConfig(
            m=config.m,
            epsilon=config.epsilon,
            solver=config.solver,
            scaled_mode=config.scaled is not None,
            **(config.scaled or {}),
        )
    except TypeError as exc:  # a --scaled key that names no tunable
        raise HarnessError(f"bad scaled constant: {exc}") from None


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise HarnessError(message)


def _row(t: int, op: str, alg: int, opt: int, churn: int, branch: str) -> str:
    ratio = alg / opt if opt else 1.0
    return f"{t},{op},{alg},{opt},{ratio:.6f},{churn},{branch}"


class EngineMaintainer:
    """The SAS engine or the 2-stable baseline as a point maintainer; ``apply``
    returns the engine's own report for the harness to check."""

    def __init__(self, engine: str, config: EngineConfig) -> None:
        self.state = EngineState(config=config)
        self.update = sas_engine.update if engine == "sas" else baseline.update2

    def apply(self, op: str, p: Point) -> UpdateReport:
        return self.update(self.state, op, p)

    def solution(self) -> list[UnitDisk]:
        return list(self.state.disks)


def run_points(config: RunConfig, events: list[tuple[str, Point]], maintainer=None) -> list[str]:
    """Replay point events: one report row per event, every figure recounted.

    ``maintainer`` (anything with ``apply(op, p)`` and ``solution()``) stands
    in for the configured engine; it is recounted like one but held to no
    engine's guarantee.  A report returned by ``apply`` must match the recount.
    """
    engine = None
    if maintainer is None:
        engine = config.engine
        settings = _engine_config(config)
        if engine == "exact_maintainer":
            maintainer = ExactMaintainer(config.m, config.solver)
        else:
            maintainer = EngineMaintainer(engine, settings)
    rows = []
    points: set[Point] = set()
    for t, (op, p) in enumerate(events, start=1):
        if op == "insert":
            _check(p not in points, f"duplicate insert at t={t}")
            points.add(p)
        else:
            _check(p in points, f"delete of absent point at t={t}")
            points.remove(p)
        before = maintainer.solution()
        report = maintainer.apply(op, p)
        after = maintainer.solution()

        alg = coverage_value(points, after)
        opt = solve(points, config.m, config.solver).value
        churn = disk_churn(before, after)
        branch = "Recompute"
        if report is not None:
            _check(report.alg_value == alg, f"alg recount mismatch at t={t}")
            _check(report.opt_value == opt, f"opt recount mismatch at t={t}")
            _check(report.churn == churn, f"churn recount mismatch at t={t}")
            branch = report.branch.value
        if engine == "sas":
            _check(
                within_ratio(opt, alg, settings.epsilon_exact),
                f"ratio invariant failed at t={t}: opt={opt} alg={alg}",
            )
        elif engine == "two_stable":
            _check(opt <= 2 * alg, f"2-approximation failed at t={t}")
            _check(churn <= 2, f"churn {churn} above 2 at t={t}")
        elif engine == "exact_maintainer":
            _check(alg == opt, f"exact maintainer suboptimal at t={t}")
        rows.append(_row(t, op, alg, opt, churn, branch))
    return rows


def run_lines(
    config: RunConfig, steps: Iterable[list[RationalLine]], maintainer=None
) -> list[str]:
    """Replay line triples: one report row per triple, every figure recounted.

    ``maintainer`` (anything with ``apply_triple`` and ``solution()``) stands
    in for the configured engine, held to no engine's guarantee; ``steps`` may
    be a schedule that probes it, such as ``adaptive_line_stream``.

    The algorithm's value is recounted by ``evaluate_hitting``, a direct
    ``contains`` test per line and point that shares no code with the meet
    table behind the engines' masks (and this loop's own re-solve), so a
    wrong mask cannot confirm itself.
    """
    engine = None
    if maintainer is None:
        engine = config.engine
        _engine_config(config)  # the option checks every engine gets
        if engine == "greedy_hitting":
            maintainer = GreedyHittingMaintainer(config.m)
        else:
            maintainer = ExactHittingMaintainer(config.m)
    rows = []
    arrived: list[RationalLine] = []
    for t, triple in enumerate(steps, start=1):
        before = set(maintainer.solution())
        maintainer.apply_triple(triple)
        after = set(maintainer.solution())
        arrived.extend(triple)
        alg = evaluate_hitting(after, arrived)
        opt, _ = solve_hitting(arrived, config.m)
        churn = len(before ^ after)
        if engine == "exact_hitting":
            _check(alg == opt, f"exact hitting maintainer suboptimal at t={t}")
        rows.append(_row(t, "lines", alg, opt, churn, "Hitting"))
    return rows


def run(config: RunConfig, stream: UpdateStream) -> str:
    _check(config.m >= 1, "m must be at least 1")
    if stream.kind == "points":
        _check(config.engine in POINT_ENGINES, f"engine {config.engine} needs a line stream")
        rows = run_points(config, stream.point_events)
    else:
        _check(config.engine in LINE_ENGINES, f"engine {config.engine} needs a point stream")
        rows = run_lines(config, stream.line_steps)
    max_churn = 0
    min_ratio = 1.0
    for row in rows:
        parts = row.split(",")
        max_churn = max(max_churn, int(parts[5]))
        min_ratio = min(min_ratio, float(parts[4]))
    out = [REPORT_HEADER]
    out.extend(rows)
    out.append(f"# summary max_churn={max_churn} min_ratio={min_ratio:.6f}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CLI.


def _parse_overrides(text: str) -> dict:
    out: dict = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key:
            out[key] = (float if key == "grid_edge" else int)(value)
    return out


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        engine=args.engine,
        m=args.m,
        epsilon=args.epsilon,
        solver=SolverKind.GREEDY if args.solver == "greedy" else SolverKind.EXACT,
        scaled=_parse_overrides(args.scaled) if args.scaled is not None else None,
    )


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# Bad input (files, streams, options, generator sizes), a run out of its
# search budget, or a failed invariant: one ``error:`` line and exit code 2.
INPUT_ERRORS = (
    HarnessError, OSError, ValueError, sas_engine.StreamError, sas_engine.EngineInvariantError,
    SolverBudgetError, GridSelectionError, SparseLineRepError, SeedExhaustionError,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablecover",
        description="dynamic unit-disk max coverage: stream generation, replay, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a deterministic update stream")
    p_gen.add_argument("kind", choices=("random", "lower_bound", "lines"))
    p_gen.add_argument("--n", type=int, default=50)
    p_gen.add_argument("--m", type=int, default=4)
    p_gen.add_argument("--bbox", type=float, default=100.0)
    p_gen.add_argument("--delete-prob", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)

    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--stream", required=True)
    replay.add_argument("--engine", default="sas", choices=POINT_ENGINES + LINE_ENGINES)
    replay.add_argument("--m", type=int, default=2)
    replay.add_argument("--epsilon", type=float, default=0.25)
    replay.add_argument("--solver", default="exact", choices=("exact", "greedy"))
    replay.add_argument("--scaled", nargs="?", const="", default=None,
                        help="scaled-constant overrides, e.g. c_star=1,kappa=3")

    p_run = sub.add_parser("run", parents=[replay], help="replay a stream and write a report")
    p_run.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", parents=[replay],
                           help="re-run a stream and compare reports")
    p_ver.add_argument("--report", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            if args.kind == "random":
                rows = gen_random(args.n, args.bbox, args.seed, args.delete_prob)
            elif args.kind == "lower_bound":
                rows = gen_lower_bound(args.m)
            else:
                rows = gen_lines(args.m, args.seed)
            _write("\n".join(rows) + "\n", args.out)
            return 0
        stream = load_stream(args.stream)
        config = _config_from_args(args)
        report = run(config, stream)
        if args.command == "run":
            _write(report, args.out)
            return 0
        existing = Path(args.report).read_text()
        if existing == report:
            print("report verified: byte-identical")
            return 0
        print("report mismatch", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
