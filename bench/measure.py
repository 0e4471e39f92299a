"""Replay loop, failure accounting, output checks and end-to-end metrics.

A run is a closed loop: one client, one process, one thread. It generates
chunk after chunk of the workload's stream, replays each through
``harness_cli.run`` (the ``stablecover run`` path) and stops starting new
chunks once the replays have taken ``seconds``.

Timings are reported scaled to a nominal host speed (see :class:`HostGauge`);
the unscaled figures are printed beside them.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from stablecover import harness_cli, sas_engine
from stablecover.adversary.streams import ExactMaintainer, GreedyHittingMaintainer
from stablecover.geometry import GridSelectionError
from stablecover.static_solver import SolverBudgetError

import tracing
from workloads import Workload

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3

# Exceptions that abort a replay; every event from the failing one onward
# counts as failed.
FAILURES = (
    SolverBudgetError,
    RecursionError,
    harness_cli.HarnessError,
    sas_engine.StreamError,
    sas_engine.EngineInvariantError,
    GridSelectionError,
)
# Failures that mean an output was wrong, not merely out of reach.
WRONG_OUTPUT = (harness_cli.HarnessError, sas_engine.EngineInvariantError)

# The engine step each engine's replay calls, as the harness resolves it.
STEPS = {
    "sas": (sas_engine, "update"),
    "exact_maintainer": (ExactMaintainer, "apply"),
    "greedy_hitting": (GreedyHittingMaintainer, "apply_triple"),
}


# On a shared host the machine's speed drifts by a third within seconds to
# minutes, while process CPU time keeps tracking wall time: the drift is host
# speed, not scheduling. A fixed pure-Python loop that uses nothing of the
# program, timed between engine steps, measures that speed, and every timing
# is reported scaled to a host on which the loop takes REFERENCE_S. The value
# of REFERENCE_S (close to the loop's time on an idle 2-CPU x86 host, Python
# 3.11) only sets the scale; it must never change, or baselines shift.
REFERENCE_S = 1.0e-3
GAUGE_EVERY_S = 0.1


def reference_loop() -> int:
    """Integer, float, dict and Fraction work, like the program's mix."""
    acc = 0
    table: dict[int, float] = {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFF
        table[x & 255] = table.get(x & 255, 0.0) + x * 0.5
        acc += (x | (x << 7)).bit_count()
    q = Fraction(1, 3)
    for i in range(1, 40):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i)
    return acc + len(table) + q.denominator % 7


class HostGauge:
    """Times :func:`reference_loop` at most once every GAUGE_EVERY_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # time spent sampling, to take out of replay time
        self.next_at = 0.0

    def poll(self) -> None:
        start = perf_counter()
        if start < self.next_at:
            return
        reference_loop()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent_s += end - start
        self.next_at = end + GAUGE_EVERY_S

    def slowdown(self, since: int = 0) -> float:
        """Host time over nominal time (above 1 on a slow host), from the
        samples taken since index ``since``, else the last four."""
        recent = self.samples[since:] or self.samples[-4:]
        return statistics.fmean(recent) / REFERENCE_S

    def note(self) -> str:
        return (
            f"host slowdown {self.slowdown():.4g} over the run: reference loop mean "
            f"{statistics.fmean(self.samples) * 1e3:.4g} ms over {len(self.samples)} samples, "
            f"nominal {REFERENCE_S * 1e3:g} ms"
        )


class StepTimer:
    """One ``perf_counter`` pair around each engine step; between steps the
    host gauge may take a sample, outside the timed pair."""

    def __init__(self, engine: str, gauge: HostGauge) -> None:
        self.owner, self.attr = STEPS[engine]
        self.gauge = gauge
        self.latencies: list[float] = []
        self.started = 0

    def __enter__(self) -> "StepTimer":
        original = vars(self.owner)[self.attr]
        latencies = self.latencies
        poll = self.gauge.poll

        def timed(*args, **kwargs):
            self.started += 1
            start = perf_counter()
            result = original(*args, **kwargs)
            latencies.append(perf_counter() - start)
            poll()
            return result

        self.original = original
        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self.original)


@dataclass
class Chunk:
    index: int
    stream: harness_cli.UpdateStream
    events: int
    setup_s: list[float]
    report: str | None = None
    replay_s: float = 0.0
    completed: int = 0
    failure: tuple[str, int] | None = None  # exception class, 1-based event
    slowdown: float = 1.0  # host gauge reading while the chunk replayed
    # Report figures, kept after the report itself is released.
    rows: int = 0
    churn: int = 0
    min_ratio: float = 1.0


def stream_events(stream: harness_cli.UpdateStream) -> int:
    return len(stream.point_events) if stream.kind == "points" else len(stream.line_steps)


def set_up(workload: Workload, seed: int, k: int, repeats: int = SETUP_REPEATS) -> Chunk:
    """Generate and parse chunk ``k`` ``repeats`` times; each copy must agree."""
    times, texts = [], []
    stream = None
    for _ in range(repeats):
        start = perf_counter()
        text = workload.stream_text(seed, k)
        stream = harness_cli.parse_stream(text)
        times.append(perf_counter() - start)
        texts.append(text)
    if len(set(texts)) != 1:
        raise harness_cli.HarnessError(f"chunk {k} generation is not deterministic")
    return Chunk(index=k, stream=stream, events=stream_events(stream), setup_s=times)


def replay(workload: Workload, chunk: Chunk, timer: StepTimer | None) -> None:
    """Replay one chunk; a listed failure is recorded, never dropped.

    With a timer, the time its gauge spent sampling is taken out of the
    chunk's replay time, and the chunk keeps the gauge's reading.
    """
    if timer is not None:
        timer.started = 0
        first, spent = len(timer.gauge.samples), timer.gauge.spent_s
    start = perf_counter()
    try:
        chunk.report = harness_cli.run(workload.config, chunk.stream)
        chunk.completed = chunk.events
    except FAILURES as exc:
        at = max(timer.started, 1) if timer is not None else 1
        chunk.failure = (type(exc).__name__, at)
        chunk.completed = at - 1
    chunk.replay_s = perf_counter() - start
    if timer is not None:
        chunk.replay_s -= timer.gauge.spent_s - spent
        chunk.slowdown = timer.gauge.slowdown(first)


# ---------------------------------------------------------------------------
# Output checks.


def report_rows(report: str) -> list[list[str]]:
    lines = report.splitlines()
    if not lines or lines[0] != harness_cli.REPORT_HEADER:
        raise ValueError("report header missing")
    return [line.split(",") for line in lines[1:] if not line.startswith("#")]


def digest(report: str) -> str:
    """Hash of the t, op, alg_value, opt_value and churn columns.

    The branch label is left out so relabelling a fallback keeps the digest.
    """
    body = "\n".join(",".join(r[:4] + [r[5]]) for r in report_rows(report))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def expected_digests(workload: Workload, seed: int) -> list[str]:
    recorded = json.loads(EXPECTED.read_text())
    if seed != recorded["seed"]:
        return []
    return recorded["digests"].get(workload.name, [])


def settle(workload: Workload, chunk: Chunk, expected: list[str]) -> list[str]:
    """Check a replayed chunk and keep its report's figures, then release the
    stream and report so memory does not grow with the run length.

    Returns the problems found; empty when the chunk is correct.
    """
    report, chunk.report, chunk.stream = chunk.report, None, None
    if chunk.failure is not None:
        name, _ = chunk.failure
        if name in {cls.__name__ for cls in WRONG_OUTPUT}:
            return [f"chunk {chunk.index}: {name} (harness recount or invariant)"]
        return []
    problems = []
    rows = report_rows(report)
    chunk.rows = len(rows)
    chunk.churn = sum(int(r[5]) for r in rows)
    chunk.min_ratio = min(float(r[4]) for r in rows)
    if len(rows) != chunk.events:
        problems.append(f"chunk {chunk.index}: {len(rows)} rows for {chunk.events} events")
    if chunk.index < len(expected) and digest(report) != expected[chunk.index]:
        problems.append(
            f"chunk {chunk.index}: digest {digest(report)} != {expected[chunk.index]}"
        )
    if workload.config.engine == "greedy_hitting":
        floor = 1.0 - 1.0 / math.e
        for r in rows:
            if int(r[2]) < floor * int(r[3]):
                problems.append(f"chunk {chunk.index} t={r[0]}: greedy below 1-1/e")
    return problems


# ---------------------------------------------------------------------------
# Runs.


@dataclass
class Outcome:
    chunks: list[Chunk] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(c.events for c in self.chunks)

    @property
    def completed(self) -> int:
        return sum(c.completed for c in self.chunks)

    @property
    def replay_s(self) -> float:
        return sum(c.replay_s for c in self.chunks)


def _quality(outcome: Outcome) -> tuple[float, float]:
    rows = sum(c.rows for c in outcome.chunks)
    churn = sum(c.churn for c in outcome.chunks)
    return (churn / rows if rows else 0.0), min(c.min_ratio for c in outcome.chunks)


def run_untraced(workload: Workload, seed: int, seconds: float) -> Outcome:
    """End-to-end metrics; the only instrumentation is the step timer."""
    outcome = Outcome()
    expected = expected_digests(workload, seed)
    gauge = HostGauge()
    gauge.poll()
    scaled_ms: list[float] = []  # step latencies over the gauge reading
    cpu_start, wall_start = process_time(), perf_counter()
    with StepTimer(workload.config.engine, gauge) as timer:
        k = 0
        while outcome.replay_s < seconds:
            chunk = set_up(workload, seed, k)
            first = len(timer.latencies)
            replay(workload, chunk, timer)
            scaled_ms += [x * 1e3 / chunk.slowdown for x in timer.latencies[first:]]
            outcome.chunks.append(chunk)
            outcome.problems += settle(workload, chunk, expected)
            k += 1
    cpu_s, wall_s = process_time() - cpu_start, perf_counter() - wall_start

    def timings(lat_ms: list[float], replay_s: float, setup_s) -> dict[str, float]:
        return {
            "events_per_s": outcome.completed / replay_s,
            "update_p50_ms": statistics.median(lat_ms),
            "update_p99_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
            "setup_s": statistics.median(setup_s),
        }

    chunks = outcome.chunks
    raw = timings(
        [x * 1e3 for x in timer.latencies], outcome.replay_s,
        [t for c in chunks for t in c.setup_s],
    )
    mean_churn, min_ratio = _quality(outcome)
    outcome.metrics = timings(
        scaled_ms, sum(c.replay_s / c.slowdown for c in chunks),
        [t / c.slowdown for c in chunks for t in c.setup_s],
    )
    outcome.metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_churn": mean_churn,
        "min_ratio": min_ratio,
    })
    n = len(scaled_ms)
    outcome.notes.append(gauge.note())
    outcome.notes.append(
        "unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    )
    outcome.notes.append(f"step samples {n}")
    outcome.notes.append(
        f"set-up and replay loop: cpu {cpu_s:.2f} s, wall {wall_s:.2f} s "
        "(cpu below wall means the process waited for a processor)"
    )
    if n < 1000:
        outcome.notes.append(
            f"update_p99_ms rests on {n} < 1000 steps: read it as the slowest steps, "
            "not a tail estimate"
        )
    if len(outcome.chunks) > len(expected) and expected:
        outcome.notes.append(
            f"digests recorded for {len(expected)} chunks; later chunks checked by recount only"
        )
    return outcome


def run_traced(workload: Workload, seed: int, seconds: float, spans_out: Path) -> Outcome:
    """Per-layer metrics: each chunk is replayed untraced and traced, in
    alternating order, and the two reports must agree."""
    outcome = Outcome()
    expected = expected_digests(workload, seed)
    tracer = tracing.Tracer()
    before = tracing.program_bindings()
    gauge = HostGauge()
    gauge.poll()
    plain_s = traced_s = 0.0
    traced_events = 0
    k = 0
    while plain_s + traced_s < seconds:
        chunk = set_up(workload, seed, k)
        tracer.run_id = f"{workload.name}:{seed}:{k}"
        # Alternate which replay goes first, so warm-up favours neither.
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with tracing.installed(tracer):
                    traced = set_up(workload, seed, k, repeats=1)
                    replay(workload, traced, None)
            else:
                with StepTimer(workload.config.engine, gauge) as timer:
                    replay(workload, chunk, timer)
        if traced.report != chunk.report:
            outcome.problems.append(f"chunk {k}: traced replay differs from untraced")
        plain_s += chunk.replay_s
        traced_s += traced.replay_s
        traced_events += traced.completed
        outcome.chunks.append(chunk)
        outcome.problems += settle(workload, chunk, expected)
        k += 1

    if tracing.program_bindings() != before:
        outcome.problems.append("a wrapper survived the traced run")
    tracer.write(spans_out)
    outcome.metrics = tracing.layer_metrics(tracer.spans, traced_events, len(outcome.chunks))
    slow = gauge.slowdown()
    for name in outcome.metrics:
        if name.endswith((".s", ".self_s")):
            outcome.metrics[name] /= slow
    outcome.notes.append(gauge.note())
    plain_rate = outcome.completed / plain_s
    traced_rate = traced_events / traced_s
    outcome.metrics["trace.events_per_s_ratio"] = traced_rate / plain_rate
    outcome.notes.append(
        f"tracing overhead: traced events_per_s {traced_rate:.4g} vs untraced "
        f"{plain_rate:.4g} on the same chunks"
    )
    outcome.notes.append(f"{len(tracer.spans)} spans written to {spans_out}")
    for name, share in tracing.replay_shares(tracer.spans)[:8]:
        outcome.notes.append(f"self-time share of replay: {name} {share:.1%}")
    return outcome
