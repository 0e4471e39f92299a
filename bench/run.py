"""stablecover benchmark: replay one seeded workload and print its metrics.

    python3 bench/run.py --workload sas-dense --seed 0 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory, never from an installed copy. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_program() -> None:
    if not (SRC / "stablecover" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'stablecover'}")
    sys.path.insert(0, str(SRC))
    import stablecover

    if Path(stablecover.__file__).resolve().parent != SRC / "stablecover":
        sys.exit(f"error: stablecover imported from {stablecover.__file__}, not {SRC}")


def _units(kind: str) -> dict[str, str]:
    """Metric name to unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_program()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = _units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        spans = Path(__file__).resolve().parent / "out" / f"{workload.name}.spans.jsonl"
        outcome = measure.run_traced(workload, args.seed, args.seconds, spans)
    else:
        outcome = measure.run_untraced(workload, args.seed, args.seconds)

    failed = outcome.attempted - outcome.completed
    print(f"workload {workload.name} seed {args.seed}: {len(outcome.chunks)} chunks, "
          f"{outcome.attempted} events attempted, replay {outcome.replay_s:.2f} s")
    print(f"failed_share {failed / outcome.attempted:.6g} (events not completed / attempted)")
    for chunk in outcome.chunks:
        if chunk.failure is not None:
            name, at = chunk.failure
            print(f"failure: chunk {chunk.index} {name} at event {at}")
    for note in outcome.notes:
        print(note)
    for name, value in outcome.metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")

    problems = outcome.problems + [
        f"metric {name} not measured" for name in units if name not in outcome.metrics
    ]
    for problem in problems:
        print(f"check failed: {problem}")
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items() if name in outcome.metrics
    }
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
