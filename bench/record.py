"""Record the report digests that runs at the default seed are checked against.

    python3 bench/record.py [workload ...]

Replays the first ``CHUNKS[workload]`` chunks of seed ``DEFAULT_SEED`` and
writes their digests to ``bench/expected.json``. Rerun it only when a change
is meant to alter the reports, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
# More chunks than one run replays on a 2-CPU desk machine.
CHUNKS = {"sas-dense": 1500, "exact-dense": 1500, "sas-greedy-sparse": 24, "lines-greedy": 40}


def main(names: list[str]) -> int:
    recorded = json.loads(measure.EXPECTED.read_text())
    if recorded["seed"] != DEFAULT_SEED:
        recorded = {"seed": DEFAULT_SEED, "digests": {}}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        digests = []
        for k in range(CHUNKS[name]):
            chunk = measure.set_up(workload, DEFAULT_SEED, k, repeats=1)
            measure.replay(workload, chunk, None)
            if chunk.report is None:
                print(f"{name} chunk {k}: {chunk.failure}", file=sys.stderr)
                return 1
            digests.append(measure.digest(chunk.report))
        recorded["digests"][name] = digests
        print(f"{name}: {len(digests)} chunks")
    measure.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
