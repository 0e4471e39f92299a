"""Golden digests of full ``run`` reports, branch column and trailer included.

A change that must keep reports byte-identical keeps these digests.  The
streams cover both SAS tolerances the tests use, the scaled pipeline up to
``GroupSwap``, the 2-stable baseline, the exact maintainer (random and
lower-bound streams) and both hitting maintainers.
"""

import functools
import hashlib

import pytest

from stablecover.harness_cli import (
    RunConfig,
    gen_lines,
    gen_lower_bound,
    gen_random,
    parse_stream,
    run,
)
from stablecover.static_solver import SolverKind

# The scaled constants of the benchmark's sas-greedy-sparse workload.
SCALED = dict(
    c_star=1, trivial_threshold=0, kappa=2, extend=1, block_min=1,
    block_max=2, balance_cells=2, balance_blocks=4, grid_shifts=2, grid_edge=4,
)

RANDOM = gen_random(80, 8.0, seed=11, delete_prob=0.25)

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
    "two-stable": (
        RunConfig(engine="two_stable", m=4), RANDOM,
        "b1af40328549d708b96a5fd0987097af84cc8ddf2003068f51795f3b6bd36e21",
    ),
    "exact-maintainer-random": (
        RunConfig(engine="exact_maintainer", m=3),
        gen_random(40, 8.0, seed=5, delete_prob=0.2),
        "154693436816974010544eeff95626ccebf1d5c1754a6faf2e120c24885a74ef",
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
}


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
