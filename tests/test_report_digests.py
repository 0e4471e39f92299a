"""Golden digests of full ``run`` reports, branch column and trailer included.

A change that must keep reports byte-identical keeps these digests.  The
streams cover both SAS tolerances the tests use, the scaled pipeline up to
``GroupSwap``, the 2-stable baseline, the exact maintainer (random and
lower-bound streams) and the hitting maintainers on line streams (greedy at
m 6, 9 and 12, exact at m 6 and 9).  The generated line text at m 9 and 12
has digests of its own.
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
}

# The generated line streams themselves: their text pins the drawing,
# that is sparse_line_rep's retries through verify_sparse and the census.
GEN_LINES = {
    9: "b0e50240ae2dea632d5ce251df1c815cd5ff50f8f2bb41ff5ab3b82a9989a22c",
    12: "5cb50f29ef0dcbd5d639bbf4a649f684116db6f8d3860603783c1398776e3379",
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


@pytest.mark.parametrize("m", sorted(GEN_LINES))
def test_gen_lines_digest_unchanged(m):
    text = "\n".join(gen_lines(m, seed=1)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_LINES[m]
