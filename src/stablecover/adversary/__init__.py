"""Adversarial instance generators, exact evaluators and pluggable maintainers.

Churn is measured by the harness's replay loops in
:mod:`stablecover.harness_cli`, which replay any of these maintainers.
"""

from .expander import (
    BipartiteExpander,
    ExtendedGraph,
    SeedExhaustionError,
    build_GmL,
    build_GmR,
    double_cover,
    random_expander,
    random_regular_edges,
    sampled_expansion_check,
)
from .lines import (
    RationalLine,
    RationalPoint,
    SparseLineRep,
    SparseLineRepError,
    evaluate_hitting,
    sparse_line_rep,
)
from .lower_bound import LowerBoundStream, chain_points, lower_bound_stream, trigger_options
from .streams import (
    ExactHittingMaintainer,
    ExactMaintainer,
    GreedyHittingMaintainer,
    HittingTable,
    LineInstance,
    ProbeError,
    adaptive_line_stream,
    build_line_instance,
    no_sas_check,
    solve_hitting,
)

__all__ = [
    "BipartiteExpander",
    "ExactHittingMaintainer",
    "ExactMaintainer",
    "ExtendedGraph",
    "GreedyHittingMaintainer",
    "HittingTable",
    "LineInstance",
    "LowerBoundStream",
    "ProbeError",
    "RationalLine",
    "RationalPoint",
    "SeedExhaustionError",
    "SparseLineRep",
    "SparseLineRepError",
    "adaptive_line_stream",
    "build_GmL",
    "build_GmR",
    "build_line_instance",
    "chain_points",
    "double_cover",
    "evaluate_hitting",
    "lower_bound_stream",
    "no_sas_check",
    "random_expander",
    "random_regular_edges",
    "sampled_expansion_check",
    "solve_hitting",
    "sparse_line_rep",
    "trigger_options",
]
