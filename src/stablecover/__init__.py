"""Dynamic max coverage by unit disks with bounded per-update churn.

Library layout:

- :mod:`stablecover.geometry` -- planar primitives, shifted grids, cell covers
- :mod:`stablecover.static_solver` -- exact and greedy static coverage oracles
- :mod:`stablecover.sas_engine` -- the bounded-churn approximation engine
- :mod:`stablecover.baseline` -- the 2-stable 2-approximation
- :mod:`stablecover.adversary` -- lower-bound generators and churn measurement
- :mod:`stablecover.harness_cli` -- stream files, replay reports, CLI
"""

from .geometry import (
    Assignment,
    CellId,
    GridSelectionError,
    GridSpec,
    Point,
    UnitDisk,
    assign_points,
    cell_cover,
    cell_of,
    coverage_value,
    covers,
    is_boundary,
    select_grid,
)
from .static_solver import (
    Solution,
    SolverBudgetError,
    SolverInvariantError,
    SolverKind,
    candidate_disks,
    solve,
)
from .sas_engine import (
    Branch,
    EngineConfig,
    EngineInvariantError,
    EngineState,
    StreamError,
    Swap,
    UpdateReport,
    find_valid_swap,
    make_blocks,
    pad_opt,
    prefix_balanced_order,
    select_group,
    update,
)
from .baseline import update2

__all__ = [
    "Assignment",
    "Branch",
    "CellId",
    "EngineConfig",
    "EngineInvariantError",
    "EngineState",
    "GridSelectionError",
    "GridSpec",
    "Point",
    "Solution",
    "SolverBudgetError",
    "SolverInvariantError",
    "SolverKind",
    "StreamError",
    "Swap",
    "UnitDisk",
    "UpdateReport",
    "assign_points",
    "candidate_disks",
    "cell_cover",
    "cell_of",
    "coverage_value",
    "covers",
    "find_valid_swap",
    "is_boundary",
    "make_blocks",
    "pad_opt",
    "prefix_balanced_order",
    "select_grid",
    "select_group",
    "solve",
    "update",
    "update2",
]
