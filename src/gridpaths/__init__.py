"""Grid-tiling gadget reduction to edge-disjoint paths on planar DAGs."""

from .digraph import (
    Digraph,
    EmbeddedDigraph,
    GridVertex,
    HConnector,
    NotConnectedError,
    Terminal,
    TreeNode,
    VConnector,
)
from .edp import PathSet, check_edp_solution, solve_edp_dag
from .errors import BudgetExceededError
from .gridtiling import (
    GTAssignment,
    GridTilingInstance,
    check_gt_solution,
    generate_planted,
    generate_random,
    solve_gt_brute_force,
    validate_instance,
)
from .mappers import (
    ExtractionFailedError,
    InvalidSolutionError,
    check_level_confinement,
    gt_solution_to_paths,
    paths_to_gt_solution,
)
from .reduction import (
    AlreadyReducedError,
    ReductionOutput,
    boundary,
    build_g1,
    level_set,
    predicted_counts,
    reduce,
    reduce_degree,
)

__all__ = [
    "AlreadyReducedError",
    "BudgetExceededError",
    "Digraph",
    "EmbeddedDigraph",
    "ExtractionFailedError",
    "GTAssignment",
    "GridTilingInstance",
    "GridVertex",
    "HConnector",
    "InvalidSolutionError",
    "NotConnectedError",
    "PathSet",
    "ReductionOutput",
    "Terminal",
    "TreeNode",
    "VConnector",
    "boundary",
    "build_g1",
    "check_edp_solution",
    "check_gt_solution",
    "check_level_confinement",
    "generate_planted",
    "generate_random",
    "gt_solution_to_paths",
    "level_set",
    "paths_to_gt_solution",
    "predicted_counts",
    "reduce",
    "reduce_degree",
    "solve_edp_dag",
    "solve_gt_brute_force",
    "validate_instance",
]
