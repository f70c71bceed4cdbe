"""Graph representations with constant-time undo for branch-and-reduce
search, plus exact vertex cover, dominating set, and cluster editing
solvers and a benchmarking harness."""

from .addition import AdditionGraph
from .baseline import BaselineGraph
from .contraction import ContractionGraph
from .core import GraphBuildError, HybridGraph
from .instances import (
    InstanceFormatError,
    InstanceSpec,
    gen_cluster_editing,
    gen_random_gnm,
    read_instance,
)
from .solvers import (
    SolverResult,
    SolveTimeout,
    solve_ce_parm,
    solve_ds_opt,
    solve_vc_opt,
    solve_vc_parm,
    verify_ce,
    verify_ds,
    verify_vc,
)

__version__ = "0.1.0"

__all__ = [
    "AdditionGraph",
    "BaselineGraph",
    "ContractionGraph",
    "GraphBuildError",
    "HybridGraph",
    "InstanceFormatError",
    "InstanceSpec",
    "SolveTimeout",
    "SolverResult",
    "gen_cluster_editing",
    "gen_random_gnm",
    "read_instance",
    "solve_ce_parm",
    "solve_ds_opt",
    "solve_vc_opt",
    "solve_vc_parm",
    "verify_ce",
    "verify_ds",
    "verify_vc",
]
