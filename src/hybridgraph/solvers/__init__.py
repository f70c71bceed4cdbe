from .cluster_editing import solve_ce_parm
from .common import SolveTimeout, SolverResult, build_representation
from .dominating_set import solve_ds_opt
from .verify import verify_ce, verify_ds, verify_vc
from .vertex_cover import solve_vc_opt, solve_vc_parm

__all__ = [
    "SolveTimeout",
    "SolverResult",
    "build_representation",
    "solve_ce_parm",
    "solve_ds_opt",
    "solve_vc_opt",
    "solve_vc_parm",
    "verify_ce",
    "verify_ds",
    "verify_vc",
]
