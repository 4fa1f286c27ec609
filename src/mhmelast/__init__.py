"""Two-level multiscale solver for 2D linear elasticity with nearly
incompressible materials, with stabilized locking-free local solvers and a
verification harness."""

from .fem_core import (K_MAX, InverseConstant, MHMError, QuadratureRule,
                       ReferenceElement, estimate_inverse_constant,
                       inverse_constant, quad_rule, reference_element)
from .local_solver import (LocalBasisCache, LocalOperator, MaterialField,
                           RigidModes, assemble_local_galerkin,
                           assemble_local_gals, build_class_caches,
                           build_local_cache, compute_alpha,
                           congruence_classes, element_load, project_rm,
                           solve_local_basis)
from .mesh import (GlobalPartition, LocalMesh, SkeletonMesh, TriMesh,
                   build_matching_local_mesh, build_structured_triangulation,
                   check_refinement_conditions, read_partition,
                   refine_skeleton, unit_square_mesh, write_partition)
from .mhm_global import (MHMSolution, SaddleSystem, assemble_global_saddle,
                         postprocess_solution, solve_global)
from .pipeline import MHMConfig, default_depth, solve_mhm
from .singlelevel import (SingleLevelSolution, solve_galerkin_dirichlet,
                          solve_gals_dirichlet)
from .verify import (BrennerProblem, ErrorRecord, LinearProblem,
                     compressibility_residual, compute_errors,
                     convergence_orders, spectral_diagnostics)

__version__ = "0.1.0"

__all__ = [
    "BrennerProblem", "ErrorRecord", "GlobalPartition", "InverseConstant",
    "K_MAX", "LinearProblem", "LocalBasisCache", "LocalMesh", "LocalOperator",
    "MHMConfig", "MHMError",
    "MHMSolution", "MaterialField", "QuadratureRule", "ReferenceElement",
    "RigidModes", "SaddleSystem", "SingleLevelSolution", "SkeletonMesh",
    "TriMesh", "assemble_global_saddle", "assemble_local_galerkin",
    "assemble_local_gals", "build_class_caches", "build_local_cache",
    "build_matching_local_mesh", "build_structured_triangulation",
    "check_refinement_conditions", "compressibility_residual",
    "compute_alpha", "compute_errors", "congruence_classes",
    "convergence_orders", "default_depth", "element_load",
    "estimate_inverse_constant", "inverse_constant", "postprocess_solution",
    "project_rm", "quad_rule", "read_partition", "reference_element",
    "refine_skeleton", "solve_galerkin_dirichlet", "solve_gals_dirichlet",
    "solve_global", "solve_local_basis", "solve_mhm", "spectral_diagnostics",
    "unit_square_mesh", "write_partition",
]
