"""End-to-end driver for the two-level solver: configuration, mesh setup,
local solves, global solve, and reconstruction.
"""

import math
import numbers
from dataclasses import dataclass

from .fem_core import K_MAX, MHMError
from .local_solver import MaterialField, build_class_caches, congruence_classes
from .mesh import (build_matching_local_mesh, build_structured_triangulation,
                   check_refinement_conditions, refine_skeleton)
from .mhm_global import (assemble_global_saddle, postprocess_solution,
                         solve_global)

__all__ = ["MHMConfig", "RunData", "default_depth", "solve_mhm"]

def default_depth(k, level, ell=1):
    """Local refinement depth giving fine edges of length 2^(k-3) times the
    skeleton segment length, and never coarser than the segments.  For
    k = ell (case 2 of `check_refinement_conditions`) it is raised to the
    smallest depth whose segments hold the 4 - min(k, 3) interior fine
    nodes that case 2 needs, 2^(depth - level) - 1 per segment."""
    depth = max(0, level + 3 - k)
    if k == ell:
        depth = max(depth, level + (4 - min(k, 3)).bit_length())
    return depth


@dataclass
class MHMConfig:
    """Parameters of one two-level solve on the unit square."""
    n: int = 4                   # structured coarse grid parameter (2n^2 cells)
    level: int = 0               # skeleton refinement: 2^level segments/face
    k: int = 1                   # local polynomial degree
    ell: int = 1                 # trace polynomial degree
    nu: float = 0.3
    G: float = 1.0
    theta: float = 0.5           # stabilization safety fraction
    kind: str = "gals"           # local solver: "gals" | "galerkin"
    depth: int = None            # local refinement depth; None = automatic
    threads: int = 1             # threads of the error evaluation
    override_wellposedness: bool = False
    boundary_tag: object = None

    def __post_init__(self):
        for name, low, optional in (("n", 1, False), ("level", 0, False),
                                    ("k", 1, False), ("ell", 1, False),
                                    ("threads", 1, False), ("depth", 0, True)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}"
                                 f"{' or None' if optional else ''}, got "
                                 f"{value!r}")
        if self.k > K_MAX:
            raise ValueError(f"k must be at most K_MAX = {K_MAX}, the highest "
                             f"degree whose local solves pass their residual "
                             f"check, got {self.k!r}")
        for name, what, high in (("theta", "theta", 1),
                                 ("G", "shear modulus G", math.inf),
                                 ("nu", "Poisson ratio nu", 0.5)):
            value, field = getattr(self, name), name != "theta"
            if not (field and callable(value)
                    or isinstance(value, numbers.Real)
                    and not isinstance(value, bool) and 0 < value < high):
                raise ValueError(f"{what} must be a number in (0, {high:g})"
                                 f"{' or a callable' if field else ''}, got "
                                 f"{value!r}")
        if self.boundary_tag is not None and not callable(self.boundary_tag):
            raise ValueError(f"boundary_tag must be a callable or None, got "
                             f"{self.boundary_tag!r}")
        if self.kind not in ("gals", "galerkin"):
            raise ValueError(f"unknown solver kind {self.kind!r}")


@dataclass
class RunData:
    """Everything produced by one run besides the solution itself."""
    partition: object
    skeleton: object
    local_meshes: list           # one per geometric congruence class
    caches: list                 # the basis records, one per local stack
    system: object
    refinement: object
    config: MHMConfig


def solve_mhm(config, problem, g=None):
    """Run the full two-level pipeline for a benchmark problem providing
    `f` (load) and `u` (Dirichlet data) callables."""
    part = build_structured_triangulation(config.n,
                                         boundary_tag=config.boundary_tag)
    skeleton = refine_skeleton(part, config.level, config.ell)
    depth = config.depth if config.depth is not None else \
        default_depth(config.k, config.level, config.ell)
    material = MaterialField(config.G, config.nu)
    classes = congruence_classes(part, skeleton, depth)
    local_meshes = [build_matching_local_mesh(part, members[0], skeleton,
                                              depth) for members in classes]

    report = check_refinement_conditions(config.k, config.ell, local_meshes,
                                         skeleton, members=classes)
    if not report.ok and not config.override_wellposedness:
        bad = {e: r for e, (s, r) in report.element_status.items() if not s}
        raise MHMError(
            "local meshes fail the refinement conditions for well-posedness "
            f"(set override_wellposedness to force): {bad}")

    caches = []
    for local_mesh, members in zip(local_meshes, classes):
        caches += build_class_caches(part, local_mesh, members, skeleton,
                                     material, config.k, kind=config.kind,
                                     theta=config.theta, f=problem.f, g=g)

    system = assemble_global_saddle(caches, skeleton, u_dirichlet=problem.u)
    lam, rho = solve_global(system)
    solution = postprocess_solution(caches, skeleton, lam, rho,
                                    config.threads)
    data = RunData(part, skeleton, local_meshes, caches, system, report, config)
    return solution, data
