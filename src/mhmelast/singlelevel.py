"""Single-level reference discretizations on a triangulation of the whole
domain: the displacement-only method (which locks for low orders as the
material becomes incompressible) and its stabilized displacement-pressure
counterpart, both with strong Dirichlet conditions.  They share the local
operators' assembly path in `_assembly`: the same forms on another mesh.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from . import _assembly as asm
from .fem_core import K_MAX, MHMError, inverse_constant, reference_element
from .local_solver import _group_alphas

__all__ = [
    "SingleLevelSolution",
    "solve_galerkin_dirichlet",
    "solve_gals_dirichlet",
]


@dataclass
class SingleLevelSolution:
    """The coefficients of a single-level solve, numbered by `dofh`."""
    dofh: object             # its mesh and degree: dofh.mesh, dofh.ref.degree
    u: np.ndarray            # interleaved vector coefficients (2 * nsd,)
    p: np.ndarray = None     # scalar coefficients (nsd,); None if implied


def _dirichlet_values(dofh, bdofs, u_dirichlet):
    """The values of the constrained vector dofs of the boundary scalar
    dofs `bdofs`, interpolated from `u_dirichlet` (zero if None)."""
    if u_dirichlet is None:
        return np.zeros(2 * len(bdofs))
    return asm.sampled(u_dirichlet, dofh.dof_coords[bdofs],
                       "the Dirichlet data u_dirichlet").ravel()


def spsolve(K, b, order_s=0.0):
    """Solve a single-level system, its Dirichlet dofs pinned, with one
    SuperLU factorization in the order of its numbering that pivots on the
    diagonal, and verify the residual, with one debug record when the
    logger is enabled (`_assembly.logged_solve`).

    Both systems are symmetric: the displacement one is positive definite
    and the stabilized one quasi-definite for an admissible alpha, and so
    are they with identity rows and columns at the pinned dofs; every
    symmetric permutation of them factors without pivoting (Vanderbei,
    SIAM J. Optim. 5, 1995).  Row exchanges would only add fill, and
    `_solve_single` numbers the system in a nested-dissection order."""
    return asm.logged_solve(
        lambda: splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}),
        K, b, MHMError, "single-level",
        "check the mesh and the Dirichlet boundary; diagonal pivots need a "
        "definite, well-conditioned system", order_s)


def _solve_single(mesh, material, k, f, u_dirichlet, theta=None):
    """The displacement-only method or, with `theta`, the stabilized
    displacement-pressure method on one mesh, assembled as the local
    operators are, with the Dirichlet dofs pinned to their values.  The
    system is numbered node by node in the nested-dissection order of
    `_assembly.dissection_order`, each node's unknowns together as
    [u_x, u_y] or [u_x, u_y, p], and the boundary nodes where the order
    puts them, as their pressures are not pinned; its solution is returned
    in the numbering of the `DofHandler`."""
    if (isinstance(k, bool) or not isinstance(k, numbers.Integral)
            or not 1 <= k <= K_MAX):
        raise ValueError(f"k must be an integer in 1 .. K_MAX = {K_MAX}, "
                         f"got {k!r}")
    kind = "galerkin" if theta is None else "gals"
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq, epsq = material.samples(tab.points)
    bdofs = dofh.boundary_scalar_dofs()
    vals = _dirichlet_values(dofh, bdofs, u_dirichlet)
    start = time.perf_counter()
    node = asm.dissection_order(
        mesh.vertices[mesh.triangles].mean(axis=1), dofh.loc2glob,
        dofh.n_dofs)
    order_s = time.perf_counter() - start
    # the position (c, n_dofs) of unknown c of each node in the solved
    # system, and of each unknown of `unknown_map`: u interleaved, then p
    nu, per = 2 * dofh.n_dofs, 2 if theta is None else 3
    at = per * node + np.arange(per)[:, None]
    position = np.concatenate([at[:2].T.ravel(), at[2:].ravel()])
    # each triangle is a group of its own, with its own alpha
    alpha = (None if theta is None
             else _group_alphas(Gq, inverse_constant(k), theta))
    A_el, Dall = asm.element_matrices(tab, kind, Gq, epsq, alpha)
    F_el = asm.load_vector(tab, asm.sampled(f, tab.points, "the load f"),
                           Dall=Dall, alpha=alpha)
    l2g = position[asm.unknown_map(dofh, kind)]
    n = len(position)
    K = asm.scatter(A_el, l2g, n)
    rhs = asm.scatter_vector(F_el, l2g, n)
    del tab, A_el, Dall, F_el     # release them before the factorization
    fixed = position[asm.vector_dofs(bdofs)]
    rhs -= K[:, fixed] @ vals
    rhs[fixed] = vals
    K = asm.pinned(K, fixed)
    x = spsolve(K, rhs, order_s)[position]
    return SingleLevelSolution(dofh, x[:nu], None if theta is None else x[nu:])


def solve_galerkin_dirichlet(mesh, material, k, f, u_dirichlet=None):
    """Continuous P_k displacement method for the nearly incompressible
    problem, with the volumetric term (1/eps) (div u, div v)."""
    return _solve_single(mesh, material, k, f, u_dirichlet)


def solve_gals_dirichlet(mesh, material, k, f, u_dirichlet=None, theta=0.5):
    """Stabilized displacement-pressure method on a single mesh.  Each
    triangle carries its own stabilization parameter, a fraction
    0 < theta < 1 of its admissible bound; the pressure is an
    unconstrained P_k unknown."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    return _solve_single(mesh, material, k, f, u_dirichlet, theta)
