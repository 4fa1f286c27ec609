"""Single-level reference discretizations on a triangulation of the whole
domain: the displacement-only method (which locks for low orders as the
material becomes incompressible) and its stabilized displacement-pressure
counterpart, both with strong Dirichlet conditions.  They share the local
operators' assembly path in `_assembly`: the same forms on another mesh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm
from .fem_core import MHMError, inverse_constant, reference_element
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
    return np.asarray(u_dirichlet(dofh.dof_coords[bdofs]), dtype=float).ravel()


def spsolve(K, b):
    """Solve a single-level system, its Dirichlet dofs pinned, with one
    SuperLU factorization in a minimum-degree order of K + K^T that pivots
    on the diagonal, and verify the residual (`checked_solve`).

    Both systems are symmetric: the displacement one is positive definite
    and the stabilized one quasi-definite for an admissible alpha, and so
    are they with identity rows and columns at the pinned dofs; every
    symmetric permutation of them factors without pivoting (Vanderbei,
    SIAM J. Optim. 5, 1995).  Row exchanges would only add fill, and the
    symmetric order holds less fill than COLAMD's column order.  The
    minimum-degree order breaks its ties from the numbering of K, which
    `_solve_single` takes from `_node_order`."""
    return asm.checked_solve(
        lambda: splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0),
        K, b, MHMError, "single-level",
        "check the mesh and the Dirichlet boundary; diagonal pivots need a "
        "definite, well-conditioned system")


def _node_order(dofh, fixed):
    """The position of each scalar dof of `dofh` in the solved system: a
    reverse Cuthill-McKee order of the node graph of the free dofs, two
    dofs adjacent when a triangle holds both, then the `fixed` dofs, whose
    pinned rows and columns leave them out of the graph the factorization
    sees.  The minimum-degree order of the factorization breaks its ties
    from this bandwidth-reducing order with less fill than from the
    `DofHandler` numbering (George & Liu, 1981)."""
    # imported here: csgraph costs every import of the package time and
    # memory, and only the single-level solve uses it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    l2g, n = dofh.loc2glob, dofh.n_dofs
    nb = l2g.shape[1]
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    rows = np.repeat(l2g, nb, axis=1).ravel()
    cols = np.tile(l2g, (1, nb)).ravel()
    edge = free[rows] & free[cols]
    graph = sp.csr_matrix((np.ones(edge.sum()), (rows[edge], cols[edge])),
                          shape=(n, n))
    order = reverse_cuthill_mckee(graph, symmetric_mode=True)
    position = np.empty(n, dtype=np.intp)
    position[np.concatenate([order[free[order]], fixed])] = np.arange(n)
    return position


def _solve_single(mesh, material, k, f, u_dirichlet, theta=None):
    """The displacement-only method or, with `theta`, the stabilized
    displacement-pressure method on one mesh, assembled as the local
    operators are, with the Dirichlet dofs pinned to their values.  The
    system is numbered in the order of `_node_order`, each scalar dof's
    unknowns keeping their places in the [u (interleaved); p] layout, and
    its solution is returned in the numbering of the `DofHandler`."""
    kind = "galerkin" if theta is None else "gals"
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq, epsq = material.samples(tab.points)
    # each triangle is a group of its own, with its own alpha
    alpha = (None if theta is None
             else _group_alphas(Gq, inverse_constant(k), theta))
    A_el, Dall = asm.element_matrices(tab, kind, Gq, epsq, alpha)
    F_el = asm.load_vector(tab, np.asarray(f(tab.points), dtype=float),
                           Dall=Dall, alpha=alpha)
    bdofs = dofh.boundary_scalar_dofs()
    # the position of each unknown of `unknown_map` in the solved system
    node = _node_order(dofh, bdofs)
    nu = 2 * dofh.n_dofs
    position = asm.vector_dofs(node)
    if kind == "gals":
        position = np.concatenate([position, nu + node])
    l2g = position[asm.unknown_map(dofh, kind)]
    n = len(position)
    K = asm.scatter(A_el, l2g, n)
    rhs = asm.scatter_vector(F_el, l2g, n)
    del tab, A_el, Dall, F_el     # release them before the factorization
    fixed = position[asm.vector_dofs(bdofs)]
    vals = _dirichlet_values(dofh, bdofs, u_dirichlet)
    rhs -= K[:, fixed] @ vals
    rhs[fixed] = vals
    K = asm.pinned(K, fixed)
    x = spsolve(K, rhs)[position]
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
