"""Single-level reference discretizations on a triangulation of the whole
domain: the displacement-only method (which locks for low orders as the
material becomes incompressible) and its stabilized displacement-pressure
counterpart, both with strong Dirichlet conditions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve

from . import _assembly as asm
from .fem_core import inverse_constant, reference_element

__all__ = [
    "SingleLevelSolution",
    "solve_galerkin_dirichlet",
    "solve_gals_dirichlet",
]


@dataclass
class SingleLevelSolution:
    mesh: object
    dofh: object
    material: object
    degree: int
    u: np.ndarray            # interleaved vector coefficients (2 * nsd,)
    p: np.ndarray = None     # scalar coefficients (nsd,); None if implied
    kind: str = "galerkin"


def _dirichlet_values(dofh, u_dirichlet):
    """Constrained vector dofs and their interpolated values."""
    bdofs = dofh.boundary_scalar_dofs()
    vdofs = asm.vector_dofs(bdofs)
    if u_dirichlet is None:
        return vdofs, np.zeros(vdofs.size)
    ud = np.asarray(u_dirichlet(dofh.dof_coords[bdofs]), dtype=float)
    return vdofs, ud.ravel()


def _solve_constrained(K, F, fixed, fixed_vals):
    """Eliminate prescribed dofs from K x = F and solve the reduced system."""
    n = K.shape[0]
    free = np.setdiff1d(np.arange(n), fixed)
    x = np.zeros(n)
    x[fixed] = fixed_vals
    K = K.tocsr()
    rhs = F[free] - K[np.ix_(free, fixed)] @ fixed_vals
    x[free] = spsolve(K[np.ix_(free, free)].tocsc(), rhs)
    return x


def solve_galerkin_dirichlet(mesh, material, k, f, u_dirichlet=None):
    """Continuous P_k displacement method for the nearly incompressible
    problem, with the volumetric term (1/eps) (div u, div v)."""
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq = material.G_at(tab.points)
    epsq = material.eps_at(tab.points)
    nu = 2 * dofh.n_dofs

    A_el = asm.galerkin_element_matrices(tab, Gq, epsq)
    l2g = dofh.vector_loc2glob()
    K = asm.scatter(A_el, l2g, (nu, nu))
    fq = np.asarray(f(tab.points), dtype=float)
    F = asm.scatter_vector(asm.load_vector(tab, fq), l2g, nu)

    fixed, vals = _dirichlet_values(dofh, u_dirichlet)
    u = _solve_constrained(K, F, fixed, vals)
    return SingleLevelSolution(mesh, dofh, material, k, u, kind="galerkin")


def solve_gals_dirichlet(mesh, material, k, f, u_dirichlet=None, theta=0.5):
    """Stabilized displacement-pressure method on a single mesh.  Each
    triangle carries its own stabilization parameter; the pressure is an
    unconstrained P_k unknown."""
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq = material.G_at(tab.points)
    epsq = material.eps_at(tab.points)
    ci = inverse_constant(k)

    # per-triangle parameter: theta * G_min * C_I / (2 * G_max^2)
    alpha = (theta * Gq.min(axis=1) * ci.safe_value
             / (2.0 * np.abs(Gq).max(axis=1) ** 2))

    nsd = dofh.n_dofs
    nu = 2 * nsd
    ntot = nu + nsd
    A_el, Dall = asm.gals_element_matrices(tab, Gq, epsq, alpha)
    l2g = np.concatenate([dofh.vector_loc2glob(), nu + dofh.loc2glob], axis=1)
    K = asm.scatter(A_el, l2g, (ntot, ntot))
    fq = np.asarray(f(tab.points), dtype=float)
    F = asm.scatter_vector(asm.load_vector(tab, fq, Dall=Dall, alpha=alpha),
                           l2g, ntot)

    fixed, vals = _dirichlet_values(dofh, u_dirichlet)
    x = _solve_constrained(K, F, fixed, vals)
    return SingleLevelSolution(mesh, dofh, material, k, x[:nu], p=x[nu:],
                               kind="gals")
