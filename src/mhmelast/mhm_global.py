"""Global skeleton problem of the two-level method: the saddle-point system
coupling the trace (traction) unknowns with the per-element rigid-body
modes, its solution, and the reconstruction of the element-wise fields.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm, local_solver
from .fem_core import MHMError

__all__ = [
    "SaddleSystem",
    "MHMSolution",
    "GlobalSolverError",
    "assemble_global_saddle",
    "solve_global",
    "postprocess_solution",
]


class GlobalSolverError(MHMError):
    pass


@dataclass
class SaddleSystem:
    """Sparse symmetric saddle-point system

        [A  B] [lambda]   [c]
        [B' 0] [rho   ] = [d]

    with A the trace/trace pairing and B the trace/rigid-mode pairing (both
    CSR: each element couples only its own trace dofs and its three rigid
    modes), and the right-hand side built from the load solutions and the
    boundary data.
    """
    A: sp.csr_matrix
    B: sp.csr_matrix
    rhs_lambda: np.ndarray
    rhs_rm: np.ndarray

    def full_matrix(self):
        """The saddle matrix in CSC form, ready for `splu`."""
        return sp.bmat([[self.A, self.B], [self.B.T, None]], format="csc")

    def full_rhs(self):
        return np.concatenate([self.rhs_lambda, self.rhs_rm])


def _dirichlet_data_vector(skeleton, u_dirichlet, exactness):
    """Pairing of the trace basis with the boundary displacement data on
    Dirichlet-face segments."""
    faces = skeleton.partition.faces
    sid = np.flatnonzero(faces.tag[skeleton.segments.face] == "dirichlet")
    pts, w, mu = skeleton.segment_quadrature(sid, exactness)
    ud = np.asarray(u_dirichlet(pts), dtype=float)
    out = np.zeros(skeleton.n_dofs)
    out[skeleton.segment_dofs(sid)] = np.einsum("sq,isqc,sqc->si", w, mu, ud)
    return out


def _csr(triplets, shape):
    """CSR matrix of COO (rows, cols, values) parts; duplicates sum."""
    rows, cols, vals = map(np.concatenate, zip(*triplets))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def assemble_global_saddle(caches, skeleton, u_dirichlet=None):
    """Condense the class basis records into the global system.

    The trace unknown is single-valued per skeleton segment; each element
    contributes through its orientation signs, and element K owns rigid-mode
    unknowns 3K to 3K + 2.  On Dirichlet faces the continuity equation is
    driven by the boundary displacement data.  The element blocks are
    gathered as COO triplets; duplicates sum when each block matrix is
    built.
    """
    n_lambda = skeleton.n_dofs
    n_rm = 3 * sum(len(c.element_ids) for c in caches)
    a, b = [], []                       # COO triplets of A and B
    c = np.zeros(n_lambda)
    d = np.zeros(n_rm)
    for cache in caches:
        idx, s = cache.trace_dofs, cache.dof_signs       # (m, ntr) each
        rm = 3 * cache.element_ids[:, None] + np.arange(3)
        a.append(asm.block_triplets(
            s[:, :, None] * cache.pairing * s[:, None, :], idx))
        b.append((np.repeat(idx, 3, axis=1).ravel(),
                  np.tile(rm, cache.n_trace).ravel(),
                  (s[:, :, None] * cache.rm_pairing).ravel()))
        np.add.at(c, idx.ravel(), -(s * cache.load_pairing).ravel())
        d[rm] = -cache.rm_load
    if u_dirichlet is not None:
        deg = max(cache.degree for cache in caches)
        c += _dirichlet_data_vector(skeleton, u_dirichlet,
                                    deg + skeleton.degree + 2)
    A = _csr(a, (n_lambda, n_lambda))
    B = _csr(b, (n_lambda, n_rm))
    asym = abs(A - A.T).max()
    scale = max(abs(A).max(), 1.0)
    if asym > 1e-10 * scale:
        raise GlobalSolverError(f"pairing block not symmetric (|A-A'|={asym})")
    return SaddleSystem(0.5 * (A + A.T), B, c, d)


def solve_global(system):
    """Solve the saddle-point system with one sparse LU factorization
    (SuperLU, default COLAMD ordering) and verify the residual."""
    M = system.full_matrix()
    # COLAMD with partial pivoting: a minimum-degree order of M + M^T raised
    # the LU fill from 0.79M to 3.0M nonzeros on n=4, level 3, k=1 and from
    # 0.65M to 8.3M on n=16, level 0 with variable G
    x = asm.checked_solve(
        lambda: splu(M), M, system.full_rhs(), GlobalSolverError, "global",
        "the local meshes may be too coarse for the trace space (see "
        "check_refinement_conditions)")
    n = system.A.shape[0]
    return x[:n], x[n:].reshape(-1, 3)


@dataclass
class ElementFields:
    """Fine-space coefficients of one coarse element: its class mesh + shift."""
    cache: object
    u: np.ndarray          # interleaved vector coefficients (2*nsd,)
    p: np.ndarray          # scalar coefficients (nsd,); None without pressure
    shift: np.ndarray      # (2,) element centroid - class mesh centroid


class MHMSolution:
    """Reconstructed two-level solution: trace coefficients, rigid-body
    coefficients per element, and the fine displacement/pressure fields,
    per element and, for evaluation, as member arrays (`member_chunks`)."""

    def __init__(self, skeleton, lam, rho, fields, caches):
        self.skeleton = skeleton
        self.lam = lam
        self.rho = rho
        self.fields = fields          # element_id -> ElementFields
        self.caches = caches          # the class records of the fields

    @property
    def has_pressure(self):
        return all(f.p is not None for f in self.fields.values())

    def member_chunks(self, tabulate):
        """The members' fields as arrays, mesh by mesh: `tab = tabulate(dofh)`
        once, whose `points` (nt, nq, 2) are a member's evaluation points,
        then (tab, loc2glob, element ids (m,), U (m, 2*nsd), P (m, nsd) or
        None, shifts (m, 2)) for 1 to SAMPLE_POINTS // (nt * nq) members."""
        meshes = {}
        for c in self.caches:
            meshes.setdefault(c.dofh, []).extend(c.element_ids.tolist())
        for dofh, eids in meshes.items():
            tab = tabulate(dofh)
            per = max(1, local_solver.SAMPLE_POINTS // tab.points[..., 0].size)
            for start in range(0, len(eids), per):
                ids = eids[start:start + per]
                fields = [self.fields[e] for e in ids]
                P = (None if fields[0].p is None
                     else np.stack([f.p for f in fields]))
                yield (tab, dofh.loc2glob, np.array(ids),
                       np.stack([f.u for f in fields]), P,
                       np.stack([f.shift for f in fields]))


def postprocess_solution(caches, skeleton, lam, rho):
    """Recombine the condensed basis: per element,
    u = sum_i sign_i lambda_i T(mu_i) + That(f) + rigid part, one matrix
    product per class.  The members' coordinates relative to their own
    centroids are the class mesh's, so they share one rigid-mode matrix."""
    fields = {}
    for cache in caches:
        coef = cache.dof_signs * lam[cache.trace_dofs]         # (m, ntr)
        rm_nodal = cache.rigid_modes.nodal_coefficients(cache.dofh.dof_coords)
        u = (coef @ cache.trace_u.T + cache.load_u
             + rho[cache.element_ids] @ rm_nodal.T)
        p = (coef @ cache.trace_p.T + cache.load_p
             if cache.trace_p is not None else None)
        for i, eid in enumerate(cache.element_ids.tolist()):
            fields[eid] = ElementFields(cache, u[i],
                                        None if p is None else p[i],
                                        cache.shifts[i])
    return MHMSolution(skeleton, lam, rho, dict(sorted(fields.items())),
                       caches)
