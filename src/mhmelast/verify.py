"""Verification harness: closed-form benchmark problems, error norms,
convergence orders, and the numerical diagnostics (compressibility residual,
saddle-point spectrum) that probe well-posedness and locking.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, null_space, svdvals

from . import _assembly as asm
from .fem_core import quad_rule, reference_element
from .local_solver import MaterialField
from .mhm_global import MHMSolution
from .singlelevel import SingleLevelSolution

__all__ = [
    "BrennerProblem",
    "LinearProblem",
    "ErrorRecord",
    "SpectralReport",
    "exact_brenner",
    "compute_errors",
    "convergence_orders",
    "compressibility_residual",
    "spectral_diagnostics",
]


class BrennerProblem:
    """Trigonometric benchmark for the nearly incompressible unit square
    (shear modulus G = 1, displacement clamped on the whole boundary).

    All fields are mutually consistent closed forms: the pressure equals
    -(2 G nu / (1 - 2 nu)) div u and the load equals -div sigma(u).
    """

    def __init__(self, nu, G=1.0):
        self.nu = float(nu)
        self.G = float(G)
        self.epsilon = (1 - 2 * self.nu) / (2 * self.G * self.nu)
        self.material = MaterialField(self.G, self.nu)

    def u(self, x):
        x = np.asarray(x, dtype=float)
        X, Y = x[..., 0], x[..., 1]
        c = (1 - 2 * self.nu) / 2
        bump = c * np.sin(np.pi * X) * np.sin(np.pi * Y)
        u1 = (np.cos(2 * np.pi * X) - 1) * np.sin(2 * np.pi * Y) + bump
        u2 = (1 - np.cos(2 * np.pi * Y)) * np.sin(2 * np.pi * X) + bump
        return np.stack([u1, u2], axis=-1)

    def grad_u(self, x):
        """Jacobian du_i/dx_j with shape (..., 2, 2)."""
        x = np.asarray(x, dtype=float)
        X, Y = x[..., 0], x[..., 1]
        p2 = 2 * np.pi
        c = (1 - 2 * self.nu) / 2
        bx = c * np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
        by = c * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
        sx, cx = np.sin(p2 * X), np.cos(p2 * X)
        sy, cy = np.sin(p2 * Y), np.cos(p2 * Y)
        g = np.empty(X.shape + (2, 2))
        g[..., 0, 0] = -p2 * sx * sy + bx
        g[..., 0, 1] = p2 * (cx - 1) * cy + by
        g[..., 1, 0] = p2 * cx * (1 - cy) + bx
        g[..., 1, 1] = p2 * sx * sy + by
        return g

    def div_u(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sin(np.pi * (x[..., 0] + x[..., 1]))
        return (1 - 2 * self.nu) / 2 * np.pi * s

    def p(self, x):
        return -self.div_u(x) / self.epsilon

    def grad_p(self, x):
        x = np.asarray(x, dtype=float)
        c = -(1 - 2 * self.nu) / (2 * self.epsilon) * np.pi**2
        g = c * np.cos(np.pi * (x[..., 0] + x[..., 1]))
        return np.stack([g, g], axis=-1)

    def sigma(self, x):
        g = self.grad_u(x)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        s = 2 * self.G * eps
        pr = self.p(x)
        s[..., 0, 0] -= pr
        s[..., 1, 1] -= pr
        return s

    def f(self, x):
        x = np.asarray(x, dtype=float)
        X, Y = x[..., 0], x[..., 1]
        p2 = 2 * np.pi
        com = ((1 - 2 * self.nu) * np.sin(np.pi * X) * np.sin(np.pi * Y)
               - 0.5 * np.cos(np.pi * (X + Y)))
        f1 = 4 * np.sin(p2 * Y) * (2 * np.cos(p2 * X) - 1) + com
        f2 = 4 * np.sin(p2 * X) * (1 - 2 * np.cos(p2 * Y)) + com
        return self.G * np.pi**2 * np.stack([f1, f2], axis=-1)


def exact_brenner(nu, point, G=1.0):
    """Closed-form benchmark fields (u, p, sigma, f) at one or more points
    of the unit square."""
    prob = BrennerProblem(nu, G=G)
    x = np.asarray(point, dtype=float)
    return prob.u(x), prob.p(x), prob.sigma(x), prob.f(x)


class LinearProblem:
    """Affine displacement field u = A x + b with constant material data;
    the stress is constant and the load vanishes (patch-test problem)."""

    def __init__(self, A, b, nu, G=1.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.nu = float(nu)
        self.G = float(G)
        self.epsilon = (1 - 2 * self.nu) / (2 * self.G * self.nu)
        self.material = MaterialField(self.G, self.nu)

    def u(self, x):
        return np.asarray(x, dtype=float) @ self.A.T + self.b

    def grad_u(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.A, x.shape[:-1] + (2, 2)).copy()

    def div_u(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], np.trace(self.A))

    def p(self, x):
        return -self.div_u(x) / self.epsilon

    def grad_p(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2,))

    def sigma(self, x):
        s = self.G * (self.A + self.A.T) + (np.trace(self.A) / self.epsilon
                                            ) * np.eye(2)
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(s, x.shape[:-1] + (2, 2)).copy()

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2,))


@dataclass
class ErrorRecord:
    """Norms of the difference to the exact fields."""
    l2_u: float
    h1_u: float            # broken H1 seminorm of the displacement error
    l2_sigma: float
    l2_p: float
    traction: float        # segment-wise L2 proxy of the traction error
    p_eps: float           # weighted (1 + eps) L2 norm of the pressure error
    p_h: float             # h-weighted broken H1 seminorm of pressure error


def _pressure_gradient(tab, l2g, ucoef, pcoef, eps):
    """Elementwise gradient (nt, nq, 2) of p_h or, with `pcoef` None, of the
    implied pressure -(1/eps) div u_h."""
    if pcoef is not None:
        return (pcoef[l2g][:, None, None] @ tab.grads)[..., 0, :]
    nt, nq, nb = tab.hess.shape[:3]
    un = ucoef[asm.vector_dofs(l2g)]                    # (nt, 2nb)
    return -(un[:, None, None] @ tab.hess.reshape(nt, nq, 2 * nb, 2)
             )[..., 0, :] / eps


def _error_squares(tab, l2g, ucoef, pcoef, problem, shift=0.0):
    """The six squared error norms over one mesh block: the tabulated mesh
    translated by `shift`."""
    eps = problem.epsilon
    uh, guh, ph = asm.field_values(tab.vals, tab.grads, l2g, ucoef, pcoef,
                                   eps)
    gph = _pressure_gradient(tab, l2g, ucoef, pcoef, eps)
    w = tab.wdet
    pts = tab.points + shift

    ue = problem.u(pts)
    gue = problem.grad_u(pts)
    pe = problem.p(pts)
    gpe = problem.grad_p(pts)
    se = problem.sigma(pts)

    eu = ue - uh
    egu = gue - guh
    eph = pe - ph
    egp = gpe - gph

    Gq = problem.material.G_at(pts)
    eps_h = 0.5 * (guh + np.swapaxes(guh, -1, -2))
    sh = 2 * Gq[..., None, None] * eps_h
    sh[..., 0, 0] -= ph
    sh[..., 1, 1] -= ph
    es = se - sh

    h2 = tab.geo.diameters**2
    return np.array([np.einsum("tq,tqc->", w, eu**2),
                     np.einsum("tq,tqcj->", w, egu**2),
                     np.einsum("tq,tqcj->", w, es**2),
                     np.einsum("tq,tq->", w, eph**2),
                     np.einsum("tq,tq->", w * (1 + eps), eph**2),
                     np.einsum("t,tq,tqj->", h2, w, egp**2)])


def _traction_error_sq(solution, problem):
    """Squared segment-wise L2 distance between the discrete traction and
    the exact normal stress (a proxy, not a dual-norm error)."""
    sk = solution.skeleton
    if not sk.segments:
        return 0.0
    deg = max(f.cache.degree for f in solution.fields.values())
    rule = quad_rule("segment", 2 * (deg + sk.degree) + 2)
    sid = np.arange(len(sk.segments))
    p0 = np.array([seg.p0 for seg in sk.segments])
    p1 = np.array([seg.p1 for seg in sk.segments])
    pts = p0[:, None] + rule.points[:, None] * (p1 - p0)[:, None]
    w = rule.weights * sk.segment_lengths[:, None]
    s = np.broadcast_to(rule.points, w.shape)
    mu = sk.basis_values(sid[:, None], s)               # (dps, nseg, nq, 2)
    lam_h = np.einsum("si,isqc->sqc", solution.lam[sk.segment_dofs(sid)], mu)
    normals = np.array([sk.partition.faces[seg.face_id].normal
                        for seg in sk.segments])
    tex = np.einsum("sqij,sj->sqi", problem.sigma(pts), normals)
    return np.einsum("sq,sqc->", w, (lam_h - tex) ** 2)


def compute_errors(solution, problem):
    """Error norms of a two-level or single-level solution against the
    closed-form fields, by elementwise quadrature."""
    sq = np.zeros(6)
    traction_sq = 0.0
    if isinstance(solution, MHMSolution):
        # one tabulation per local mesh, its members at their shifts
        for dofh, eids in solution.mesh_members():
            tab = asm.Tabulation(dofh.mesh, dofh.ref, 2 * dofh.ref.degree + 4)
            for eid in eids:
                f = solution.fields[eid]
                sq += _error_squares(tab, dofh.loc2glob, f.u, f.p, problem,
                                     f.shift)
        traction_sq = _traction_error_sq(solution, problem)
    elif isinstance(solution, SingleLevelSolution):
        k = solution.degree
        tab = asm.Tabulation(solution.mesh, reference_element(k), 2 * k + 4)
        sq += _error_squares(tab, solution.dofh.loc2glob, solution.u,
                             solution.p, problem)
    else:
        raise TypeError(f"unsupported solution type {type(solution)!r}")
    r = np.sqrt(sq)
    return ErrorRecord(l2_u=r[0], h1_u=r[1], l2_sigma=r[2], l2_p=r[3],
                       traction=float(np.sqrt(traction_sq)),
                       p_eps=r[4], p_h=r[5])


def convergence_orders(errors):
    """Observed orders log2(e_{i-1} / e_i) across halving refinements."""
    e = np.asarray(errors, dtype=float)
    if len(e) < 2:
        raise ValueError("need at least two refinement levels")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    return np.log2(e[:-1] / e[1:])


def compressibility_residual(solution, material):
    """Per-element residual of the integrated compressibility relation
    int_K (div u + eps * p) dx."""
    out = {}
    for dofh, eids in solution.mesh_members():
        tab = asm.Tabulation(dofh.mesh, dofh.ref, 2 * dofh.ref.degree + 2)
        for eid in eids:
            f = solution.fields[eid]
            epsq = material.eps_at(tab.points + f.shift)
            _, guh, ph = asm.field_values(tab.vals, tab.grads, dofh.loc2glob,
                                          f.u, f.p, epsq)
            div = guh[..., 0, 0] + guh[..., 1, 1]
            out[eid] = float(np.einsum("tq,tq->", tab.wdet, div + epsq * ph))
    return dict(sorted(out.items()))


@dataclass
class SpectralReport:
    lambda_min: float            # smallest eigenvalue of A on ker(B')
    lambda_min_deviatoric: float  # same, hydrostatic trace direction removed
    inf_sup: float               # smallest singular value of B
    norm_A: float
    ok: bool


def _hydrostatic_trace_vector(skeleton):
    """Coefficients of the trace field mu = n_F on every segment: the
    response to this traction is the volumetric compliance, which scales
    with the compressibility and is carried by the pressure variable."""
    vec = np.zeros(skeleton.n_dofs)
    ell1 = skeleton.degree + 1
    for seg in skeleton.segments:
        nF = skeleton.partition.faces[seg.face_id].normal
        dofs = skeleton.segment_dofs(seg.id)
        # the constant basis mode has value 1/sqrt(length) on the segment
        vec[dofs[0]] = nF[0] * np.sqrt(seg.length)
        vec[dofs[ell1]] = nF[1] * np.sqrt(seg.length)
    n = np.linalg.norm(vec)
    return vec / n if n > 0 else vec


def _projected_min_eig(A, Z):
    if Z.shape[1] == 0:
        return np.inf
    Az = Z.T @ A @ Z
    return float(eigh(0.5 * (Az + Az.T), eigvals_only=True)[0])


SPECTRAL_MAX_UNKNOWNS = 6000


def spectral_diagnostics(system, skeleton=None, threshold=1e-12):
    """Eigenprobe of the saddle-point blocks: positivity of the trace
    pairing on the kernel of the rigid-mode coupling, and the smallest
    singular value of that coupling.

    The raw smallest eigenvalue includes the hydrostatic traction
    direction, whose response is the volumetric compliance and therefore
    vanishes linearly as the material becomes incompressible; with a
    skeleton provided, the report also carries the smallest eigenvalue with
    that single direction projected out, which is the quantity that stays
    bounded away from zero for all Poisson ratios.

    The probe works on dense copies of A and B, so it refuses systems with
    more than SPECTRAL_MAX_UNKNOWNS = 6000 global unknowns (trace dofs plus
    rigid modes) with a ValueError instead of exhausting memory.
    """
    A, B = system.A, system.B
    if A.shape[0] == 0:
        return SpectralReport(0.0, 0.0, 0.0, 0.0, True)
    n = A.shape[0] + B.shape[1]
    if n > SPECTRAL_MAX_UNKNOWNS:
        raise ValueError(
            f"spectral_diagnostics densifies the saddle system: {n} global "
            f"unknowns exceed the limit of {SPECTRAL_MAX_UNKNOWNS}")
    A, B = A.toarray(), B.toarray()
    norm_A = float(np.linalg.norm(A, 2))
    Z = null_space(B.T)
    lam_min = _projected_min_eig(A, Z)
    lam_dev = lam_min
    if skeleton is not None and Z.shape[1] > 1:
        hydro = _hydrostatic_trace_vector(skeleton)
        W = Z - np.outer(hydro, hydro @ Z)
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        lam_dev = _projected_min_eig(A, U[:, s > 1e-10])
    sv = svdvals(B)
    inf_sup = float(sv[-1]) if B.shape[1] else 0.0
    ok = lam_min > threshold * norm_A
    return SpectralReport(lam_min, lam_dev, inf_sup, norm_A, ok)
