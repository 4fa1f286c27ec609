"""Verification harness: closed-form benchmark problems, error norms,
convergence orders, and the numerical diagnostics (compressibility residual,
saddle-point spectrum) that probe well-posedness and locking.

A two-level solution is evaluated in one member-batched pass over the chunks
of `MHMSolution.member_chunks`, in the thread count of its solve
(`MHMSolution.map_chunks`), so the problem's fields must be thread-safe;
the chunk results are summed in chunk order, which makes the result the
same bitwise at every thread count.  The exact stress is formed from
`grad_u`, `p` and `G`; a problem's `sigma` serves only the skeleton
traction error.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, null_space, svdvals

from . import _assembly as asm
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
        return asm.stress(self.G, self.grad_u(x), self.p(x))

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
        return asm.stress(self.G, self.grad_u(x), self.p(x))

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


def _pressure_gradient(tab, l2g, U, P, eps):
    """Elementwise gradient (m, nt, nq, 2) of the members' p_h or, with `P`
    None, of the implied pressure -(1/eps) div u_h."""
    if P is not None:
        return (P[:, l2g][:, :, None, None] @ tab.grads)[..., 0, :]
    nt, nq, nb = tab.hess.shape[:3]
    un = U[:, asm.vector_dofs(l2g)]                     # (m, nt, 2nb)
    return -(un[:, :, None, None] @ tab.hess.reshape(nt, nq, 2 * nb, 2)
             )[..., 0, :] / eps


def _error_squares(tab, l2g, U, P, problem, shifts):
    """The six squared error norms of m translates of the tabulated mesh by
    `shifts` (m, 2), with coefficients `U` (m, 2nsd) and `P` (m, nsd)/None."""
    eps = problem.epsilon
    uh, guh, ph = asm.field_values(tab.vals, tab.grads, l2g, U, P, eps)
    gph = _pressure_gradient(tab, l2g, U, P, eps)
    w = tab.wdet
    pts = tab.points + shifts[:, None, None]

    gue = problem.grad_u(pts)
    pe = problem.p(pts)
    Gq = problem.material.G_at(pts)

    eu = problem.u(pts) - uh
    egu = gue - guh
    eph = pe - ph
    egp = problem.grad_p(pts) - gph
    es = asm.stress(Gq, gue, pe) - asm.stress(Gq, guh, ph)

    h2 = tab.geo.diameters**2
    return np.array([np.einsum("tq,mtqc->", w, eu**2),
                     np.einsum("tq,mtqcj->", w, egu**2),
                     np.einsum("tq,mtqcj->", w, es**2),
                     np.einsum("tq,mtq->", w, eph**2),
                     np.einsum("tq,mtq->", w * (1 + eps), eph**2),
                     np.einsum("t,tq,mtqj->", h2, w, egp**2)])


def _traction_error_sq(solution, problem):
    """Squared segment-wise L2 distance between the discrete traction and
    the exact normal stress (a proxy, not a dual-norm error)."""
    sk = solution.skeleton
    deg = max(c.degree for c in solution.caches)
    sid = np.arange(len(sk.segments))
    pts, w, mu = sk.segment_quadrature(sid, 2 * (deg + sk.degree) + 2)
    lam_h = np.einsum("si,isqc->sqc", solution.lam[sk.segment_dofs(sid)], mu)
    normals = sk.partition.faces.normal[sk.segments.face]
    tex = np.einsum("sqij,sj->sqi", problem.sigma(pts), normals)
    return np.einsum("sq,sqc->", w, (lam_h - tex) ** 2)


def _tabulation(extra):
    """Tabulation of a local mesh to degree 2k + extra."""
    return lambda d: asm.Tabulation(d.mesh, d.ref, 2 * d.ref.degree + extra)


def compute_errors(solution, problem):
    """Error norms of a two-level or single-level solution against the
    closed-form fields, by elementwise quadrature over the member chunks of
    one tabulation per local mesh, or over one unshifted member."""
    traction_sq = 0.0
    if isinstance(solution, MHMSolution):
        # summed in chunk order, so equal bitwise at any thread count
        sq = sum(solution.map_chunks(
            lambda tab, l2g, _, U, P, shifts:
            _error_squares(tab, l2g, U, P, problem, shifts),
            _tabulation(4)))
        traction_sq = _traction_error_sq(solution, problem)
    elif isinstance(solution, SingleLevelSolution):
        P = None if solution.p is None else solution.p[None]
        sq = _error_squares(_tabulation(4)(solution.dofh),
                            solution.dofh.loc2glob, solution.u[None], P,
                            problem, np.zeros((1, 2)))
    else:
        raise TypeError(f"unsupported solution type {type(solution)!r}")
    r = np.sqrt(sq)
    return ErrorRecord(l2_u=r[0], h1_u=r[1], l2_sigma=r[2], l2_p=r[3],
                       p_eps=r[4], p_h=r[5], traction=np.sqrt(traction_sq))


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
    int_K (div u + eps * p) dx, by element id."""
    def chunk(tab, l2g, eids, U, P, shifts):
        epsq = material.eps_at(tab.points + shifts[:, None, None])
        _, guh, ph = asm.field_values(tab.vals, tab.grads, l2g, U, P, epsq)
        div = guh[..., 0, 0] + guh[..., 1, 1]
        return eids, np.einsum("tq,mtq->m", tab.wdet, div + epsq * ph)

    ids, res = zip(*solution.map_chunks(chunk, _tabulation(2)))
    return dict(sorted(zip(np.concatenate(ids).tolist(),
                           np.concatenate(res).tolist())))


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
    seg = skeleton.segments
    dofs = skeleton.segment_dofs(np.arange(len(seg)))
    nF = skeleton.partition.faces.normal[seg.face]
    vec = np.zeros(skeleton.n_dofs)
    # the constant basis mode has value 1/sqrt(length) on the segment
    vec[dofs[:, 0]] = nF[:, 0] * np.sqrt(seg.length)
    vec[dofs[:, skeleton.degree + 1]] = nF[:, 1] * np.sqrt(seg.length)
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
