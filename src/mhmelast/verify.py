"""Verification harness: closed-form benchmark problems, error norms,
convergence orders, and the numerical diagnostics (compressibility residual,
saddle-point spectrum) that probe well-posedness and locking.

A two-level solution is evaluated in one member-batched pass over slices of
its stored member arrays (`member_chunks`), each through
`_assembly.field_values` (the reference tables in one matrix product, then
each triangle's affine map and the member's), in the thread count of its
solve (`MHMSolution.map_chunks`), so the problem's fields must be
thread-safe; the chunk results are summed in chunk order, which makes the
result the same bitwise at every thread count.  The exact fields of a chunk
come from one `problem.fields` call (u, grad u, p and grad p together; a
problem without it is asked for each), and the discrete ones are subtracted
in place.  The stress error is the stress of the errors of grad u and p, with
`G`; a problem's `sigma` serves only the skeleton traction error.
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
    "compute_errors",
    "convergence_orders",
    "compressibility_residual",
    "spectral_diagnostics",
]


def _constant_material(G, nu):
    """The material, G, nu and compressibility coefficient epsilon of a
    closed-form problem of constant moduli `G` and `nu`: a modulus that is
    not a real number in its range is rejected with a ValueError that
    names it (`MaterialField`)."""
    material = MaterialField(G, nu)
    for what, value in (("shear modulus G", G), ("Poisson ratio nu", nu)):
        if callable(value):
            raise ValueError(f"{what} of a closed-form problem must be a "
                             f"number, got {value!r}")
    return (material, float(G), float(nu),
            float(material.eps_at(np.zeros(2))))


def _finite_array(value, shape, name):
    """`value` as a float array, which must be finite and of `shape`."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be a finite array of shape {shape}, "
                         f"got {value!r}")
    return a


class BrennerProblem:
    """Trigonometric benchmark for the nearly incompressible unit square
    (shear modulus G = 1, displacement clamped on the whole boundary).

    All fields are mutually consistent closed forms: the pressure equals
    -(2 G nu / (1 - 2 nu)) div u and the load equals -div sigma(u).  Each
    closed form is written once, as a function of sin and cos of pi x and
    pi y (`_half_angles`): the 2 pi terms follow from the double angles and
    the pi (x + y) terms of div u, p and grad p from the angle sums.  Every
    public field takes one `_half_angles` call, four transcendental calls
    per point, and `fields` gives u, grad u, p and grad p from one.
    """

    def __init__(self, nu, G=1.0):
        self.material, self.G, self.nu, self.epsilon = _constant_material(
            G, nu)

    def _half_angles(self, x):
        """sin and cos of pi x and pi y, the only transcendental calls of
        the fields: sin 2a = 2 sin a cos a, cos 2a = 1 - 2 sin^2 a,
        sin pi (x + y) = sx cy + cx sy and cos pi (x + y) = cx cy - sx sy
        give the rest."""
        x = np.asarray(x, dtype=float)
        X, Y = np.pi * x[..., 0], np.pi * x[..., 1]
        return np.sin(X), np.cos(X), np.sin(Y), np.cos(Y)

    def _u(self, h):
        sx, cx, sy, cy = h
        bump = (1 - 2 * self.nu) / 2 * sx * sy
        # u1 = (cos 2 pi x - 1) sin 2 pi y, u2 = (1 - cos 2 pi y) sin 2 pi x
        u1 = -4 * sx * sx * sy * cy + bump
        u2 = 4 * sy * sy * sx * cx + bump
        return np.stack([u1, u2], axis=-1)

    def _grad_u(self, h):
        sx, cx, sy, cy = h
        p2 = 2 * np.pi
        c = (1 - 2 * self.nu) / 2 * np.pi
        bx = c * cx * sy
        by = c * sx * cy
        s2x, s2y = 2 * sx * cx, 2 * sy * cy
        c2x, c2y = 1 - 2 * sx * sx, 1 - 2 * sy * sy
        g = np.empty(sx.shape + (2, 2))
        g[..., 0, 0] = -p2 * s2x * s2y + bx
        g[..., 0, 1] = -2 * p2 * sx * sx * c2y + by
        g[..., 1, 0] = 2 * p2 * c2x * sy * sy + bx
        g[..., 1, 1] = p2 * s2x * s2y + by
        return g

    def _div_u(self, h):
        sx, cx, sy, cy = h
        return (1 - 2 * self.nu) / 2 * np.pi * (sx * cy + cx * sy)

    def _p(self, h):
        return -self._div_u(h) / self.epsilon

    def _grad_p(self, h):
        sx, cx, sy, cy = h
        c = -(1 - 2 * self.nu) / (2 * self.epsilon) * np.pi**2
        g = c * (cx * cy - sx * sy)
        return np.stack([g, g], axis=-1)

    def u(self, x):
        return self._u(self._half_angles(x))

    def grad_u(self, x):
        """Jacobian du_i/dx_j with shape (..., 2, 2)."""
        return self._grad_u(self._half_angles(x))

    def div_u(self, x):
        return self._div_u(self._half_angles(x))

    def p(self, x):
        return self._p(self._half_angles(x))

    def grad_p(self, x):
        return self._grad_p(self._half_angles(x))

    def fields(self, x):
        """(u, grad u, p, grad p) at `x`, new arrays, from one
        `_half_angles` call."""
        h = self._half_angles(x)
        return self._u(h), self._grad_u(h), self._p(h), self._grad_p(h)

    def sigma(self, x):
        h = self._half_angles(x)
        return asm.stress(self.G, self._grad_u(h), self._p(h))

    def f(self, x):
        sx, cx, sy, cy = self._half_angles(x)
        # cos pi (x + y) = cos pi x cos pi y - sin pi x sin pi y
        com = ((1.5 - 2 * self.nu) * sx * sy - 0.5 * cx * cy)
        f1 = 8 * sy * cy * (1 - 4 * sx * sx) + com
        f2 = 8 * sx * cx * (4 * sy * sy - 1) + com
        return self.G * np.pi**2 * np.stack([f1, f2], axis=-1)


class LinearProblem:
    """Affine displacement field u = A x + b with constant material data;
    the stress is constant and the load vanishes (patch-test problem)."""

    def __init__(self, A, b, nu, G=1.0):
        self.A = _finite_array(A, (2, 2), "A")
        self.b = _finite_array(b, (2,), "b")
        self.material, self.G, self.nu, self.epsilon = _constant_material(
            G, nu)

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

    def fields(self, x):
        """(u, grad u, p, grad p) at `x`, new arrays."""
        return self.u(x), self.grad_u(x), self.p(x), self.grad_p(x)

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


def _sum_sq(w, e):
    """sum_(m, t, q, ...) w[t, q] e[m, t, q, ...]^2, without a squared
    temporary."""
    e = e.reshape(e.shape[:3] + (-1,))
    return np.einsum("tq,mtqi,mtqi->", w, e, e)


def _exact_errors(problem, pts, discrete):
    """The exact (u, grad u, p, grad p) at `pts` minus the `discrete` ones:
    from one `problem.fields(pts)` call, whose new arrays take the
    differences in place, or from the four methods of a problem without
    `fields`."""
    fields = getattr(problem, "fields", None)
    if fields is None:
        return [exact(pts) - d for exact, d in zip(
            (problem.u, problem.grad_u, problem.p, problem.grad_p), discrete)]
    errors = fields(pts)
    for e, d in zip(errors, discrete):
        e -= d
    return errors


def _error_squares(tab, l2g, U, P, problem, maps):
    """The squared L2 norms of the errors of u, grad u, the stress and p,
    and the h-weighted one of grad p, of the m images of the tabulated mesh
    under `maps` (m, 2, 3), with coefficients `U` (m, 2nsd) and `P`
    (m, nsd) or None.  The stress is linear, so its error is the stress of
    the errors."""
    discrete = asm.field_values(tab, l2g, U, P, problem.epsilon,
                                asm.map_signs(maps), grad_p=True)
    pts = asm.map_points(maps, tab.points)
    eu, egu, ep, egp = _exact_errors(problem, pts, discrete)
    w = tab.wdet
    return np.array([
        _sum_sq(w, eu),
        _sum_sq(w, egu),
        _sum_sq(w, asm.stress(problem.material.G_at(pts), egu, ep)),
        _sum_sq(w, ep),
        _sum_sq(tab.geo.diameters[:, None]**2 * w, egp)])


def _traction_error_sq(solution, problem):
    """Squared segment-wise L2 distance between the discrete traction and
    the exact normal stress (a proxy, not a dual-norm error)."""
    sk = solution.skeleton
    deg = max(c.dofh.ref.degree for c in solution.caches)
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
    one tabulation per local mesh, or over one unmapped member.  Each chunk
    is evaluated once by `_assembly.field_values` (the discrete fields and
    the pressure gradient) and once by `problem.fields`, or by `u`,
    `grad_u`, `p` and `grad_p` for a problem without it.  The scalar
    `problem.epsilon` makes p_eps = sqrt(1 + eps) l2_p."""
    traction_sq = 0.0
    if isinstance(solution, MHMSolution):
        # summed in chunk order, so equal bitwise at any thread count
        sq = sum(solution.map_chunks(
            lambda tab, l2g, _, U, P, maps:
            _error_squares(tab, l2g, U, P, problem, maps),
            _tabulation(4)))
        traction_sq = _traction_error_sq(solution, problem)
    elif isinstance(solution, SingleLevelSolution):
        P = None if solution.p is None else solution.p[None]
        sq = _error_squares(_tabulation(4)(solution.dofh),
                            solution.dofh.loc2glob, solution.u[None], P,
                            problem, np.eye(2, 3)[None])
    else:
        raise TypeError(f"unsupported solution type {type(solution)!r}")
    r = np.sqrt(sq)
    return ErrorRecord(l2_u=r[0], h1_u=r[1], l2_sigma=r[2], l2_p=r[3],
                       p_eps=np.sqrt(1 + problem.epsilon) * r[3], p_h=r[4],
                       traction=np.sqrt(traction_sq))


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
    int_K (div u + eps * p) dx, by element id, of an MHMSolution."""
    if not isinstance(solution, MHMSolution):
        raise TypeError(f"unsupported solution type {type(solution)!r}: "
                        "compressibility_residual takes an MHMSolution")

    def chunk(tab, l2g, eids, U, P, maps):
        epsq = material.eps_at(asm.map_points(maps, tab.points))
        _, guh, ph, _ = asm.field_values(tab, l2g, U, P, epsq,
                                         asm.map_signs(maps))
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
    if system.n_lambda == 0:
        return SpectralReport(0.0, 0.0, 0.0, 0.0, True)
    n = len(system.order)
    if n > SPECTRAL_MAX_UNKNOWNS:
        raise ValueError(
            f"spectral_diagnostics densifies the saddle system: {n} global "
            f"unknowns exceed the limit of {SPECTRAL_MAX_UNKNOWNS}")
    M, n = system.full_matrix(), system.n_lambda
    A, B = M[:n, :n].toarray(), M[:n, n:].toarray()
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
