"""Local Neumann solvers producing the multiscale basis on each coarse
element: the stabilized displacement-pressure operators, the plain Galerkin
variant, the rigid-body projection, and the stabilization parameter.

The basis is built per congruence class of coarse elements.  With constant
material data, translated elements with the same boundary segment layout
share one local operator: it is assembled, factored and solved for the
trace right-hand sides once, and each member element adds only its own load
column to that solve.  With a variable material every element is a class of
one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm
from ._assembly import RigidModes
from .fem_core import (MHMError, inverse_constant, quad_rule,
                       reference_element)

__all__ = [
    "MaterialField",
    "RigidModes",
    "LocalBasisCache",
    "LocalOperator",
    "compute_alpha",
    "project_rm",
    "assemble_local_gals",
    "assemble_local_galerkin",
    "element_load",
    "solve_local_basis",
    "congruence_classes",
    "build_class_caches",
    "build_local_cache",
]

# Coarse vertices relative to the centroid are compared on a grid of this
# size relative to the element diameter: coordinates such as k/n are not
# exact in binary, so translated copies agree only to round-off.
CONGRUENCE_RTOL = 1e-10


class LocalSolverError(MHMError):
    pass


class MaterialField:
    """Isotropic material data: shear modulus G and Poisson ratio nu, given
    as constants or callables of point arrays (..., 2).

    G is treated as piecewise constant on the fine mesh (its gradient does
    not enter the least-squares terms), so the broken W^{1,inf} norm reduces
    to the max of |G| over quadrature points.
    """

    def __init__(self, G, nu):
        self._G = G
        self._nu = nu

    @property
    def is_uniform(self):
        """True when G and nu are constants, so translated elements have the
        same local operator."""
        return not callable(self._G) and not callable(self._nu)

    def _eval(self, f, x):
        x = np.asarray(x, dtype=float)
        if callable(f):
            return np.asarray(f(x), dtype=float)
        return np.full(x.shape[:-1], float(f))

    def G_at(self, x):
        g = self._eval(self._G, x)
        if np.any(g <= 0):
            raise ValueError("shear modulus must be positive")
        return g

    def nu_at(self, x):
        nu = self._eval(self._nu, x)
        if np.any(nu <= 0) or np.any(nu >= 0.5):
            raise ValueError("Poisson ratio must lie in (0, 1/2)")
        return nu

    def eps_at(self, x):
        """Compressibility coefficient (1 - 2 nu) / (2 G nu)."""
        g = self.G_at(x)
        nu = self.nu_at(x)
        return (1 - 2 * nu) / (2 * g * nu)

    def stats(self, points):
        """(ess-inf of G, W^{1,inf}-style norm of G) sampled at points."""
        g = self.G_at(points)
        return float(g.min()), float(np.abs(g).max())


def compute_alpha(material, sample_points, c_inverse, theta=0.5):
    """Stabilization parameter strictly inside the admissible interval:
    alpha = theta * G_0 * C_I / (2 ||G||^2), with 0 < theta < 1."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    g0, gnorm = material.stats(sample_points)
    if g0 <= 0:
        raise ValueError("non-positive shear modulus")
    return theta * g0 * c_inverse.safe_value / (2 * gnorm**2)


def admissible_alpha_bound(material, sample_points, c_inverse):
    g0, gnorm = material.stats(sample_points)
    return g0 * c_inverse.value / (2 * gnorm**2)


@dataclass
class LocalBasisCache:
    """Condensed multiscale basis of one coarse element.

    Columns of `trace_u`/`trace_p` hold the displacement/pressure solutions
    for every trace basis function supported on the element boundary;
    `load_u`/`load_p` hold the element's load solution.  The trace blocks,
    `pairing` and `rm_pairing` are shared by reference across the element's
    congruence class.  The pairing blocks close the global saddle-point
    problem.
    """
    element_id: int
    kind: str                       # "gals" | "galerkin"
    local_mesh: object
    dofh: object
    seg_ids: list                   # skeleton segments on the boundary, ordered
    dof_signs: np.ndarray           # orientation sign n_F . n^K per trace dof
    trace_dofs: np.ndarray          # global trace dof indices, cache order
    trace_u: np.ndarray             # (2*nsd, ntr), shared within the class
    trace_p: np.ndarray             # (nsd, ntr), shared; None for "galerkin"
    load_u: np.ndarray              # (2*nsd,)
    load_p: np.ndarray              # (nsd,); None for "galerkin"
    pairing: np.ndarray             # (ntr, ntr), <mu_i, T_h(mu_j)>, shared
    rm_pairing: np.ndarray          # (ntr, 3), <mu_i, v_rm>, shared
    load_pairing: np.ndarray        # (ntr,), <mu_i, That(f)>
    rm_load: np.ndarray             # (3,), int f . v_rm + Neumann part
    rigid_modes: RigidModes
    alpha: float
    degree: int
    material: MaterialField = None

    @property
    def n_trace(self):
        return len(self.trace_dofs)

    @property
    def Uu(self):
        """(2*nsd, ntr + 1): the trace solutions, then the load solution."""
        return np.column_stack([self.trace_u, self.load_u])

    @property
    def Up(self):
        """(nsd, ntr + 1) pressure counterpart of `Uu`; None for
        "galerkin"."""
        if self.trace_p is None:
            return None
        return np.column_stack([self.trace_p, self.load_p])


@dataclass
class LocalOperator:
    """The part of a coarse element's local problem that depends on neither
    its load nor its position: the factorable matrix and the boundary
    pairings, shared by the element's congruence class."""
    kind: str                       # "gals" | "galerkin"
    degree: int
    material: MaterialField
    matrix: sp.csc_matrix           # [u; (p;) 3 rigid multipliers]
    dofh: object
    tab: object
    alpha: float
    l2g: np.ndarray                 # element map of the [u (; p)] unknowns
    Dall: np.ndarray                # least-squares rows; None for "galerkin"
    R: np.ndarray                   # (ntr, 2*nsd) trace/displacement pairing
    Grm: np.ndarray                 # (ntr, 3) trace/rigid-mode pairing
    neumann_edges: tuple            # Neumann rows of _boundary_blocks
    centroid: np.ndarray            # of the element it was assembled on

    @property
    def n_u(self):
        return 2 * self.dofh.n_dofs

    @property
    def n_trace(self):
        return self.R.shape[0]


@dataclass
class _ElementLoad:
    local_mesh: object
    rhs: np.ndarray                 # (n_total,) load column
    rm_load: np.ndarray             # (3,)
    rigid_modes: RigidModes
    shift: np.ndarray               # element centroid - operator centroid


def _centroid(partition, element_id):
    return partition.vertices[list(partition.elements[element_id])].mean(axis=0)


def _element_boundary_setup(partition, local_mesh, skeleton):
    """Ordered skeleton segments on the element boundary, the orientation
    sign of each trace dof, and the global trace dof indices."""
    K = local_mesh.element_id
    seg_ids, seg_signs = [], []
    for fid, sg in zip(partition.elem_face_ids[K], partition.elem_face_signs[K]):
        for sid in skeleton.face_segments[fid]:
            seg_ids.append(sid)
            seg_signs.append(sg)
    if not seg_ids:
        return seg_ids, np.empty(0, dtype=int), np.empty(0, dtype=int)
    dof_signs = np.repeat(seg_signs, skeleton.dofs_per_segment)
    trace_dofs = np.concatenate([skeleton.segment_dofs(s) for s in seg_ids])
    return seg_ids, dof_signs, trace_dofs


def _boundary_blocks(partition, local_mesh, skeleton, dofh, geo, ref, rm):
    """Boundary pairings of one element: trace-vs-displacement matrix R,
    trace-vs-rigid-mode block, and the quadrature of the fine Neumann edges
    (points, ds-weights, shape values and vector dofs of the owning
    triangles, one row per edge), which carry the element's Neumann load."""
    be = local_mesh.boundary_edges
    x0 = local_mesh.mesh.vertices[be.v0]
    x1 = local_mesh.mesh.vertices[be.v1]
    rule = quad_rule("segment", ref.degree + skeleton.degree + 1)
    pts = x0[:, None] + rule.points[:, None] * (x1 - x0)[:, None]
    w = rule.weights * np.linalg.norm(x1 - x0, axis=1)[:, None]
    vals, _, _ = ref.tabulate(
        geo.reference_coords(be.triangle, pts).reshape(-1, 2))
    quad = (pts, w, vals.reshape(pts.shape[:2] + (-1,)),
            dofh.vector_loc2glob()[be.triangle])
    on = be.segment >= 0                        # the rows on segments
    pts, w, vals, dofs = (a[on] for a in quad)
    sid = be.segment[on]
    # face parameter of the quadrature points, then segment parameter
    fs0, fs1 = be.face_s0[on, None], be.face_s1[on, None]
    fs = fs0 + rule.points * (fs1 - fs0)
    s0, s1 = skeleton.segment_bounds[sid].T[..., None]
    mu = skeleton.basis_values(sid[:, None], (fs - s0) / (s1 - s0))

    seg_ids, _, _ = _element_boundary_setup(partition, local_mesh, skeleton)
    dps = skeleton.dofs_per_segment
    row_of = np.empty(len(skeleton.segments), dtype=int)
    row_of[seg_ids] = np.arange(len(seg_ids))
    rows = (dps * row_of[sid])[:, None] + np.arange(dps)     # (ne, dps)
    R = np.zeros((len(seg_ids) * dps, 2 * dofh.n_dofs))
    np.add.at(R, (rows[:, :, None], dofs[:, None, :]),
              np.einsum("eq,ieqc,eqb->eibc", w, mu, vals).reshape(
                  rows.shape + (-1,)))
    Grm = np.zeros((len(seg_ids) * dps, 3))
    np.add.at(Grm, rows, np.einsum("eq,ieqc,meqc->eim", w, mu,
                                   rm.evaluate(pts)))
    return R, Grm, tuple(a[be.neumann] for a in quad)


def _constraint_rows(dofh, tab, rm):
    """Rows enforcing L2-orthogonality to the rigid modes: (3, 2*nsd)."""
    l2g = dofh.vector_loc2glob()
    return np.stack([asm.scatter_vector(asm.load_vector(tab, mode), l2g,
                                        2 * dofh.n_dofs)
                     for mode in rm.evaluate(tab.points)])


def _local_operator(partition, local_mesh, skeleton, material, k, kind,
                    alpha, c_inverse):
    """Assemble the local operator of `kind` on one coarse element."""
    ref = reference_element(k)
    mesh = local_mesh.mesh
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq = material.G_at(tab.points)
    epsq = material.eps_at(tab.points)
    nu = 2 * dofh.n_dofs
    if kind == "gals":
        if c_inverse is not None:
            bound = admissible_alpha_bound(material, tab.points, c_inverse)
            if not 0 < alpha < bound:
                raise LocalSolverError(f"alpha={alpha} outside the admissible "
                                       f"interval (0, {bound})")
        A_el, Dall = asm.gals_element_matrices(tab, Gq, epsq, alpha)
        l2g = np.concatenate([dofh.vector_loc2glob(), nu + dofh.loc2glob],
                             axis=1)
        nfield = nu + dofh.n_dofs
    else:
        A_el, Dall = asm.galerkin_element_matrices(tab, Gq, epsq), None
        l2g = dofh.vector_loc2glob()
        nfield = nu
    K = asm.scatter(A_el, l2g, (nfield, nfield))

    centroid = _centroid(partition, local_mesh.element_id)
    rm = RigidModes(centroid)
    C = np.zeros((3, nfield))
    C[:, :nu] = _constraint_rows(dofh, tab, rm)
    A = sp.bmat([[K, C.T], [C, None]], format="csc")

    R, Grm, neumann_edges = _boundary_blocks(partition, local_mesh, skeleton,
                                             dofh, tab.geo, ref, rm)
    return LocalOperator(kind, k, material, A, dofh, tab, alpha, l2g,
                         Dall, R, Grm, neumann_edges, centroid)


def assemble_local_gals(partition, local_mesh, skeleton, material, alpha, k,
                        c_inverse=None):
    """Assemble the stabilized displacement-pressure local operator of one
    coarse element.

    Unknowns: [u (interleaved vector P_k); p (P_k); 3 rigid multipliers].
    With `c_inverse` given, `alpha` is checked against its admissible
    interval.
    """
    return _local_operator(partition, local_mesh, skeleton, material, k,
                           "gals", alpha, c_inverse)


def assemble_local_galerkin(partition, local_mesh, skeleton, material, k):
    """Displacement-only local operator (no pressure unknown, no
    stabilization) used by the MHM-Ga variant."""
    return _local_operator(partition, local_mesh, skeleton, material, k,
                           "galerkin", 0.0, None)


def element_load(op, partition, local_mesh, f=None, g=None):
    """Load column and rigid-mode load of one element of `op`'s class.

    The load `f` and the Neumann data `g` are evaluated at the operator's
    quadrature points translated onto the element; the rigid modes are
    taken about the element's own centroid.
    """
    centroid = _centroid(partition, local_mesh.element_id)
    shift = centroid - op.centroid
    rm = RigidModes(centroid)
    rhs = np.zeros(op.matrix.shape[0])
    d_rm = np.zeros(3)
    pts, w, vals, dofs = op.neumann_edges
    if g is not None and len(w):
        x = pts + shift
        gq = np.asarray(g(x), dtype=float)
        F = np.einsum("eq,eqc,eqb->ebc", w, gq, vals).reshape(len(w), -1)
        rhs += asm.scatter_vector(F, dofs, rhs.size)
        d_rm += np.einsum("eq,eqc,meqc->m", w, gq, rm.evaluate(x))
    if f is not None:
        x = op.tab.points + shift
        fq = np.asarray(f(x), dtype=float)
        F_el = asm.load_vector(op.tab, fq, Dall=op.Dall, alpha=op.alpha)
        rhs += asm.scatter_vector(F_el, op.l2g, rhs.size)
        d_rm += np.einsum("tq,tqc,mtqc->m", op.tab.wdet, fq, rm.evaluate(x))
    return _ElementLoad(local_mesh, rhs, d_rm, rm, shift)


def solve_local_basis(op, partition, skeleton, loads):
    """Factorize the class operator once and solve, in one multi-RHS call,
    for every trace basis function and every member's load, producing one
    basis cache per member element."""
    try:
        lu = splu(op.matrix)
    except RuntimeError as exc:
        raise LocalSolverError(
            "singular local system; run check_refinement_conditions") from exc
    nu, nsd, ntr = op.n_u, op.dofh.n_dofs, op.n_trace
    rhs = np.zeros((op.matrix.shape[0], ntr + len(loads)))
    rhs[:nu, :ntr] = op.R.T
    for j, load in enumerate(loads):
        rhs[:, ntr + j] = load.rhs
    X = lu.solve(rhs)
    if not np.all(np.isfinite(X)):
        raise LocalSolverError(
            "local solve produced non-finite values; the local mesh may be "
            "too coarse for the trace space")
    has_p = op.kind == "gals"
    trace_u = X[:nu, :ntr]
    trace_p = X[nu:nu + nsd, :ntr] if has_p else None
    pairing = op.R @ trace_u
    caches = []
    for j, load in enumerate(loads):
        lm = load.local_mesh
        seg_ids, dof_signs, trace_dofs = _element_boundary_setup(
            partition, lm, skeleton)
        load_u = X[:nu, ntr + j]
        caches.append(LocalBasisCache(
            element_id=lm.element_id,
            kind=op.kind,
            local_mesh=lm,
            dofh=op.dofh.translated(lm.mesh, load.shift),
            seg_ids=seg_ids,
            dof_signs=dof_signs,
            trace_dofs=trace_dofs,
            trace_u=trace_u,
            trace_p=trace_p,
            load_u=load_u,
            load_p=X[nu:nu + nsd, ntr + j] if has_p else None,
            pairing=pairing,
            rm_pairing=op.Grm,
            load_pairing=op.R @ load_u,
            rm_load=load.rm_load,
            rigid_modes=load.rigid_modes,
            alpha=op.alpha,
            degree=op.degree,
            material=op.material,
        ))
    return caches


def _congruence_key(partition, local_mesh, skeleton):
    """Elements with equal keys are translates of each other with the same
    local lattice and boundary segment layout, so their local operators
    coincide.  The layout records, per local edge, the number of segments
    (0 on Neumann faces) and whether the face runs against the local edge,
    which fixes the segment order and the sign of the odd trace modes."""
    eid = local_mesh.element_id
    e = partition.elements[eid]
    p = partition.vertices[list(e)]
    grid = CONGRUENCE_RTOL * partition.element_diameters[eid]
    shape = tuple(np.round((p - p.mean(axis=0)) / grid).astype(np.int64).ravel())
    layout = tuple((len(skeleton.face_segments[fid]),
                    partition.faces[fid].v0 != e[le])
                   for le, fid in enumerate(partition.elem_face_ids[eid]))
    return shape, layout, local_mesh.depth


def congruence_classes(partition, local_meshes, skeleton, material):
    """Group local meshes into classes sharing one local operator; the first
    member of each class is its representative.  With a non-constant
    material every element is its own class."""
    if not material.is_uniform:
        return [[lm] for lm in local_meshes]
    classes = {}
    for lm in local_meshes:
        key = _congruence_key(partition, lm, skeleton)
        classes.setdefault(key, []).append(lm)
    return list(classes.values())


def build_class_caches(partition, local_meshes, skeleton, material, k,
                       kind="gals", theta=0.5, f=None, g=None):
    """Basis caches of one congruence class: alpha and the operator on the
    first member, one load per member, and one factorization and solve."""
    rep = local_meshes[0]
    if kind == "gals":
        ci = inverse_constant(k)
        rule = quad_rule("triangle", 2 * k + 2)
        points = asm.Geometry(rep.mesh).physical_points(rule.points)
        alpha = compute_alpha(material, points, ci, theta=theta)
        op = assemble_local_gals(partition, rep, skeleton, material, alpha, k,
                                 c_inverse=ci)
    elif kind == "galerkin":
        op = assemble_local_galerkin(partition, rep, skeleton, material, k)
    else:
        raise ValueError(f"unknown local solver kind {kind!r}")
    loads = [element_load(op, partition, lm, f=f, g=g) for lm in local_meshes]
    return solve_local_basis(op, partition, skeleton, loads)


def build_local_cache(partition, local_mesh, skeleton, material, k,
                      kind="gals", theta=0.5, f=None, g=None):
    """Convenience pipeline for one element: a class of one."""
    return build_class_caches(partition, [local_mesh], skeleton, material, k,
                              kind=kind, theta=theta, f=f, g=g)[0]


def project_rm(rigid_modes, dofh, tab, coeffs):
    """L2 projection of a discrete vector field onto the rigid modes.

    Returns (rm coefficients, residual coefficient vector); the residual is
    L2-orthogonal to the modes.
    """
    C = _constraint_rows(dofh, tab, rigid_modes)
    Rn = rigid_modes.nodal_coefficients(dofh.dof_coords)
    gram = C @ Rn
    try:
        rho = np.linalg.solve(gram, C @ coeffs)
    except np.linalg.LinAlgError as exc:
        raise LocalSolverError("singular rigid-mode Gram matrix") from exc
    return rho, coeffs - Rn @ rho
