"""Local Neumann solvers producing the multiscale basis on each coarse
element: the stabilized displacement-pressure operators, the plain Galerkin
variant, the rigid-body projection, and the stabilization parameter.

The basis is built per congruence class of translated coarse elements with
the same boundary segment layout: they share one local mesh, numbering,
tabulation and boundary pairings.  The members are split by their samples of
G and eps, and each group with equal samples (the whole class under a
constant material) shares one alpha and one operator, factored and solved
for the trace right-hand sides and every member's load column at once: one
record per group, with the members as arrays.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm
from ._assembly import RigidModes
from .fem_core import (MHMError, inverse_constant, quad_rule,
                       reference_element)
from .mesh import local_depth

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

    def _eval(self, name, f, x):
        x = np.asarray(x, dtype=float)
        if not callable(f):
            return np.full(x.shape[:-1], float(f))
        value = np.asarray(f(x), dtype=float)
        try:
            return np.broadcast_to(value, x.shape[:-1])
        except ValueError:
            raise ValueError(f"{name} returned shape {value.shape} at points of "
                             f"shape {x.shape}, not one broadcasting to "
                             f"{x.shape[:-1]}") from None

    def G_at(self, x):
        g = self._eval("G", self._G, x)
        if np.any(g <= 0):
            raise ValueError("shear modulus must be positive")
        return g

    def nu_at(self, x):
        nu = self._eval("nu", self._nu, x)
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
    return theta * g0 * c_inverse.safe_value / (2 * gnorm**2)


@dataclass
class LocalBasisCache:
    """Condensed multiscale basis of the members of one congruence class
    that share their material samples, solved once on the mesh of `dofh`.

    Columns of `trace_u`/`trace_p` hold the displacement/pressure solutions
    for every trace basis function on the element boundary; `pairing` and
    `rm_pairing` close the global saddle-point problem.  The members are
    translates of that mesh by `shifts`, and row i of every member array
    belongs to element `element_ids[i]`.
    """
    kind: str                       # "gals" | "galerkin"
    degree: int
    alpha: float
    material: MaterialField
    dofh: object                    # numbering of the class's local mesh
    rigid_modes: RigidModes         # about that mesh's element centroid
    trace_u: np.ndarray             # (2*nsd, ntr)
    trace_p: np.ndarray             # (nsd, ntr); None for "galerkin"
    pairing: np.ndarray             # (ntr, ntr), <mu_i, T_h(mu_j)>
    rm_pairing: np.ndarray          # (ntr, 3), <mu_i, v_rm>
    element_ids: np.ndarray         # (m,) members
    shifts: np.ndarray              # (m, 2) member centroid - mesh centroid
    trace_dofs: np.ndarray          # (m, ntr) global trace dof indices
    dof_signs: np.ndarray           # (m, ntr) orientation sign n_F . n^K
    load_u: np.ndarray              # (m, 2*nsd) load solutions
    load_p: np.ndarray              # (m, nsd); None for "galerkin"
    load_pairing: np.ndarray        # (m, ntr), <mu_i, That(f)>
    rm_load: np.ndarray             # (m, 3), int f . v_rm + Neumann part

    @property
    def n_trace(self):
        return self.trace_u.shape[1]


@dataclass
class LocalOperator:
    """The part of a coarse element's local problem that depends on neither
    its load nor its position.  The fields up to `constraints` do not depend
    on the material either and are shared by the element's congruence
    class; the material fields belong to one group of its members."""
    kind: str                       # "gals" | "galerkin"
    dofh: object
    tab: object
    l2g: np.ndarray                 # element map of the [u (; p)] unknowns
    R: np.ndarray                   # (ntr, 2*nsd) trace/displacement pairing
    Grm: np.ndarray                 # (ntr, 3) trace/rigid-mode pairing
    neumann_edges: tuple            # Neumann rows of _boundary_blocks
    rigid_modes: RigidModes         # about the element it was assembled on
    constraints: tuple              # COO triplets of the rigid-mode rows
    material: MaterialField = None
    alpha: float = 0.0
    matrix: sp.csc_matrix = None    # [u; (p;) 3 rigid multipliers]
    Dall: np.ndarray = None         # least-squares rows; None for "galerkin"


def _centroids(partition, element_ids):
    return partition.vertices[np.asarray(partition.elements)[element_ids]
                              ].mean(axis=1)


def _member_segments(partition, skeleton, element_ids):
    """Skeleton segments on each element's boundary in local edge order,
    and their orientation signs: (m, nseg) each, for one segment layout."""
    segs = np.array([[(sid, sg) for fid, sg in zip(partition.elem_face_ids[e],
                                                   partition.elem_face_signs[e])
                      for sid in skeleton.face_segments[fid]]
                     for e in element_ids], dtype=int)
    segs = segs.reshape(len(element_ids), -1, 2)
    return segs[..., 0], segs[..., 1]


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

    seg_ids = _member_segments(partition, skeleton,
                               [local_mesh.element_id])[0][0]
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
    return asm.scatter_vector(asm.load_vector(tab, rm.evaluate(tab.points)),
                              dofh.vector_loc2glob(), 2 * dofh.n_dofs)


def _local_geometry(partition, local_mesh, skeleton, k, kind):
    """The material-free fields of the local operator of `kind` on one
    coarse element."""
    ref = reference_element(k)
    dofh = asm.DofHandler(local_mesh.mesh, ref)
    tab = asm.Tabulation(local_mesh.mesh, ref, 2 * k + 2)
    l2g = dofh.vector_loc2glob()
    if kind == "gals":                  # the pressure dofs after all of u's
        l2g = np.concatenate([l2g, 2 * dofh.n_dofs + dofh.loc2glob], axis=1)
    # the three rigid-mode constraint rows and columns, after the field
    # unknowns: each triangle's moments of the modes, without the
    # structural zeros (a translation misses one component)
    rm = RigidModes(_centroids(partition, [local_mesh.element_id])[0])
    moments = asm.load_vector(tab, rm.evaluate(tab.points))   # (3, nt, 2nb)
    mode, t, b = np.nonzero(moments)
    constraints = (l2g.max() + 1 + mode, dofh.vector_loc2glob()[t, b],
                   moments[mode, t, b])
    R, Grm, neumann_edges = _boundary_blocks(partition, local_mesh, skeleton,
                                             dofh, tab.geo, ref, rm)
    return LocalOperator(kind, dofh, tab, l2g, R, Grm, neumann_edges, rm,
                         constraints)


def _local_operator(geo, material, shift, alpha, c_inverse):
    """The local operator on the geometry `geo`, with the material sampled
    at its points translated by `shift`."""
    points = geo.tab.points + shift
    Gq = material.G_at(points)
    epsq = material.eps_at(points)
    if geo.kind == "gals":
        if c_inverse is not None:
            g0, gnorm = material.stats(points)
            bound = g0 * c_inverse.value / (2 * gnorm**2)
            if not 0 < alpha < bound:
                raise LocalSolverError(f"alpha={alpha} outside the admissible "
                                       f"interval (0, {bound})")
        A_el, Dall = asm.gals_element_matrices(geo.tab, Gq, epsq, alpha)
    else:
        A_el, Dall = asm.galerkin_element_matrices(geo.tab, Gq, epsq), None
    # the constraint triplets enter the same COO matrix as the element blocks
    rows, cols, vals = asm.block_triplets(A_el, geo.l2g)
    crow, ccol, cval = geo.constraints
    n = geo.l2g.max() + 4                   # field unknowns, 3 multipliers
    A = sp.coo_matrix((np.concatenate([vals, cval, cval]),
                       (np.concatenate([rows, crow, ccol]),
                        np.concatenate([cols, ccol, crow]))),
                      shape=(n, n)).tocsc()
    return replace(geo, material=material, alpha=alpha, matrix=A, Dall=Dall)


def assemble_local_gals(partition, local_mesh, skeleton, material, alpha, k,
                        c_inverse=None):
    """Assemble the stabilized displacement-pressure local operator of one
    coarse element.

    Unknowns: [u (interleaved vector P_k); p (P_k); 3 rigid multipliers].
    With `c_inverse` given, `alpha` is checked against its admissible
    interval.
    """
    geo = _local_geometry(partition, local_mesh, skeleton, k, "gals")
    return _local_operator(geo, material, 0.0, alpha, c_inverse)


def assemble_local_galerkin(partition, local_mesh, skeleton, material, k):
    """Displacement-only local operator (no pressure unknown, no
    stabilization) used by the MHM-Ga variant."""
    geo = _local_geometry(partition, local_mesh, skeleton, k, "galerkin")
    return _local_operator(geo, material, 0.0, 0.0, None)


def element_load(op, shifts, f=None, g=None):
    """Load columns (n, m) and rigid-mode loads (m, 3) of the members that
    share `op`, translates of its element by `shifts` (m, 2): `f` and `g`
    are each called once, at the operator's points translated onto every
    member, whose rigid modes take the operator's values."""
    shifts = np.asarray(shifts, dtype=float)[:, None, None]
    rhs = np.zeros((len(shifts), op.matrix.shape[0]))
    d_rm = np.zeros((len(shifts), 3))
    pts, w, vals, dofs = op.neumann_edges
    if g is not None and len(w):
        gq = np.asarray(g(pts + shifts), dtype=float)         # (m, ne, nq, 2)
        F = np.einsum("eq,meqc,eqb->mebc", w, gq, vals)
        rhs += asm.scatter_vector(F.reshape(F.shape[:2] + (-1,)), dofs,
                                  rhs.shape[1])
        d_rm += np.einsum("eq,meqc,keqc->mk", w, gq,
                          op.rigid_modes.evaluate(pts))
    if f is not None:
        fq = np.asarray(f(op.tab.points + shifts), dtype=float)
        F_el = asm.load_vector(op.tab, fq, Dall=op.Dall, alpha=op.alpha)
        rhs += asm.scatter_vector(F_el, op.l2g, rhs.shape[1])
        d_rm += np.einsum("tq,mtqc,ktqc->mk", op.tab.wdet, fq,
                          op.rigid_modes.evaluate(op.tab.points))
    return rhs.T, d_rm


def solve_local_basis(op, partition, skeleton, element_ids, f=None, g=None):
    """Factorize the operator once and solve, in one multi-RHS call, for
    every trace basis function and the load of every member: the basis
    record of the members `element_ids`, translates of the element `op` was
    assembled on that share its material samples."""
    element_ids = np.asarray(element_ids, dtype=int)
    shifts = _centroids(partition, element_ids) - op.rigid_modes.centroid
    loads, rm_load = element_load(op, shifts, f=f, g=g)
    try:
        # COLAMD with partial pivoting: the Neumann block is singular until
        # the rigid-mode multiplier rows are added, so diagonal pivots fail
        lu = splu(op.matrix)
    except RuntimeError as exc:
        raise LocalSolverError(
            "singular local system; run check_refinement_conditions") from exc
    nsd, ntr = op.dofh.n_dofs, op.R.shape[0]
    nu = 2 * nsd
    rhs = np.zeros((op.matrix.shape[0], ntr + len(element_ids)))
    rhs[:nu, :ntr] = op.R.T
    rhs[:, ntr:] = loads
    X = lu.solve(rhs)
    if not np.all(np.isfinite(X)):
        raise LocalSolverError(
            "local solve produced non-finite values; the local mesh may be "
            "too coarse for the trace space")
    # relative residual of every column, bounded as in solve_global; one
    # column at a time, which keeps the memory of the solve
    res = np.array([np.linalg.norm(op.matrix @ x - b)
                    for x, b in zip(X.T, rhs.T)])
    ref = (np.linalg.norm(rhs, axis=0)
           + asm.inf_norm(op.matrix) * np.linalg.norm(X, axis=0))
    if np.any(res > 1e-10 * np.maximum(ref, 1e-300)):
        raise LocalSolverError(
            f"local solve residual {res.max():.3e} exceeds tolerance")
    has_p = op.kind == "gals"
    trace_u = X[:nu, :ntr]
    load_u = X[:nu, ntr:].T
    seg_ids, seg_signs = _member_segments(partition, skeleton, element_ids)
    return LocalBasisCache(
        kind=op.kind,
        degree=op.dofh.ref.degree,
        alpha=op.alpha,
        material=op.material,
        dofh=op.dofh,
        rigid_modes=op.rigid_modes,
        trace_u=trace_u,
        trace_p=X[nu:nu + nsd, :ntr] if has_p else None,
        pairing=op.R @ trace_u,
        rm_pairing=op.Grm,
        element_ids=element_ids,
        shifts=shifts,
        trace_dofs=skeleton.segment_dofs(seg_ids).reshape(len(element_ids),
                                                          -1),
        dof_signs=np.repeat(seg_signs, skeleton.dofs_per_segment, axis=1),
        load_u=load_u,
        load_p=X[nu:nu + nsd, ntr:].T if has_p else None,
        load_pairing=load_u @ op.R.T,
        rm_load=rm_load,
    )


def _congruence_key(partition, eid, skeleton, depth):
    """Elements with equal keys are translates of each other with the same
    local lattice and boundary segment layout, so their local problems
    differ only in the material.  The layout records, per local edge, the
    number of segments (0 on Neumann faces) and whether the face runs against
    the local edge, which fixes the segment order and the sign of the odd
    trace modes."""
    e = partition.elements[eid]
    p = partition.vertices[list(e)]
    grid = CONGRUENCE_RTOL * partition.element_diameters[eid]
    shape = tuple(np.round((p - p.mean(axis=0)) / grid).astype(np.int64).ravel())
    layout = tuple((len(skeleton.face_segments[fid]),
                    partition.faces[fid].v0 != e[le])
                   for le, fid in enumerate(partition.elem_face_ids[eid]))
    return shape, layout, local_depth(partition, eid, skeleton, depth)


def congruence_classes(partition, skeleton, depth):
    """Group the element ids, in increasing order, into classes sharing one
    local mesh at `depth`, before any local mesh is built.  The classes are
    purely geometric: `build_class_caches` splits them by material."""
    classes = {}
    for eid in range(partition.n_elements):
        key = _congruence_key(partition, eid, skeleton, depth)
        classes.setdefault(key, []).append(eid)
    return list(classes.values())


def _material_groups(material, points, shifts):
    """Split the members, translates of `points` by `shifts`, into groups
    whose samples of G and eps agree on the CONGRUENCE_RTOL grid relative to
    each field's largest sample, so that they share one local operator."""
    groups = {}
    for i, x in enumerate(points + s for s in shifts):
        key = tuple(np.round(q / (CONGRUENCE_RTOL * np.abs(q).max())
                             ).astype(np.int64).tobytes()
                    for q in (material.G_at(x), material.eps_at(x)))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def build_class_caches(partition, local_mesh, element_ids, skeleton,
                       material, k, kind="gals", theta=0.5, f=None, g=None):
    """Basis records of the congruence class `element_ids`, whose members
    share the geometry on `local_mesh` (of one member): one record per group
    of members with equal material samples, each with its own alpha,
    operator, factorization and solve."""
    if kind not in ("gals", "galerkin"):
        raise ValueError(f"unknown local solver kind {kind!r}")
    element_ids = np.asarray(element_ids, dtype=int)
    geo = _local_geometry(partition, local_mesh, skeleton, k, kind)
    shifts = _centroids(partition, element_ids) - geo.rigid_modes.centroid
    ci = inverse_constant(k) if kind == "gals" else None
    records = []
    for group in _material_groups(material, geo.tab.points, shifts):
        shift = shifts[group[0]]
        alpha = 0.0 if ci is None else compute_alpha(
            material, geo.tab.points + shift, ci, theta=theta)
        op = _local_operator(geo, material, shift, alpha, ci)
        records.append(solve_local_basis(op, partition, skeleton,
                                         element_ids[group], f=f, g=g))
    return records


def build_local_cache(partition, local_mesh, skeleton, material, k,
                      kind="gals", theta=0.5, f=None, g=None):
    """Convenience pipeline for one element: a class of one, one record."""
    return build_class_caches(partition, local_mesh, [local_mesh.element_id],
                              skeleton, material, k, kind=kind, theta=theta,
                              f=f, g=g)[0]


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
