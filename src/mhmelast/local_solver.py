"""Local Neumann solvers producing the multiscale basis on each coarse
element: the stabilized displacement-pressure operators, the plain Galerkin
variant, the rigid-body projection, and the stabilization parameter.

The basis is built per congruence class of coarse elements that are
translates and point reflections of each other, up to a cyclic relabeling
of their vertices, with the same boundary segment layout: they share one
local mesh, numbering, tabulation and boundary pairings.  Each member is the
image of the class mesh under its own affine map x = c_m + s_m (x^ - c),
s_m = +1 or -1, on which its displacement is s_m times the class field and
its pressure the class field: the local operator is the same, and the
member's loads are its f and g at the mapped points times s_m.  The members
are split by their samples of G and eps, and each group with equal samples
(the whole class under a constant material) shares one alpha and one
operator.  The operators of groups of equal member counts are stacked as the
diagonal blocks of one matrix, up to BATCH_UNKNOWNS unknowns, and factored
and solved at once, for the trace right-hand sides and every member's load
column: one record per stack, with the groups along a leading axis and the
members as arrays.

Each block is a pure Neumann operator K, singular on the three rigid modes
Z, and the basis is the solution orthogonal to them, C x = 0 with C the
modes' moment rows.  Rather than bordering K with C, the stack is factored
with three displacement dofs of every block pinned, as for the floating
subdomains of FETI (Farhat & Roux, IJNME 32, 1991): the pinned blocks are
definite (quasi-definite with the pressure), so they factor in a symmetric
minimum-degree order on the diagonal.  Each right-hand side is first made
compatible with the modes and the pinned solution is then projected onto
C x = 0; see `solve_local_basis`.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm
from ._assembly import RigidModes
from .fem_core import (MHMError, inverse_constant, quad_rule,
                       reference_element)
from .mesh import CONGRUENCE_RTOL, local_depths

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

# Material groups of a class are stacked into one block-diagonal
# factorization of at most this many unknowns (a larger group is factored
# alone).  On a 512-element n = 16, k = 1 mesh with G varying everywhere
# (45 unknowns per group, pinned factors, 1 thread, median of 8 seeds), the
# solve took 0.36 s at 512, 0.30 s at 1024, 0.27 s at 2048 and 0.26 s at
# 4096, while the peak RSS rose by 5.3 MB from 2048 to 4096: the COO and
# CSC transients of a stack grow with it.  The 1,683-unknown groups of a
# level-3, k = 1 element are factored one at a time, as without stacking.
BATCH_UNKNOWNS = 2048

# The solve rejects a class whose rigid-mode moment matrix C Z or pinned
# rows Z[pins] have a condition number above this: it divides by both.
RIGID_COND = 1e12

# The members are sampled this many points at a time when they are split
# into material groups: sampling the 16 members of a level-3, k = 1 class at
# once (98K points) raised the peak RSS of a two-thread solve by 2.5 MB.
SAMPLE_POINTS = 16384


def member_slices(count, points):
    """The members 0 .. count - 1, of `points` sample points each, in
    slices of at most SAMPLE_POINTS points (at least one member)."""
    per = max(1, SAMPLE_POINTS // points)
    return [slice(start, start + per) for start in range(0, count, per)]


class LocalSolverError(MHMError):
    pass


class MaterialField:
    """Isotropic material data: shear modulus G and Poisson ratio nu, given
    as constants or callables of point arrays (..., 2).

    G is treated as piecewise constant on the fine mesh (its gradient does
    not enter the least-squares terms), so the broken W^{1,inf} norm reduces
    to the max of |G| over quadrature points.  A modulus that is neither a
    real number (`bool` excluded) nor a callable is rejected with a
    ValueError; the ranges, which nan fails, are checked on evaluation.
    """

    def __init__(self, G, nu):
        for what, value in (("shear modulus G", G), ("Poisson ratio nu", nu)):
            if not (callable(value) or isinstance(value, numbers.Real)
                    and not isinstance(value, bool)):
                raise ValueError(f"{what} must be a number or a callable, "
                                 f"got {value!r}")
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
        if not np.all(g > 0):
            raise ValueError("shear modulus must be positive")
        if not np.all(np.isfinite(g)):
            raise ValueError("shear modulus must be finite")
        return g

    def nu_at(self, x):
        nu = self._eval("nu", self._nu, x)
        if not np.all((0 < nu) & (nu < 0.5)):
            raise ValueError("Poisson ratio must lie in (0, 1/2)")
        return nu

    def eps_at(self, x):
        """Compressibility coefficient (1 - 2 nu) / (2 G nu)."""
        return self.samples(x)[1]

    def samples(self, x):
        """G and the compressibility coefficient eps at the points x; an
        eps that overflows (a subnormal nu) is rejected."""
        g = self.G_at(x)
        nu = self.nu_at(x)
        with np.errstate(over="ignore", divide="ignore"):
            eps = (1 - 2 * nu) / (2 * g * nu)
        if not np.all(np.isfinite(eps)):
            raise ValueError("compressibility coefficient eps = (1 - 2 nu) / "
                             "(2 G nu) overflows: nu is too close to 0")
        return g, eps


def compute_alpha(material, sample_points, c_inverse, theta=0.5):
    """Stabilization parameter strictly inside the admissible interval:
    alpha = theta * G_0 * C_I / (2 ||G||^2), with 0 < theta < 1."""
    return float(_group_alphas(material.G_at(sample_points)[None], c_inverse,
                               theta)[0])


def _group_alphas(Gq, c_inverse, theta):
    """compute_alpha of each group from its samples of G (ng, ...)."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    return _alpha_bound(Gq, c_inverse.safe_value, theta)


def _alpha_bound(Gq, c, theta=1.0):
    """theta * G_0 * c / (2 ||G||^2) of each group from its samples `Gq`
    (ng, ...) of G: with the inverse constant's value for c, the upper end
    of the group's admissible interval of alpha."""
    Gq = Gq.reshape(len(Gq), -1)
    return theta * Gq.min(axis=1) * c / (2 * np.abs(Gq).max(axis=1)**2)


def _check_alpha(alpha, Gq, c_inverse):
    """Raise unless each group's alpha lies in its admissible interval, from
    the group's samples of G (ng, nt, nq)."""
    bound = _alpha_bound(Gq, c_inverse.value)
    bad = np.flatnonzero(~((0 < alpha) & (alpha < bound)))
    if len(bad):
        i = bad[0]
        raise LocalSolverError(f"alpha={alpha[i]} outside the admissible "
                               f"interval (0, {bound[i]})")


@dataclass
class LocalBasisCache:
    """Condensed multiscale basis of one stack of material groups of a
    congruence class, solved on the mesh of `dofh` (`solve_local_basis`).

    Columns of `trace_u[g]`/`trace_p[g]` hold group g's displacement/pressure
    solutions for every trace basis function on the element boundary;
    `pairing` and `rm_pairing` close the global saddle-point problem.  The
    members are the images of that mesh under `maps` (`_member_maps`): row
    i of every member array belongs to element `element_ids[i]`, and its
    load solutions are those of its problem pulled back onto the mesh.  The
    stack's ng groups have S = m / ng members each, and rows g*S to
    (g+1)*S - 1 are group g's.
    Its degree is `dofh.ref.degree`; a "galerkin" stack has no pressure.
    """
    alpha: np.ndarray               # (ng,)
    material: MaterialField
    dofh: object                    # numbering of the class's local mesh
    rigid_modes: RigidModes         # about that mesh's element centroid
    trace_u: np.ndarray             # (ng, 2*nsd, ntr)
    trace_p: np.ndarray             # (ng, nsd, ntr); None for "galerkin"
    pairing: np.ndarray             # (ng, ntr, ntr), <mu_i, T_h(mu_j)>,
                                    # symmetrized
    rm_pairing: np.ndarray          # (ntr, 3), <mu_i, v_rm>
    element_ids: np.ndarray         # (m,) members
    maps: np.ndarray                # (m, 2, 3) [J | b], x = J x^ + b, J = +-I
    trace_dofs: np.ndarray          # (m, ntr) global trace dof indices
    dof_signs: np.ndarray           # (m, ntr) orientation sign n_F . n^K,
                                    # times the map's sign and the parity of
                                    # the mode on a reversed face
    load_u: np.ndarray              # (m, 2*nsd) load solutions
    load_p: np.ndarray              # (m, nsd); None for "galerkin"
    load_pairing: np.ndarray        # (m, ntr), <mu_i, That(f)>
    rm_load: np.ndarray             # (m, 3), int f . v_rm + Neumann part

    @property
    def n_trace(self):
        return self.trace_u.shape[2]


@dataclass
class LocalOperator:
    """The part of a coarse element's local problem that depends on neither
    its load nor its position.  The fields up to `pins` do not depend on the
    material either and are shared by the element's congruence class; the
    material fields stack the Neumann operators of groups of its members,
    one per index of `alpha`, as the diagonal blocks of `matrix`.  Every
    block is singular on the rigid modes `Z`; the basis solves it subject to
    `C x = 0` with the dofs `pins` fixed (`solve_local_basis`)."""
    kind: str                       # "gals" | "galerkin"
    element_id: int                 # the element it was assembled on
    dofh: object
    tab: object
    l2g: np.ndarray                 # element map of the n [u (; p)] unknowns
    R: np.ndarray                   # (ntr, 2*nsd) trace/displacement pairing
    Grm: np.ndarray                 # (ntr, 3) trace/rigid-mode pairing
    neumann_edges: tuple            # Neumann rows of _boundary_blocks
    rigid_modes: RigidModes         # about that element's centroid
    C: np.ndarray                   # (3, n) moments of the rigid modes
    Z: np.ndarray                   # (n, 3) the modes, zero in p's rows
    pins: np.ndarray                # (3,) displacement dofs fixed in a solve
    material: MaterialField = None
    alpha: np.ndarray = None        # (ng,)
    matrix: sp.csc_matrix = None    # blocks [u; (p)], n unknowns each
    Dall: np.ndarray = None         # (ng, nt, nq, 3nb, 2) least-squares rows;
                                    # None for "galerkin"

    @property
    def n_groups(self):
        return len(self.alpha)


def _centroids(partition, element_ids):
    return partition.vertices[partition.elements[element_ids]].mean(axis=1)


def _member_maps(partition, skeleton, rep, element_ids):
    """The affine maps x = J x^ + b, J = s I (s = +-1), that take the
    element `rep` onto each member of `element_ids`, as rows [J | b]
    (m, 2, 3), and the roll r (m,) of each: the map takes vertex j of rep
    to the member's vertex (j + r) % 3.  A ValueError names a member that is
    no translate or point reflection of rep with its segment layout."""
    ids = np.asarray(element_ids, dtype=int)
    keys, signs, rolls = (a[np.append(rep, ids)]
                          for a in skeleton.element_frames)
    bad = np.flatnonzero(np.any(keys[1:] != keys[0], axis=1))
    if len(bad):
        raise ValueError(f"element {ids[bad[0]]} is not a translate or point "
                         f"reflection of element {rep} with its segment "
                         "layout")
    s = signs[1:] * signs[0]
    maps = np.zeros((len(ids), 2, 3))
    maps[:, 0, 0] = maps[:, 1, 1] = s
    maps[:, :, 2] = (_centroids(partition, ids)
                     - s[:, None] * _centroids(partition, [rep]))
    return maps, (rolls[1:] - rolls[0]) % 3


def _member_segments(partition, skeleton, rep, element_ids, rolls):
    """The skeleton segments on the boundary of each member, in the row
    order of the element `rep`: its local edges in turn, each in the order
    of its face, without Neumann faces.  A member with the roll r
    (`_member_maps`) holds rep's edge j as its edge (j + r) % 3.  Returns
    the segment ids, their orientation signs n_F . n^K, and whether the
    member's face runs the other way along the edge than rep's face, which
    reverses the order of its segments and flips its odd trace modes:
    (m, nseg) each."""
    ids = np.asarray(element_ids, dtype=int)
    edge = (np.arange(3) + np.asarray(rolls)[:, None]) % 3         # (m, 3)
    fids = np.take_along_axis(partition.elem_face_ids[ids], edge, axis=1)
    against = partition.faces.v0[fids] != np.take_along_axis(
        partition.elements[ids], edge, axis=1)
    own = partition.elem_face_ids[rep]
    flip = against != (partition.faces.v0[own] != partition.elements[rep])
    segs = skeleton.face_segments[fids]
    segs = np.where(flip[..., None], segs[..., ::-1], segs)
    on = skeleton.face_segments[own] >= 0
    signs = np.take_along_axis(partition.elem_face_signs[ids], edge, axis=1)
    return (segs[:, on], np.broadcast_to(signs[..., None], segs.shape)[:, on],
            np.broadcast_to(flip[..., None], segs.shape)[:, on])


def _member_traces(partition, skeleton, rep, element_ids, maps, rolls):
    """The global trace dofs of the members' rows of the trace basis of the
    element `rep`, and their signs (m, ntr) each: the orientation sign of
    the face, times the sign of the member's map, times -1 for an odd mode
    on a face the member runs the other way (`_member_segments`)."""
    segs, signs, flip = _member_segments(partition, skeleton, rep,
                                         element_ids, rolls)
    dps = skeleton.dofs_per_segment
    odd = np.arange(dps) % (skeleton.degree + 1) % 2 == 1
    dof_signs = (np.where(flip[..., None] & odd, -1.0, 1.0)
                 * (signs * asm.map_signs(maps)[:, None])[..., None])
    m = len(segs)
    return (skeleton.segment_dofs(segs).reshape(m, -1),
            dof_signs.reshape(m, -1))


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
    s0, s1 = skeleton.segments.s0[sid, None], skeleton.segments.s1[sid, None]
    mu = skeleton.basis_values(sid[:, None], (fs - s0) / (s1 - s0))

    eid = local_mesh.element_id
    seg_ids = _member_segments(partition, skeleton, eid, [eid], [0])[0][0]
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


def _constraint_rows(dofh, tab, rm, n=None):
    """Rows enforcing L2-orthogonality to the rigid modes: (3, n), zero
    after the 2*nsd displacement dofs (n = 2*nsd by default)."""
    return asm.scatter_vector(asm.load_vector(tab, rm.evaluate(tab.points)),
                              dofh.vector_loc2glob(), n or 2 * dofh.n_dofs)


def _pin_dofs(coords, centroid, Z):
    """Three displacement dofs whose rows of the rigid modes Z are
    invertible: both components at the node of `coords` (nsd, 2) farthest
    from `centroid`, and the component at the node farthest from that one
    which gives the larger |det Z[pins]|."""
    a = np.argmax(np.linalg.norm(coords - centroid, axis=1))
    b = np.argmax(np.linalg.norm(coords - coords[a], axis=1))
    return max((np.array([2 * a, 2 * a + 1, 2 * b + c]) for c in (0, 1)),
               key=lambda pins: abs(np.linalg.det(Z[pins])))


def _local_geometry(partition, local_mesh, skeleton, k, kind):
    """The material-free fields of the local operator of `kind` on one
    coarse element."""
    ref = reference_element(k)
    dofh = asm.DofHandler(local_mesh.mesh, ref)
    tab = asm.Tabulation(local_mesh.mesh, ref, 2 * k + 2)
    l2g = asm.unknown_map(dofh, kind)
    n = l2g.max() + 1
    rm = RigidModes(_centroids(partition, [local_mesh.element_id])[0])
    Z = np.zeros((n, 3))
    Z[:2 * dofh.n_dofs] = rm.nodal_coefficients(dofh.dof_coords)
    R, Grm, neumann_edges = _boundary_blocks(partition, local_mesh, skeleton,
                                             dofh, tab.geo, ref, rm)
    return LocalOperator(kind, local_mesh.element_id, dofh, tab, l2g, R, Grm,
                         neumann_edges, rm, _constraint_rows(dofh, tab, rm, n),
                         Z, _pin_dofs(dofh.dof_coords, rm.centroid, Z))


def _local_operator(geo, material, Gq, epsq, alpha):
    """The local operators on the geometry `geo` of groups of members with
    the material samples `Gq`, `epsq` (ng, nt, nq) and parameters `alpha`
    (ng,): the groups' matrices are the diagonal blocks of one matrix."""
    alpha = np.asarray(alpha, dtype=float)
    A_el, Dall = asm.element_matrices(geo.tab, geo.kind, Gq, epsq, alpha)
    return replace(geo, material=material, alpha=alpha,
                   matrix=asm.scatter(A_el, geo.l2g, len(geo.Z)), Dall=Dall)


def _one_group(geo, material, alpha, c_inverse):
    """The operator of the element `geo` was built on alone."""
    Gq, epsq = material.samples(geo.tab.points[None])
    alpha = np.array([alpha], dtype=float)
    if c_inverse is not None:
        _check_alpha(alpha, Gq, c_inverse)
    return _local_operator(geo, material, Gq, epsq, alpha)


def assemble_local_gals(partition, local_mesh, skeleton, material, alpha, k,
                        c_inverse=None):
    """Assemble the stabilized displacement-pressure local operator of one
    coarse element.

    Unknowns: [u (interleaved vector P_k); p (P_k)].
    With `c_inverse` given, `alpha` is checked against its admissible
    interval.
    """
    geo = _local_geometry(partition, local_mesh, skeleton, k, "gals")
    return _one_group(geo, material, alpha, c_inverse)


def assemble_local_galerkin(partition, local_mesh, skeleton, material, k):
    """Displacement-only local operator (no pressure unknown, no
    stabilization) used by the MHM-Ga variant."""
    geo = _local_geometry(partition, local_mesh, skeleton, k, "galerkin")
    return _one_group(geo, material, 0.0, None)


def _at_members(fn, x, maps, name):
    """`fn` at the points `x` mapped onto the members `maps` (ng, S, 2, 3),
    times each member's sign: the load of the pulled-back problems,
    (ng, S) + the points' shape (`_assembly.sampled`, naming `name`)."""
    flat = maps.reshape(-1, 2, 3)
    values = asm.sampled(fn, asm.map_points(flat, x), name)
    values = values * asm.map_signs(flat).reshape(
        (-1,) + (1,) * (values.ndim - 1))
    return values.reshape(maps.shape[:2] + values.shape[1:])


def element_load(op, maps, f=None, g=None):
    """Load columns and rigid-mode loads of the members that share `op`,
    the images of its element under `maps`: (m, 2, 3) for an operator of
    one group, or (ng, S, 2, 3), S members of each of its ng groups, for a
    stack.  Column s of the loads (N, S) holds member s of group g in block
    g; the rigid-mode loads are (ng * S, 3) in (group, member) order, each
    member's against its own modes (`_assembly.rigid_signs`).  `f` and `g`
    are called at the operator's points mapped onto the members, on chunks
    of at most SAMPLE_POINTS points (at least one member a group)."""
    ng = op.n_groups
    maps = np.asarray(maps, dtype=float).reshape(ng, -1, 2, 3)
    n = op.matrix.shape[0] // ng
    S = maps.shape[1]
    rhs = np.zeros((ng, S, n))
    d_rm = np.zeros((ng, S, 3))
    pts, w, vals, dofs = op.neumann_edges
    # the rigid modes times the quadrature weights, rows against the
    # flattened (point, component) axes of the loads
    rm_g = (w[..., None] * op.rigid_modes.evaluate(pts)).reshape(3, -1).T
    rm_f = (op.tab.wdet[..., None]
            * op.rigid_modes.evaluate(op.tab.points)).reshape(3, -1).T
    for c in member_slices(S, ng * op.tab.points[..., 0].size):
        if g is not None and len(w):
            gq = _at_members(g, pts, maps[:, c], "the traction g")
            F = np.einsum("eq,gseqc,eqb->gsebc", w, gq, vals)
            rhs[:, c] += asm.scatter_vector(F.reshape(F.shape[:3] + (-1,)),
                                            dofs, n)
            d_rm[:, c] += gq.reshape(gq.shape[:2] + (-1,)) @ rm_g
        if f is not None:
            fq = _at_members(f, op.tab.points, maps[:, c], "the load f")
            Dall = None if op.Dall is None else op.Dall[:, None]
            F_el = asm.load_vector(op.tab, fq, Dall=Dall,
                                   alpha=op.alpha[:, None])
            rhs[:, c] += asm.scatter_vector(F_el, op.l2g, n)
            d_rm[:, c] += fq.reshape(fq.shape[:2] + (-1,)) @ rm_f
    return (np.swapaxes(rhs, 0, 1).reshape(S, ng * n).T,
            d_rm.reshape(-1, 3) * asm.rigid_signs(maps.reshape(-1, 2, 3)))


def _blocks(M, ng):
    """The Fortran-ordered stacked columns M (ng * n, c) as a view (ng, c, n):
    column j of block g."""
    return np.moveaxis(M.reshape(-1, ng, M.shape[1], order="F"), 0, -1)


def _columns(M, n):
    """The Fortran-ordered stacked columns M (ng * n, c) as a view
    (n, ng * c): the columns of every block side by side."""
    return M.reshape(n, -1, order="F")


def _subtract_rank3(X, P, Q):
    """X -= P (Q X) in place, for P (n, 3) and Q (3, n), 32 columns at a
    time: the product is as large as X."""
    for j in range(0, X.shape[1], 32):
        X[:, j:j + 32] -= P @ (Q @ X[:, j:j + 32])


class _PinnedSolve:
    """Solutions x of the stacked Neumann blocks K x = r with C x = 0, for
    right-hand sides compatible with the rigid modes (Z^T r = 0), from the
    LU factors `lu` of the stack with the dofs `pins` of each block pinned.
    The pinned dofs are decoupled, so zeroing them in the solution gives the
    solution y with zero data there, which solves K y = r; the projection
    x = y - Z (CZ)^-1 C y (`proj` = (CZ)^-1 C) then adds the rigid mode
    that makes C x = 0."""

    def __init__(self, lu, pins, Z, proj):
        self.lu, self.pins, self.Z, self.proj = lu, pins, Z, proj

    def solve(self, rhs):
        X = np.asfortranarray(self.lu.solve(rhs))
        x = _columns(X, len(self.Z))
        x[self.pins] = 0.0
        _subtract_rank3(x, self.Z, self.proj)
        return X


def _residual_hint(op):
    """The hint of a failed residual check of the stack `op`.  The rigid
    modes Z span the kernel of every block K only up to the defect
    ||K Z|| / (||K|| ||Z||) (infinity norms, largest over the blocks), and
    the final projection of the pinned solve leaves a relative residual of
    about the defect times ||Z c|| / ||x||.  With equispaced nodes the
    round-off of the basis makes the defect grow with the degree: on the
    two elements of the n = 1 grid, level 0, it is 2e-14 at k = 8, 1e-12
    and 2e-12 at k = 11, 5e-12 and 7e-12 at k = 12, 3e-11 and 5e-11 at
    k = 13, and 1.2e-10 and 1.7e-10 at k = 14, where the check fails.  A
    defect within a tenth of the residual bound is named as the cause; a
    smaller one points at the local mesh."""
    ng = op.n_groups
    KZ = np.abs(op.matrix @ np.tile(op.Z, (ng, 1))).sum(axis=1)
    K = asm.abs_row_sums(op.matrix)
    defect = (KZ.reshape(ng, -1).max(axis=1) / K.reshape(ng, -1).max(axis=1)
              ).max() / np.abs(op.Z).sum(axis=1).max()
    if defect <= asm.RESIDUAL_RTOL / 10:
        return "run check_refinement_conditions"
    return (f"the rigid modes leave |KZ|/(|K||Z|) = {defect:.1e} in the "
            f"degree-{op.dofh.ref.degree} local operator (round-off of its "
            "equispaced basis), which the rigid-mode correction of the pinned "
            "solve carries into the residual; lower the degree")


def solve_local_basis(op, partition, skeleton, element_ids, f=None, g=None):
    """Factorize the operator `op` once and solve, in one multi-RHS call, for
    every trace basis function and the load of every member, translates and
    point reflections of the element `op` was assembled on
    (`_member_maps`).  `element_ids` (ng, S) holds each group's member ids,
    block by block; a ValueError names the member counts of groups that are
    not one per block of `op` or not of equal size.  The result is the
    stack's basis record."""
    sizes = [len(group) for group in element_ids]
    if len(sizes) != op.n_groups or len(set(sizes)) != 1:
        raise ValueError(f"a stack of {op.n_groups} groups takes as many "
                         f"groups of equal member counts, got {sizes}")
    ng, S = len(sizes), sizes[0]
    ids = np.asarray(element_ids, dtype=int).ravel()
    maps, rolls = _member_maps(partition, skeleton, op.element_id, ids)
    loads, rm_load = element_load(op, maps, f=f, g=g)
    nsd, ntr = op.dofh.n_dofs, op.R.shape[0]
    nu, n = 2 * nsd, len(op.Z)
    CZ = op.C @ op.Z
    for name, M in (("moment", CZ), ("pinned", op.Z[op.pins])):
        if np.linalg.cond(M) > RIGID_COND:
            raise LocalSolverError(f"ill-conditioned {name} block of the "
                                   "rigid modes; check the local mesh")
    # the trace columns, whose block g holds R.T in every block, then the
    # load columns; Fortran order, as the solve takes and returns them
    rhs = np.zeros((ng * n, ntr + S), order="F")
    _blocks(rhs, ng)[:, :ntr, :nu] = op.R
    rhs[:, ntr:] = loads
    del loads
    # each column r less C^T tau, tau = (CZ)^-T Z^T r the multipliers of the
    # constraint C x = 0, is compatible with the rigid modes
    _subtract_rank3(_columns(rhs, n), op.C.T, np.linalg.solve(CZ.T, op.Z.T))
    # the pinned blocks are definite (quasi-definite with the pressure), so
    # they factor in a symmetric minimum-degree order on the diagonal: on a
    # level-4, k = 1 element the LU fill is 0.76M nonzeros, against 1.2M for
    # COLAMD on the bordered block and 19.0M at a pivot threshold of 0.1.
    # The residuals are checked against the unpinned stack.
    pins = (op.pins + n * np.arange(ng)[:, None]).ravel()
    X = asm.checked_solve(
        lambda: _PinnedSolve(
            splu(asm.pinned(op.matrix, pins), permc_spec="MMD_AT_PLUS_A",
                 diag_pivot_thresh=0.0, options={"SymmetricMode": True}),
            op.pins, op.Z, np.linalg.solve(CZ, op.C)),
        op.matrix, rhs, LocalSolverError, "local",
        "run check_refinement_conditions", blocks=ng,
        residual_hint=lambda: _residual_hint(op))
    del rhs
    has_p = op.kind == "gals"
    Xb = _blocks(X, ng)
    trace = np.swapaxes(Xb[:, :ntr], 1, 2)
    # the members' load solutions (m, n), a view when the stack is one group
    # or one member wide
    loads = Xb[:, ntr:].reshape(-1, n)
    trace_u, load_u = trace[:, :nu], loads[:, :nu]
    trace_dofs, dof_signs = _member_traces(partition, skeleton, op.element_id,
                                           ids, maps, rolls)
    # R X is symmetric up to the solve's residual E (entries i, j and j, i
    # differ by x_i.e_j - x_j.e_i); the global system takes its symmetric part
    pairing = op.R @ trace_u
    pairing = 0.5 * (pairing + np.swapaxes(pairing, 1, 2))
    return LocalBasisCache(
        alpha=op.alpha,
        material=op.material,
        dofh=op.dofh,
        rigid_modes=op.rigid_modes,
        trace_u=trace_u,
        trace_p=trace[:, nu:] if has_p else None,
        pairing=pairing,
        rm_pairing=op.Grm,
        element_ids=ids,
        maps=maps,
        trace_dofs=trace_dofs,
        dof_signs=dof_signs,
        load_u=load_u,
        load_p=loads[:, nu:] if has_p else None,
        load_pairing=load_u @ op.R.T,
        rm_load=rm_load,
    )


def congruence_classes(partition, skeleton, depth):
    """Group the element ids, in increasing order, into classes sharing one
    local mesh at `depth`, in order of their first element, before any local
    mesh is built.  Members are translates and point reflections of each
    other (on a grid of CONGRUENCE_RTOL times the diameter), up to a cyclic
    relabeling of their vertices, with one local depth and boundary segment
    layout: per mapped local edge, the level of the face's segments (-1 on
    Neumann faces) (`SkeletonMesh.element_frames`).  The direction of a
    face along the edge is not in the key: it reverses the segment order
    and flips the sign of the odd trace modes of the member
    (`_member_segments`).  The classes are purely geometric:
    `build_class_caches` splits them by material."""
    need = local_depths(skeleton, partition.elem_face_ids, depth)[1]
    keys = np.column_stack([skeleton.element_frames[0], need])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.argsort(np.argsort(first))[inverse.ravel()]
    members = np.argsort(rank, kind="stable")
    return [c.tolist() for c in np.split(members,
                                         np.cumsum(np.bincount(rank))[:-1])]


def _material_groups(material, points, maps):
    """Split the members, the images of `points` under `maps`, into groups
    whose samples of G and eps agree on a grid of CONGRUENCE_RTOL relative
    to each sample (their logarithms rounded on a grid of that size; both
    fields are positive), so that they share one local operator: the member
    indices of each group, in order of first appearance, and the samples of
    G and eps of each group's first member.  The members are sampled
    SAMPLE_POINTS points at a time."""
    groups, firsts = {}, []
    for c in member_slices(len(maps), points[..., 0].size):
        samples = material.samples(asm.map_points(maps[c], points))
        keys = [np.round(np.log(q) / CONGRUENCE_RTOL).astype(np.int64)
                for q in samples]
        for i, key in enumerate(zip(*keys)):
            members = groups.setdefault(b"".join(k.tobytes() for k in key),
                                        [])
            if not members:
                firsts.append([q[i] for q in samples])
            members.append(c.start + i)
    Gq, epsq = map(np.array, zip(*firsts))
    return [np.array(members) for members in groups.values()], Gq, epsq


def _batches(sizes, n):
    """Stacks of the groups with member counts `sizes`, of `n` unknowns
    each: the runs of groups of equal member count, in decreasing count,
    each split as evenly as possible into stacks of at most BATCH_UNKNOWNS
    unknowns (at least one group)."""
    sizes = np.asarray(sizes)
    order = np.argsort(-sizes, kind="stable")
    per = max(1, BATCH_UNKNOWNS // n)
    runs = np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)
    return [stack for run in runs
            for stack in np.array_split(run, -(-len(run) // per))]


def build_class_caches(partition, local_mesh, element_ids, skeleton,
                       material, k, kind="gals", theta=0.5, f=None, g=None):
    """Basis records of the congruence class `element_ids`, whose members
    share the geometry on `local_mesh` (of one member), each through its
    map (`_member_maps`).  The members are split into groups with equal
    material samples, each with its own alpha and operator, and the
    operators of groups of equal member counts (`_batches`) are stacked into
    block-diagonal matrices of at most BATCH_UNKNOWNS unknowns, each
    factored and solved once by `solve_local_basis`: one record per stack,
    in the order of `_batches`."""
    if kind not in ("gals", "galerkin"):
        raise ValueError(f"unknown local solver kind {kind!r}")
    element_ids = np.asarray(element_ids, dtype=int)
    geo = _local_geometry(partition, local_mesh, skeleton, k, kind)
    maps, _ = _member_maps(partition, skeleton, geo.element_id, element_ids)
    groups, Gq, epsq = _material_groups(material, geo.tab.points, maps)
    if kind == "gals":
        ci = inverse_constant(k)
        alpha = _group_alphas(Gq, ci, theta)
        _check_alpha(alpha, Gq, ci)
    else:
        alpha = np.zeros(len(groups))
    return [solve_local_basis(
        _local_operator(geo, material, Gq[batch], epsq[batch], alpha[batch]),
        partition, skeleton, [element_ids[groups[i]] for i in batch], f=f,
        g=g) for batch in _batches([len(ids) for ids in groups], len(geo.Z))]


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
