"""Internal vectorized assembly helpers, one path for the local solvers,
the single-level methods and the inverse-constant estimate: continuous P_k
dof handling, affine-map geometry, the element kernels of the
displacement-pressure and displacement forms, their scatter into
block-diagonal CSC matrices, pinned dofs and the checked sparse solve.
"""

import copy

import numpy as np
import scipy.sparse as sp

from .fem_core import quad_rule


class Geometry:
    """Affine-map data for every triangle of a mesh."""

    def __init__(self, mesh):
        v = mesh.vertices[mesh.triangles]
        self.origin = v[:, 0]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self.j = J
        self.detj = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        inv = np.empty_like(J)
        inv[:, 0, 0] = J[:, 1, 1]
        inv[:, 1, 1] = J[:, 0, 0]
        inv[:, 0, 1] = -J[:, 0, 1]
        inv[:, 1, 0] = -J[:, 1, 0]
        self.jinv = inv / self.detj[:, None, None]
        self.jinv_t = np.swapaxes(self.jinv, 1, 2)
        self.diameters = mesh.diameters

    def physical_points(self, ref_pts):
        """Map reference points to every triangle: (nt, nq, 2)."""
        ref_pts = np.asarray(ref_pts)
        # rows (t, i) of the Jacobians against the points: (nt, 2, nq)
        x = (self.j.reshape(-1, 2) @ ref_pts.T).reshape(-1, 2, len(ref_pts))
        return self.origin[:, None, :] + np.swapaxes(x, 1, 2)

    def push_gradients(self, ref_grads):
        """Physical gradients of shape functions, from reference gradients
        (nq, nb, 2) to every triangle: (nt, nq, nb, 2)."""
        nq, nb, _ = ref_grads.shape
        g = ref_grads.reshape(-1, 2) @ self.jinv
        return g.reshape(-1, nq, nb, 2)

    def reference_coords(self, t, x):
        """Pull physical points x (n, nq, 2) back to the reference triangles
        of the triangles t (n,)."""
        return (np.asarray(x) - self.origin[t][:, None]) @ self.jinv_t[t]


def vector_dofs(scalar_dofs):
    """Interleaved vector dofs of scalar dofs along the last axis: component
    c of scalar dof s is vector dof 2*s + c, so an (..., n, 2) array of
    components is the interleaved (..., 2n) array."""
    s = np.asarray(scalar_dofs)
    return (2 * s[..., None] + np.arange(2)).reshape(s.shape[:-1] + (-1,))


class DofHandler:
    """Global numbering for a continuous scalar P_k space on a TriMesh.

    Layout: vertex dofs, then (k-1) dofs per mesh edge (ordered from the
    lower- to the higher-indexed vertex), then interior dofs per triangle.
    Vector fields use interleaved components (see `vector_dofs`).
    """

    def __init__(self, mesh, ref):
        self.mesh = mesh
        self.ref = ref
        tri = mesh.triangles
        nv, nt = mesh.n_vertices, mesh.n_triangles
        npe, nint = ref.n_edge_nodes, ref.n_interior_nodes
        edges = mesh.edge_table
        ne = len(edges.counts)
        self.n_dofs = nv + ne * npe + nt * nint

        # local edge le runs tri[le] -> tri[le + 1]; against the edge's
        # orientation its dofs are taken in reverse
        step = np.arange(npe)
        forward = tri < np.roll(tri, -1, axis=1)
        edge_dofs = nv + edges.ids[..., None] * npe + np.where(
            forward[..., None], step, npe - 1 - step)
        interior = nv + ne * npe + np.arange(nt * nint).reshape(nt, nint)
        self.loc2glob = np.concatenate(
            [tri, edge_dofs.reshape(nt, 3 * npe), interior], axis=1)

        phys = Geometry(mesh).physical_points(ref.nodes)
        coords = np.empty((self.n_dofs, 2))
        coords[self.loc2glob.ravel()] = phys.reshape(-1, 2)
        self.dof_coords = coords

    def vector_loc2glob(self):
        """Interleaved vector dof map of shape (nt, 2 * n_basis)."""
        return vector_dofs(self.loc2glob)

    def boundary_scalar_dofs(self):
        """Scalar dofs lying on edges adjacent to a single triangle."""
        edges = self.mesh.edge_table
        npe = self.ref.n_edge_nodes
        bnd = np.flatnonzero(edges.counts == 1)
        inner = self.mesh.n_vertices + bnd[:, None] * npe + np.arange(npe)
        return np.unique(np.concatenate([edges.vertices[bnd].ravel(),
                                         inner.ravel()]))


class RigidModes:
    """The three rigid-body displacement fields on an element: two
    translations and the infinitesimal rotation about the centroid."""

    def __init__(self, centroid):
        self.centroid = np.asarray(centroid, dtype=float)

    def evaluate(self, x):
        """Values of the 3 modes at points (..., 2): shape (3, ..., 2)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((3,) + x.shape)
        out[0, ..., 0] = 1.0
        out[1, ..., 1] = 1.0
        out[2, ..., 0] = -(x[..., 1] - self.centroid[1])
        out[2, ..., 1] = x[..., 0] - self.centroid[0]
        return out

    def nodal_coefficients(self, dof_coords):
        """Vector-dof coefficient columns of the modes (2*nsd, 3); exact
        since the modes are affine."""
        return np.moveaxis(self.evaluate(dof_coords), 0, -1).reshape(-1, 3)


def map_points(maps, x):
    """The points `x` (..., 2) under each member map x -> J x + b of `maps`
    (m, 2, 3), the rows [J | b] with J = s I (`map_signs`):
    (m, ...) + (2,)."""
    x = np.asarray(x, dtype=float)
    lead = (len(maps),) + (1,) * (x.ndim - 1)
    y = map_signs(maps).reshape(lead + (1,)) * x
    y += maps[:, :, 2].reshape(lead + (2,))
    return y


def sampled(fn, x, name):
    """The vector field `fn` (a load, traction or boundary displacement) at
    the points `x` (..., 2), as floats of the points' shape.  Values of
    another shape or not finite raise a ValueError that names `name`."""
    values = np.asarray(fn(x), dtype=float)
    if values.shape != x.shape:
        raise ValueError(f"{name} must return one 2-vector per point, "
                         f"shape {x.shape}, got shape {values.shape}")
    if not np.isfinite(values).all():
        at = tuple(np.argwhere(~np.isfinite(values))[0])
        raise ValueError(f"{name} must return finite values, got "
                         f"{values[at]} at the point {x[at[:-1]].tolist()}")
    return values


def map_signs(maps):
    """The sign s (m,) of each member map of `maps` (m, 2, 3), whose linear
    part is J = s I, s = +1 or -1: a translate or a point reflection.  The
    gradient of a field on a member's image of a mesh takes J^-T = s, its
    second derivatives do not."""
    return maps[:, 0, 0]


def rigid_signs(maps):
    """(m, 3): the factors diag(s, s, 1) that take the rigid-mode
    coefficients of a member's displacement u to those of its pullback
    s (u o map) onto the class mesh, and back, under the member maps `maps`
    (`map_signs`): the translations flip with s, the rotation about the
    centroid does not."""
    s = map_signs(maps)
    return np.column_stack([s, s, np.ones_like(s)])


class Tabulation:
    """Reference-element tables at the points of a quadrature rule, with the
    affine maps of every triangle of a mesh: shape values `vals` (nq, nb),
    reference gradients `ref_grads` (nq, nb, 2) and Hessians `ref_hess`
    (nq, nb, 2, 2).  The pushed gradients `grads` (nt, nq, nb, 2) and
    Hessians `hess` (nt, nq, nb, 2, 2) are built on first use, by the
    element kernels; field evaluation (`field_values`) reads only the
    reference tables.  `take` gives the tabulation of a subset of the
    triangles, on which the element kernels run once per distinct triangle
    (`element_matrices`)."""

    def __init__(self, mesh, ref, exactness):
        self.mesh = mesh
        self.ref = ref
        self.rule = quad_rule("triangle", exactness)
        self.geo = Geometry(mesh)
        self.vals, self.ref_grads, self.ref_hess = ref.tabulate(
            self.rule.points)
        self.wdet = self.rule.weights[None, :] * self.geo.detj[:, None]
        self.points = self.geo.physical_points(self.rule.points)
        self._grads = self._hess = None

    def take(self, idx):
        """The tabulation of the triangles `idx` alone, in that order: the
        reference tables are shared, the per-triangle arrays taken.  Its
        `mesh` stays the whole mesh.  A copy of this object, so that no
        constructor runs."""
        out = copy.copy(self)
        out.geo = copy.copy(self.geo)
        for name in ("origin", "j", "detj", "jinv", "jinv_t", "diameters"):
            setattr(out.geo, name, getattr(self.geo, name)[idx])
        out.wdet, out.points = self.wdet[idx], self.points[idx]
        out._grads = None if self._grads is None else self._grads[idx]
        out._hess = None if self._hess is None else self._hess[idx]
        return out

    @property
    def grads(self):
        if self._grads is None:
            self._grads = self.geo.push_gradients(self.ref_grads)
        return self._grads

    @property
    def hess(self):
        if self._hess is None:
            self._hess = np.einsum("tji,qbim,tml->tqbjl", self.geo.jinv_t,
                                   self.ref_hess, self.geo.jinv,
                                   optimize=True)
        return self._hess


def strain_product_blocks(tab, factor):
    """(..., nt, 2nb, 2nb) blocks of int factor * eps(phi_I) : eps(phi_J),
    one stack per leading index of `factor` (..., nt, nq), or scalar."""
    nt, nq, nb, _ = tab.grads.shape
    g = tab.grads.reshape(nt, nq, 2 * nb)
    w = tab.wdet * factor
    lead = w.shape[:-2]
    # gcross[..., t, b, i, c, j] = sum_q w g[t, q, b, i] g[t, q, c, j]
    gcross = ((np.swapaxes(g, 1, 2) * w[..., None, :]) @ g).reshape(
        lead + (nt, nb, 2, nb, 2))
    gg = gcross[..., 0, :, 0] + gcross[..., 1, :, 1]
    # block (b, c; b', d) = 0.5 (gcross[b, d, b', c] + delta_cd gg[b, b'])
    E = 0.5 * (np.swapaxes(gcross, -3, -1)
               + gg[..., :, None, :, None] * np.eye(2)[:, None, :])
    return E.reshape(lead + (nt, 2 * nb, 2 * nb))


def divergence_rows(tab):
    """div of vector basis functions: (nt, nq, 2nb)."""
    nt, nq, nb, _ = tab.grads.shape
    return tab.grads.reshape(nt, nq, 2 * nb)


def stress_divergence_rows(tab, twoG):
    """div(2G eps(phi_I)) for vector basis functions, with G treated as
    constant per triangle at quadrature points: (..., nt, nq, 2nb, 2) for
    `twoG` (..., nt, nq)."""
    hess = tab.hess
    nt, nq, nb, _, _ = hess.shape
    lap = hess[..., 0, 0] + hess[..., 1, 1]
    # component i of div eps(N_b e_c) is 0.5 (H_b[i, c] + delta_ic lap_b)
    D = 0.5 * (np.swapaxes(hess, -1, -2) + lap[..., None, None] * np.eye(2))
    return D.reshape(nt, nq, 2 * nb, 2) * twoG[..., None, None]


def _ls_weights(tab, alpha, lead):
    """Least-squares weights alpha h_tau^2 (..., nt), from `alpha` given
    once per leading index (shape `lead`) or per triangle (lead + (nt,))."""
    alpha = np.asarray(alpha)
    if alpha.ndim == len(lead):
        alpha = alpha[..., None]
    return alpha * tab.geo.diameters ** 2


def gals_element_matrices(tab, Gq, epsq, alpha):
    """Element matrices of the displacement-pressure form with least-squares
    stabilization, over local unknowns [u (2nb, interleaved); p (nb)].

    `Gq` and `epsq` are (..., nt, nq), with one stack of matrices per leading
    index (a material group).  `alpha` is one value per leading index or per
    triangle; the least-squares weight is alpha * h_tau^2 per triangle.
    """
    lead = Gq.shape[:-2]
    nt, nq = Gq.shape[-2:]
    nb = tab.ref.n_basis
    ndl = 3 * nb
    w = tab.wdet
    A = np.zeros(lead + (nt, ndl, ndl))

    A[..., :2 * nb, :2 * nb] = strain_product_blocks(tab, 2.0 * Gq)
    d = divergence_rows(tab)
    # -p div v and symmetric counterpart
    Bup = -(np.swapaxes(d, 1, 2) * w[:, None, :]) @ tab.vals
    A[..., :2 * nb, 2 * nb:] = Bup
    A[..., 2 * nb:, :2 * nb] = np.swapaxes(Bup, 1, 2)
    # pressure mass: one (..., nt, nq) x (nq, nb * nb) product
    vv = (tab.vals[:, :, None] * tab.vals[:, None, :]).reshape(nq, -1)
    A[..., 2 * nb:, 2 * nb:] = -((w * epsq) @ vv).reshape(lead + (nt, nb, nb))

    # div(2G eps(u) - p I) rows of the [u; p] unknowns: (..., nt, nq, 3nb, 2)
    Dall = np.empty(Gq.shape + (ndl, 2))
    Dall[..., :2 * nb, :] = stress_divergence_rows(tab, 2.0 * Gq)
    Dall[..., 2 * nb:, :] = -tab.grads
    ls_w = _ls_weights(tab, alpha, lead)
    # rows (a) against columns (q, i) of the least-squares operator
    D = np.moveaxis(Dall, -2, -3).reshape(lead + (nt, ndl, 2 * nq))
    lw = np.repeat(ls_w[..., None] * w, 2, axis=-1)
    A -= (D * lw[..., None, :]) @ np.swapaxes(D, -1, -2)
    return A, Dall


def galerkin_element_matrices(tab, Gq, epsq):
    """Element matrices of the displacement form
    int 2G eps(u):eps(v) + (1/eps) (div u)(div v), one stack per leading
    index of `Gq` and `epsq` (..., nt, nq)."""
    A = strain_product_blocks(tab, 2.0 * Gq)
    d = divergence_rows(tab)
    A += (np.swapaxes(d, 1, 2) * (tab.wdet / epsq)[..., None, :]) @ d
    return A


def unknown_map(dofh, kind):
    """Element map (nt, nl) of the unknowns of the `kind` form ("gals" or
    "galerkin") on the numbering `dofh`: the interleaved displacement dofs,
    then for "gals" the pressure dofs, offset by all of u's 2 * n_dofs."""
    l2g = dofh.vector_loc2glob()
    if kind == "gals":
        l2g = np.concatenate([l2g, 2 * dofh.n_dofs + dofh.loc2glob], axis=1)
    return l2g


def _distinct_rows(rows):
    """The first of each set of bitwise-equal rows of `rows` (n, c), and the
    set of each row: rows == rows[first][inverse].  The rows are compared as
    one opaque value each, which sorts far faster than a record of c
    fields."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse.ravel()


def element_matrices(tab, kind, Gq, epsq, alpha):
    """Element matrices (..., nt, nl, nl) of the `kind` form over the
    unknowns of `unknown_map`, and the least-squares rows `Dall` of
    `gals_element_matrices` (None for "galerkin", which ignores `alpha`).

    The kernels run once per distinct triangle, on `tab.take`, and their
    results are gathered back along the triangle axis.  Two triangles are
    the same when their Jacobians, diameters, every group's samples of
    `Gq` and `epsq` and, where it is given per triangle, `alpha` match
    bitwise: under a constant material the lattice of a local mesh has two
    (the reference-tensor idea of Kirby & Logg, ACM TOMS 32, 2006)."""
    lead, nt = Gq.shape[:-2], Gq.shape[-2]
    epsq = np.broadcast_to(epsq, Gq.shape)
    per_triangle = kind == "gals" and np.ndim(alpha) > len(lead)
    keyed = [(tab.geo.j, 0), (tab.geo.diameters, 0), (Gq, -2), (epsq, -2)]
    if per_triangle:
        alpha = np.asarray(alpha, dtype=float)
        keyed.append((alpha, -1))
    first, inverse = _distinct_rows(np.concatenate(
        [np.moveaxis(a, axis, 0).reshape(nt, -1) for a, axis in keyed],
        axis=1))
    if len(first) < nt:
        tab, Gq, epsq = tab.take(first), Gq[..., first, :], epsq[..., first, :]
        if per_triangle:
            alpha = alpha[..., first]
    if kind == "gals":
        A, Dall = gals_element_matrices(tab, Gq, epsq, alpha)
    else:
        A, Dall = galerkin_element_matrices(tab, Gq, epsq), None
    if len(first) < nt:
        A = A[..., inverse, :, :]
        Dall = None if Dall is None else Dall[..., inverse, :, :, :]
    return A, Dall


def load_vector(tab, fq, Dall=None, alpha=None):
    """Element load vectors of loads `fq` (..., nt, nq, 2), one per leading
    index.  When `Dall` (..., nt, nq, 3nb, 2) is given, broadcasting against
    the loads, adds the least-squares load term + alpha h_tau^2 (f, div(...))
    over the combined [u; p] unknowns, (..., nt, 3nb), with `alpha` given
    once per leading index of `Dall` or per triangle; otherwise returns the
    plain displacement load (..., nt, 2nb)."""
    nb = tab.ref.n_basis
    w = tab.wdet
    Fu = tab.vals.T @ (w[..., None] * fq)                # (..., nt, nb, 2)
    Fu = Fu.reshape(Fu.shape[:-2] + (2 * nb,))
    if Dall is None:
        return Fu
    ls_w = _ls_weights(tab, alpha, Dall.shape[:-4])
    X = (ls_w[..., None] * w)[..., None] * fq
    # rows (q, i) of the least-squares operator against its columns (a)
    D = np.swapaxes(Dall, -1, -2).reshape(Dall.shape[:-3]
                                         + (-1, Dall.shape[-2]))
    F = (X.reshape(X.shape[:-2] + (1, -1)) @ D)[..., 0, :]
    F[..., :2 * nb] += Fu
    return F


def field_values(tab, loc2glob, U, P, eps, signs, grad_p=False):
    """The discrete fields of m members at their images of the points of
    `tab`: u_h (m, nt, nq, 2), grad u_h (m, nt, nq, 2, 2), p_h (m, nt, nq)
    and, with `grad_p`, grad p_h (m, nt, nq, 2) (else None), from the
    members' interleaved coefficients `U` (m, 2nsd) and pressure
    coefficients `P` (m, nsd) at the images of the mesh's nodes.  With `P`
    None, p_h is the implied -div u_h / eps, `eps` broadcasting against
    (m, nt, nq).  Member i is the image of the tabulated mesh under a map
    with the linear part J = s I, s = `signs[i]` (`map_signs`).

    The gathered coefficients meet the reference tables of `tab` (`vals`,
    `ref_grads` and, for the gradient of an implied pressure, `ref_hess`)
    in one matrix product; each triangle's map `tab.geo.jinv` and the
    member's J then give the gradients s J^-T grad and the Hessians
    J^-T Hess J^-1 (s^2 = 1)."""
    nq, nb = tab.vals.shape
    m, nt = len(U), len(loc2glob)
    tables = [tab.vals[..., None], tab.ref_grads]
    if grad_p and P is None:                   # Hessians xx, xy, yy
        tables.append(tab.ref_hess.reshape(nq, nb, 4)[..., [0, 1, 3]])
    R = np.moveaxis(np.concatenate(tables, axis=-1), 0, -1).reshape(nb, -1)
    # rows (member, triangle, component): u_x, u_y and then p
    rows = 2 * loc2glob[:, None] + np.arange(2)[:, None]       # (nt, 2, nb)
    coef = U
    if P is not None:
        rows = np.concatenate([rows, U.shape[1] + loc2glob[:, None]], axis=1)
        coef = np.concatenate([U, P], axis=1)
    F = (coef[:, rows].reshape(-1, nb) @ R).reshape(m, nt, rows.shape[1],
                                                     -1, nq)
    # s J^-T against the reference gradients (m, nt, c, 2, nq) of each row
    sjinv_t = np.reshape(signs, (m, 1, 1, 1)) * tab.geo.jinv_t
    g = sjinv_t[:, :, None] @ F[:, :, :, 1:3]
    uh = np.moveaxis(F[:, :, :2, 0], 2, -1)
    guh = np.moveaxis(g[:, :, :2], -1, 2)
    gph = None
    if P is not None:
        ph = F[:, :, 2, 0]
        if grad_p:
            gph = np.moveaxis(g[:, :, 2], -1, 2)
        return uh, guh, ph, gph
    ph = -(g[:, :, 0, 0] + g[:, :, 1, 1]) / eps
    if grad_p:
        # grad div u_h = J^-T a, a_l = sum_(c, i) jinv[i, c] H^_c[i, l]: the
        # map N = J^-T M (nt, 2, (c, xx|xy|yy)) against the Hessian rows
        M = np.zeros((nt, 2, 2, 3))
        M[:, 0, :, :2] = M[:, 1, :, 1:] = tab.geo.jinv_t
        N = tab.geo.jinv_t @ M.reshape(nt, 2, 6)
        H = F[:, :, :2, 3:].reshape(m, nt, 6, nq)
        gph = -np.moveaxis(N @ H, -1, 2) / np.asarray(eps)[..., None]
    return uh, guh, ph, gph


def stress(G, grad_u, p):
    """The stress 2 G eps(u) - p I (..., 2, 2) of a displacement gradient
    (..., 2, 2) and a pressure (...), with G broadcasting against p; formed
    component by component, as the 2 x 2 axes are too short for a loop."""
    G, g = np.asarray(G), grad_u
    s = np.empty(np.broadcast_shapes(G.shape, g.shape[:-2], np.shape(p))
                 + (2, 2))
    s[..., 0, 0] = 2 * G * g[..., 0, 0] - p
    s[..., 1, 1] = 2 * G * g[..., 1, 1] - p
    s[..., 0, 1] = s[..., 1, 0] = G * (g[..., 0, 1] + g[..., 1, 0])
    return s


# the most elements in a part of the bisection of `dissection_order`
DISSECTION_LEAF = 4


def _bisection_leaves(centroids):
    """The leaf (nt,) of each element, of centroid `centroids[e]`, in a
    recursive bisection, and the depth d of the leaves.  The elements are
    bisected level by level, each part cut at the median of its centroids
    along the longer side of their bounding box, until no part holds more
    than DISSECTION_LEAF.  The parts of a level differ in size by at most
    one, so every leaf lies at depth d, and the d bits of its index spell
    its path from the root: bit d - 1 - l is 1 in the upper half of the cut
    at level l."""
    c = np.asarray(centroids, dtype=float)
    nt = len(c)
    d = 0
    while -(-nt >> d) > DISSECTION_LEAF:        # ceil(nt / 2^d)
        d += 1
    perm = np.arange(nt)
    for level in range(d + 1):
        bounds = (np.arange(2 ** level + 1) * nt) >> level
        part = np.repeat(np.arange(2 ** level), np.diff(bounds))
        if level == d:
            break
        x = c[perm]
        extent = (np.maximum.reduceat(x, bounds[:-1])
                  - np.minimum.reduceat(x, bounds[:-1]))
        axis = (extent[:, 1] > extent[:, 0]).astype(np.intp)
        perm = perm[np.lexsort((x[np.arange(nt), axis[part]], part))]
    leaf = np.empty(nt, dtype=np.int64)
    leaf[perm] = part
    return leaf, d


def dissection_order(centroids, incidence, n):
    """The rank (n,) of each of `n` unknown groups in a nested-dissection
    order of a mesh (George, SIAM J. Numer. Anal. 10, 1973): element e, of
    centroid `centroids[e]`, holds the groups `incidence[e]`.

    A group belongs to the lowest common ancestor, in the bisection of
    `_bisection_leaves`, of the leaves of its elements: the common binary
    prefix of its smallest and largest leaf.  Groups inside one half of a
    cut then share no element with those inside the other, and the groups
    of the cut itself rank after both halves (post-order, ties by id)."""
    leaf, d = _bisection_leaves(centroids)
    incidence = np.asarray(incidence)
    held = np.repeat(leaf, incidence.shape[1])
    lo, hi = np.full(n, 2 ** d - 1), np.zeros(n, dtype=np.int64)
    np.minimum.at(lo, incidence.ravel(), held)
    np.maximum.at(hi, incidence.ravel(), held)
    # the ancestor s levels above the leaves lo and hi, and the last leaf of
    # its subtree: post-order sorts by that leaf, then from deep to high
    s = np.frexp((lo ^ hi).astype(float))[1]
    order = np.lexsort((np.arange(n), s, lo | ((1 << s) - 1)))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return rank


def abs_row_sums(M):
    """Absolute row sums of a sparse matrix, from the CSC arrays directly."""
    M = M.tocsc()
    return np.bincount(M.indices, np.abs(M.data), minlength=M.shape[0])


def _block_norms(M, blocks):
    """2-norms (blocks, c) of the row blocks of every column of M (N, c)."""
    return np.linalg.norm(M.reshape(blocks, -1, M.shape[1]), axis=1)


# relative residual bound of every checked solve (`checked_solve`)
RESIDUAL_RTOL = 1e-10


def checked_solve(factor, M, B, error, what, hint, blocks=1,
                  residual_hint=None):
    """Solve M X = B, B 1-D or (N, c), with the factorization `factor()`
    (a SuperLU object) and accept X only if every column satisfies, in each
    of the `blocks` equal diagonal blocks of M,
    ||M x - b|| <= RESIDUAL_RTOL (||b|| + ||M_block||_inf ||x||), with the
    vector norms taken over the block's rows; a non-finite value fails.  A
    singular factor or a failed check raises `error`, naming the `what`
    system and ending with `hint`, or for a failed check with the string
    `residual_hint()` when that function is given; a failed check names the
    largest ratio of a residual to its reference and the bound.  The
    residuals are formed 32 columns at a time, which keeps the memory of
    the solve."""
    try:
        X = factor().solve(B)
    except RuntimeError as exc:          # SuperLU: "Factor is exactly singular"
        raise error(f"singular {what} system; {hint}") from exc
    X2, B2 = X.reshape(len(X), -1), B.reshape(len(B), -1)
    scale = abs_row_sums(M).reshape(blocks, -1).max(axis=1, initial=0.0)
    res, ref = np.empty((2, blocks, X2.shape[1]))
    for j in range(0, X2.shape[1], 32):
        cols = slice(j, j + 32)
        r = M @ X2[:, cols]
        r -= B2[:, cols]
        res[:, cols] = _block_norms(r, blocks)
        ref[:, cols] = (_block_norms(B2[:, cols], blocks)
                        + scale[:, None] * _block_norms(X2[:, cols], blocks))
    # a NaN fails the comparison, an infinite x makes its reference infinite
    finite, ref = np.isfinite(ref), np.maximum(ref, 1e-300)
    if not np.all(finite & (res <= RESIDUAL_RTOL * ref)):
        with np.errstate(all="ignore"):
            worst = np.max(np.where(finite, res / ref, np.inf))
        raise error(f"{what} solve residual {worst:.3e} (relative, bound "
                    f"{RESIDUAL_RTOL:.0e}) exceeds tolerance; "
                    f"{hint if residual_hint is None else residual_hint()}")
    return X


def block_triplets(matrices, loc2glob):
    """COO rows, columns and values of per-triangle dense blocks."""
    nt, nl, _ = matrices.shape
    return (np.repeat(loc2glob, nl, axis=1).ravel(),
            np.tile(loc2glob, (1, nl)).ravel(), matrices.ravel())


def scatter(blocks, loc2glob, n):
    """Accumulate element blocks (..., nt, nl, nl) on the element map
    `loc2glob` (nt, nl) into a CSC matrix with one diagonal block of `n`
    unknowns per leading index of `blocks`, in their order.  The indices
    take scipy's index dtype for the dimension and the entry count (int32
    while both fit), which the conversion then uses uncopied."""
    ng, nl = int(np.prod(blocks.shape[:-3])), loc2glob.shape[1]
    offset = n * np.arange(ng)[:, None, None]
    idx = (loc2glob + offset).astype(
        sp.get_index_dtype(maxval=max(ng * n, blocks.size)))
    rows, cols, vals = block_triplets(blocks.reshape(-1, nl, nl),
                                      idx.reshape(-1, nl))
    return sp.csc_matrix((vals, (rows, cols)), shape=(ng * n,) * 2)


def pinned(K, fixed):
    """The CSC matrix K with the rows and columns `fixed` replaced by those
    of the identity, taken from K's arrays: K's diagonal entries at the
    fixed dofs become 1 and the other entries of their rows and columns are
    dropped."""
    cols = np.repeat(np.arange(K.shape[1]), np.diff(K.indptr))
    mask = np.zeros(K.shape[0], dtype=bool)
    mask[fixed] = True
    unit = mask[cols] & (K.indices == cols)
    keep = ~(mask[K.indices] | mask[cols]) | unit
    indptr = np.zeros(K.shape[1] + 1, dtype=K.indptr.dtype)
    np.cumsum(np.bincount(cols[keep], minlength=K.shape[1]), out=indptr[1:])
    return sp.csc_matrix((np.where(unit, 1.0, K.data)[keep],
                          K.indices[keep], indptr), shape=K.shape)


def scatter_vector(vectors, loc2glob, n):
    """Accumulate per-triangle vectors (..., nt, nl) into vectors (..., n)."""
    v = np.asarray(vectors)
    out = [np.bincount(loc2glob.ravel(), weights=w, minlength=n)
           for w in v.reshape(-1, loc2glob.size)]
    return np.reshape(out, v.shape[:-2] + (n,))
