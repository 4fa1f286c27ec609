"""Internal vectorized assembly helpers shared by the local solvers and the
single-level methods: continuous P_k dof handling, affine-map geometry, and
the element kernels of the displacement-pressure and displacement forms.
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
        return self.origin[:, None, :] + np.einsum(
            "tij,qj->tqi", self.j, np.asarray(ref_pts))

    def reference_coords(self, t, x):
        """Pull physical points back to the reference triangle of triangle t."""
        return (np.asarray(x) - self.origin[t]) @ self.jinv[t].T


class DofHandler:
    """Global numbering for a continuous scalar P_k space on a TriMesh.

    Layout: vertex dofs, then (k-1) dofs per mesh edge (ordered from the
    lower- to the higher-indexed vertex), then interior dofs per triangle.
    Vector fields use interleaved components: dof 2*s + c.
    """

    def __init__(self, mesh, ref):
        self.mesh = mesh
        self.ref = ref
        k = ref.degree
        nv = mesh.n_vertices
        edge_ids = {}
        edge_tris = {}
        for t, tri in enumerate(mesh.triangles):
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                if key not in edge_ids:
                    edge_ids[key] = len(edge_ids)
                edge_tris.setdefault(key, []).append(t)
        self.edge_ids = edge_ids
        self.edge_tris = edge_tris
        ne = len(edge_ids)
        npe = k - 1
        nint = ref.n_interior_nodes
        self.n_dofs = nv + ne * npe + mesh.n_triangles * nint

        loc2glob = np.empty((mesh.n_triangles, ref.n_basis), dtype=int)
        for t, tri in enumerate(mesh.triangles):
            loc2glob[t, 0:3] = tri
            for le, (a, b) in enumerate(((tri[0], tri[1]), (tri[1], tri[2]),
                                         (tri[2], tri[0]))):
                eid = edge_ids[(min(a, b), max(a, b))]
                base = nv + eid * npe
                sl = slice(3 + le * npe, 3 + (le + 1) * npe)
                if a < b:
                    loc2glob[t, sl] = np.arange(base, base + npe)
                else:
                    loc2glob[t, sl] = np.arange(base + npe - 1, base - 1, -1)
            ibase = nv + ne * npe + t * nint
            loc2glob[t, 3 + 3 * npe:] = np.arange(ibase, ibase + nint)
        self.loc2glob = loc2glob

        geo = Geometry(mesh)
        coords = np.empty((self.n_dofs, 2))
        phys = geo.physical_points(ref.nodes)
        for t in range(mesh.n_triangles):
            coords[loc2glob[t]] = phys[t]
        self.dof_coords = coords

    def translated(self, mesh, shift):
        """This numbering on `mesh`, a copy of the handler's mesh translated
        by `shift`: shares the connectivity, with shifted dof coordinates."""
        out = copy.copy(self)
        out.mesh = mesh
        out.dof_coords = self.dof_coords + shift
        return out

    def vector_loc2glob(self):
        """Interleaved vector dof map of shape (nt, 2 * n_basis)."""
        nb = self.ref.n_basis
        out = np.empty((self.mesh.n_triangles, 2 * nb), dtype=int)
        out[:, 0::2] = 2 * self.loc2glob
        out[:, 1::2] = 2 * self.loc2glob + 1
        return out

    def boundary_scalar_dofs(self):
        """Scalar dofs lying on edges adjacent to a single triangle."""
        k = self.ref.degree
        nv = self.mesh.n_vertices
        npe = k - 1
        out = set()
        for key, tris in self.edge_tris.items():
            if len(tris) != 1:
                continue
            out.update(key)
            eid = self.edge_ids[key]
            out.update(range(nv + eid * npe, nv + (eid + 1) * npe))
        return np.array(sorted(out), dtype=int)


class Tabulation:
    """Reference-element tabulation pushed to every triangle of a mesh."""

    def __init__(self, mesh, ref, exactness):
        self.mesh = mesh
        self.ref = ref
        self.rule = quad_rule("triangle", exactness)
        self.geo = Geometry(mesh)
        vals, grads, hess = ref.tabulate(self.rule.points)
        self.vals = vals                                    # (nq, nb)
        self.grads = np.einsum("tji,qbi->tqbj", self.geo.jinv_t, grads)
        hs = np.einsum("tji,qbim,tml->tqbjl", self.geo.jinv_t, hess,
                       self.geo.jinv, optimize=True)
        self.hess = hs
        self.lap = hs[..., 0, 0] + hs[..., 1, 1]
        self.wdet = self.rule.weights[None, :] * self.geo.detj[:, None]
        self.points = self.geo.physical_points(self.rule.points)


def strain_product_blocks(tab, factor):
    """(nt, 2nb, 2nb) blocks of int factor * eps(phi_I) : eps(phi_J)."""
    g = tab.grads
    w = tab.wdet * factor
    nb = tab.ref.n_basis
    gg = np.einsum("tq,tqbi,tqci->tbc", w, g, g)
    gcross = np.einsum("tq,tqbi,tqcj->tbicj", w, g, g)
    E = np.empty((g.shape[0], 2 * nb, 2 * nb))
    for c in range(2):
        for d in range(2):
            blk = 0.5 * gcross[:, :, d, :, c]
            if c == d:
                blk = blk + 0.5 * gg
            E[:, c::2, d::2] = blk
    return E


def divergence_rows(tab):
    """div of vector basis functions: (nt, nq, 2nb)."""
    nt, nq, nb, _ = tab.grads.shape
    d = np.empty((nt, nq, 2 * nb))
    d[:, :, 0::2] = tab.grads[..., 0]
    d[:, :, 1::2] = tab.grads[..., 1]
    return d


def stress_divergence_rows(tab, twoG):
    """div(2G eps(phi_I)) for vector basis functions, with G treated as
    constant per triangle at quadrature points: (nt, nq, 2nb, 2)."""
    nt, nq, nb, _, _ = tab.hess.shape
    D = np.empty((nt, nq, 2 * nb, 2))
    for c in range(2):
        D[:, :, c::2, :] = 0.5 * tab.hess[..., c]
        D[:, :, c::2, c] += 0.5 * tab.lap
    return D * twoG[..., None, None]


def gals_element_matrices(tab, Gq, epsq, alpha):
    """Element matrices of the displacement-pressure form with least-squares
    stabilization, over local unknowns [u (2nb, interleaved); p (nb)].

    `alpha` is scalar or per-triangle; the least-squares weight is
    alpha * h_tau^2 per triangle.
    """
    nt, nq = Gq.shape
    nb = tab.ref.n_basis
    ndl = 3 * nb
    w = tab.wdet
    A = np.zeros((nt, ndl, ndl))

    A[:, :2 * nb, :2 * nb] = strain_product_blocks(tab, 2.0 * Gq)
    d = divergence_rows(tab)
    # -p div v and symmetric counterpart
    Bup = -np.einsum("tq,tqI,qp->tIp", w, d, tab.vals)
    A[:, :2 * nb, 2 * nb:] = Bup
    A[:, 2 * nb:, :2 * nb] = np.swapaxes(Bup, 1, 2)
    A[:, 2 * nb:, 2 * nb:] = -np.einsum("tq,qa,qb->tab", w * epsq,
                                        tab.vals, tab.vals)

    Dall = stress_divergence_rows_full(tab, 2.0 * Gq)
    ls_w = np.asarray(alpha) * tab.geo.diameters ** 2
    A -= np.einsum("t,tq,tqai,tqbi->tab", ls_w, w, Dall, Dall)
    return A, Dall


def stress_divergence_rows_full(tab, twoG):
    """div(2G eps(u) - p I) rows for the combined [u; p] local unknowns:
    (nt, nq, 3nb, 2)."""
    nb = tab.ref.n_basis
    nt, nq = tab.wdet.shape
    Dall = np.empty((nt, nq, 3 * nb, 2))
    Dall[:, :, :2 * nb, :] = stress_divergence_rows(tab, twoG)
    Dall[:, :, 2 * nb:, :] = -tab.grads
    return Dall


def galerkin_element_matrices(tab, Gq, epsq):
    """Element matrices of the displacement form
    int 2G eps(u):eps(v) + (1/eps) (div u)(div v)."""
    A = strain_product_blocks(tab, 2.0 * Gq)
    d = divergence_rows(tab)
    A += np.einsum("tq,tqI,tqJ->tIJ", tab.wdet / epsq, d, d)
    return A


def load_vector(tab, fq, Dall=None, alpha=None):
    """Element load vectors.  `fq` has shape (nt, nq, 2).  When `Dall` is
    given, adds the least-squares load term + alpha h_tau^2 (f, div(...))
    over the combined [u; p] unknowns; otherwise returns the plain (2nb,)
    displacement load."""
    nb = tab.ref.n_basis
    w = tab.wdet
    Fu = np.einsum("tq,tqc,qb->tbc", w, fq, tab.vals)
    nt = w.shape[0]
    Fu_il = np.empty((nt, 2 * nb))
    Fu_il[:, 0::2] = Fu[..., 0]
    Fu_il[:, 1::2] = Fu[..., 1]
    if Dall is None:
        return Fu_il
    F = np.zeros((nt, 3 * nb))
    F[:, :2 * nb] = Fu_il
    ls_w = np.asarray(alpha) * tab.geo.diameters ** 2
    F += np.einsum("t,tq,tqi,tqai->ta", ls_w, w, fq, Dall)
    return F


def scatter(matrices, loc2glob, shape):
    """Accumulate per-triangle dense blocks into a CSR matrix."""
    nt, nl, _ = matrices.shape
    rows = np.repeat(loc2glob, nl, axis=1).ravel()
    cols = np.tile(loc2glob, (1, nl)).ravel()
    return sp.coo_matrix((matrices.ravel(), (rows, cols)), shape=shape).tocsr()


def scatter_vector(vectors, loc2glob, n):
    out = np.zeros(n)
    np.add.at(out, loc2glob.ravel(), vectors.ravel())
    return out
