"""Reference-element machinery: Lagrange P_k shape functions with first and
second derivatives, quadrature rules on triangles and segments, and the
numerical estimation of the inverse-inequality constant used to bound the
stabilization parameter.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh, null_space

__all__ = [
    "K_MAX",
    "MHMError",
    "ReferenceElement",
    "QuadratureRule",
    "InverseConstant",
    "reference_element",
    "quad_rule",
    "estimate_inverse_constant",
    "inverse_constant",
]


class MHMError(RuntimeError):
    """Base class of the failures that stop a solve."""


# the highest local degree whose solves pass their 1e-10 residual check: on
# the n = 1 grid the kernel defect of the equispaced basis reaches 5e-11 at
# k = 13 and 1.7e-10 at k = 14 (see `local_solver._residual_hint`)
K_MAX = 13


# ---------------------------------------------------------------------------
# Lagrange basis on the reference triangle {(x, y): x, y >= 0, x + y <= 1}
# ---------------------------------------------------------------------------

def _lattice_nodes(k):
    """Lagrange node lattice, ordered: 3 vertices, then (k-1) nodes per edge
    (edge 0: v0->v1, edge 1: v1->v2, edge 2: v2->v0), then interior nodes.
    """
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(verts)
    for t in range(1, k):
        nodes.append((t / k, 0.0))                 # edge v0 -> v1
    for t in range(1, k):
        nodes.append(((k - t) / k, t / k))         # edge v1 -> v2
    for t in range(1, k):
        nodes.append((0.0, (k - t) / k))           # edge v2 -> v0
    for j in range(1, k):
        for i in range(1, k - j):
            nodes.append((i / k, j / k))
    return np.array(nodes)


class ReferenceElement:
    """Scalar Lagrange P_k element on the reference triangle.

    Shape functions are represented in the monomial basis of the centred
    coordinates 3 (x - 1/3), 3 (y - 1/3) through the inverse of the node
    Vandermonde matrix; the local solves pass their residual check to
    k = K_MAX = 13.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.degree = k
        self.nodes = _lattice_nodes(k)
        self.exponents = np.array(
            [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
        )
        V = self._monomials(self.nodes)
        self.coeffs = np.linalg.inv(V)  # column i: monomial coeffs of N_i
        self.n_basis = len(self.nodes)
        # counts used by the dof handler
        self.n_edge_nodes = k - 1
        self.n_interior_nodes = self.n_basis - 3 - 3 * (k - 1)

    def _monomials(self, pts):
        X = 3 * (np.asarray(pts, dtype=float) - 1 / 3)
        a = self.exponents[:, 0]
        b = self.exponents[:, 1]
        return X[:, 0:1] ** a * X[:, 1:2] ** b

    def tabulate(self, pts):
        """Evaluate (values, gradients, hessians) at reference points.

        Returns arrays of shape (npts, nb), (npts, nb, 2), (npts, nb, 2, 2).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = self.exponents[:, 0].astype(float)
        b = self.exponents[:, 1].astype(float)
        x = 3 * (pts[:, 0:1] - 1 / 3)         # the centred coordinates
        y = 3 * (pts[:, 1:2] - 1 / 3)
        # where an exponent is clipped at 0, its term's factor a, a - 1, b
        # or b - 1 is 0
        xa, xam1, xam2 = (x ** np.maximum(a - d, 0) for d in range(3))
        yb, ybm1, ybm2 = (y ** np.maximum(b - d, 0) for d in range(3))
        mono = xa * yb
        dx = a * xam1 * yb
        dy = b * xa * ybm1
        dxx = a * (a - 1) * xam2 * yb
        dyy = b * (b - 1) * xa * ybm2
        dxy = a * b * xam1 * ybm1
        C = self.coeffs
        vals = mono @ C
        grads = 3 * np.stack([dx @ C, dy @ C], axis=-1)
        hess = np.empty((pts.shape[0], self.n_basis, 2, 2))
        hess[:, :, 0, 0] = 9 * (dxx @ C)
        hess[:, :, 1, 1] = 9 * (dyy @ C)
        hess[:, :, 0, 1] = 9 * (dxy @ C)
        hess[:, :, 1, 0] = hess[:, :, 0, 1]
        return vals, grads, hess


@lru_cache(maxsize=None)
def reference_element(k):
    return ReferenceElement(k)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_MAX_EXACTNESS = 60


@dataclass(frozen=True)
class QuadratureRule:
    kind: str              # "triangle" | "segment"
    points: np.ndarray     # (nq, 2) reference coords or (nq,) on [0, 1]
    weights: np.ndarray
    exactness: int


@lru_cache(maxsize=None)
def quad_rule(kind, exactness):
    """Quadrature exact to the requested total degree.

    Segments use Gauss-Legendre on [0, 1]; triangles use a collapsed
    (Duffy-type) tensor Gauss rule on the reference triangle.
    """
    if exactness < 0:
        raise ValueError("exactness must be >= 0")
    if exactness > _MAX_EXACTNESS:
        raise ValueError(f"exactness {exactness} above implemented table")
    if kind == "segment":
        n = max(1, (exactness + 2) // 2)
        x, w = np.polynomial.legendre.leggauss(n)
        return QuadratureRule("segment", (x + 1) / 2, w / 2, exactness)
    if kind == "triangle":
        # x = xi * (1 - eta), y = eta; Jacobian factor (1 - eta).
        p = exactness
        mx = max(1, (p + 2) // 2)
        my = max(1, (p + 3) // 2)
        gx, wx = np.polynomial.legendre.leggauss(mx)
        gy, wy = np.polynomial.legendre.leggauss(my)
        gx = (gx + 1) / 2
        wx = wx / 2
        gy = (gy + 1) / 2
        wy = wy / 2
        XI, ETA = np.meshgrid(gx, gy, indexing="ij")
        WX, WY = np.meshgrid(wx, wy, indexing="ij")
        pts = np.column_stack([(XI * (1 - ETA)).ravel(), ETA.ravel()])
        wts = (WX * WY * (1 - ETA)).ravel()
        return QuadratureRule("triangle", pts, wts, exactness)
    raise ValueError(f"unknown quadrature domain {kind!r}")


# ---------------------------------------------------------------------------
# Inverse inequality constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseConstant:
    degree: int
    value: float
    safe_value: float


def estimate_inverse_constant(k, sample_mesh, safety=0.9):
    """Numerically estimate the largest constant C such that

        C * sum_tau h_tau^2 (h_K^-2 ||eps(v)||_tau^2 + ||div eps(v)||_tau^2)
            <= ||eps(v)||_K^2

    for all continuous P_k vector fields v on the sample mesh.  Computed as
    the smallest generalized Rayleigh quotient of the two quadratic forms on
    the complement of the rigid-body modes (where both forms vanish).
    """
    from . import _assembly as asm

    ref = reference_element(k)
    dofh = asm.DofHandler(sample_mesh, ref)
    tab = asm.Tabulation(sample_mesh, ref, max(0, 2 * k))
    h_tau = tab.geo.diameters
    h_K = sample_mesh.h_max
    nd = 2 * dofh.n_dofs

    E = asm.strain_product_blocks(tab, 1.0)
    D = asm.stress_divergence_rows(tab, np.ones(tab.wdet.shape))
    DD = np.einsum("tq,tqai,tqbi->tab", tab.wdet, D, D)
    l2g = dofh.vector_loc2glob()
    M = asm.scatter(E, l2g, nd).toarray()
    Q = asm.scatter(h_tau[:, None, None] ** 2 * (E / h_K**2 + DD), l2g,
                    nd).toarray()

    # both forms vanish on the rigid modes
    xy = dofh.dof_coords
    R = asm.RigidModes(xy.mean(axis=0)).nodal_coefficients(xy)
    Z = null_space(R.T)
    Mz = Z.T @ M @ Z
    Qz = Z.T @ Q @ Z
    Qz = 0.5 * (Qz + Qz.T)
    Mz = 0.5 * (Mz + Mz.T)
    try:
        vals = eigh(Mz, Qz, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise MHMError("singular mass form (degenerate mesh)") from exc
    c_i = float(vals[0])
    if c_i <= 0:
        raise MHMError("non-positive inverse-constant estimate")
    return InverseConstant(k, c_i, safety * c_i)


@lru_cache(maxsize=None)
def inverse_constant(k):
    """Default inverse constant per degree, estimated on a single reference
    triangle.  Conservative for red-refined meshes, whose sub-triangles are
    similar to the parent and carry h_tau <= h_K."""
    from .mesh import TriMesh

    mesh = TriMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    return estimate_inverse_constant(k, mesh)
