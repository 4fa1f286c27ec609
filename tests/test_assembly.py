"""Element kernels and geometry of `_assembly` against an oracle written
from the definitions, one triangle and one quadrature point at a time, and
the acceptance policy of its checked sparse solve."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm, splu

from mhmelast import TriMesh, unit_square_mesh
from mhmelast import _assembly as asm
from mhmelast.fem_core import reference_element

from conftest import _jittered_mesh


def _sheared_mesh():
    """Four counterclockwise triangles, sheared and stretched differently,
    so that no two share a Jacobian."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9], [1.4, 1.1],
                         [-0.5, 0.6], [0.6, -0.7]])
    triangles = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 5, 1]])
    return TriMesh(vertices, triangles)


def _oracle(mesh, ref, rule, Gq, epsq, alpha):
    """Per triangle and quadrature point: physical gradients and Hessians,
    the strain product 2G eps(phi):eps(psi), the displacement-pressure
    matrix with its least-squares term, the div(2G eps(u) - pI) rows and
    the displacement matrix with (1/eps) div u div v."""
    vals, rgrads, rhess = ref.tabulate(rule.points)
    nb = ref.n_basis
    nt, nq = Gq.shape
    grads = np.empty((nt, nq, nb, 2))
    hess = np.empty((nt, nq, nb, 2, 2))
    strain = np.zeros((nt, 2 * nb, 2 * nb))
    gals = np.zeros((nt, 3 * nb, 3 * nb))
    galerkin = np.zeros((nt, 2 * nb, 2 * nb))
    rows = np.empty((nt, nq, 3 * nb, 2))
    for t, tri in enumerate(mesh.triangles):
        v0, v1, v2 = mesh.vertices[tri]
        J = np.column_stack([v1 - v0, v2 - v0])
        Jinv = np.linalg.inv(J)
        edges = [v1 - v0, v2 - v1, v0 - v2]
        h = max(np.linalg.norm(e) for e in edges)
        ls = alpha[t] * h ** 2
        for q in range(nq):
            w = rule.weights[q] * np.linalg.det(J)
            G, eps = Gq[t, q], epsq[t, q]
            # vector basis function 2b + c is N_b e_c
            eps_phi = np.zeros((2 * nb, 2, 2))
            div_phi = np.zeros(2 * nb)
            D = np.zeros((3 * nb, 2))
            for b in range(nb):
                g = Jinv.T @ rgrads[q, b]
                H = Jinv.T @ rhess[q, b] @ Jinv
                grads[t, q, b] = g
                hess[t, q, b] = H
                for c in range(2):
                    grad_phi = np.outer(np.eye(2)[c], g)   # d(phi_i)/dx_j
                    eps_phi[2 * b + c] = 0.5 * (grad_phi + grad_phi.T)
                    div_phi[2 * b + c] = g[c]
                    # div(2G eps(N_b e_c))_i = G (H_ic + delta_ic lap N_b)
                    D[2 * b + c] = G * (H[:, c] + np.eye(2)[c] * np.trace(H))
                D[2 * nb + b] = -g                          # div(-N_b I)
            rows[t, q] = D
            ee = 2 * G * np.einsum("Iij,Jij->IJ", eps_phi, eps_phi)
            strain[t] += w * ee
            galerkin[t] += w * (ee + np.outer(div_phi, div_phi) / eps)
            gals[t, :2 * nb, :2 * nb] += w * ee
            gals[t, :2 * nb, 2 * nb:] -= w * np.outer(div_phi, vals[q])
            gals[t, 2 * nb:, :2 * nb] -= w * np.outer(vals[q], div_phi)
            gals[t, 2 * nb:, 2 * nb:] -= w * eps * np.outer(vals[q], vals[q])
            gals[t] -= w * ls * D @ D.T
    return grads, hess, strain, gals, rows, galerkin


def _close(got, want):
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_element_kernels_match_pointwise_oracle(k):
    mesh = _sheared_mesh()
    ref = reference_element(k)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    rng = np.random.default_rng(k)
    Gq = 1.0 + rng.random(tab.wdet.shape)
    epsq = 1e-3 + rng.random(tab.wdet.shape)
    alpha = 0.05 * (1.0 + rng.random(mesh.n_triangles))
    grads, hess, strain, gals, rows, galerkin = _oracle(
        mesh, ref, tab.rule, Gq, epsq, alpha)

    assert _close(tab.grads, grads)
    assert _close(tab.hess, hess)         # both exactly zero for k = 1
    assert _close(asm.strain_product_blocks(tab, 2.0 * Gq), strain)
    A, Dall = asm.gals_element_matrices(tab, Gq, epsq, alpha)
    assert _close(A, gals)
    assert _close(Dall, rows)
    assert _close(asm.galerkin_element_matrices(tab, Gq, epsq), galerkin)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_points_and_load_match_einsum(k):
    # the matmul forms against the einsum contractions they replace
    tab = asm.Tabulation(unit_square_mesh(4), reference_element(k), 2 * k + 2)
    geo = tab.geo
    ref_pts = tab.rule.points
    want = geo.origin[:, None, :] + np.einsum("tij,qj->tqi", geo.j, ref_pts)
    assert _close(geo.physical_points(ref_pts), want)
    rng = np.random.default_rng(k)
    nb = tab.ref.n_basis
    for shape in ((), (3,)):
        fq = rng.standard_normal(shape + tab.wdet.shape + (2,))
        want = np.einsum("tq,...tqc,qb->...tbc", tab.wdet, fq, tab.vals)
        assert _close(asm.load_vector(tab, fq),
                      want.reshape(shape + (-1, 2 * nb)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernels_stack_material_groups(k):
    # a leading group axis of the samples gives each group's kernels and
    # loads, as computed one group at a time
    tab = asm.Tabulation(_sheared_mesh(), reference_element(k), 2 * k + 2)
    rng = np.random.default_rng(k)
    Gq = 1.0 + rng.random((3,) + tab.wdet.shape)
    epsq = 1e-3 + rng.random((3,) + tab.wdet.shape)
    alpha = np.array([0.01, 0.02, 0.05])
    fq = rng.standard_normal((3, 4) + tab.wdet.shape + (2,))
    A, Dall = asm.gals_element_matrices(tab, Gq, epsq, alpha)
    Ag = asm.galerkin_element_matrices(tab, Gq, epsq)
    F = asm.load_vector(tab, fq, Dall=Dall[:, None], alpha=alpha[:, None])
    for g in range(3):
        A1, D1 = asm.gals_element_matrices(tab, Gq[g], epsq[g], alpha[g])
        assert np.array_equal(A[g], A1) and np.array_equal(Dall[g], D1)
        assert np.array_equal(
            Ag[g], asm.galerkin_element_matrices(tab, Gq[g], epsq[g]))
        assert _close(F[g], asm.load_vector(tab, fq[g], Dall=D1,
                                            alpha=alpha[g]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_values_match_einsum(k):
    # the matmul forms of the field and pressure-gradient evaluation of a
    # stack of members against the einsum contractions they replace; the
    # second member is a point reflection of the mesh, whose gradients take
    # its sign and second derivatives do not
    mesh = _sheared_mesh()
    ref = reference_element(k)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    l2g = asm.DofHandler(mesh, ref).loc2glob
    rng = np.random.default_rng(k)
    m = 3
    U = rng.standard_normal((m, 2 * (l2g.max() + 1)))
    P = rng.standard_normal((m, l2g.max() + 1))
    eps = 0.3
    signs = np.array([1.0, -1.0, 1.0])
    s = signs[:, None, None, None]
    un = U.reshape(m, -1, 2)[:, l2g]
    guh = s[..., None] * np.einsum("tqbj,mtbc->mtqcj", tab.grads, un)
    cases = [(P, np.einsum("qb,mtb->mtq", tab.vals, P[:, l2g]),
              s * np.einsum("tqbj,mtb->mtqj", tab.grads, P[:, l2g])),
             # without pressure coefficients, the implied -div u_h / eps
             # (k = 1 has zero Hessians, so its gradient is 0)
             (None, -(guh[..., 0, 0] + guh[..., 1, 1]) / eps,
              -np.einsum("tqbcj,mtbc->mtqj", tab.hess, un) / eps)]
    for pcoef, ph, gph in cases:
        got = asm.field_values(tab, l2g, U, pcoef, eps, signs, grad_p=True)
        assert _close(got[0], np.einsum("qb,mtbc->mtqc", tab.vals, un))
        assert _close(got[1], guh)
        assert _close(got[2], ph)
        assert _close(got[3], gph)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_values_on_a_jittered_mesh(k):
    # the reference-table evaluation against sums over the pushed tables,
    # with and without pressure coefficients, for a scalar eps and for one
    # per point (the implied pressure and its Hessian path), on a point
    # reflection of the mesh and on the mesh
    mesh = _jittered_mesh(4, seed=k)
    ref = reference_element(k)
    tab = asm.Tabulation(mesh, ref, 2 * k + 4)
    l2g = asm.DofHandler(mesh, ref).loc2glob
    rng = np.random.default_rng(10 + k)
    m = 2
    U = rng.standard_normal((m, 2 * (l2g.max() + 1)))
    P = rng.standard_normal((m, l2g.max() + 1))
    signs = np.array([-1.0, 1.0])
    s = signs[:, None, None, None]
    un = U.reshape(m, -1, 2)[:, l2g]
    uh = np.einsum("qb,mtbc->mtqc", tab.vals, un)
    guh = s[..., None] * np.einsum("tqbj,mtbc->mtqcj", tab.grads, un)
    graddiv = np.einsum("tqbcj,mtbc->mtqj", tab.hess, un)
    if k > 1:
        assert np.abs(graddiv).max() > 1.0

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for eps in (0.3, 1e-3 + rng.random((m,) + tab.wdet.shape)):
        for pcoef in (P, None):
            got = asm.field_values(tab, l2g, U, pcoef, eps, signs,
                                   grad_p=True)
            assert close(got[0], uh) and close(got[1], guh)
            if pcoef is None:
                e = np.asarray(eps)
                assert close(got[2], -(guh[..., 0, 0] + guh[..., 1, 1]) / e)
                want = -graddiv / e[..., None]
                if k == 1:
                    assert np.array_equal(got[3], want)
                else:
                    assert close(got[3], want)
            else:
                assert close(got[2], np.einsum("qb,mtb->mtq", tab.vals,
                                               P[:, l2g]))
                assert close(got[3], s * np.einsum("tqbj,mtb->mtqj",
                                                   tab.grads, P[:, l2g]))
            assert got[3].shape == (m,) + tab.wdet.shape + (2,)
            # without grad_p, the same fields and no pressure gradient
            less = asm.field_values(tab, l2g, U, pcoef, eps, signs)
            assert less[3] is None
            assert all(close(a, b) for a, b in zip(less[:3], got[:3]))


def _kernel_sizes(monkeypatch):
    """The number of triangles each element kernel is handed."""
    sizes = []
    for name in ("gals_element_matrices", "galerkin_element_matrices"):
        def counting(tab, *args, kernel=getattr(asm, name)):
            sizes.append(len(tab.wdet))
            return kernel(tab, *args)
        monkeypatch.setattr(asm, name, counting)
    return sizes


def _kernel_case(case, k):
    """A tabulation, samples (..., nt, nq) and alpha of one case of
    `test_element_matrices_match_the_full_kernels`."""
    mesh = _jittered_mesh(6, seed=k) if case == "jittered" else \
        unit_square_mesh(8)
    tab = asm.Tabulation(mesh, reference_element(k), 2 * k + 2)
    x, y = tab.points[..., 0], tab.points[..., 1]
    Gq, epsq, alpha = np.ones_like(x), np.full_like(x, 1e-3), 0.02
    if case == "variable G":
        Gq = 1.0 + 0.5 * x * y
    elif case == "variable eps":
        epsq = 1e-3 * (1.0 + x + y ** 2)
    elif case == "stacked groups":
        Gq = np.array([1.0, 2.0, 1.0])[:, None, None] * Gq
        epsq = np.array([1e-3, 1e-3, 0.3])[:, None, None] * np.ones_like(Gq)
        alpha = np.array([0.01, 0.02, 0.02])
    elif case == "per-triangle alpha":
        alpha = np.where(np.arange(mesh.n_triangles) % 3 == 0, 0.01, 0.02)
    return tab, Gq, epsq, alpha


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("case", ["structured", "jittered", "variable G",
                                  "variable eps", "stacked groups",
                                  "per-triangle alpha"])
def test_element_matrices_match_the_full_kernels(monkeypatch, case, k):
    # the kernels run once per distinct triangle and are gathered back: the
    # same matrices and least-squares rows as on every triangle
    tab, Gq, epsq, alpha = _kernel_case(case, k)
    nt = tab.mesh.n_triangles
    full, _, _, _ = _kernel_case(case, k)
    A_gals, D_gals = asm.gals_element_matrices(full, Gq, epsq, alpha)
    A_galerkin = asm.galerkin_element_matrices(full, Gq, epsq)
    sizes = _kernel_sizes(monkeypatch)
    A, Dall = asm.element_matrices(tab, "gals", Gq, epsq, alpha)
    assert A.shape == A_gals.shape and Dall.shape == D_gals.shape
    assert _close(A, A_gals) and _close(Dall, D_gals)
    A, none = asm.element_matrices(tab, "galerkin", Gq, epsq, alpha)
    assert none is None and A.shape == A_galerkin.shape
    assert _close(A, A_galerkin)
    # no two triangles of the jittered mesh or under a varying G or eps
    # are alike; the unit square's maps repeat
    if case in ("jittered", "variable G", "variable eps"):
        assert sizes == [nt, nt]
    else:
        assert sizes[0] < nt and sizes[1] <= sizes[0]
        # the whole tabulation built no pushed tables
        assert tab._grads is None and tab._hess is None


def test_take_selects_triangles_of_the_tabulation():
    tab = asm.Tabulation(_jittered_mesh(3, seed=1), reference_element(2), 6)
    tab.grads                                  # built: taken, not rebuilt
    idx = np.array([4, 0, 4, 7])
    sub = tab.take(idx)
    assert np.array_equal(sub.wdet, tab.wdet[idx])
    assert np.array_equal(sub.points, tab.points[idx])
    assert np.array_equal(sub.geo.diameters, tab.geo.diameters[idx])
    assert np.array_equal(sub.grads, tab.grads[idx])
    assert _close(sub.hess, tab.hess[idx])
    assert sub.vals is tab.vals and sub.mesh is tab.mesh
    assert len(tab.wdet) == tab.mesh.n_triangles      # the original is kept


def test_solves_with_a_function_in_place_of_the_tabulation_class(
        monkeypatch):
    # a tracer may replace the class by a function that builds it; the
    # kernels' tabulations of distinct triangles are copies, built by no
    # call of the name
    from mhmelast import BrennerProblem, MHMConfig, solve_mhm
    from mhmelast.singlelevel import solve_gals_dirichlet

    problem = BrennerProblem(0.3)

    def solve():
        single = solve_gals_dirichlet(unit_square_mesh(4), problem.material,
                                      2, problem.f, u_dirichlet=problem.u)
        two_level, _ = solve_mhm(MHMConfig(n=2, nu=0.3, threads=1), problem)
        return single.u, two_level.lam

    want = solve()
    cls, calls = asm.Tabulation, []

    def tabulation(*args):
        calls.append(args)
        return cls(*args)

    monkeypatch.setattr(asm, "Tabulation", tabulation)
    got = solve()
    assert calls
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("lead", [(), (1,), (3,)])
def test_scatter_stacks_diagonal_blocks(lead):
    # each leading index of the blocks is one diagonal block of n unknowns,
    # bitwise as scattered alone; duplicates of shared dofs sum
    mesh = unit_square_mesh(2)
    dofh = asm.DofHandler(mesh, reference_element(2))
    l2g = asm.unknown_map(dofh, "gals")
    n, nl = 3 * dofh.n_dofs + 2, l2g.shape[1]   # two unknowns on no element
    blocks = np.random.default_rng(7).standard_normal(
        lead + (mesh.n_triangles, nl, nl))
    M = asm.scatter(blocks, l2g, n)
    assert M.format == "csc"
    singles = [sp.coo_matrix((b.ravel(), (np.repeat(l2g, nl, axis=1).ravel(),
                                          np.tile(l2g, (1, nl)).ravel())),
                             shape=(n, n)).tocsc()
               for b in blocks.reshape((-1,) + blocks.shape[-3:])]
    want = sp.block_diag(singles, format="csc")
    assert M.shape == want.shape
    M.sort_indices()
    want.sort_indices()
    assert np.array_equal(M.indptr, want.indptr)
    assert np.array_equal(M.indices, want.indices)
    assert M.data.tobytes() == want.data.tobytes()
    if lead in ((), (1,)):
        dense = np.zeros((n, n))
        for t in range(mesh.n_triangles):
            dense[np.ix_(l2g[t], l2g[t])] += blocks.reshape(-1, nl, nl)[t]
        assert np.abs(M.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("n, dtype", [(5, np.int32), (2**30 - 1, np.int32),
                                      (2**30, np.int64)])
def test_scatter_takes_the_index_dtype_of_the_dimension(monkeypatch, n,
                                                        dtype):
    # two diagonal blocks of n unknowns: int32 indices while 2 n fits, as
    # the COO to CSC conversion would cast them, and int64 beyond; the
    # conversion is captured, so nothing of size n is allocated
    seen = {}
    monkeypatch.setattr(asm.sp, "csc_matrix",
                        lambda arg, shape: seen.update(arg=arg, shape=shape))
    blocks = np.arange(36.0).reshape(2, 2, 3, 3)
    l2g = np.array([[0, 1, 2], [2, 3, 4]])
    asm.scatter(blocks, l2g, n)
    vals, (rows, cols) = seen["arg"]
    assert seen["shape"] == (2 * n, 2 * n)
    assert rows.dtype == cols.dtype == dtype
    dofs = [0, 1, 2, 2, 3, 4]
    assert rows.tolist() == np.repeat(dofs + [n + d for d in dofs],
                                      3).tolist()
    assert cols.tolist() == ([0, 1, 2] * 3 + [2, 3, 4] * 3) + \
        ([n, n + 1, n + 2] * 3 + [n + 2, n + 3, n + 4] * 3)
    assert np.array_equal(vals, blocks.ravel())


@pytest.mark.parametrize("k", [1, 3])
def test_unknown_map_puts_pressure_after_displacement(k):
    dofh = asm.DofHandler(unit_square_mesh(2), reference_element(k))
    nsd, nb = dofh.n_dofs, dofh.ref.n_basis
    u = asm.unknown_map(dofh, "galerkin")
    assert np.array_equal(u, asm.vector_dofs(dofh.loc2glob))
    assert np.array_equal(u[:, 0::2], 2 * dofh.loc2glob)
    assert np.array_equal(u[:, 1::2], 2 * dofh.loc2glob + 1)
    up = asm.unknown_map(dofh, "gals")
    assert up.shape == (len(dofh.loc2glob), 3 * nb)
    assert np.array_equal(up[:, :2 * nb], u)
    assert np.array_equal(up[:, 2 * nb:], 2 * nsd + dofh.loc2glob)
    assert up.max() + 1 == 3 * nsd


def test_pinned_matrix_has_identity_rows_and_columns():
    rng = np.random.default_rng(2)
    K = rng.standard_normal((6, 6))
    K[0, 4] = K[4, 0] = 0.0
    P = asm.pinned(sp.csc_matrix(K), [1, 4])
    want = K.copy()
    want[[1, 4]] = 0.0
    want[:, [1, 4]] = 0.0
    want[1, 1] = want[4, 4] = 1.0
    assert P.format == "csc" and P.has_canonical_format
    assert np.array_equal(P.toarray(), want)
    assert P.nnz == 16 + 2


def test_inf_norm_matches_scipy():
    rng = np.random.default_rng(5)
    for n, m, density in ((1, 1, 1.0), (7, 5, 0.4), (40, 40, 0.1),
                          (200, 150, 0.02)):
        M = sp.random(n, m, density=density, format="csc", random_state=rng,
                      data_rvs=rng.standard_normal)
        assert asm.abs_row_sums(M).max() == pytest.approx(
            sparse_norm(M, np.inf), rel=1e-14)
    M = sp.csc_matrix(np.array([[1.0, -2.0, 0.0],
                                [0.0, 0.0, 0.0],
                                [-4.0, 0.0, 0.5]]))
    assert asm.abs_row_sums(M).max() == sparse_norm(M, np.inf) == 4.5


class _Perturbed:
    """A SuperLU factor whose solutions are changed by `edit(X)`."""

    def __init__(self, lu, edit):
        self.lu, self.edit = lu, edit

    def solve(self, rhs):
        X = self.lu.solve(rhs)
        self.edit(X)
        return X


def _two_scale_stack(n=12, seed=3):
    """A two-block diagonal stack whose second block is 1e8 times the
    first, and right-hand sides (2n, 40) of the same scales: more columns
    than one residual chunk."""
    rng = np.random.default_rng(seed)
    blocks = [np.eye(n) * n + rng.standard_normal((n, n)) for _ in range(2)]
    M = sp.block_diag([blocks[0], 1e8 * blocks[1]], format="csc")
    B = rng.standard_normal((2 * n, 40))
    B[n:] *= 1e8
    return M, B


def _solve(M, B, edit=lambda X: None, blocks=1):
    return asm.checked_solve(lambda: _Perturbed(splu(M), edit), M, B,
                             ValueError, "test", "a hint", blocks=blocks)


def test_checked_solve_bounds_each_block():
    M, B = _two_scale_stack()
    n = M.shape[0] // 2
    X = _solve(M, B, blocks=2)
    assert np.abs(M @ X - B).max() <= 1e-10 * np.abs(B).max()

    def small_block_column(X):          # in the second residual chunk
        X[:n, 35] *= 1 + 1e-8

    # the whole-matrix bound is dominated by the large block and passes
    _solve(M, B, small_block_column)
    with pytest.raises(ValueError, match=r"^test solve residual .* exceeds "
                                         r"tolerance; a hint$"):
        _solve(M, B, small_block_column, blocks=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checked_solve_rejects_non_finite_solution(value):
    M, B = _two_scale_stack()

    def corrupt(X):                     # one entry of the last column
        X.reshape(len(X), -1)[3, -1] = value

    for blocks in (1, 2):
        for rhs in (B, B[:, 2]):
            with pytest.raises(ValueError, match="test solve residual"):
                _solve(M, rhs, corrupt, blocks=blocks)


def test_checked_solve_vector_right_hand_side():
    M, B = _two_scale_stack()
    for blocks in (1, 2):
        x = _solve(M, B[:, 2], blocks=blocks)
        assert x.shape == (M.shape[0],)
        want = np.linalg.solve(M.toarray(), B[:, 2])
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_checked_solve_message_names_the_ratio_and_the_bound():
    # x = (1, 2e-6) for M = I, b = (1, 0): residual 2e-6 against the
    # reference ||b|| + ||M|| ||x|| = 2 (to 1e-12), a ratio of 1e-6
    M = sp.identity(2, format="csc")

    def offset(X):
        X[1] = 2e-6

    with pytest.raises(ValueError) as info:
        _solve(M, np.array([1.0, 0.0]), offset)
    assert str(info.value) == ("test solve residual 1.000e-06 (relative, "
                               "bound 1e-10) exceeds tolerance; a hint")


def test_checked_solve_names_a_singular_system():
    M = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="^singular test system; a hint$"):
        _solve(M, np.ones(2))
