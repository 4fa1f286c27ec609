"""Single-level reference discretizations on a global mesh."""

import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (BrennerProblem, LinearProblem, MaterialField, MHMError,
                      compute_errors, solve_galerkin_dirichlet,
                      solve_gals_dirichlet, unit_square_mesh)
import mhmelast
from mhmelast import _assembly as asm, local_solver, singlelevel
from mhmelast.fem_core import inverse_constant, reference_element

from conftest import _jittered_mesh


def _zero(x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1] + (2,))


def test_zero_data_gives_zero_solution():
    mesh = unit_square_mesh(4)
    mat = MaterialField(1.0, 0.3)
    for sol in (solve_galerkin_dirichlet(mesh, mat, 1, _zero),
                solve_gals_dirichlet(mesh, mat, 1, _zero)):
        assert np.abs(sol.u).max() < 1e-13
        if sol.p is not None:
            assert np.abs(sol.p).max() < 1e-13


@pytest.mark.parametrize("G, nu, message", [
    (True, 0.3, "shear modulus G must be a number or a callable, got True"),
    (np.True_, 0.3, "shear modulus G must be a number .*, got np.True_"),
    ("1", 0.3, "shear modulus G must be a number .*, got '1'"),
    (1.0, False, "Poisson ratio nu must be a number or a callable, got "
                 "False")])
def test_moduli_that_are_not_numbers_are_rejected(G, nu, message):
    # float(True) is 1.0: a boolean G would pass as G = 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_gals_dirichlet(unit_square_mesh(2), MaterialField(G, nu), 1,
                             _zero)


NAN_G = "shear modulus must be positive"
NAN_NU = r"Poisson ratio must lie in \(0, 1/2\)"


@pytest.mark.parametrize("G, nu, message", [
    (np.nan, 0.3, NAN_G),
    (lambda x: np.where(x[..., 0] < 0.5, 1.0, np.nan), 0.3, NAN_G),
    (1.0, np.nan, NAN_NU),
    (1.0, lambda x: np.where(x[..., 1] < 0.5, 0.3, np.nan), NAN_NU)])
def test_nan_moduli_are_rejected(G, nu, message):
    # nan fails every comparison: the range checks are written so that it
    # fails them, not passes them
    x = np.array([[0.25, 0.25], [0.75, 0.75]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        MaterialField(G, nu).samples(x)
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_gals_dirichlet(unit_square_mesh(2), MaterialField(G, nu), 1,
                             _zero)


INF_G = "shear modulus must be finite"
EPS_OVERFLOW = (r"compressibility coefficient eps = \(1 - 2 nu\) / \(2 G nu\) "
                "overflows: nu is too close to 0")


@pytest.mark.parametrize("G, nu, message", [
    (np.inf, 0.3, INF_G),
    (lambda x: np.where(x[..., 0] < 0.5, 1.0, np.inf), 0.3, INF_G),
    (1.0, 1e-320, EPS_OVERFLOW),
    (1.0, lambda x: np.where(x[..., 1] < 0.5, 0.3, 1e-320), EPS_OVERFLOW)])
def test_unbounded_moduli_are_rejected(G, nu, message):
    # an infinite G, and a subnormal nu whose eps overflows, are named where
    # the fields are evaluated, before any element matrix is formed
    x = np.array([[0.25, 0.25], [0.75, 0.75]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        MaterialField(G, nu).samples(x)
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_gals_dirichlet(unit_square_mesh(2), MaterialField(G, nu), 1,
                             _zero)


@pytest.mark.parametrize("k", [1, 2])
def test_linear_patch_exactness(k):
    problem = LinearProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02], nu=0.3)
    mesh = unit_square_mesh(4)
    for solver in (solve_galerkin_dirichlet, solve_gals_dirichlet):
        sol = solver(mesh, problem.material, k, problem.f,
                     u_dirichlet=problem.u)
        rec = compute_errors(sol, problem)
        assert rec.l2_u < 1e-11
        assert rec.h1_u < 1e-10
        assert rec.l2_sigma < 1e-9
        assert rec.l2_p < 1e-9


def test_solution_kinds_and_pressure():
    mesh = unit_square_mesh(2)
    mat = MaterialField(1.0, 0.3)
    ga = solve_galerkin_dirichlet(mesh, mat, 1, _zero)
    gl = solve_gals_dirichlet(mesh, mat, 1, _zero)
    assert ga.p is None
    assert gl.p is not None
    assert gl.p.shape == (gl.dofh.n_dofs,)


def test_boundary_values_interpolate_data():
    problem = BrennerProblem(0.3)
    mesh = unit_square_mesh(4)
    sol = solve_gals_dirichlet(mesh, problem.material, 2, problem.f,
                               u_dirichlet=problem.u)
    bdofs = sol.dofh.boundary_scalar_dofs()
    got = np.column_stack([sol.u[2 * bdofs], sol.u[2 * bdofs + 1]])
    want = problem.u(sol.dofh.dof_coords[bdofs])
    assert np.abs(got - want).max() < 1e-12


def test_methods_agree_away_from_incompressibility():
    # at a moderate Poisson ratio both discretizations resolve the benchmark
    # comparably well
    problem = BrennerProblem(0.2)
    mesh = unit_square_mesh(16)
    e = []
    for solver in (solve_galerkin_dirichlet, solve_gals_dirichlet):
        sol = solver(mesh, problem.material, 1, problem.f,
                     u_dirichlet=problem.u)
        e.append(compute_errors(sol, problem).h1_u)
    assert 0.5 < e[0] / e[1] < 2.0


def _eliminated_solution(mesh, material, k, f, u_dirichlet, theta):
    """The single-level solution by dense elimination of the Dirichlet
    dofs: element blocks added triangle by triangle, unknowns
    [u (interleaved); p] with p only for `theta`, and the free dofs solved
    from the reduced system K_ff x_f = F_f - K_fc x_c."""
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    tab = asm.Tabulation(mesh, ref, 2 * k + 2)
    Gq, epsq = material.G_at(tab.points), material.eps_at(tab.points)
    fq = f(tab.points)
    nsd, nb = dofh.n_dofs, ref.n_basis
    l2g = np.empty((mesh.n_triangles, 2 * nb), dtype=int)
    l2g[:, 0::2], l2g[:, 1::2] = 2 * dofh.loc2glob, 2 * dofh.loc2glob + 1
    if theta is None:
        A_el = asm.galerkin_element_matrices(tab, Gq, epsq)
        F_el = asm.load_vector(tab, fq)
    else:
        alpha = local_solver._group_alphas(Gq, inverse_constant(k), theta)
        A_el, Dall = asm.gals_element_matrices(tab, Gq, epsq, alpha)
        F_el = asm.load_vector(tab, fq, Dall=Dall, alpha=alpha)
        l2g = np.hstack([l2g, 2 * nsd + dofh.loc2glob])
    n = l2g.max() + 1
    K, F = np.zeros((n, n)), np.zeros(n)
    for t in range(mesh.n_triangles):
        K[np.ix_(l2g[t], l2g[t])] += A_el[t]
        F[l2g[t]] += F_el[t]
    bdofs = dofh.boundary_scalar_dofs()
    fixed = np.sort(np.concatenate([2 * bdofs, 2 * bdofs + 1]))
    x = np.zeros(n)
    x[fixed] = u_dirichlet(dofh.dof_coords[fixed // 2])[
        np.arange(len(fixed)), fixed % 2]
    free = np.setdiff1d(np.arange(n), fixed)
    x[free] = np.linalg.solve(K[np.ix_(free, free)],
                              F[free] - K[np.ix_(free, fixed)] @ x[fixed])
    return x


@pytest.mark.parametrize("theta", [None, 0.5])
@pytest.mark.parametrize("k", [1, 2])
def test_pinned_solve_matches_dense_elimination(theta, k):
    # nonzero Dirichlet data and a varying G: the pinned system carries the
    # data in its right-hand side, and its solution is the eliminated one
    problem = BrennerProblem(0.3)
    mat = MaterialField(lambda x: 1.0 + 0.5 * x[..., 0] * x[..., 1], 0.3)
    mesh = unit_square_mesh(3)

    def ud(x):
        return np.stack([1.0 + x[..., 0] * x[..., 1],
                         np.sin(2 * x[..., 0]) - x[..., 1] ** 2], axis=-1)

    if theta is None:
        sol = solve_galerkin_dirichlet(mesh, mat, k, problem.f, u_dirichlet=ud)
        got = sol.u
    else:
        sol = solve_gals_dirichlet(mesh, mat, k, problem.f, u_dirichlet=ud,
                                   theta=theta)
        got = np.concatenate([sol.u, sol.p])
    want = _eliminated_solution(mesh, mat, k, problem.f, ud, theta)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _reduced_systems(monkeypatch):
    """Record every pinned system (K, b, x) the single-level solvers hand
    to `singlelevel.spsolve`."""
    seen = []
    solve = singlelevel.spsolve

    def recording(K, b, *rest):
        x = solve(K, b, *rest)
        seen.append((K, b, x))
        return x

    monkeypatch.setattr(singlelevel, "spsolve", recording)
    return seen


@pytest.mark.parametrize("solver", [solve_galerkin_dirichlet,
                                    solve_gals_dirichlet])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduced_solve_matches_dense_oracle(monkeypatch, solver, k):
    problem = BrennerProblem(0.3)
    mat = MaterialField(lambda x: 1.0 + 0.5 * x[..., 0] * x[..., 1], 0.3)
    seen = _reduced_systems(monkeypatch)
    solver(unit_square_mesh(3), mat, k, problem.f, u_dirichlet=problem.u)
    (K, b, x), = seen
    want = np.linalg.solve(K.toarray(), b)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("nu", [0.3, 0.49999])
@pytest.mark.parametrize("theta", [0.25, 0.9])
def test_reduced_gals_matrix_is_quasi_definite(monkeypatch, nu, theta):
    # the structure that lets SuperLU pivot on the diagonal: a positive
    # definite displacement block and a negative definite pressure block
    problem = BrennerProblem(nu)
    seen = _reduced_systems(monkeypatch)
    sol = solve_gals_dirichlet(unit_square_mesh(3), problem.material, 2,
                               problem.f, u_dirichlet=problem.u, theta=theta)
    (K, b, x), = seen
    K = K.toarray()
    assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()
    assert K.shape[0] == 3 * sol.dofh.n_dofs
    # each node's unknowns together, [u_x, u_y, p]
    u, p = np.flatnonzero(np.arange(len(K)) % 3 != 2), np.arange(2, len(K), 3)
    assert np.linalg.eigvalsh(K[np.ix_(u, u)])[0] > 0
    assert np.linalg.eigvalsh(K[np.ix_(p, p)])[-1] < 0
    # near nu = 1/2 the conditioning leaves only the residual to compare
    ref = np.abs(b).max() + np.abs(K).sum(axis=1).max() * np.abs(x).max()
    assert np.abs(K @ x - b).max() <= 1e-12 * ref


def test_single_level_residual_is_checked(monkeypatch):
    class Perturbed:
        def __init__(self, matrix, **options):
            self.lu = splu(matrix, **options)

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1 + 1e-8)

    splu = singlelevel.splu
    monkeypatch.setattr(singlelevel, "splu", Perturbed)
    problem = BrennerProblem(0.3)
    for solver in (solve_galerkin_dirichlet, solve_gals_dirichlet):
        with pytest.raises(MHMError, match="single-level solve residual"):
            solver(unit_square_mesh(3), problem.material, 1, problem.f,
                   u_dirichlet=problem.u)


def test_reduced_factor_uses_symmetric_order(monkeypatch):
    # the nested-dissection numbering with diagonal pivots holds less fill
    # than COLAMD's column order with the same pivots
    factors = []
    splu = singlelevel.splu

    def recording(matrix, **options):
        lu = splu(matrix, **options)
        factors.append((matrix, options, lu))
        return lu

    monkeypatch.setattr(singlelevel, "splu", recording)
    problem = BrennerProblem(0.49999)
    for solver in (solve_gals_dirichlet, solve_galerkin_dirichlet):
        solver(unit_square_mesh(16), problem.material, 2, problem.f,
               u_dirichlet=problem.u)
    assert len(factors) == 2
    for K, options, lu in factors:
        assert options["diag_pivot_thresh"] == 0.0
        colamd = splu(K, permc_spec="COLAMD", diag_pivot_thresh=0.0)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_node_order_cuts_the_fill_of_the_dof_handler_order(monkeypatch):
    # the same systems factored in the DofHandler numbering (an identity
    # `dissection_order`) fill more, and solve to the same fields
    fills, solutions = {}, {}
    splu = singlelevel.splu

    def recording(matrix, **options):
        lu = splu(matrix, **options)
        fills[order].append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(singlelevel, "splu", recording)
    problem = BrennerProblem(0.49999)
    for order in ("nested dissection", "DofHandler"):
        if order == "DofHandler":
            monkeypatch.setattr(asm, "dissection_order",
                                lambda centroids, incidence, n: np.arange(n))
        fills[order] = []
        solutions[order] = [
            solver(unit_square_mesh(16), problem.material, 2, problem.f,
                   u_dirichlet=problem.u)
            for solver in (solve_gals_dirichlet, solve_galerkin_dirichlet)]
    for nd, dofh in zip(fills["nested dissection"], fills["DofHandler"]):
        assert nd < dofh
    for got, want in zip(*solutions.values()):
        assert np.abs(got.u - want.u).max() <= 1e-10 * np.abs(want.u).max()
        if want.p is not None:
            assert (np.abs(got.p - want.p).max()
                    <= 1e-8 * np.abs(want.p).max())


@pytest.mark.parametrize("mesh", [unit_square_mesh(8), _jittered_mesh(7, 3)],
                         ids=["structured", "jittered"])
def test_dissection_order_separates_the_halves_of_every_cut(mesh):
    # a permutation of the nodes; every cut of the bisection is at the
    # median along the longer side of its part, no triangle holds nodes
    # inside both halves, the nodes of the cut rank after both halves, and
    # the nodes inside a part rank together
    dofh = asm.DofHandler(mesh, reference_element(2))
    l2g, n = dofh.loc2glob, dofh.n_dofs
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    rank = asm.dissection_order(centroids, l2g, n)
    assert np.array_equal(np.sort(rank), np.arange(n))
    leaf, d = asm._bisection_leaves(centroids)
    assert np.bincount(leaf).max() <= asm.DISSECTION_LEAF
    for level in range(d):
        for prefix in range(2 ** level):
            part = leaf >> (d - level) == prefix
            upper = (leaf >> (d - level - 1)) & 1 == 1
            halves = [part & ~upper, part & upper]
            assert abs(halves[0].sum() - halves[1].sum()) <= 1
            c = centroids[part]
            axis = np.argmax(c.max(axis=0) - c.min(axis=0))
            assert (centroids[halves[0], axis].max()
                    <= centroids[halves[1], axis].min())
            # the nodes all of whose triangles lie in a set of triangles
            outside = [np.zeros(n, dtype=bool) for _ in range(3)]
            for out, inside in zip(outside, halves + [part]):
                out[l2g[~inside]] = True
            lower, higher = ~outside[0], ~outside[1]
            cut = ~outside[2] & ~lower & ~higher
            assert not np.any(lower[l2g].any(axis=1)
                              & higher[l2g].any(axis=1))
            if cut.any():
                assert rank[cut].min() > rank[lower | higher].max()
            # post-order: the nodes inside a part take consecutive ranks
            inside = rank[~outside[2]]
            assert inside.max() - inside.min() + 1 == len(inside)


@pytest.mark.parametrize("mesh", [unit_square_mesh(1), unit_square_mesh(3),
                                  _jittered_mesh(5, 0)],
                         ids=["2 triangles", "18 triangles", "jittered"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dissection_order_solves_as_the_minimum_degree_order(monkeypatch,
                                                             mesh, k):
    # the factor in the dissection numbering and one in SuperLU's minimum
    # degree order of the same pinned systems solve to the same fields
    problem = BrennerProblem(0.49)
    mat = MaterialField(lambda x: 1.0 + 0.5 * x[..., 0] * x[..., 1], 0.49)
    solutions = {}
    splu = singlelevel.splu
    for order in ("NATURAL", "MMD_AT_PLUS_A"):
        monkeypatch.setattr(
            singlelevel, "splu",
            lambda K, permc_spec, **options: splu(K, permc_spec=order,
                                                  **options))
        solutions[order] = [
            solver(mesh, mat, k, problem.f, u_dirichlet=problem.u)
            for solver in (solve_gals_dirichlet, solve_galerkin_dirichlet)]
    for got, want in zip(*solutions.values()):
        for a, b in ((got.u, want.u), (got.p, want.p)):
            if b is not None:
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_single_level_solve_logs_one_debug_record(caplog):
    problem = BrennerProblem(0.3)
    mesh = unit_square_mesh(4)
    with caplog.at_level(logging.DEBUG, logger="mhmelast"):
        for solver in (solve_gals_dirichlet, solve_galerkin_dirichlet):
            solver(mesh, problem.material, 2, problem.f,
                   u_dirichlet=problem.u)
    records = [r for r in caplog.records if r.name == "mhmelast"]
    assert len(records) == 2
    for record, per in zip(records, (3, 2)):
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            rf"single-level solve: {per * 81} unknowns, K\.nnz \d+, LU fill "
            r"\d+, order \d+\.\d{3} s, factor \d+\.\d{3} s",
            record.getMessage())


def test_single_level_solve_builds_no_record_when_disabled(monkeypatch):
    # the record is formatted only for an enabled logger
    logger = logging.getLogger("mhmelast")
    monkeypatch.setattr(logger, "debug", lambda *a: pytest.fail("logged"))
    monkeypatch.setattr(logger, "isEnabledFor", lambda level: False)
    problem = BrennerProblem(0.3)
    solve_gals_dirichlet(unit_square_mesh(2), problem.material, 1, problem.f,
                         u_dirichlet=problem.u)


def test_package_import_leaves_csgraph_unloaded():
    # the package needs no scipy.sparse.csgraph: its import costs time and
    # memory
    code = ("import sys, mhmelast; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    src = Path(mhmelast.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_singular_single_level_system_is_named():
    K = sp.csc_matrix(np.array([[1.0, 1.0, 0.0],
                                [1.0, 1.0, 0.0],
                                [0.0, 0.0, 2.0]]))
    with pytest.raises(MHMError, match="singular single-level system"):
        singlelevel.spsolve(K, np.ones(3))


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_gals_rejects_inadmissible_theta(theta):
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError, match=f"theta must lie in \\(0, 1\\), "
                                         f"got {theta!r}"):
        solve_gals_dirichlet(mesh, MaterialField(1.0, 0.3), 1, _zero,
                             theta=theta)


@pytest.mark.parametrize("k", [0, 1.5, 99, True, "2"])
@pytest.mark.parametrize("solver", [solve_galerkin_dirichlet,
                                    solve_gals_dirichlet])
def test_degrees_outside_the_table_are_rejected(solver, k):
    with pytest.raises(ValueError, match=re.escape(
            f"k must be an integer in 1 .. K_MAX = {mhmelast.K_MAX}, got "
            f"{k!r}")):
        solver(unit_square_mesh(2), MaterialField(1.0, 0.3), k, _zero)


def _nan_at_right(x):
    x = np.asarray(x, dtype=float)
    return np.where(x[..., :1] > 0.99, np.nan, 1.0) * np.ones(x.shape)


@pytest.mark.parametrize("f, u_dirichlet, message", [
    (lambda x: x[..., 0], None,
     r"the load f must return one 2-vector per point, shape \(32, \d+, 2\), "
     r"got shape \(32, \d+\)$"),
    (lambda x: np.array([0.0, -1.0]), None,
     r"the load f must return one 2-vector per point, shape \(32, \d+, 2\), "
     r"got shape \(2,\)$"),
    (_nan_at_right, None,
     r"the load f must return finite values, got nan at the point \[0\.99"),
    (_zero, _nan_at_right,
     r"the Dirichlet data u_dirichlet must return finite values, got nan at "
     r"the point \[1\.0, 0\.0\]$"),
    (_zero, lambda x: np.zeros(len(x)),
     r"the Dirichlet data u_dirichlet must return one 2-vector per point, "
     r"shape \(16, 2\), got shape \(16,\)$")],
    ids=["f scalar", "f constant", "f nan", "u nan", "u scalar"])
@pytest.mark.parametrize("solver", [solve_galerkin_dirichlet,
                                    solve_gals_dirichlet])
def test_loads_and_boundary_data_are_checked(solver, f, u_dirichlet, message):
    # a load or boundary value of the wrong shape or not finite is named
    # where it is sampled, not by numpy's broadcasting or the solve
    with pytest.raises(ValueError, match=f"^{message}"):
        solver(unit_square_mesh(4), MaterialField(1.0, 0.3), 1, f,
               u_dirichlet=u_dirichlet)

