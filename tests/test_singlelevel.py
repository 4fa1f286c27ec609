"""Single-level reference discretizations on a global mesh."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (BrennerProblem, LinearProblem, MaterialField, MHMError,
                      compute_errors, solve_galerkin_dirichlet,
                      solve_gals_dirichlet, unit_square_mesh)
from mhmelast import singlelevel


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
    assert ga.kind == "galerkin" and ga.p is None
    assert gl.kind == "gals" and gl.p is not None
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


def _reduced_systems(monkeypatch):
    """Record every reduced system (K, b, x) the single-level solvers
    hand to `singlelevel.spsolve`."""
    seen = []
    solve = singlelevel.spsolve

    def recording(K, b):
        x = solve(K, b)
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
    m = K.shape[0] - sol.dofh.n_dofs          # free displacement unknowns
    assert np.linalg.eigvalsh(K[:m, :m])[0] > 0
    assert np.linalg.eigvalsh(K[m:, m:])[-1] < 0
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
    # a minimum-degree order of K + K^T with diagonal pivots holds less
    # fill than COLAMD's column order with the same pivots
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
