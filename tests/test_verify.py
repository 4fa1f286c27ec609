"""Benchmark problems, error norms, convergence orders, and diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (BrennerProblem, LinearProblem, MaterialField,
                      MHMConfig, compute_errors, convergence_orders,
                      exact_brenner, quad_rule, solve_mhm,
                      spectral_diagnostics, unit_square_mesh)
from mhmelast import _assembly as asm
from mhmelast.fem_core import reference_element
from mhmelast.singlelevel import SingleLevelSolution
from mhmelast.verify import (SPECTRAL_MAX_UNKNOWNS, _hydrostatic_trace_vector,
                             _traction_error_sq)


def _interior_points(rng, n):
    return 0.05 + 0.9 * rng.random((n, 2))


# ---------------------------------------------------------------------------
# Closed-form benchmark
# ---------------------------------------------------------------------------

def test_benchmark_point_values():
    u, p, sigma, f = exact_brenner(0.25, [0.25, 0.25])
    assert abs(u[0] - (-0.875)) < 1e-14
    _, p_mid, _, _ = exact_brenner(0.3, [0.5, 0.5])
    assert abs(p_mid) < 1e-14
    assert sigma.shape == (2, 2) and f.shape == (2,)


def test_benchmark_vanishes_on_boundary():
    prob = BrennerProblem(0.4999)
    t = np.linspace(0, 1, 17)
    for pts in (np.column_stack([t, np.zeros_like(t)]),
                np.column_stack([t, np.ones_like(t)]),
                np.column_stack([np.zeros_like(t), t]),
                np.column_stack([np.ones_like(t), t])):
        assert np.abs(prob.u(pts)).max() < 1e-13


@pytest.mark.parametrize("nu", [0.3, 0.4999])
def test_benchmark_gradient_matches_closed_form(nu):
    # grad_u shares its sines and cosines; the values are those of the
    # expressions written out term by term
    prob = BrennerProblem(nu)
    x = np.random.default_rng(4).random((50, 7, 2))
    X, Y = x[..., 0], x[..., 1]
    p2 = 2 * np.pi
    c = (1 - 2 * nu) / 2
    bx = c * np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
    by = c * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
    want = np.empty(X.shape + (2, 2))
    want[..., 0, 0] = -p2 * np.sin(p2 * X) * np.sin(p2 * Y) + bx
    want[..., 0, 1] = p2 * (np.cos(p2 * X) - 1) * np.cos(p2 * Y) + by
    want[..., 1, 0] = p2 * np.cos(p2 * X) * (1 - np.cos(p2 * Y)) + bx
    want[..., 1, 1] = p2 * np.sin(p2 * X) * np.sin(p2 * Y) + by
    assert np.array_equal(prob.grad_u(x), want)


@pytest.mark.parametrize("nu", [0.3, 0.4999])
def test_benchmark_derivative_consistency(nu):
    # closed-form gradients, divergence and pressure gradient agree with
    # central finite differences of the closed-form primal fields
    prob = BrennerProblem(nu)
    rng = np.random.default_rng(2)
    x = _interior_points(rng, 30)
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gu_fd = np.stack([(prob.u(x + ex) - prob.u(x - ex)) / (2 * h),
                      (prob.u(x + ey) - prob.u(x - ey)) / (2 * h)], axis=-1)
    assert np.abs(gu_fd - prob.grad_u(x)).max() < 1e-7
    div_fd = gu_fd[..., 0, 0] + gu_fd[..., 1, 1]
    assert np.abs(div_fd - prob.div_u(x)).max() < 1e-7
    gp_fd = np.stack([(prob.p(x + ex) - prob.p(x - ex)) / (2 * h),
                      (prob.p(x + ey) - prob.p(x - ey)) / (2 * h)], axis=-1)
    assert np.abs(gp_fd - prob.grad_p(x)).max() < 5e-6 / prob.epsilon


@pytest.mark.parametrize("nu", [0.3, 0.4999])
def test_benchmark_momentum_balance(nu):
    # f = -div sigma, checked by differencing the closed-form stress
    prob = BrennerProblem(nu)
    rng = np.random.default_rng(4)
    x = _interior_points(rng, 30)
    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    ds_dx = (prob.sigma(x + ex) - prob.sigma(x - ex)) / (2 * h)
    ds_dy = (prob.sigma(x + ey) - prob.sigma(x - ey)) / (2 * h)
    div_sigma = np.stack([ds_dx[..., 0, 0] + ds_dy[..., 0, 1],
                          ds_dx[..., 1, 0] + ds_dy[..., 1, 1]], axis=-1)
    f = prob.f(x)
    scale = np.abs(f).max()
    assert np.abs(f + div_sigma).max() < 1e-4 * scale


def test_benchmark_pressure_relation():
    # p = -(2 G nu / (1 - 2 nu)) div u pointwise
    prob = BrennerProblem(0.45, G=2.0)
    x = _interior_points(np.random.default_rng(6), 20)
    want = -(2 * prob.G * prob.nu / (1 - 2 * prob.nu)) * prob.div_u(x)
    assert np.abs(prob.p(x) - want).max() < 1e-12


def test_benchmark_stress_structure():
    prob = BrennerProblem(0.3)
    x = _interior_points(np.random.default_rng(8), 10)
    s = prob.sigma(x)
    assert np.abs(s - np.swapaxes(s, -1, -2)).max() < 1e-13
    # trace identity: tr sigma = 2 G div u - 2 p
    tr = s[..., 0, 0] + s[..., 1, 1]
    want = 2 * prob.G * prob.div_u(x) - 2 * prob.p(x)
    assert np.abs(tr - want).max() < 1e-12


def test_linear_problem_fields():
    prob = LinearProblem([[0.2, -0.1], [0.3, 0.4]], [1.0, -1.0], nu=0.3)
    x = np.random.default_rng(9).random((7, 2))
    assert np.abs(prob.f(x)).max() == 0.0
    s = prob.sigma(x)
    assert np.abs(s - s[0]).max() < 1e-14          # constant stress
    assert np.abs(prob.div_u(x) - 0.6).max() < 1e-14


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------

def _zero_single_level_solution(mesh, material, k, with_pressure):
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    p = np.zeros(dofh.n_dofs) if with_pressure else None
    return SingleLevelSolution(mesh, dofh, material, k,
                               np.zeros(2 * dofh.n_dofs), p=p,
                               kind="gals" if with_pressure else "galerkin")


def test_zero_solution_errors_equal_exact_norms():
    # with u_h = 0, p_h = 0 the error norms are the norms of the exact
    # fields; cross-check the displacement L2 norm by direct quadrature
    prob = BrennerProblem(0.3)
    mesh = unit_square_mesh(8)
    sol = _zero_single_level_solution(mesh, prob.material, 2, True)
    rec = compute_errors(sol, prob)

    rule = quad_rule("triangle", 24)
    geo = asm.Geometry(mesh)
    pts = geo.physical_points(rule.points)
    w = rule.weights[None, :] * geo.detj[:, None]
    l2_sq = np.einsum("tq,tqc->", w, prob.u(pts) ** 2)
    assert abs(rec.l2_u - np.sqrt(l2_sq)) < 1e-10
    p_sq = np.einsum("tq,tq->", w, prob.p(pts) ** 2)
    assert abs(rec.l2_p - np.sqrt(p_sq)) < 1e-10
    assert rec.h1_u > 0 and rec.l2_sigma > 0
    assert rec.p_eps >= rec.l2_p     # (1 + eps) weight


def test_interpolated_exact_solution_has_zero_errors():
    prob = LinearProblem([[0.1, 0.2], [0.0, -0.3]], [0.4, 0.1], nu=0.3)
    mesh = unit_square_mesh(4)
    ref = reference_element(1)
    dofh = asm.DofHandler(mesh, ref)
    u = np.empty(2 * dofh.n_dofs)
    ue = prob.u(dofh.dof_coords)
    u[0::2] = ue[:, 0]
    u[1::2] = ue[:, 1]
    p = prob.p(dofh.dof_coords)
    sol = SingleLevelSolution(mesh, dofh, prob.material, 1, u, p=p,
                              kind="gals")
    rec = compute_errors(sol, prob)
    for v in (rec.l2_u, rec.h1_u, rec.l2_sigma, rec.l2_p, rec.p_eps, rec.p_h):
        assert v < 1e-12


def test_implied_pressure_branch_matches_explicit():
    # a displacement-only solution reports errors using p_h = -div u_h / eps
    prob = LinearProblem([[0.1, 0.0], [0.0, 0.2]], [0.0, 0.0], nu=0.3)
    mesh = unit_square_mesh(2)
    ref = reference_element(1)
    dofh = asm.DofHandler(mesh, ref)
    u = np.empty(2 * dofh.n_dofs)
    ue = prob.u(dofh.dof_coords)
    u[0::2] = ue[:, 0]
    u[1::2] = ue[:, 1]
    without_p = SingleLevelSolution(mesh, dofh, prob.material, 1, u)
    rec = compute_errors(without_p, prob)
    assert rec.l2_p < 1e-12
    assert rec.l2_sigma < 1e-11


def test_compute_errors_rejects_unknown_solution():
    with pytest.raises(TypeError):
        compute_errors(object(), BrennerProblem(0.3))


# ---------------------------------------------------------------------------
# Convergence orders and diagnostics
# ---------------------------------------------------------------------------

def test_traction_error_matches_segment_loop():
    problem = BrennerProblem(0.3)

    def tag(mid):                      # Neumann on x = 1 and y = 0
        return ("neumann" if mid[0] > 1 - 1e-12 or mid[1] < 1e-12
                else "dirichlet")

    def traction(x):                   # sigma n_F on the Neumann faces
        x = np.asarray(x, dtype=float)
        n = np.where((x[..., 0] > 1 - 1e-12)[..., None], [1.0, 0.0],
                     [0.0, -1.0])
        return np.einsum("...ij,...j->...i", problem.sigma(x), n)

    config = MHMConfig(n=2, level=1, k=2, nu=0.3, boundary_tag=tag)
    sol, _ = solve_mhm(config, problem, g=traction)
    sk = sol.skeleton
    assert sum(f.tag == "neumann" for f in sk.partition.faces) == 4
    # the discrete traction of every segment against sigma n_F, one
    # segment at a time
    deg = max(f.cache.degree for f in sol.fields.values())
    rule = quad_rule("segment", 2 * (deg + sk.degree) + 2)
    want = 0.0
    for seg in sk.segments:
        pts = seg.p0 + rule.points[:, None] * (seg.p1 - seg.p0)
        mu = sk.basis_values(seg, rule.points)
        lam_h = np.einsum("i,iqc->qc", sol.lam[sk.segment_dofs(seg.id)], mu)
        nF = sk.partition.faces[seg.face_id].normal
        want += np.sum(rule.weights * seg.length
                       * ((lam_h - problem.sigma(pts) @ nF) ** 2).T)
    got = _traction_error_sq(sol, problem)
    assert want > 0
    assert abs(got - want) <= 1e-13 * want


def test_convergence_orders_values():
    e = [5.048827e-2, 1.314001e-2, 3.218788e-3]
    orders = convergence_orders(e)
    assert abs(orders[0] - np.log2(e[0] / e[1])) < 1e-14
    assert abs(orders[0] - 1.9419) < 1e-3
    assert np.allclose(convergence_orders([1.0, 0.25, 0.0625]), [2.0, 2.0])
    assert np.allclose(convergence_orders([3.0, 3.0]), [0.0])


def test_convergence_orders_validation():
    with pytest.raises(ValueError):
        convergence_orders([1.0])
    with pytest.raises(ValueError):
        convergence_orders([1.0, -0.5])
    with pytest.raises(ValueError):
        convergence_orders([1.0, 0.0])


def test_hydrostatic_trace_vector_normalized():
    from mhmelast import build_structured_triangulation, refine_skeleton

    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, 1)
    v = _hydrostatic_trace_vector(sk)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    # only the constant Legendre modes are populated
    v2 = v.reshape(len(sk.segments), sk.dofs_per_segment)
    assert np.abs(v2[:, 1]).max() == 0.0
    assert np.abs(v2[:, 3]).max() == 0.0


def test_spectral_diagnostics_empty_system():
    from mhmelast import SaddleSystem

    empty = SaddleSystem(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0),
                         np.zeros(0), 0, 0)
    rep = spectral_diagnostics(empty)
    assert rep.ok


def test_spectral_diagnostics_refuses_large_system():
    from mhmelast import SaddleSystem

    n = SPECTRAL_MAX_UNKNOWNS
    big = SaddleSystem(sp.csr_matrix((n, n)), sp.csr_matrix((n, 3)),
                       np.zeros(n), np.zeros(3), n, 3)
    with pytest.raises(ValueError, match=f"{n + 3} global unknowns exceed "
                                         f"the limit of {n}"):
        spectral_diagnostics(big)
