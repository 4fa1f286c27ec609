"""Benchmark problems, error norms, convergence orders, and diagnostics."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (BrennerProblem, LinearProblem, MaterialField,
                      MHMConfig, compressibility_residual, compute_errors,
                      convergence_orders, quad_rule,
                      solve_galerkin_dirichlet, solve_gals_dirichlet,
                      solve_mhm, spectral_diagnostics, unit_square_mesh)
from mhmelast import _assembly as asm, local_solver, verify
from mhmelast.fem_core import reference_element
from mhmelast.singlelevel import SingleLevelSolution
from mhmelast.verify import (SPECTRAL_MAX_UNKNOWNS, _hydrostatic_trace_vector,
                             _traction_error_sq)

from conftest import saddle_system


def _interior_points(rng, n):
    return 0.05 + 0.9 * rng.random((n, 2))


# ---------------------------------------------------------------------------
# Closed-form benchmark
# ---------------------------------------------------------------------------

def test_benchmark_point_values():
    prob, x = BrennerProblem(0.25), np.array([0.25, 0.25])
    u, sigma, f = prob.u(x), prob.sigma(x), prob.f(x)
    assert abs(u[0] - (-0.875)) < 1e-14
    p_mid = BrennerProblem(0.3).p(np.array([0.5, 0.5]))
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


def _close_to(got, want):
    # a few units in the last place of the largest value
    return np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


@pytest.mark.parametrize("nu", [0.3, 0.4999])
def test_benchmark_gradient_matches_closed_form(nu):
    # grad_u takes its 2 pi terms from the double angles of sin and cos of
    # pi x and pi y; the values are those of the expressions written out
    # term by term, to round-off
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
    assert _close_to(prob.grad_u(x), want)


@pytest.mark.parametrize("nu, G", [(0.3, 1.0), (0.4999, 2.5)])
def test_benchmark_displacement_and_load_match_closed_form(nu, G):
    # u and f from the double angles, against the closed forms written with
    # sin and cos of 2 pi x, 2 pi y and pi (x + y)
    prob = BrennerProblem(nu, G=G)
    x = np.random.default_rng(5).random((40, 9, 2))
    X, Y = x[..., 0], x[..., 1]
    p2 = 2 * np.pi
    bump = (1 - 2 * nu) / 2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    u = np.stack([(np.cos(p2 * X) - 1) * np.sin(p2 * Y) + bump,
                  (1 - np.cos(p2 * Y)) * np.sin(p2 * X) + bump], axis=-1)
    com = ((1 - 2 * nu) * np.sin(np.pi * X) * np.sin(np.pi * Y)
           - 0.5 * np.cos(np.pi * (X + Y)))
    f = G * np.pi**2 * np.stack(
        [4 * np.sin(p2 * Y) * (2 * np.cos(p2 * X) - 1) + com,
         4 * np.sin(p2 * X) * (1 - 2 * np.cos(p2 * Y)) + com], axis=-1)
    assert _close_to(prob.u(x), u)
    assert _close_to(prob.f(x), f)


def _interior_and_side_points(seed):
    """Random points of the unit square, and of its sides x, y in {0, 1}
    (corners included)."""
    rng = np.random.default_rng(seed)
    t = np.append(rng.random(12), [0.0, 1.0])
    sides = [np.column_stack([t, np.full_like(t, v)]) for v in (0.0, 1.0)]
    sides += [np.column_stack([np.full_like(t, v), t]) for v in (0.0, 1.0)]
    return np.concatenate([rng.random((60, 2))] + sides)


@pytest.mark.parametrize("nu, G", [(0.3, 1.0), (0.4999, 2.5)])
def test_benchmark_fields_match_each_field(nu, G):
    prob = BrennerProblem(nu, G=G)
    x = _interior_and_side_points(7)
    want = (prob.u(x), prob.grad_u(x), prob.p(x), prob.grad_p(x))
    got = prob.fields(x)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.shape == w.shape and _close_to(g, w)


@pytest.mark.parametrize("nu, G", [(0.3, 1.0), (0.4999, 2.5)])
def test_benchmark_pressure_from_the_angle_sums(nu, G):
    # div u, p and grad p take sin and cos of pi (x + y) from the angle
    # sums of the half angles; against sin and cos of pi (x + y) directly
    prob = BrennerProblem(nu, G=G)
    x = _interior_and_side_points(8)
    s = x[..., 0] + x[..., 1]
    div = (1 - 2 * nu) / 2 * np.pi * np.sin(np.pi * s)
    gp = -(1 - 2 * nu) / (2 * prob.epsilon) * np.pi**2 * np.cos(np.pi * s)
    assert _close_to(prob.div_u(x), div)
    assert _close_to(prob.p(x), -div / prob.epsilon)
    assert _close_to(prob.grad_p(x), np.stack([gp, gp], axis=-1))


def test_linear_problem_fields_match_each_field():
    prob = LinearProblem([[0.2, -0.1], [0.3, 0.4]], [1.0, -1.0], nu=0.3)
    x = np.random.default_rng(9).random((3, 7, 2))
    want = (prob.u(x), prob.grad_u(x), prob.p(x), prob.grad_p(x))
    for g, w in zip(prob.fields(x), want):
        assert g.shape == w.shape and np.array_equal(g, w)


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


@pytest.mark.parametrize("nu, G", [(0.0, 1.0), (0.5, 1.0), (-0.1, 1.0),
                                   (np.nan, 1.0), (0.3, 0.0), (0.3, -1.0)])
@pytest.mark.parametrize("make", [
    lambda nu, G: BrennerProblem(nu, G=G),
    lambda nu, G: LinearProblem(np.eye(2), np.zeros(2), nu, G=G)],
    ids=["brenner", "linear"])
def test_problems_reject_invalid_moduli(make, nu, G):
    # eps would divide by zero at nu = 0 and vanish at nu = 1/2
    with pytest.raises(ValueError, match="^(shear modulus must be positive|"
                                         r"Poisson ratio must lie in \(0, "
                                         r"1/2\))$"):
        make(nu, G)


@pytest.mark.parametrize("nu, G, message", [
    (0.3, np.inf, "shear modulus must be finite"),
    (1e-320, 1.0, r"compressibility coefficient eps = .* overflows: nu is "
                  "too close to 0")])
@pytest.mark.parametrize("make", [
    lambda nu, G: BrennerProblem(nu, G=G),
    lambda nu, G: LinearProblem(np.eye(2), np.zeros(2), nu, G=G)],
    ids=["brenner", "linear"])
def test_problems_reject_unbounded_moduli(make, nu, G, message):
    # an infinite G would give eps = 0, a subnormal nu an infinite eps
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(nu, G)


@pytest.mark.parametrize("nu, G", [(0.3, 1.0), (0.4999, 2.5), (0.49999, 1.0)])
def test_problem_eps_is_the_closed_form(nu, G):
    want = (1 - 2 * nu) / (2 * G * nu)
    assert BrennerProblem(nu, G=G).epsilon == want
    assert LinearProblem(np.eye(2), np.zeros(2), nu, G=G).epsilon == want


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

def _zero_single_level_solution(mesh, k, with_pressure):
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    p = np.zeros(dofh.n_dofs) if with_pressure else None
    return SingleLevelSolution(dofh, np.zeros(2 * dofh.n_dofs), p=p)


def test_zero_solution_errors_equal_exact_norms():
    # with u_h = 0, p_h = 0 the error norms are the norms of the exact
    # fields; cross-check the displacement L2 norm by direct quadrature
    prob = BrennerProblem(0.3)
    mesh = unit_square_mesh(8)
    sol = _zero_single_level_solution(mesh, 2, True)
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
    sol = SingleLevelSolution(dofh, u, p=p)
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
    without_p = SingleLevelSolution(dofh, u)
    rec = compute_errors(without_p, prob)
    assert rec.l2_p < 1e-12
    assert rec.l2_sigma < 1e-11


class _WithoutFields:
    """A problem that gives its exact fields one method at a time, with no
    `fields`."""

    def __init__(self, problem):
        for name in ("u", "grad_u", "p", "grad_p", "sigma", "material",
                     "epsilon"):
            setattr(self, name, getattr(problem, name))


@pytest.mark.parametrize("case", ["gals", "galerkin", "single-level"])
def test_errors_without_fields_match_the_fields_path(case):
    problem = BrennerProblem(0.45)
    if case == "single-level":
        sol = solve_gals_dirichlet(unit_square_mesh(4), problem.material, 2,
                                   problem.f, u_dirichlet=problem.u)
    else:
        sol, _ = solve_mhm(MHMConfig(n=2, level=1, k=2, nu=0.45, theta=0.25,
                                     kind=case), problem)
    methods_only = _WithoutFields(problem)
    assert not hasattr(methods_only, "fields")
    want = vars(compute_errors(sol, problem))
    got = vars(compute_errors(sol, methods_only))
    assert want["l2_u"] > 0 and want["p_eps"] > want["l2_p"] > 0
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-14 * abs(value), name
    # the scalar eps weights p_eps: the weighted norm is a multiple of l2_p
    for rec in (want, got):
        assert rec["p_eps"] == np.sqrt(1 + problem.epsilon) * rec["l2_p"]


def test_compute_errors_rejects_unknown_solution():
    with pytest.raises(TypeError):
        compute_errors(object(), BrennerProblem(0.3))


def test_compressibility_residual_rejects_single_level_solution():
    problem = BrennerProblem(0.3)
    sol = _zero_single_level_solution(unit_square_mesh(2), 1, True)
    with pytest.raises(TypeError, match="takes an MHMSolution"):
        compressibility_residual(sol, problem.material)


# ---------------------------------------------------------------------------
# Member-batched evaluation against a per-member reference
# ---------------------------------------------------------------------------

def _two_phase(x):
    """A shear modulus of 1 left of x = 1/2 and varying with the period 1/4
    of the n = 4 grid right of it: the members of a class on either side
    form one material group."""
    x = np.asarray(x)[..., 0]
    return np.where(x < 0.5, 1.0, 2.0 + 0.5 * np.sin(8 * np.pi * x))


class _TwoPhaseBrenner(BrennerProblem):
    """The Brenner fields under the two-phase shear modulus; the exact
    stress is 2 G eps(u) - p I, written out here."""

    def __init__(self, nu):
        super().__init__(nu)
        self.material = MaterialField(_two_phase, nu)

    def sigma(self, x):
        g, G, p = self.grad_u(x), _two_phase(x), self.p(x)
        s = np.empty(g.shape)
        s[..., 0, 0] = 2 * G * g[..., 0, 0] - p
        s[..., 1, 1] = 2 * G * g[..., 1, 1] - p
        s[..., 0, 1] = s[..., 1, 0] = G * (g[..., 0, 1] + g[..., 1, 0])
        return s


class _AffineGProblem(LinearProblem):
    """u = A x + b under G(x) = 1 + g.x, with p = -div u / eps and the
    stress 2 G(x) sym(A) - p I written out here."""

    def __init__(self, A, b, g, nu):
        super().__init__(A, b, nu)
        self.g = np.asarray(g, dtype=float)
        self.material = MaterialField(lambda x: 1.0 + x @ self.g, nu)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        G = (1.0 + x @ self.g)[..., None, None]
        return (G * (self.A + self.A.T)
                - self.p(x)[..., None, None] * np.eye(2))


def _member_fields(tab, l2g, u, p, eps, s=1.0):
    """u_h, grad u_h, p_h and grad p_h of one member, one einsum each, on
    the image of the tabulated mesh under a map x = s x^ + b."""
    un = u.reshape(-1, 2)[l2g]
    guh = s * np.einsum("tqbj,tbc->tqcj", tab.grads, un)
    if p is None:
        ph = -(guh[..., 0, 0] + guh[..., 1, 1]) / eps
        gph = (-np.einsum("tqbcj,tbc->tqj", tab.hess, un)
               / np.asarray(eps)[..., None])
    else:
        ph = np.einsum("qb,tb->tq", tab.vals, p[l2g])
        gph = s * np.einsum("tqbj,tb->tqj", tab.grads, p[l2g])
    return np.einsum("qb,tbc->tqc", tab.vals, un), guh, ph, gph


def _member_error_squares(tab, l2g, u, p, problem, fmap):
    """The six squared error norms of one member, the image of the
    tabulated mesh under x = s x^ + b (`fmap` = [s I | b]), from their
    definitions, with the problem's own exact stress: the gradients take
    the sign s, an implied pressure's Hessians do not."""
    eps = problem.epsilon
    s = fmap[0, 0]
    uh, guh, ph, gph = _member_fields(tab, l2g, u, p, eps, s)
    pts = s * tab.points + fmap[:, 2]
    G = problem.material.G_at(pts)[..., None, None]
    sh = G * (guh + np.swapaxes(guh, -1, -2)) - ph[..., None, None] * np.eye(2)
    w = tab.wdet
    h2 = tab.geo.diameters[:, None] ** 2
    return np.array([
        np.sum(w * np.sum((problem.u(pts) - uh) ** 2, axis=-1)),
        np.sum(w * np.sum((problem.grad_u(pts) - guh) ** 2, axis=(-2, -1))),
        np.sum(w * np.sum((problem.sigma(pts) - sh) ** 2, axis=(-2, -1))),
        np.sum(w * (problem.p(pts) - ph) ** 2),
        np.sum((1 + eps) * w * (problem.p(pts) - ph) ** 2),
        np.sum(h2 * w * np.sum((problem.grad_p(pts) - gph) ** 2, axis=-1))])


def _assert_record(rec, sq, traction_sq):
    want = np.sqrt(np.append(sq, traction_sq))
    got = np.array([rec.l2_u, rec.h1_u, rec.l2_sigma, rec.l2_p, rec.p_eps,
                    rec.p_h, rec.traction])
    assert np.all(want[:6] > 0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def _tabulation(dofh, extra):
    return asm.Tabulation(dofh.mesh, dofh.ref, 2 * dofh.ref.degree + extra)


def _neumann_right(mid):
    return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
def test_member_chunks_match_per_member_reference(monkeypatch, kind):
    problem = _TwoPhaseBrenner(0.49)
    sol, data = solve_mhm(MHMConfig(n=4, level=1, k=2, nu=0.49, G=_two_phase,
                                    theta=0.25, kind=kind,
                                    boundary_tag=_neumann_right), problem)
    meshes = {c.dofh for c in data.caches}
    # the lower triangles on the Neumann face in one group, and the other
    # triangles, upper ones point reflections of lower ones, in groups of
    # 16 (x < 1/2), 8 (upper) and 4 (lower): a stack per mesh and group size
    assert len(meshes) == 2 and len(data.caches) == 4
    assert sorted(len(c.alpha) for c in data.caches) == [1, 1, 1, 1]
    assert sorted(-1.0 in c.maps[:, 0, 0] for c in data.caches) == \
        [False, False, True, True]
    # chunks of 3 members, so a mesh's members split unevenly
    npts = _tabulation(next(iter(meshes)), 4).points[..., 0].size
    monkeypatch.setattr(local_solver, "SAMPLE_POINTS", 3 * npts + 1)
    built, chunks = [], []
    error_squares = verify._error_squares

    class CountingTabulation(asm.Tabulation):
        def __init__(self, mesh, *args):
            built.append(mesh)
            super().__init__(mesh, *args)

    def counting_error_squares(tab, l2g, U, *args):
        chunks.append(len(U))
        return error_squares(tab, l2g, U, *args)

    monkeypatch.setattr(asm, "Tabulation", CountingTabulation)
    monkeypatch.setattr(verify, "_error_squares", counting_error_squares)
    rec = compute_errors(sol, problem)
    assert len(built) == len(meshes)
    assert sum(chunks) == 32 and sorted(set(chunks)) == [1, 3]

    sq = np.zeros(6)
    for eid, f in sol.fields.items():
        tab = _tabulation(f.cache.dofh, 4)
        sq += _member_error_squares(tab, f.cache.dofh.loc2glob, f.u, f.p,
                                    problem, f.map)
    _assert_record(rec, sq, _traction_error_sq(sol, problem))

    built.clear()
    res = compressibility_residual(sol, problem.material)
    assert len(built) == len(meshes)
    assert list(res) == sorted(sol.fields)
    for eid, f in sol.fields.items():
        tab = _tabulation(f.cache.dofh, 2)
        s = f.map[0, 0]
        epsq = problem.material.eps_at(s * tab.points + f.map[:, 2])
        _, guh, ph, _ = _member_fields(tab, f.cache.dofh.loc2glob, f.u, f.p,
                                       epsq, s)
        div = guh[..., 0, 0] + guh[..., 1, 1]
        scale = np.sum(tab.wdet * (np.abs(div) + np.abs(epsq * ph)))
        want = np.sum(tab.wdet * (div + epsq * ph))
        assert abs(res[eid] - want) <= 1e-12 * scale


@pytest.mark.parametrize("problem, G", [(BrennerProblem(0.4999), 1.0),
                                        (_TwoPhaseBrenner(0.49), _two_phase)])
def test_evaluation_is_bitwise_equal_across_threads(monkeypatch, problem, G):
    # the one class of the n = 4 grid, or its material groups under the
    # two-phase G, in chunks of one member: 32 chunks, summed in order
    monkeypatch.setattr(local_solver, "SAMPLE_POINTS", 1)
    results = []
    for threads in (1, 2):
        sol, data = solve_mhm(MHMConfig(n=4, level=1, k=1, nu=problem.nu,
                                        G=G, threads=threads), problem)
        assert sol.threads == threads
        results.append((compute_errors(sol, problem),
                        compressibility_residual(sol, problem.material)))
    assert len({c.dofh for c in data.caches}) == 1
    assert [len(c.alpha) for c in data.caches] == ([1] if G == 1.0
                                                   else [1, 2])
    assert results[0] == results[1]


def test_evaluation_reuses_its_threads(monkeypatch):
    # a 2-thread solution's evaluations share the helper thread of the
    # first: later calls start none, so no call grows a new thread's memory
    monkeypatch.setattr(local_solver, "SAMPLE_POINTS", 1)
    problem = BrennerProblem(0.4999)
    sol, _ = solve_mhm(MHMConfig(n=4, level=1, k=1, nu=problem.nu,
                                 threads=2), problem)
    first = compute_errors(sol, problem)

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert compute_errors(sol, problem) == first
    assert len(compressibility_residual(sol, problem.material)) == 32


@pytest.mark.parametrize("solve", [solve_gals_dirichlet,
                                   solve_galerkin_dirichlet])
def test_single_level_is_one_member_of_the_batch(solve):
    problem = _TwoPhaseBrenner(0.49)
    sol = solve(unit_square_mesh(4), problem.material, 2, problem.f,
                u_dirichlet=problem.u)
    tab = _tabulation(sol.dofh, 4)
    sq = _member_error_squares(tab, sol.dofh.loc2glob, sol.u, sol.p,
                               problem, np.eye(2, 3))
    _assert_record(compute_errors(sol, problem), sq, 0.0)


@pytest.mark.parametrize("problem", [
    BrennerProblem(0.3, G=1.7),
    LinearProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02], nu=0.45, G=2.5),
    _AffineGProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02], [0.3, -0.2],
                    nu=0.45)])
def test_exact_stress_from_gradient_and_pressure(problem):
    x = _interior_points(np.random.default_rng(4), 30)
    got = asm.stress(problem.material.G_at(x), problem.grad_u(x),
                     problem.p(x))
    if isinstance(problem, _AffineGProblem):
        want = problem.sigma(x)
    elif isinstance(problem, LinearProblem):
        A = problem.A
        want = np.broadcast_to(
            problem.G * (A + A.T) + np.trace(A) / problem.epsilon * np.eye(2),
            got.shape)
    else:
        g, p = problem.grad_u(x), problem.p(x)
        want = (problem.G * (g + np.swapaxes(g, -1, -2))
                - p[:, None, None] * np.eye(2))
        assert np.abs(problem.sigma(x) - want).max() <= (
            1e-14 * np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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
    assert sum(t == "neumann" for t in sk.partition.faces.tag) == 4
    # the discrete traction of every segment against sigma n_F, one
    # segment at a time
    deg = max(f.cache.dofh.ref.degree for f in sol.fields.values())
    rule = quad_rule("segment", 2 * (deg + sk.degree) + 2)
    want = 0.0
    seg = sk.segments
    for sid in range(len(seg)):
        pts = seg.p0[sid] + rule.points[:, None] * (seg.p1[sid] - seg.p0[sid])
        mu = sk.basis_values(sid, rule.points)
        lam_h = np.einsum("i,iqc->qc", sol.lam[sk.segment_dofs(sid)], mu)
        nF = sk.partition.faces.normal[seg.face[sid]]
        want += np.sum(rule.weights * seg.length[sid]
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
    empty = saddle_system(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0),
                          np.zeros(0))
    rep = spectral_diagnostics(empty)
    assert rep.ok


def test_spectral_diagnostics_refuses_large_system():
    n = SPECTRAL_MAX_UNKNOWNS
    big = saddle_system(sp.csr_matrix((n, n)), sp.csr_matrix((n, 3)),
                        np.zeros(n), np.zeros(3))
    with pytest.raises(ValueError, match=f"{n + 3} global unknowns exceed "
                                         f"the limit of {n}"):
        spectral_diagnostics(big)
