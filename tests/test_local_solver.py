"""Local element solvers: material data, stabilization parameter, rigid-body
projection, and the condensed basis caches."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mhmelast import (BrennerProblem, InverseConstant, MHMConfig,
                      MaterialField, RigidModes, assemble_local_galerkin,
                      assemble_local_gals, build_local_cache,
                      build_matching_local_mesh,
                      build_structured_triangulation, compute_alpha,
                      inverse_constant, project_rm, refine_skeleton,
                      solve_local_basis, solve_mhm)
from mhmelast import _assembly as asm, local_solver
from mhmelast.fem_core import reference_element
from mhmelast.local_solver import (LocalSolverError, _constraint_rows,
                                   member_slices)


def _element_setup(n=2, element=0, level=0, ell=1, depth=2):
    part = build_structured_triangulation(n)
    sk = refine_skeleton(part, level, ell)
    lm = build_matching_local_mesh(part, element, sk, depth)
    return part, sk, lm


# ---------------------------------------------------------------------------
# Material data
# ---------------------------------------------------------------------------

def test_material_constant_evaluation():
    mat = MaterialField(2.0, 0.25)
    x = np.zeros((5, 2))
    assert np.allclose(mat.G_at(x), 2.0)
    assert np.allclose(mat.nu_at(x), 0.25)
    # (1 - 2 nu) / (2 G nu) = 0.5 / 1.0
    assert np.allclose(mat.eps_at(x), 0.5)


def test_material_callable_evaluation():
    mat = MaterialField(lambda x: 1.0 + x[..., 0], 0.3)
    x = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert np.allclose(mat.G_at(x), [1.0, 2.0])


def test_material_validation():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        MaterialField(-1.0, 0.3).G_at(x)
    with pytest.raises(ValueError):
        MaterialField(1.0, 0.5).nu_at(x)
    with pytest.raises(ValueError):
        MaterialField(1.0, 0.0).nu_at(x)
    # a callable's value broadcasts to the points, or is named with both
    # shapes
    x = np.zeros((3, 4, 2))
    eps = MaterialField(lambda x: 1.0, lambda x: 0.3).eps_at(x)
    assert eps.shape == (3, 4) and np.all(eps == (1 - 0.6) / 0.6)
    with pytest.raises(ValueError, match=r"G returned shape \(3, 4, 2\) at "
                       r"points of shape \(3, 4, 2\).*\(3, 4\)"):
        MaterialField(lambda x: x, 0.3).G_at(x)
    with pytest.raises(ValueError, match=r"nu returned shape \(2,\)"):
        MaterialField(1.0, lambda x: np.array([0.3, 0.3])).nu_at(x)


# ---------------------------------------------------------------------------
# Stabilization parameter
# ---------------------------------------------------------------------------

def test_compute_alpha_homogeneous():
    ci = InverseConstant(1, 1.0, 1.0)
    x = np.zeros((3, 2))
    # theta * G0 * C / (2 |G|^2) = 0.5 * 1 * 1 / 2
    assert abs(compute_alpha(MaterialField(1.0, 0.3), x, ci) - 0.25) < 1e-15
    # doubling G halves alpha (G0 / G^2 scaling)
    assert abs(compute_alpha(MaterialField(2.0, 0.3), x, ci) - 0.125) < 1e-15


def test_compute_alpha_varying_G():
    # G0 is the smallest and ||G|| the largest sample: 0.5 * 1 / (2 * 2^2)
    ci = InverseConstant(1, 1.0, 1.0)
    mat = MaterialField(lambda x: 1.0 + x[..., 0], 0.3)
    x = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert compute_alpha(mat, x, ci) == 0.5 * 1.0 / (2 * 2.0**2)
    # a stack of groups reduces each group's samples alone
    Gq = np.stack([mat.G_at(x[None]), 3 * mat.G_at(x[None])])
    assert np.array_equal(local_solver._group_alphas(Gq, ci, 0.5),
                          [0.5 / 8, 0.5 * 3 / (2 * 36)])


def test_compute_alpha_theta_validation():
    ci = InverseConstant(1, 1.0, 1.0)
    x = np.zeros((3, 2))
    for theta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            compute_alpha(MaterialField(1.0, 0.3), x, ci, theta=theta)


def test_alpha_outside_admissible_interval_raises():
    part, sk, lm = _element_setup()
    mat = MaterialField(1.0, 0.3)
    ci = inverse_constant(1)
    bound = ci.value / 2.0
    with pytest.raises(LocalSolverError):
        assemble_local_gals(part, lm, sk, mat, 10 * bound, 1, c_inverse=ci)
    with pytest.raises(LocalSolverError):
        assemble_local_gals(part, lm, sk, mat, -1.0, 1, c_inverse=ci)


# ---------------------------------------------------------------------------
# Rigid modes and the rigid projection
# ---------------------------------------------------------------------------

def test_rigid_modes_have_zero_strain():
    rm = RigidModes([0.3, 0.7])
    x = np.random.default_rng(1).random((20, 2))
    h = 1e-6
    for m in range(3):
        # numerical strain via central differences
        def field(pt):
            return rm.evaluate(pt)[m]
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        du_dx = (field(x + ex) - field(x - ex)) / (2 * h)
        du_dy = (field(x + ey) - field(x - ey)) / (2 * h)
        strain_xx = du_dx[:, 0]
        strain_yy = du_dy[:, 1]
        strain_xy = 0.5 * (du_dx[:, 1] + du_dy[:, 0])
        for s in (strain_xx, strain_yy, strain_xy):
            assert np.abs(s).max() < 1e-9


def test_project_rm_recovers_rigid_fields():
    part, sk, lm = _element_setup(depth=1)
    ref = reference_element(2)
    dofh = asm.DofHandler(lm.mesh, ref)
    tab = asm.Tabulation(lm.mesh, ref, 6)
    rm = RigidModes(lm.mesh.vertices.mean(axis=0))
    Rn = rm.nodal_coefficients(dofh.dof_coords)
    for target in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, -0.4, 1.3]):
        coeffs = Rn @ np.asarray(target)
        rho, resid = project_rm(rm, dofh, tab, coeffs)
        assert np.allclose(rho, target, atol=1e-12)
        assert np.abs(resid).max() < 1e-12


def test_project_rm_matches_normal_equations_oracle():
    # independent oracle: assemble the vector mass matrix by quadrature and
    # solve (R' M R) rho = R' M c directly
    part, sk, lm = _element_setup(depth=2)
    k = 2
    ref = reference_element(k)
    dofh = asm.DofHandler(lm.mesh, ref)
    tab = asm.Tabulation(lm.mesh, ref, 2 * k + 2)
    rm = RigidModes(np.array([0.1, 0.2]))
    Rn = rm.nodal_coefficients(dofh.dof_coords)

    Ms = np.zeros((dofh.n_dofs, dofh.n_dofs))
    Mel = np.einsum("tq,qa,qb->tab", tab.wdet, tab.vals, tab.vals)
    for t in range(lm.mesh.n_triangles):
        Ms[np.ix_(dofh.loc2glob[t], dofh.loc2glob[t])] += Mel[t]
    M = np.kron(Ms, np.eye(2))    # interleaved vector mass matrix

    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.standard_normal(2 * dofh.n_dofs)
        rho, resid = project_rm(rm, dofh, tab, coeffs)
        rho_oracle = np.linalg.solve(Rn.T @ M @ Rn, Rn.T @ M @ coeffs)
        scale = max(1.0, np.abs(rho_oracle).max())
        assert np.abs(rho - rho_oracle).max() < 1e-12 * scale
        # the residual is orthogonal to the modes, so projecting again
        # yields zero coefficients
        rho2, _ = project_rm(rm, dofh, tab, resid)
        assert np.abs(rho2).max() < 1e-10 * max(1.0, np.abs(coeffs).max())


def test_quadratic_field_projection_closed_form():
    # u = (x^2, 0) on the unit right triangle (0,0)-(1,0)-(1,1), modes about
    # the centroid (2/3, 1/3).  Modes centred at the centroid are mutually
    # L2-orthogonal here, so the x-translation coefficient is simply the
    # mean of x^2: (int x^2 = 1/4) / (area 1/2) = 1/2.  Degree 2 represents
    # the field exactly.
    mesh_part = build_structured_triangulation(1)
    sk = refine_skeleton(mesh_part, 0, 1)
    lm = build_matching_local_mesh(mesh_part, 0, sk, 2)
    k = 2
    ref = reference_element(k)
    dofh = asm.DofHandler(lm.mesh, ref)
    tab = asm.Tabulation(lm.mesh, ref, 2 * k + 2)
    rm = RigidModes(np.array([2 / 3, 1 / 3]))
    coeffs = np.zeros(2 * dofh.n_dofs)
    coeffs[0::2] = dofh.dof_coords[:, 0] ** 2
    rho, _ = project_rm(rm, dofh, tab, coeffs)
    # translation component: mean of x^2 over the triangle = 1/2
    assert abs(rho[0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Assembled local systems
# ---------------------------------------------------------------------------

def test_local_gals_matrix_symmetric_random_elements():
    rng = np.random.default_rng(3)
    part = build_structured_triangulation(3)
    sk = refine_skeleton(part, 0, 1)
    mat = MaterialField(lambda x: 1.0 + 0.5 * np.sin(2 * x[..., 0])
                        * np.cos(x[..., 1]), 0.45)
    ci = inverse_constant(1)
    for eid in rng.choice(part.n_elements, size=10, replace=False):
        lm = build_matching_local_mesh(part, int(eid), sk, 2)
        tab = asm.Tabulation(lm.mesh, reference_element(1), 4)
        alpha = compute_alpha(mat, tab.points, ci, theta=0.5)
        system = assemble_local_gals(part, lm, sk, mat, alpha, 1,
                                     c_inverse=ci)
        A = system.matrix.toarray()
        scale = np.abs(A).max()
        assert np.abs(A - A.T).max() < 1e-12 * scale


def test_local_galerkin_matrix_symmetric():
    part, sk, lm = _element_setup()
    system = assemble_local_galerkin(part, lm, sk, MaterialField(1.0, 0.3), 1)
    A = system.matrix.toarray()
    assert np.abs(A - A.T).max() < 1e-12 * np.abs(A).max()


def test_stabilization_touches_only_needed_blocks_for_p1():
    # for k = 1 the displacement stress divergence vanishes (affine shapes),
    # so the least-squares term modifies only the pressure-pressure block
    part, sk, lm = _element_setup()
    mat = MaterialField(1.0, 0.3)
    A0 = assemble_local_gals(part, lm, sk, mat, 1e-12, 1).matrix.toarray()
    A1 = assemble_local_gals(part, lm, sk, mat, 0.1, 1).matrix.toarray()
    diff = A1 - A0
    nsd = A0.shape[0]
    nu = 2 * (nsd // 3)
    assert np.abs(diff[:nu, :]).max() < 1e-10
    assert np.abs(diff[:, :nu]).max() < 1e-10
    assert np.abs(diff[nu:nu + nsd // 3, nu:nu + nsd // 3]).max() > 1e-4


def test_zero_load_gives_zero_load_column():
    part, sk, lm = _element_setup()
    cache = build_local_cache(part, lm, sk, MaterialField(1.0, 0.3), 1)
    assert np.abs(cache.load_u[0]).max() < 1e-13
    assert np.abs(cache.load_pairing).max() < 1e-13
    assert np.abs(cache.rm_load).max() < 1e-13


def test_cache_shapes_and_orthogonality():
    part, sk, lm = _element_setup(level=1, depth=3)
    k = 1
    cache = build_local_cache(part, lm, sk, MaterialField(1.0, 0.4999), k,
                              f=lambda x: np.ones(x.shape[:-1] + (2,)))
    # the trace solutions, then the element's load solution
    Uu = np.column_stack([cache.trace_u[0], cache.load_u.T])
    Up = np.column_stack([cache.trace_p[0], cache.load_p.T])
    # one group; 3 faces x 2 segments x 4 dofs
    assert cache.trace_u.shape[0] == cache.trace_p.shape[0] == 1
    assert cache.n_trace == 24
    assert Uu.shape == (2 * cache.dofh.n_dofs, 25)
    assert Up.shape == (cache.dofh.n_dofs, 25)
    assert set(np.unique(cache.dof_signs)) <= {-1, 1}
    # every basis solution is L2-orthogonal to the rigid modes
    ref = reference_element(k)
    tab = asm.Tabulation(lm.mesh, ref, 2 * k + 2)
    scale = np.abs(Uu).max()
    for col in range(Uu.shape[1]):
        rho, _ = project_rm(cache.rigid_modes, cache.dofh, tab, Uu[:, col])
        assert np.abs(rho).max() < 1e-9 * max(scale, 1.0)


def test_pairing_block_symmetric_positive():
    part, sk, lm = _element_setup(depth=2)
    cache = build_local_cache(part, lm, sk, MaterialField(1.0, 0.4999), 1)
    assert cache.pairing.shape == (1, cache.n_trace, cache.n_trace)
    P = cache.pairing[0]
    scale = np.abs(P).max()
    assert np.abs(P - P.T).max() < 1e-9 * scale
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    assert w.min() > -1e-10 * scale


def test_local_conditioning_robust_in_nu():
    # the local stabilized system must not degenerate as nu -> 1/2
    part, sk, lm = _element_setup(n=1, depth=2)
    conds = []
    for nu in (0.3, 0.49999):
        mat = MaterialField(1.0, nu)
        tab = asm.Tabulation(lm.mesh, reference_element(1), 4)
        ci = inverse_constant(1)
        alpha = compute_alpha(mat, tab.points, ci)
        system = assemble_local_gals(part, lm, sk, mat, alpha, 1,
                                     c_inverse=ci)
        # the Neumann block bordered by its rigid-mode constraint rows
        conds.append(np.linalg.cond(np.block([[system.matrix.toarray(),
                                               system.C.T],
                                              [system.C, np.zeros((3, 3))]])))
    assert conds[1] / conds[0] < 100


def test_galerkin_cache_has_no_pressure():
    part, sk, lm = _element_setup()
    cache = build_local_cache(part, lm, sk, MaterialField(1.0, 0.3), 1,
                              kind="galerkin")
    assert cache.trace_p is None and cache.load_p is None


def test_build_local_cache_rejects_unknown_kind():
    part, sk, lm = _element_setup()
    with pytest.raises(ValueError):
        build_local_cache(part, lm, sk, MaterialField(1.0, 0.3), 1,
                          kind="mystery")


def test_constraint_rows_annihilate_orthogonal_complement():
    # the constraint rows evaluated on a rigid field reproduce its mass
    # moments; on the residual of project_rm they vanish
    part, sk, lm = _element_setup(depth=1)
    ref = reference_element(1)
    dofh = asm.DofHandler(lm.mesh, ref)
    tab = asm.Tabulation(lm.mesh, ref, 4)
    rm = RigidModes(lm.mesh.vertices.mean(axis=0))
    C = _constraint_rows(dofh, tab, rm)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(2 * dofh.n_dofs)
    _, resid = project_rm(rm, dofh, tab, coeffs)
    assert np.abs(C @ resid).max() < 1e-12 * max(1.0, np.abs(coeffs).max())


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_local_matrix_matches_dense_oracle(kind, k):
    # element blocks and the three rigid-mode constraint rows, accumulated
    # triangle by triangle into a dense matrix and dense rows
    part, sk, lm = _element_setup(level=1, depth=2)
    mat = MaterialField(1.0, 0.4)
    ref = reference_element(k)
    dofh = asm.DofHandler(lm.mesh, ref)
    tab = asm.Tabulation(lm.mesh, ref, 2 * k + 2)
    Gq, epsq = mat.G_at(tab.points), mat.eps_at(tab.points)
    vl2g = dofh.vector_loc2glob()
    if kind == "gals":
        op = assemble_local_gals(part, lm, sk, mat, 1e-3, k)
        A_el, _ = asm.gals_element_matrices(tab, Gq, epsq, 1e-3)
        l2g = np.concatenate([vl2g, 2 * dofh.n_dofs + dofh.loc2glob], axis=1)
    else:
        op = assemble_local_galerkin(part, lm, sk, mat, k)
        A_el = asm.galerkin_element_matrices(tab, Gq, epsq)
        l2g = vl2g
    nfield = l2g.max() + 1
    rm = RigidModes(part.vertices[list(part.elements[0])].mean(axis=0))
    modes = rm.evaluate(tab.points)
    A = np.zeros((nfield, nfield))
    C = np.zeros((3, nfield))
    for t in range(lm.mesh.n_triangles):
        A[np.ix_(l2g[t], l2g[t])] += A_el[t]
        C[:, vl2g[t]] += np.einsum("q,mqc,qb->mbc", tab.wdet[t], modes[:, t],
                                   tab.vals).reshape(3, -1)
    got = op.matrix.toarray()
    assert got.shape == A.shape
    assert np.abs(got - A).max() <= 1e-14 * np.abs(A).max()
    assert op.C.shape == C.shape
    assert np.abs(op.C - C).max() <= 1e-14 * np.abs(C).max()


def test_singular_local_stack_is_named():
    # a stack of two blocks of one element's operator, the second with the
    # row and column of an unpinned displacement dof zeroed: its pinned
    # block is exactly singular
    part, sk, lm = _element_setup()
    op = assemble_local_gals(part, lm, sk, MaterialField(1.0, 0.3), 0.01, 1)
    free = np.ones(op.matrix.shape[0])
    free[np.setdiff1d(np.arange(6), op.pins)[0]] = 0.0
    free = sp.diags(free)
    stack = replace(op, alpha=np.repeat(op.alpha, 2),
                    matrix=sp.block_diag([op.matrix, free @ op.matrix @ free],
                                         format="csc"),
                    Dall=np.concatenate([op.Dall] * 2))
    with pytest.raises(LocalSolverError, match="^singular local system; run "
                                               "check_refinement_conditions"):
        solve_local_basis(stack, part, sk, [[lm.element_id]] * 2)
    record = solve_local_basis(replace(stack, matrix=sp.block_diag(
        [op.matrix] * 2, format="csc")), part, sk, [[lm.element_id]] * 2)
    a, b = record.trace_u
    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()


def test_local_solve_residual_is_checked(monkeypatch):
    class Perturbed:
        def __init__(self, matrix, **options):
            self.lu = splu(matrix, **options)

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1 + 1e-8)

    splu = local_solver.splu
    monkeypatch.setattr(local_solver, "splu", Perturbed)
    part, sk, lm = _element_setup()
    with pytest.raises(LocalSolverError, match="^local solve residual .*; run "
                                               "check_refinement_conditions$"):
        build_local_cache(part, lm, sk, MaterialField(1.0, 0.3), 1)


def test_high_degree_residual_failure_names_the_kernel_defect():
    # at k = 15 the equispaced basis holds the rigid modes in the kernel of
    # the local operator only to about 7e-10 relative; the refinement
    # conditions pass, so the message must not send the user to them.
    # MHMConfig stops at K_MAX = 13, so an element of the n = 1 grid is
    # solved directly, on the depth-0 mesh that solve_mhm would give it
    problem = BrennerProblem(0.4999)
    part, sk, lm = _element_setup(n=1, depth=0)
    with pytest.raises(LocalSolverError) as info:
        build_local_cache(part, lm, sk, problem.material, 15, f=problem.f)
    message = str(info.value)
    assert message.startswith("local solve residual")
    assert re.search(r"\|KZ\|/\(\|K\|\|Z\|\) = \d\.\de-(09|1\d) in the "
                     r"degree-15 local operator", message)
    assert "check_refinement_conditions" not in message


def test_degree_twelve_passes_the_residual_check():
    # the monomials in centred coordinates keep the kernel defect at k = 12
    # near 7e-12, well inside the residual bound
    sol, data = solve_mhm(MHMConfig(n=1, k=12, nu=0.4999),
                          BrennerProblem(0.4999))
    assert data.refinement.ok
    assert np.all(np.isfinite(sol.lam))


def _neumann_stack(kind, k):
    """A two-group stack of one element with a Neumann face (x = 1), under
    G = 1 + x/2 and twice that, and a load and a traction."""
    part = build_structured_triangulation(
        2, boundary_tag=lambda m: "neumann" if m[0] > 1 - 1e-12
        else "dirichlet")
    sk = refine_skeleton(part, 1, 1)
    eid = int(np.flatnonzero((part.faces.tag[part.elem_face_ids]
                              == "neumann").any(axis=1))[0])
    lm = build_matching_local_mesh(part, eid, sk, 2)
    geo = local_solver._local_geometry(part, lm, sk, k, kind)
    mat = MaterialField(lambda x: 1.0 + 0.5 * x[..., 0], 0.4)
    G, eps = mat.samples(geo.tab.points)
    alpha = [1e-3, 2e-3] if kind == "gals" else [0.0, 0.0]
    op = local_solver._local_operator(geo, mat, np.stack([G, 2 * G]),
                                      np.stack([eps, 0.5 * eps]), alpha)
    return part, sk, eid, op


def _load(x):
    return np.stack([np.sin(3 * x[..., 0]), x[..., 0] * x[..., 1]], axis=-1)


def _traction(x):
    return np.stack([1.0 + x[..., 1], -x[..., 1] ** 2], axis=-1)


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_pinned_stack_matches_bordered_oracle(kind, k):
    # each block's trace and load solutions against a dense solve of the
    # bordered system [K C^T; C 0] with the same right-hand sides
    part, sk, eid, op = _neumann_stack(kind, k)
    assert len(op.neumann_edges[1])
    rec = solve_local_basis(op, part, sk, [[eid], [eid]], f=_load,
                            g=_traction)
    n, nu, ntr = len(op.Z), 2 * op.dofh.n_dofs, op.R.shape[0]
    assert op.matrix.shape == (2 * n, 2 * n)
    assert rec.element_ids.tolist() == [eid, eid]
    identity = np.tile(np.eye(2, 3), (2, 1, 1, 1))
    loads, _ = local_solver.element_load(op, identity, f=_load, g=_traction)
    for g in range(2):
        K = op.matrix[g * n:(g + 1) * n, g * n:(g + 1) * n].toarray()
        rhs = np.zeros((n + 3, ntr + 1))
        rhs[:nu, :ntr] = op.R.T
        rhs[:n, ntr] = loads[g * n:(g + 1) * n, 0]
        want = np.linalg.solve(np.block([[K, op.C.T],
                                         [op.C, np.zeros((3, 3))]]),
                               rhs)[:n]
        got = np.zeros((n, ntr + 1))
        got[:nu] = np.column_stack([rec.trace_u[g], rec.load_u[g]])
        if kind == "gals":
            got[nu:] = np.column_stack([rec.trace_p[g], rec.load_p[g]])
        else:
            assert rec.trace_p is None and n == nu
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale
        assert (np.abs(op.C @ got).max()
                <= 1e-14 * np.abs(op.C).sum(axis=1).max() * scale)


@pytest.mark.parametrize("field, singular", [
    ("pins", lambda op: op.pins[[0, 1, 0]]),
    ("C", lambda op: np.repeat(op.C[:1], 3, axis=0)),
])
def test_ill_conditioned_rigid_modes_are_rejected(field, singular):
    part, sk, eid, op = _neumann_stack("gals", 1)
    with pytest.raises(LocalSolverError, match="ill-conditioned"):
        solve_local_basis(replace(op, **{field: singular(op)}), part, sk,
                          [[eid], [eid]])


@pytest.mark.parametrize("groups, sizes", [(2, "[1, 2]"), (1, "[2]")],
                         ids=["unequal", "one-of-two"])
def test_stack_of_unequal_groups_is_rejected(groups, sizes):
    # the stack has two blocks: its groups must be two, of equal size
    part, sk, eid, op = _neumann_stack("gals", 1)
    ids = [[eid], [eid, eid]] if groups == 2 else [[eid, eid]]
    with pytest.raises(ValueError, match="^a stack of 2 groups takes as "
                       "many groups of equal member counts, got "
                       + re.escape(sizes)):
        solve_local_basis(op, part, sk, ids)


def test_pins_hold_the_rigid_modes():
    # both components at the node farthest from the centroid, and one at
    # the node farthest from it: Z[pins] is well conditioned
    part, sk, eid, op = _neumann_stack("gals", 2)
    coords = op.dofh.dof_coords
    a, b = op.pins[0] // 2, op.pins[2] // 2
    dist = np.linalg.norm(coords - op.rigid_modes.centroid, axis=1)
    assert op.pins[1] == 2 * a + 1 and dist[a] == dist.max()
    assert (np.linalg.norm(coords[b] - coords[a])
            == np.linalg.norm(coords - coords[a], axis=1).max())
    assert np.linalg.cond(op.Z[op.pins]) < 1e3
    assert np.abs(op.Z[2 * op.dofh.n_dofs:]).max(initial=0.0) == 0.0


def test_member_slices_cover_the_members_in_order():
    # SAMPLE_POINTS = 16384 points hold 3 members of 5000 points, and a
    # member of more points is a slice of its own
    assert member_slices(7, 5000) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    assert member_slices(2, 20000) == [slice(0, 1), slice(1, 2)]
    assert member_slices(0, 10) == []
