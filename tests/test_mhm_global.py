"""Global saddle-point assembly, solve, and field reconstruction."""

import logging
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mhmelast import (BrennerProblem, LinearProblem, MHMConfig, MaterialField,
                      SaddleSystem, assemble_global_saddle, build_local_cache,
                      build_matching_local_mesh, build_structured_triangulation,
                      compute_errors, postprocess_solution, refine_skeleton,
                      solve_global, solve_gals_dirichlet, solve_mhm,
                      spectral_diagnostics, unit_square_mesh)
from mhmelast import _assembly as asm
from mhmelast import mhm_global, singlelevel, verify
from mhmelast.mhm_global import GlobalSolverError, _dirichlet_data_vector

from conftest import _side_tag, saddle_system


def _caches(n=2, level=0, ell=1, k=1, depth=2, nu=0.3, f=None, g=None,
            boundary_tag=None, kind="gals"):
    part = build_structured_triangulation(n, boundary_tag=boundary_tag)
    sk = refine_skeleton(part, level, ell)
    mat = MaterialField(1.0, nu)
    caches = []
    for eid in range(part.n_elements):
        lm = build_matching_local_mesh(part, eid, sk, depth)
        caches.append(build_local_cache(part, lm, sk, mat, k, kind=kind, f=f,
                                        g=g))
    return part, sk, caches


def _right_neumann(mid):
    return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"


def _dense_saddle(caches, sk, u_dirichlet, exactness):
    """Dense reference assembly of the saddle blocks and right-hand side."""
    members = sorted((eid, cache, i) for cache in caches
                     for i, eid in enumerate(cache.element_ids.tolist()))
    n_lambda, n_rm = sk.n_dofs, 3 * len(members)
    A = np.zeros((n_lambda, n_lambda))
    B = np.zeros((n_lambda, n_rm))
    c = np.zeros(n_lambda)
    d = np.zeros(n_rm)
    for j, (_, cache, i) in enumerate(members):
        idx, s = cache.trace_dofs[i], cache.dof_signs[i]
        pairing = cache.pairing[i // (len(cache.element_ids)
                                      // len(cache.pairing))]
        A[np.ix_(idx, idx)] += s[:, None] * pairing * s[None, :]
        B[idx, 3 * j:3 * j + 3] += s[:, None] * cache.rm_pairing
        c[idx] -= s * cache.load_pairing[i]
        d[3 * j:3 * j + 3] = -cache.rm_load[i]
    c += _dirichlet_data_vector(sk, u_dirichlet, exactness)
    return 0.5 * (A + A.T), B, c, d


def test_zero_data_gives_zero_solution():
    part, sk, caches = _caches()
    system = assemble_global_saddle(caches, sk)
    lam, rho = solve_global(system)
    assert np.abs(lam).max() < 1e-12
    assert np.abs(rho).max() < 1e-12
    sol = postprocess_solution(caches, sk, lam, rho)
    for f in sol.fields.values():
        assert np.abs(f.u).max() < 1e-12
        assert np.abs(f.p).max() < 1e-12


def test_system_block_structure_and_symmetry():
    part, sk, caches = _caches()
    system = assemble_global_saddle(caches, sk)
    n = sk.n_dofs
    assert system.A.shape == (n, n)
    assert system.B.shape == (n, 3 * part.n_elements)
    A = system.A.toarray()
    assert np.array_equal(A, A.T)
    M = system.full_matrix().toarray()
    assert np.abs(M[n:, n:]).max() == 0.0
    assert np.allclose(M[:n, n:], system.B.toarray())


def test_sparse_assembly_matches_dense_oracle():
    problem = BrennerProblem(0.3)

    def tag(mid):
        return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"

    def traction(x):                   # sigma n on the face x = 1
        return problem.sigma(x)[..., :, 0]

    k = 2
    part, sk, caches = _caches(level=1, k=k, f=problem.f, g=traction,
                               boundary_tag=tag)
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    assert sp.issparse(system.A) and sp.issparse(system.B)
    assert system.A.nnz <= sum(c.trace_dofs.size * c.n_trace for c in caches)

    A, B, c, d = _dense_saddle(caches, sk, problem.u, k + sk.degree + 2)
    assert np.abs(c).max() > 0 and np.abs(d).max() > 0
    for got, want in ((system.A.toarray(), A), (system.B.toarray(), B),
                      (system.rhs_lambda, c), (system.rhs_rm, d)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the stored matrix is the saddle matrix in the stored order
    saddle = np.block([[A, B], [B.T, np.zeros((B.shape[1],) * 2)]])
    want = saddle[np.ix_(system.order, system.order)]
    assert system.matrix.format == "csc"
    assert np.abs(system.matrix.toarray() - want).max() \
        <= 1e-14 * np.abs(want).max()
    A = system.A.toarray()
    assert np.array_equal(A, A.T)

    lam, rho = solve_global(system)
    x = np.linalg.solve(system.full_matrix().toarray(), system.full_rhs())
    got = np.concatenate([lam, rho.ravel()])
    assert np.abs(got - x).max() <= 1e-10 * np.abs(x).max()


def test_singular_system_raises_global_solver_error():
    # the second rigid mode couples to no trace dof: an all-zero column of B
    B = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    system = saddle_system(sp.identity(3), B, np.ones(3), np.ones(2))
    with pytest.raises(GlobalSolverError, match="singular global system"):
        solve_global(system)


def test_global_solve_residual_is_checked(monkeypatch):
    class Perturbed:
        def __init__(self, matrix, **options):
            self.lu = splu(matrix, **options)

        def __getattr__(self, name):        # L and U of the debug record
            return getattr(self.lu, name)

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1 + 1e-8)

    problem = BrennerProblem(0.3)
    part, sk, caches = _caches(f=problem.f)
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    # a system built from given blocks takes the same factorization
    B = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    by_hand = saddle_system(sp.identity(3), B, np.ones(3), np.ones(2))
    splu = mhm_global.splu
    monkeypatch.setattr(mhm_global, "splu", Perturbed)
    for s in (system, by_hand):
        with pytest.raises(GlobalSolverError, match="^global solve residual "
                                                    ".* exceeds tolerance"):
            solve_global(s)


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("level, k", [(0, 1), (1, 2)])
def test_face_order_puts_rigid_modes_after_their_traces(kind, level, k):
    # the order's assumption: A is positive definite, with Neumann faces too
    problem = BrennerProblem(0.3)
    part, sk, caches = _caches(n=3, level=level, k=k, kind=kind,
                               boundary_tag=_right_neumann, f=problem.f,
                               g=lambda x: problem.sigma(x)[..., :, 0])
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    w = np.linalg.eigvalsh(system.A.toarray())
    assert w.min() > 1e-8 * w.max()
    order = system.order
    n = sk.n_dofs
    assert np.array_equal(np.sort(order), np.arange(n + 3 * part.n_elements))
    position = np.argsort(order)
    for c in caches:
        for eid, dofs in zip(c.element_ids, c.trace_dofs):
            assert (position[n + 3 * eid + np.arange(3)].min()
                    > position[dofs].max())
    # the trace dofs of one face are consecutive
    faces = sk.segments.face[np.arange(n) // sk.dofs_per_segment]
    traces = order[order < n]
    assert np.count_nonzero(np.diff(faces[traces])) == len(np.unique(faces)) - 1
    lam, rho = solve_global(system)
    x = np.linalg.solve(system.full_matrix().toarray(), system.full_rhs())
    got = np.concatenate([lam, rho.ravel()])
    assert np.abs(x).max() > 0
    assert np.abs(got - x).max() <= 1e-10 * np.abs(x).max()


@pytest.mark.parametrize("boundary_tag", [None, _side_tag],
                         ids=["dirichlet", "neumann"])
def test_face_order_ranks_every_cut_after_both_halves(boundary_tag):
    # for every cut of the bisection of the element centroids, the trace
    # dofs of the faces with an element on each side follow those of every
    # face inside either half, and each element's rigid modes follow its
    # last trace dof, with only rigid modes between
    part, sk, caches = _caches(n=4, boundary_tag=boundary_tag)
    system = assemble_global_saddle(caches, sk)
    n, order = sk.n_dofs, system.order
    position = np.argsort(order)
    carried = sk.face_segments[:, 0] >= 0
    dofs = [position[sk.segment_dofs(segments).ravel()]
            for segments in sk.face_segments]
    leaf, d = asm._bisection_leaves(part.vertices[part.elements].mean(axis=1))
    assert d >= 3
    elements, cuts = part.faces.elements, 0
    for level in range(d):
        for prefix in range(2 ** level):
            inside = leaf >> (d - level) == prefix
            upper = (leaf >> (d - level - 1)) & 1 == 1
            # each half, False at index -1, a boundary face's other side
            halves = [np.append(h, False) for h in (inside & ~upper,
                                                    inside & upper)]
            within = [np.all(h[elements] | (elements < 0), axis=1) & carried
                      for h in halves]
            cut = halves[0][elements].any(axis=1) \
                & halves[1][elements].any(axis=1)
            inner = [dofs[f] for f in np.flatnonzero(within[0] | within[1])]
            if cut.any() and inner:
                cuts += 1
                assert (min(dofs[f].min() for f in np.flatnonzero(cut))
                        > np.concatenate(inner).max())
    assert cuts >= 2 ** (d - 1)
    for c in caches:
        for eid, trace in zip(c.element_ids, c.trace_dofs):
            first, last = position[n + 3 * eid], position[trace].max()
            assert np.array_equal(position[n + 3 * eid + np.arange(3)],
                                  first + np.arange(3))
            assert first > last and np.all(order[last + 1:first] >= n)


def test_global_solve_logs_one_debug_record(caplog):
    problem = BrennerProblem(0.3)
    part, sk, caches = _caches(f=problem.f)
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    with caplog.at_level(logging.DEBUG, logger="mhmelast"):
        solve_global(system)
    records = [r for r in caplog.records if r.name == "mhmelast"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert re.fullmatch(
        rf"global solve: {len(system.order)} unknowns, nnz "
        rf"{system.matrix.nnz}, LU fill \d+, order \d+\.\d{{3}} s, factor "
        r"\d+\.\d{3} s", records[0].getMessage())


class _WithoutFactorCopies:
    """A SuperLU factor whose `L` and `U`, full CSC copies of the factors,
    may not be read."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"the factor copy {name} was read")
        return getattr(self.lu, name)


def test_debug_records_read_the_fill_without_copying_the_factors(
        monkeypatch, caplog):
    fills = []

    def recorded_splu(M, **options):
        lu = splu(M, **options)
        fills.append(lu.nnz)
        return _WithoutFactorCopies(lu)

    monkeypatch.setattr(mhm_global, "splu", recorded_splu)
    monkeypatch.setattr(singlelevel, "splu", recorded_splu)
    problem = BrennerProblem(0.3)
    part, sk, caches = _caches(f=problem.f)
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    with caplog.at_level(logging.DEBUG, logger="mhmelast"):
        solve_global(system)
        solve_gals_dirichlet(unit_square_mesh(4), problem.material, 2,
                             problem.f, u_dirichlet=problem.u)
    records = [r for r in caplog.records if r.name == "mhmelast"]
    assert len(records) == len(fills) == 2
    for record, what, fill in zip(records, ("global", "single-level"), fills):
        assert re.match(rf"{what} solve: .*, LU fill {fill}, ",
                        record.getMessage())


def test_global_solve_builds_no_record_when_disabled(monkeypatch):
    # the record is formatted only for an enabled logger
    logger = logging.getLogger("mhmelast")
    monkeypatch.setattr(logger, "debug", lambda *a: pytest.fail("logged"))
    monkeypatch.setattr(logger, "isEnabledFor", lambda level: False)
    part, sk, caches = _caches()
    solve_global(assemble_global_saddle(caches, sk))


def test_untraced_solve_never_derives_the_blocks(monkeypatch):
    # the solve factors the stored matrix; A, B and the natural-order
    # matrix are built only for a caller that asks for them
    def refuse(self, *args):
        raise AssertionError("derived a block of the saddle matrix")

    for name in ("A", "B"):
        monkeypatch.setattr(SaddleSystem, name, property(refuse))
    monkeypatch.setattr(SaddleSystem, "full_matrix", refuse)
    problem = BrennerProblem(0.3)
    sol, data = solve_mhm(MHMConfig(n=2, level=1, k=2, ell=1, nu=0.3),
                          problem)
    assert compute_errors(sol, problem).h1_u < 1


def test_global_assembly_memory_is_bounded_by_the_stored_matrix():
    # the global assembly holds the triplets and the one matrix built from
    # them; a CSR of A converted again from a COO copy peaks at 6.2 times
    # the matrix at n = 4, level 3, k = 3
    problem = BrennerProblem(0.3)
    _, data = solve_mhm(MHMConfig(n=4, level=3, k=3, ell=1, nu=0.3,
                                  threads=1), problem)
    tracemalloc.start()
    try:
        system = assemble_global_saddle(data.caches, data.skeleton,
                                        u_dirichlet=problem.u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    M = system.matrix
    stored = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert M.nnz > 200_000
    assert peak <= 4.0 * stored, peak / stored


def test_interior_segments_seen_with_opposite_signs():
    part, sk, caches = _caches()
    by_element = {eid: (c.trace_dofs[i], c.dof_signs[i]) for c in caches
                  for i, eid in enumerate(c.element_ids.tolist())}
    for fid, ks in enumerate(part.faces.elements.tolist()):
        if ks[1] < 0:
            continue
        for sid in sk.face_segments[fid]:
            dofs = sk.segment_dofs(sid)
            signs = []
            for K in ks:
                trace_dofs, dof_signs = by_element[K]
                mask = np.isin(trace_dofs, dofs)
                assert mask.sum() == sk.dofs_per_segment
                signs.append(set(np.unique(dof_signs[mask])))
            assert signs[0] == {1} and signs[1] == {-1} or \
                signs[0] == {-1} and signs[1] == {1}


def test_saddle_kernel_positivity():
    part, sk, caches = _caches(nu=0.3)
    system = assemble_global_saddle(caches, sk)
    spec = spectral_diagnostics(system, skeleton=sk)
    assert spec.lambda_min > 0
    assert spec.inf_sup > 0
    assert spec.ok


def test_postprocess_is_linear_in_lambda():
    part, sk, caches = _caches()
    rng = np.random.default_rng(5)
    lam1 = rng.standard_normal(sk.n_dofs)
    lam2 = rng.standard_normal(sk.n_dofs)
    rho = np.zeros((len(caches), 3))
    u1 = postprocess_solution(caches, sk, lam1, rho)
    u2 = postprocess_solution(caches, sk, lam2, rho)
    u12 = postprocess_solution(caches, sk, lam1 + lam2, rho)
    for eid in u12.fields:
        combined = u1.fields[eid].u + u2.fields[eid].u
        assert np.abs(u12.fields[eid].u - combined).max() < 1e-11


def test_rigid_coefficients_shift_solution_exactly():
    part, sk, caches = _caches()
    lam = np.zeros(sk.n_dofs)
    rho = np.zeros((len(caches), 3))
    rho[0] = [0.5, -0.25, 0.1]
    sol = postprocess_solution(caches, sk, lam, rho)
    f0 = sol.fields[0]
    expected = f0.cache.rigid_modes.nodal_coefficients(
        f0.cache.dofh.dof_coords) @ rho[0]
    assert np.abs(f0.u - expected).max() < 1e-13
    assert np.abs(sol.fields[1].u).max() < 1e-13


def test_solution_fields_are_built_once():
    part, sk, caches = _caches()
    sol = postprocess_solution(caches, sk, np.zeros(sk.n_dofs),
                               np.zeros((len(caches), 3)))
    assert "fields" not in vars(sol)
    assert sol.fields is sol.fields
    assert list(sol.fields) == list(range(part.n_elements))
    with pytest.raises(TypeError):
        sol.fields[0] = None


def test_solution_stores_member_arrays_once():
    # a varying G splits the class mesh of all 128 elements into 3
    # records, and its members make two chunks of 64, which span the
    # records
    cfg = MHMConfig(n=8, level=0, k=1, nu=0.3, threads=1,
                    G=lambda x: 1 + 0.3 * x[..., 0] + 0.2 * x[..., 1])
    sol, data = solve_mhm(cfg, BrennerProblem(0.3))
    assert len(data.caches) == 3 and len(sol.members) == 1
    assert sorted(Counter(c.dofh for c in data.caches).values()) == [3]
    assert "fields" not in vars(sol)
    meshes = []

    def tabulate(dofh):
        meshes.append(dofh)
        return verify._tabulation(4)(dofh)

    chunks = list(sol.member_chunks(tabulate))
    assert [len(chunk[2]) for chunk in chunks] == [64, 64]
    fields = sol.fields
    assert list(fields) == list(range(128))
    assert len(meshes) == 1
    dofh = meshes[0]
    for _, _, ids, U, P, maps in chunks:
        for chunk_array, stored in zip((U, P, maps), sol.members[dofh][1:]):
            assert np.shares_memory(chunk_array, stored)
        for i, eid in enumerate(ids.tolist()):
            f = fields[eid]
            assert f.cache.dofh is dofh and eid in f.cache.element_ids
            assert f.u.tobytes() == U[i].tobytes()
            assert f.p.tobytes() == P[i].tobytes()
            assert f.map.tobytes() == maps[i].tobytes()


def test_patch_solution_reproduces_constant_traction():
    problem = LinearProblem([[0.3, 0.1], [-0.2, 0.4]], [0.05, -0.02], nu=0.3)
    cfg = MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3)
    sol, data = solve_mhm(cfg, problem)
    rec = compute_errors(sol, problem)
    assert rec.l2_u < 1e-11
    assert rec.h1_u < 1e-10
    assert rec.traction < 1e-10
    # the trace unknown approximates sigma n_F: check one segment directly
    sk = data.skeleton
    seg = sk.segments
    mid = 0.5 * (seg.p0[0] + seg.p1[0])
    mu = sk.basis_values(0, np.array([0.5]))
    lam_h = np.einsum("i,iqc->qc", sol.lam[sk.segment_dofs(0)], mu)[0]
    nF = sk.partition.faces.normal[seg.face[0]]
    assert np.abs(lam_h - problem.sigma(mid) @ nF).max() < 1e-9


def test_under_refined_configuration_is_flagged():
    # an under-refined local mesh makes the trace pairing singular on the
    # kernel; the advisory check blocks it, and the spectral diagnostic
    # exposes it if forced
    from mhmelast import BrennerProblem

    prob = BrennerProblem(0.3)
    with pytest.raises(RuntimeError, match="refinement conditions"):
        solve_mhm(MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3, depth=0), prob)
    sol, data = solve_mhm(MHMConfig(n=2, level=0, k=1, ell=1, nu=0.3,
                                    depth=0, override_wellposedness=True),
                          prob)
    spec = spectral_diagnostics(data.system)
    assert not spec.ok
    assert spec.lambda_min < 1e-10 * spec.norm_A


def test_asymmetric_cache_rejected():
    part, sk, caches = _caches()
    caches[0].pairing[0, 0, 1] += 1.0
    with pytest.raises(GlobalSolverError):
        assemble_global_saddle(caches, sk)


def test_pairing_symmetry_is_checked_per_group():
    # each class of this two-phase medium is one stack of two groups whose
    # pairings differ in scale by the compliance ratio 1e6: an asymmetry of
    # 100 times the small group's bound, 1e-10 of its scale, is rejected,
    # though it lies within the large group's bound
    def G(x):
        return np.where(x[..., 0] < 0.5, 1e-6, 1.0)

    _, data = solve_mhm(MHMConfig(n=4, level=0, k=1, ell=1, nu=0.3, G=G),
                        BrennerProblem(0.3))
    cache = data.caches[0]
    scale = np.abs(cache.pairing).max(axis=(1, 2))
    assert len(scale) == 2 and 100 * scale.min() < scale.max()
    cache.pairing[np.argmin(scale), 0, 1] += 100 * 1e-10 * scale.min()
    with pytest.raises(GlobalSolverError, match="not symmetric"):
        assemble_global_saddle(data.caches, data.skeleton)


@pytest.mark.parametrize("scale, asymmetry, ok", [
    (1e-3, 1e-13, True), (1e-3, 1e-8, False), (1.0, 1e-6, False),
    (1e3, 1e-13, True)])
def test_pairing_symmetry_bound_is_relative(scale, asymmetry, ok):
    # a block whose largest entry is `scale`, with one entry off its
    # transpose by `asymmetry` relative: 1e-10 of the block's own scale
    # bounds it, also below 1, where 1e-8 relative is 1e-11 absolute
    A = np.random.default_rng(3).standard_normal((6, 6))
    A = scale * (A + A.T) / np.abs(A + A.T).max()
    A[0, 1] += asymmetry * scale
    if ok:
        P = A[None]
        assert mhm_global._symmetric(P) is P
    else:
        with pytest.raises(GlobalSolverError, match="not symmetric"):
            mhm_global._symmetric(A[None])


@pytest.mark.parametrize("k, nu, theta", [(13, 0.3, 0.5),
                                          (12, 0.4999, 0.25)])
def test_pairing_at_the_highest_degrees_is_symmetric(k, nu, theta):
    # R X is symmetric up to the local solve's residual, which exceeded the
    # global check's 1e-10 of scale here; the records hold its symmetric part
    problem = BrennerProblem(nu)
    sol, data = solve_mhm(MHMConfig(n=2, level=2, k=k, ell=k, nu=nu,
                                    theta=theta), problem)
    for cache in data.caches:
        assert np.array_equal(cache.pairing, np.swapaxes(cache.pairing, 1, 2))
    system = data.system
    M, x = system.full_matrix(), np.concatenate([sol.lam, sol.rho.ravel()])
    b = system.full_rhs()
    res = np.abs(M @ x - b).max()
    assert res <= 1e-10 * (np.abs(b).max()
                           + abs(M).sum(axis=1).max() * np.abs(x).max())
    assert compute_errors(sol, problem).h1_u < 1e-5


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ordered_map_reads_items_as_calls_finish(threads):
    # when the generator yields item j, the calls of the items before
    # j - (threads - 1) have finished: each thread holds at most one item,
    # and the calls run on the calling thread and threads - 1 others
    finished, ahead, idents = [], [], set()
    lock = threading.Lock()

    def items():
        for j in range(40):
            with lock:
                ahead.append(j - len(finished))
            yield j

    def square(j):
        time.sleep(0.002 * (j % 3))         # finish out of order
        with lock:
            finished.append(j)
            idents.add(threading.get_ident())
        return j * j

    assert mhm_global.ordered_map(threads, square, items()) == \
        [j * j for j in range(40)]
    assert max(ahead) <= threads - 1
    assert sorted(finished) == list(range(40))
    assert threading.get_ident() in idents and len(idents) <= threads


def test_ordered_map_raises_a_call_error():
    # the error stops the other threads taking items, and no call runs
    # once it is raised
    calls = []

    def fail_at_five(j):
        time.sleep(0.001)
        calls.append(j)
        if j == 5:
            raise ValueError("item 5")
        return j

    for threads in (1, 2, 3):
        calls.clear()
        with pytest.raises(ValueError, match="item 5"):
            mhm_global.ordered_map(threads, fail_at_five, iter(range(20)))
        done = len(calls)
        time.sleep(0.01)
        assert len(calls) == done <= 5 + threads


def test_ordered_map_keeps_its_helper_threads(monkeypatch):
    # the helper threads are started once per process and size: a second
    # map of the same size starts no thread
    mhm_global.ordered_map(2, abs, range(8))

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert mhm_global.ordered_map(2, abs, range(-8, 0)) == \
        list(range(8, 0, -1))


def test_ordered_map_nests_without_deadlock():
    # a call that maps again from a helper thread finds the helper busy: it
    # does the inner items itself and drops its queued helper task
    def inner_sum(j):
        return sum(mhm_global.ordered_map(2, lambda i: i * i, range(j)))

    out = []
    runner = threading.Thread(target=lambda: out.append(
        mhm_global.ordered_map(2, inner_sum, range(12))), daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert out == [[sum(i * i for i in range(j)) for j in range(12)]]


def test_ordered_map_takes_each_item_once_under_switching():
    # more threads than cores and a short switch interval: the generator is
    # advanced by one thread at a time, every item is taken once, and its
    # result lands at its place
    taken = []

    def items():
        for j in range(3000):
            for _ in range(200):        # bytecodes where a switch can fall
                pass
            yield j

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = mhm_global.ordered_map(4, lambda j: taken.append(j) or -j,
                                     items())
    finally:
        sys.setswitchinterval(interval)
    assert out == [-j for j in range(3000)]
    assert sorted(taken) == list(range(3000))
