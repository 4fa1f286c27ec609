"""Sharing of the local basis across congruence classes of coarse elements
that are translates and point reflections of each other: the shared path,
for constant, periodic and varying materials, must reproduce the
per-element path of one explicit `build_local_cache` per element on its own
mesh."""

import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmelast import (BrennerProblem, InverseConstant, MHMConfig,
                      MaterialField, assemble_global_saddle, build_class_caches,
                      build_local_cache, build_matching_local_mesh,
                      build_structured_triangulation,
                      check_refinement_conditions, compressibility_residual,
                      compute_errors, congruence_classes, default_depth,
                      postprocess_solution, refine_skeleton, solve_global,
                      solve_mhm)
from mhmelast import _assembly as asm, local_solver, pipeline
from mhmelast.local_solver import LocalSolverError
from mhmelast.mesh import GEOM_TOL, GlobalPartition, read_partition

from conftest import _side_tag

NU = 0.49
THETA = 0.25


def _constant(value):
    """A callable returning a constant: all of its samples are equal."""
    return lambda x: np.full(np.shape(x)[:-1], value)


def _linear(x):
    """A shear modulus no two elements sample alike."""
    return 1.0 + 0.1 * x[..., 0] + 0.07 * x[..., 1]


def _uneven(x):
    """A shear modulus equal on the left half and growing with x on the
    right: the left elements of a class form one group, the right ones one
    group per column."""
    return 1.0 + 0.2 * np.maximum(x[..., 0] - 0.5, 0.0)


def _inclusion(x):
    """A shear modulus equal except in the right column of the n = 4 mesh,
    where it varies: the class holds one group of 24 and 8 of one."""
    return 1.0 + 0.2 * np.maximum(x[..., 0] - 0.75, 0.0) * (1.0 + x[..., 1])


def _periodic(x):
    """A shear modulus of period 1/8, the coarse cell size at n = 8."""
    return 1.0 + 0.9 * np.sin(16 * np.pi * x[..., 0]) * np.sin(
        16 * np.pi * x[..., 1])


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _assert_same_solution(shared, single, rtol=1e-9):
    assert _rel(shared.lam, single.lam) <= rtol
    assert _rel(shared.rho, single.rho) <= rtol
    assert shared.fields.keys() == single.fields.keys()
    u_scale = max(np.abs(f.u).max() for f in single.fields.values())
    for eid, f in single.fields.items():
        g = shared.fields[eid]
        assert np.abs(g.u - f.u).max() <= rtol * u_scale
        if f.p is None:
            assert g.p is None
        else:
            p_scale = max(np.abs(h.p).max() for h in single.fields.values())
            assert np.abs(g.p - f.p).max() <= rtol * p_scale


def _assert_same_errors(a, b, rtol=1e-10):
    for name in ("l2_u", "h1_u", "l2_sigma", "l2_p", "traction", "p_eps",
                 "p_h"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= rtol * abs(y), name


def _shared_and_single(problem, G=1.0, g=None, k=2, kind="gals",
                       boundary_tag=None):
    """The run of `solve_mhm` and the per-element path on the same n = 4,
    level-1 problem, each with its solution errors."""
    config = MHMConfig(n=4, level=1, k=k, ell=1, nu=NU, G=G, theta=THETA,
                       kind=kind, boundary_tag=boundary_tag)
    sol, data = solve_mhm(config, problem, g=g)
    part = build_structured_triangulation(4, boundary_tag=boundary_tag)
    sol1, _ = _solve_partition(part, problem, MaterialField(G, NU),
                               shared=False, k=k, kind=kind, g=g)
    return ((sol, data, compute_errors(sol, problem)),
            (sol1, compute_errors(sol1, problem)))


def _groups(caches):
    """The number of material groups of the records, over their group
    axes."""
    return sum(len(c.alpha) for c in caches)


def _group_sizes(caches):
    """The member counts of the records' groups, record by record."""
    return [len(c.element_ids) // len(c.alpha) for c in caches
            for _ in c.alpha]


def _check_against_per_element_path(G, groups, n_meshes=1, **cfg):
    problem = BrennerProblem(NU)
    (sol, data, err), (sol1, err1) = _shared_and_single(problem, G=G, **cfg)
    # 32 elements in one shape, the upper triangles point reflections of
    # the lower ones: one record per stack of material groups of a class,
    # its groups along the group axis and its members as rows; one local
    # mesh per class
    assert _groups(data.caches) == groups
    assert len(sol1.caches) == _groups(sol1.caches) == 32
    assert len(data.local_meshes) == len({id(c.dofh) for c in data.caches})
    assert len(data.local_meshes) == n_meshes
    for caches, meshes in ((data.caches, [lm.element_id
                                          for lm in data.local_meshes]),
                           (sol1.caches, list(range(32)))):
        ids = np.concatenate([c.element_ids for c in caches])
        assert sorted(ids.tolist()) == list(range(32))
        for c in caches:
            m, ng = len(c.element_ids), len(c.alpha)
            assert c.trace_dofs.shape == c.dof_signs.shape == (m, c.n_trace)
            assert c.load_u.shape == (m, c.trace_u.shape[1])
            assert c.maps.shape == (m, 2, 3)
            assert c.trace_u.shape[0] == ng
            assert c.pairing.shape == (ng, c.n_trace, c.n_trace)
            # the groups of a stack have equal member counts
            assert m % ng == 0
        # the elements the meshes were built on map by the identity
        maps = np.concatenate([c.maps for c in caches])
        assert sorted(ids[np.all(maps == np.eye(2, 3), axis=(1, 2))]) == \
            sorted(meshes)
    _assert_same_solution(sol, sol1)
    _assert_same_errors(err, err1)


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_shared_classes_match_per_element_path(kind, k):
    _check_against_per_element_path(1.0, 1, k=k, kind=kind)


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_varying_material_matches_per_element_path(kind, k):
    # no two elements sample G alike: one group per element, still on the
    # one class mesh
    _check_against_per_element_path(_linear, 32, k=k, kind=kind)


def _two_phase(left, right):
    """A shear modulus of `left` for x < 1/2 and `right` elsewhere: members
    on either side have proportional samples."""
    return lambda x: np.where(x[..., 0] < 0.5, left, right)


@pytest.mark.parametrize("left, right", [(1.0, 2.0), (1e-6, 1.0)])
def test_proportional_samples_form_their_own_groups(left, right):
    # the class splits at x = 1/2 into two groups with their own operator
    (sol, data, _), (sol1, _) = _shared_and_single(
        BrennerProblem(NU), G=_two_phase(left, right), k=1)
    assert _groups(data.caches) == 2
    assert [len(c.alpha) for c in data.caches] == [2]
    assert _rel(sol.lam, sol1.lam) <= 1e-10


def _right_face_neumann(mid):
    return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_uneven_material_groups_match_per_element_path(monkeypatch, kind,
                                                       k):
    # the class without the Neumann face x = 1 holds groups of 16 (x < 1/2)
    # and 4 (a column of lower or upper triangles), each size factored and
    # solved in its own stack, the one with it a group of 4, loaded by a
    # traction
    problem = BrennerProblem(NU)
    sizes = []
    build = pipeline.build_class_caches

    def recording_build(*args, **kwargs):
        records = build(*args, **kwargs)
        sizes.append(_group_sizes(records))
        return records

    monkeypatch.setattr(pipeline, "build_class_caches", recording_build)
    _check_against_per_element_path(
        _uneven, 5, n_meshes=2, k=k, kind=kind,
        g=lambda x: problem.sigma(x)[..., :, 0],
        boundary_tag=_right_face_neumann)
    assert sorted(sizes) == [[4], [16, 4, 4, 4]]


def test_shared_classes_match_with_mixed_boundary():
    problem = BrennerProblem(NU)

    def tag(mid):
        return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"

    def traction(x):                   # sigma n on the face x = 1
        return problem.sigma(x)[..., :, 0]

    (sol, data, err), (sol1, err1) = _shared_and_single(
        problem, g=traction, k=2, boundary_tag=tag)
    # lower triangles with a Neumann face, and the others: the upper
    # triangles are point reflections of the lower ones
    assert len({id(c.trace_u) for c in data.caches}) == 2
    _assert_same_solution(sol, sol1)
    _assert_same_errors(err, err1)


def _reoriented_partition():
    """The n = 2 structured partition with its vertices renumbered, so that
    translated lower triangles see their faces in different directions, and
    with element 1 listing its vertices from another corner."""
    part = build_structured_triangulation(2)
    perm = np.random.default_rng(0).permutation(len(part.vertices))
    verts = np.empty_like(part.vertices)
    verts[perm] = part.vertices
    elements = [[int(perm[v]) for v in e] for e in part.elements.tolist()]
    elements[1] = elements[1][1:] + elements[1][:1]
    lines = [f"vertices {len(verts)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in verts]
    lines += [f"elements {len(elements)}"]
    lines += [" ".join(map(str, e)) for e in elements]
    lines += ["boundary_faces 0"]
    return read_partition(io.StringIO("\n".join(lines) + "\n"))


def _solve_partition(part, problem, material, shared, k=2, level=1,
                     kind="gals", g=None):
    """Solve on `part` through the classes, or with one `build_local_cache`
    per element on its own mesh."""
    sk = refine_skeleton(part, level, 1)
    depth = default_depth(k, level)

    def local_mesh(eid):
        return build_matching_local_mesh(part, eid, sk, depth)

    if shared:
        classes = congruence_classes(part, sk, depth)
        caches = [rec for c in classes
                  for rec in build_class_caches(part, local_mesh(c[0]), c, sk,
                                                material, k, kind=kind,
                                                theta=THETA, f=problem.f,
                                                g=g)]
    else:
        classes = [[e] for e in range(part.n_elements)]
        caches = [build_local_cache(part, local_mesh(e), sk, material, k,
                                    kind=kind, theta=THETA, f=problem.f, g=g)
                  for e in range(part.n_elements)]
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    lam, rho = solve_global(system)
    sol = postprocess_solution(caches, sk, lam, rho)
    return sol, [sorted(c) for c in classes]


def test_shared_classes_respect_vertex_order_and_face_orientation():
    part = _reoriented_partition()
    problem = BrennerProblem(NU)
    material = MaterialField(1.0, NU)
    sol, classes = _solve_partition(part, problem, material, shared=True)
    sol1, _ = _solve_partition(part, problem, material, shared=False)

    def rel_vertices(eid):
        p = part.vertices[part.elements[eid]]
        return p - p.mean(axis=0)

    # one class: the lower triangles 0, 2, 4 are translates listed in the
    # same vertex order, and 2 runs its three faces the other way than 0
    # and 4 (two against its edges, where 0 and 4 have one); the upper
    # ones are point reflections of them, and element 1 is a translate of
    # element 3 listed from another corner
    for eid in (2, 4):
        assert np.abs(rel_vertices(eid) - rel_vertices(0)).max() < 1e-14
    assert classes == [list(range(8))]
    sk = refine_skeleton(part, 1, 1)
    maps, rolls = local_solver._member_maps(part, sk, 0, range(8))
    reversed_faces = local_solver._member_segments(
        part, sk, 0, range(8), rolls)[2].reshape(8, 3, -1)[:, :, 0]
    assert maps[:, 0, 0].tolist() == [1, -1] * 4
    assert rolls[[0, 2, 4]].tolist() == [0, 0, 0] and rolls[1] != rolls[3]
    assert reversed_faces[[0, 2, 4]].sum(axis=1).tolist() == [0, 3, 0]
    _assert_same_solution(sol, sol1)


def _counting_splu(monkeypatch):
    calls = []
    splu = local_solver.splu

    def counting_splu(matrix, **options):
        calls.append(matrix.shape)
        return splu(matrix, **options)

    monkeypatch.setattr(local_solver, "splu", counting_splu)
    return calls


def test_one_factorization_per_class(monkeypatch):
    calls = _counting_splu(monkeypatch)
    problem = BrennerProblem(NU)
    lam = {}
    # the 32 groups of the class under _linear are stacked into one matrix
    for G, groups in ((1.0, 1), (_constant(1.0), 1), (_linear, 32)):
        calls.clear()
        sol, data = solve_mhm(MHMConfig(n=4, level=0, k=1, ell=1, nu=NU,
                                        G=G), problem)
        assert [len(c.alpha) for c in data.caches] == [groups]
        n = data.caches[0].dofh.n_dofs * 3
        assert calls == [(groups * n, groups * n)]
        lam[groups, callable(G)] = sol.lam
    # a callable constant is the constant: every sample is equal
    assert _rel(lam[1, True], lam[1, False]) <= 1e-12


def test_stacks_respect_the_unknown_bound(monkeypatch):
    calls = _counting_splu(monkeypatch)
    problem = BrennerProblem(NU)
    config = MHMConfig(n=4, level=0, k=1, ell=1, nu=NU, G=_linear)
    sol, data = solve_mhm(config, problem)
    n = 3 * data.caches[0].dofh.n_dofs
    assert 32 * n <= local_solver.BATCH_UNKNOWNS
    assert calls == [(32 * n, 32 * n)]
    # at most 5 groups a stack: the 32 groups of the class make 7 stacks,
    # 4 of 5 and 3 of 4; a bound below one group factors every group alone
    for bound, stacks in ((5 * n + 1, [5] * 4 + [4] * 3), (1, [1] * 32)):
        calls.clear()
        monkeypatch.setattr(local_solver, "BATCH_UNKNOWNS", bound)
        sol1, data1 = solve_mhm(config, problem)
        assert calls == [(stack * n, stack * n) for stack in stacks]
        assert [len(c.alpha) for c in data1.caches] == stacks
        assert _rel(sol1.lam, sol.lam) <= 1e-12


def test_batches_stack_equal_sizes_within_the_unknown_bound(monkeypatch):
    # groups by decreasing member count, one run per count, then at most 3
    # groups of 30 unknowns a stack
    monkeypatch.setattr(local_solver, "BATCH_UNKNOWNS", 100)
    sizes = [1, 16, 1, 2, 3, 8, 1, 4, 1, 1, 1]
    stacks = local_solver._batches(sizes, 30)
    assert [s.tolist() for s in stacks] == [[1], [5], [7], [4], [3],
                                            [0, 2, 6], [8, 9, 10]]


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30),
       n=st.integers(1, 120), bound=st.integers(1, 400))
def test_batches_partition_groups_into_equal_size_stacks(sizes, n, bound):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_solver, "BATCH_UNKNOWNS", bound)
        stacks = [s.tolist() for s in local_solver._batches(sizes, n)]
    assert sorted(i for s in stacks for i in s) == list(range(len(sizes)))
    counts = []
    for stack in stacks:
        assert len({sizes[i] for i in stack}) == 1
        assert len(stack) == 1 or len(stack) * n <= bound
        counts.append(sizes[stack[0]])
    assert counts == sorted(counts, reverse=True)


def test_stacks_bound_the_padding(monkeypatch):
    # the 24-member group of the class is factored alone, its 8 single
    # members in one stack, one record each, and the groups keep their order
    calls = _counting_splu(monkeypatch)
    problem = BrennerProblem(NU)
    config = MHMConfig(n=4, level=0, k=1, ell=1, nu=NU, G=_inclusion)
    sol, data = solve_mhm(config, problem)
    n = 3 * data.caches[0].dofh.n_dofs
    assert calls == [(n, n), (8 * n, 8 * n)]
    assert [len(c.element_ids) for c in data.caches] == [24, 8]
    sizes = _group_sizes(data.caches)
    assert sorted(sizes) == [1] * 8 + [24]
    calls.clear()
    monkeypatch.setattr(local_solver, "BATCH_UNKNOWNS", 1)
    sol1, data1 = solve_mhm(config, problem)
    assert calls == [(n, n)] * 9
    assert len(data1.caches) == 9
    assert _group_sizes(data1.caches) == sizes
    assert _rel(sol1.lam, sol.lam) <= 1e-12


def test_stacked_alpha_is_checked(monkeypatch):
    # a safe inverse constant above the estimate puts alpha above the
    # admissible interval of every group
    ci = local_solver.inverse_constant(1)
    monkeypatch.setattr(local_solver, "inverse_constant",
                        lambda k: InverseConstant(k, ci.value, 3 * ci.value))
    with pytest.raises(LocalSolverError,
                       match=r"alpha=.* outside the admissible interval "
                             r"\(0, [0-9.e-]+\)"):
        solve_mhm(MHMConfig(n=4, level=0, k=1, ell=1, nu=NU, G=_linear),
                  BrennerProblem(NU))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nu", [0.49, 0.4999])
def test_periodic_medium_shares_one_operator_per_class(monkeypatch, k, nu):
    calls = _counting_splu(monkeypatch)
    problem = BrennerProblem(nu)
    config = MHMConfig(n=8, level=1, k=k, ell=1, nu=nu, G=_periodic,
                       theta=THETA)
    sol, data = solve_mhm(config, problem)
    # the 128 elements are translates by whole periods and point
    # reflections in one shape, under which G is even
    assert len(data.caches) == len(data.local_meshes) == 1
    assert len(calls) == 1
    sol1, _ = _solve_partition(data.partition, problem,
                               MaterialField(_periodic, nu), shared=False,
                               k=k)
    # the per-element meshes differ from the translated class mesh by
    # round-off, which the local solves amplify: with G = 1 the two paths
    # differ by up to 6e-12 in lam and 1.6e-10 in p here
    _assert_same_solution(sol, sol1, rtol=1e-10)


def test_one_local_mesh_per_class(monkeypatch):
    built = []
    build = pipeline.build_matching_local_mesh

    def counting_build(part, eid, *args):
        built.append(eid)
        return build(part, eid, *args)

    monkeypatch.setattr(pipeline, "build_matching_local_mesh", counting_build)
    _, data = solve_mhm(MHMConfig(n=4, level=1, k=1, ell=1, nu=NU,
                                  theta=THETA), BrennerProblem(NU))
    assert len(data.caches) == 1
    assert built == [c.element_ids[0] for c in data.caches]


@pytest.mark.parametrize("G, groups", [(1.0, 1), (_linear, 32)])
def test_error_evaluation_tabulates_once_per_class(monkeypatch, G, groups):
    problem = BrennerProblem(NU)
    sol, data = solve_mhm(MHMConfig(n=4, level=1, k=1, ell=1, nu=NU, G=G,
                                    theta=THETA), problem)
    assert _groups(data.caches) == groups
    built = []

    class CountingTabulation(asm.Tabulation):
        def __init__(self, mesh, *args):
            built.append(mesh)
            super().__init__(mesh, *args)

    monkeypatch.setattr(asm, "Tabulation", CountingTabulation)
    compute_errors(sol, problem)
    assert len(built) == 1
    built.clear()
    compressibility_residual(sol, problem.material)
    assert len(built) == 1


@pytest.mark.parametrize("k, ell, depth", [(1, 1, None), (1, 1, 0),
                                           (2, 1, 0), (1, 2, 2), (3, 2, 1)])
def test_class_verdicts_match_per_element_check(k, ell, depth):
    level = 1
    depth = default_depth(k, level) if depth is None else depth
    for part in (build_structured_triangulation(4),
                 build_structured_triangulation(4, boundary_tag=_side_tag),
                 _reoriented_partition()):
        sk = refine_skeleton(part, level, ell)
        per_element = check_refinement_conditions(
            k, ell, [build_matching_local_mesh(part, e, sk, depth)
                     for e in range(part.n_elements)], sk)
        classes = congruence_classes(part, sk, depth)
        report = check_refinement_conditions(
            k, ell, [build_matching_local_mesh(part, c[0], sk, depth)
                     for c in classes], sk, members=classes)
        assert report.ok == per_element.ok
        assert list(report.element_status.items()) == \
            list(per_element.element_status.items())


def _per_element_depth(partition, eid, skeleton, depth):
    """The local depth of one element, one face and segment at a time."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    need = depth
    for fid in partition.elem_face_ids[eid]:
        segs = [s for s in skeleton.face_segments[fid].tolist() if s >= 0]
        if not segs:
            continue
        r = np.log2(len(segs))
        if abs(r - round(r)) > 1e-9:
            raise ValueError("skeleton segments are not a dyadic subdivision")
        for j, sid in enumerate(segs):
            s0, s1 = skeleton.segments.s0[sid], skeleton.segments.s1[sid]
            if (abs(s0 - j / len(segs)) > GEOM_TOL
                    or abs(s1 - (j + 1) / len(segs)) > GEOM_TOL):
                raise ValueError("skeleton segments do not align with a "
                                 "dyadic subdivision")
        need = max(need, int(round(r)))
    return need


def _per_element_classes(partition, skeleton, depth):
    """The congruence classes from one key per element: the least, over the
    signs s = +-1 and the rolls r = 0, 1, 2, of the rounded
    centroid-relative vertices times s and the segment levels of the faces
    (-1 without segments), each from vertex and edge r on; and the local
    depth."""
    classes = {}
    for eid, e in enumerate(partition.elements.tolist()):
        need = _per_element_depth(partition, eid, skeleton, depth)
        p = partition.vertices[e]
        grid = local_solver.CONGRUENCE_RTOL * partition.element_diameters[eid]
        shape = np.round((p - p.mean(axis=0)) / grid).astype(np.int64)
        levels = []
        for fid in partition.elem_face_ids[eid]:
            count = int(np.sum(skeleton.face_segments[fid] >= 0))
            levels.append(count.bit_length() - 1)
        key = min(tuple((s * np.roll(shape, -r, axis=0)).ravel().tolist())
                  + tuple(np.roll(levels, -r).tolist())
                  for s in (1, -1) for r in range(3))
        classes.setdefault((key, need), []).append(eid)
    return list(classes.values())


def _jittered_partition(n, seed, boundary_tag=None):
    """The n x n structured partition with every interior vertex moved by up
    to 0.2 / n in each direction."""
    part = build_structured_triangulation(n)
    v = part.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    v[inner] += rng.uniform(-0.2 / n, 0.2 / n, (inner.sum(), 2))
    return GlobalPartition(v, part.elements, boundary_tag=boundary_tag)


def _partitions():
    for n in range(1, 9):
        yield build_structured_triangulation(n, boundary_tag=_side_tag)
    yield _reoriented_partition()
    yield _jittered_partition(4, 1, boundary_tag=_side_tag)


@pytest.mark.parametrize("level, depth", [(0, 0), (1, 1), (2, 1), (1, 3)])
def test_classes_match_per_element_keys(level, depth):
    for part in _partitions():
        sk = refine_skeleton(part, level, 1)
        assert congruence_classes(part, sk, depth) == \
            _per_element_classes(part, sk, depth)


def test_classes_raise_as_the_per_element_depth():
    part = build_structured_triangulation(2, boundary_tag=_side_tag)

    def skeletons():
        sk = refine_skeleton(part, 2, 1)
        face = int(np.flatnonzero(part.faces.tag == "interior")[0])
        yield sk, -1                        # a negative depth
        sk.face_segments[face, 3:] = -1
        yield sk, 1                         # three segments on a face
        sk = refine_skeleton(part, 2, 1)
        sid = sk.face_segments[face][1]
        sk.segments.s0[sid] += 0.01
        sk.segments.s1[sid] += 0.01
        yield sk, 1                         # a segment off its dyadic piece

    for sk, depth in skeletons():
        with pytest.raises(ValueError) as want:
            _per_element_classes(part, sk, depth)
        with pytest.raises(ValueError, match=str(want.value)):
            congruence_classes(part, sk, depth)


@pytest.mark.parametrize("boundary_tag", [None, _side_tag])
def test_run_reports_one_verdict_per_element(boundary_tag):
    config = MHMConfig(n=4, level=1, k=2, ell=1, nu=NU, theta=THETA,
                       boundary_tag=boundary_tag)
    _, data = solve_mhm(config, BrennerProblem(NU))
    part, sk = data.partition, data.skeleton
    depth = default_depth(config.k, config.level)
    per_element = check_refinement_conditions(
        config.k, config.ell, [build_matching_local_mesh(part, e, sk, depth)
                               for e in range(part.n_elements)], sk)
    assert data.refinement.element_status == per_element.element_status
    assert len(data.caches) == (1 if boundary_tag is None else 4)


def _point_symmetric_jitter(n, seed, boundary_tag=None):
    """The n x n structured partition with every interior vertex moved by up
    to 0.2 / n in each direction, each by the negative of the move of its
    point reflection about (1/2, 1/2): a lower triangle stays the point
    reflection of the upper triangle opposite it, and no other two elements
    are congruent."""
    part = build_structured_triangulation(n)
    v = part.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    move = np.random.default_rng(seed).uniform(-0.2 / n, 0.2 / n, v.shape)
    # vertex i (n + 1) + j reflects onto vertex (n - i) (n + 1) + n - j
    move = 0.5 * (move - move[::-1])
    v[inner] += move[inner]
    return GlobalPartition(v, part.elements, boundary_tag=boundary_tag)


def _left_right_tag(mid):
    return "neumann" if mid[0] < 1e-12 or mid[0] > 1 - 1e-12 else "dirichlet"


ORACLE_PARTITIONS = {
    "structured": lambda: build_structured_triangulation(4),
    "neumann": lambda: build_structured_triangulation(4,
                                                      boundary_tag=_side_tag),
    "reoriented": _reoriented_partition,
    "jittered": lambda: _point_symmetric_jitter(4, 2,
                                                boundary_tag=_left_right_tag),
}


@pytest.mark.parametrize("name, level, k", [
    (name, level, k) for name in ("structured", "neumann")
    for level in (0, 1, 2) for k in (1, 3)] + [
    (name, 1, k) for name in ("reoriented", "jittered") for k in (1, 3)])
def test_merged_classes_match_one_element_classes(name, level, k):
    # the classes hold translates and point reflections, listed from any
    # vertex and with faces either way along their edges, loaded by f and,
    # on the Neumann faces, by a traction
    part = ORACLE_PARTITIONS[name]()
    problem = BrennerProblem(NU)
    material = MaterialField(1.0, NU)

    def g(x):
        return problem.sigma(x)[..., :, 0]

    sol, classes = _solve_partition(part, problem, material, shared=True,
                                    k=k, level=level, g=g)
    sol1, _ = _solve_partition(part, problem, material, shared=False, k=k,
                               level=level, g=g)
    assert len(classes) < part.n_elements
    assert any(np.any(c.maps[:, 0, 0] < 0) for c in sol.caches)
    _assert_same_solution(sol, sol1)


def _transformed(part, reflect, rolls):
    """`part` point-reflected about (1/2, 1/2), or not, with the vertices
    of element e listed from its vertex rolls[e] on, and the boundary tags
    of its faces."""
    v = 1.0 - part.vertices if reflect else part.vertices
    elements = [np.roll(e, -r) for e, r in zip(part.elements, rolls)]
    faces = part.faces
    tags = {tuple(np.round(0.5 * (v[a] + v[b]), 9)): t
            for a, b, t in zip(faces.v0, faces.v1, faces.tag)}
    return GlobalPartition(v, elements,
                           boundary_tag=lambda m: tags[tuple(np.round(m, 9))])


@pytest.mark.parametrize("level, depth", [(0, 0), (1, 1), (2, 1)])
def test_classes_are_invariant_under_reflection_and_relabeling(level,
                                                               depth):
    rng = np.random.default_rng(level)
    for part in _partitions():
        want = congruence_classes(part, refine_skeleton(part, level, 1),
                                  depth)
        rolls = rng.integers(0, 3, part.n_elements)
        for reflect, r in ((True, 0 * rolls), (False, rolls), (True, rolls)):
            moved = _transformed(part, reflect, r)
            assert congruence_classes(
                moved, refine_skeleton(moved, level, 1), depth) == want


@pytest.mark.parametrize("k", [1, 3])
def test_acceptance_grid_factors_once(monkeypatch, k):
    # criterion 2's and 3's level-3 grid: its 32 elements are translates
    # and point reflections of one, solved on one mesh with one factor
    calls = _counting_splu(monkeypatch)
    built = []
    build = pipeline.build_matching_local_mesh

    def counting_build(part, eid, *args):
        built.append(eid)
        return build(part, eid, *args)

    monkeypatch.setattr(pipeline, "build_matching_local_mesh", counting_build)
    _, data = solve_mhm(MHMConfig(n=4, level=3, k=k, ell=1, nu=0.4999,
                                  theta=0.25), BrennerProblem(0.4999))
    assert built == [0] and len(calls) == 1
    assert [len(c.element_ids) for c in data.caches] == [32]


@pytest.mark.parametrize("boundary_tag", [None, _side_tag])
def test_every_class_runs_on_the_calling_thread(monkeypatch, boundary_tag):
    # threads = 2 is the thread count of the error evaluation: the local
    # phase runs on the calling thread, for the structured grid's lone class
    # and for each of the 4 classes of the grid with Neumann faces
    where = []
    build = pipeline.build_class_caches

    def recording_build(*args, **kwargs):
        where.append(threading.current_thread())
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_class_caches", recording_build)
    _, data = solve_mhm(MHMConfig(n=4, level=0, k=1, nu=NU, threads=2,
                                  boundary_tag=boundary_tag),
                        BrennerProblem(NU))
    assert len(where) == len(data.local_meshes) == (1 if boundary_tag is None
                                                    else 4)
    assert set(where) == {threading.current_thread()}


def test_members_must_be_congruent_to_the_class_mesh():
    # element 24 (a lower triangle on the Neumann face x = 1) is no
    # translate or point reflection of element 0 with its segment layout
    part = build_structured_triangulation(4, boundary_tag=_side_tag)
    sk = refine_skeleton(part, 1, 1)
    lm = build_matching_local_mesh(part, 0, sk, 2)
    assert [0, 24] not in congruence_classes(part, sk, 2)
    with pytest.raises(ValueError, match="^element 24 is not a translate or "
                       "point reflection of element 0 with its segment "
                       "layout$"):
        build_class_caches(part, lm, [0, 24], sk, MaterialField(1.0, NU), 1)
