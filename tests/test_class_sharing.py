"""Sharing of the local basis across congruence classes of translated coarse
elements: the shared path must reproduce the per-element path, which a
callable material (or an explicit class of one per element) forces."""

import numpy as np
import pytest

from mhmelast import (BrennerProblem, MHMConfig, MaterialField,
                      assemble_global_saddle, build_class_caches,
                      build_local_cache, build_matching_local_mesh,
                      build_structured_triangulation, compute_errors,
                      congruence_classes, default_depth, postprocess_solution,
                      refine_skeleton, solve_global, solve_mhm)
from mhmelast import local_solver
from mhmelast.mesh import partition_from_string

NU = 0.49
THETA = 0.25


def _constant(value):
    """A callable returning a constant: defeats sharing, not the value."""
    return lambda x: np.full(np.shape(x)[:-1], value)


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


def _shared_and_single(problem, g=None, **cfg):
    runs = []
    for G in (1.0, _constant(1.0)):
        config = MHMConfig(n=4, level=1, ell=1, nu=NU, G=G, theta=THETA,
                           **cfg)
        sol, data = solve_mhm(config, problem, g=g)
        runs.append((sol, data, compute_errors(sol, problem)))
    return runs


@pytest.mark.parametrize("kind", ["gals", "galerkin"])
@pytest.mark.parametrize("k", [1, 2])
def test_shared_classes_match_per_element_path(kind, k):
    problem = BrennerProblem(NU)
    (sol, data, err), (sol1, data1, err1) = _shared_and_single(
        problem, k=k, kind=kind)
    # 32 elements in two shapes; the trace blocks are shared by reference
    assert len({id(c.trace_u) for c in data.caches}) == 2
    assert len({id(c.trace_u) for c in data1.caches}) == 32
    _assert_same_solution(sol, sol1)
    _assert_same_errors(err, err1)


def test_shared_classes_match_with_mixed_boundary():
    problem = BrennerProblem(NU)

    def tag(mid):
        return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"

    def traction(x):                   # sigma n on the face x = 1
        return problem.sigma(x)[..., :, 0]

    (sol, data, err), (sol1, _, err1) = _shared_and_single(
        problem, g=traction, k=2, boundary_tag=tag)
    # lower triangles with and without a Neumann face, and upper triangles
    assert len({id(c.trace_u) for c in data.caches}) == 3
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
    elements = [[int(perm[v]) for v in e] for e in part.elements]
    elements[1] = elements[1][1:] + elements[1][:1]
    lines = [f"vertices {len(verts)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in verts]
    lines += [f"elements {len(elements)}"]
    lines += [" ".join(map(str, e)) for e in elements]
    lines += ["boundary_faces 0"]
    return partition_from_string("\n".join(lines) + "\n")


def _solve_partition(part, problem, material, shared, k=2, level=1):
    sk = refine_skeleton(part, level, 1)
    depth = default_depth(k, level)
    lms = [build_matching_local_mesh(part, e, sk, depth)
           for e in range(part.n_elements)]
    if shared:
        classes = congruence_classes(part, lms, sk, material)
        caches = [c for members in classes
                  for c in build_class_caches(part, members, sk, material, k,
                                              theta=THETA, f=problem.f)]
    else:
        classes = [[lm] for lm in lms]
        caches = [build_local_cache(part, lm, sk, material, k, theta=THETA,
                                    f=problem.f) for lm in lms]
    system = assemble_global_saddle(caches, sk, u_dirichlet=problem.u)
    lam, rho = solve_global(system)
    sol = postprocess_solution(caches, sk, lam, rho)
    return sol, [sorted(lm.element_id for lm in c) for c in classes]


def test_shared_classes_respect_vertex_order_and_face_orientation():
    part = _reoriented_partition()
    problem = BrennerProblem(NU)
    material = MaterialField(1.0, NU)
    sol, classes = _solve_partition(part, problem, material, shared=True)
    sol1, _ = _solve_partition(part, problem, material, shared=False)

    def rel_vertices(eid):
        p = part.vertices[list(part.elements[eid])]
        return p - p.mean(axis=0)

    # the lower triangles 0, 2, 4 are translates listed in the same vertex
    # order; 0 and 4 share a class, while 2 sees two faces reversed
    for eid in (2, 4):
        assert np.abs(rel_vertices(eid) - rel_vertices(0)).max() < 1e-14
    assert [0, 4] in classes and [2] in classes
    # element 1 is a translate of element 3 listed from another corner
    assert [1] in classes
    _assert_same_solution(sol, sol1)


def test_one_factorization_per_class(monkeypatch):
    calls = []
    splu = local_solver.splu

    def counting_splu(matrix):
        calls.append(matrix.shape)
        return splu(matrix)

    monkeypatch.setattr(local_solver, "splu", counting_splu)
    problem = BrennerProblem(NU)
    for G, expected in ((1.0, 2), (_constant(1.0), 32)):
        calls.clear()
        solve_mhm(MHMConfig(n=4, level=0, k=1, ell=1, nu=NU, G=G), problem)
        assert len(calls) == expected
