"""The fine boundary of the local meshes: the `BoundaryEdges` record built
by `build_matching_local_mesh`, the segment node counts behind
`check_refinement_conditions`, and the batched boundary pairings `R`, `Grm`
and the Neumann load of the local operator."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mhmelast import (GlobalPartition, MaterialField, assemble_local_galerkin,
                      assemble_local_gals, build_matching_local_mesh,
                      build_structured_triangulation,
                      check_refinement_conditions, element_load,
                      read_partition, refine_skeleton, write_partition)
from mhmelast import _assembly as asm
from mhmelast.fem_core import quad_rule, reference_element
from mhmelast.mesh import _segment_node_counts


def _side_tag(neumann_sides):
    """Boundary tag: Neumann on the listed sides of the unit square
    (0: y = 0, 1: x = 1, 2: y = 1, 3: x = 0)."""
    def tag(mid):
        on = (mid[1] < 1e-12, mid[0] > 1 - 1e-12, mid[1] > 1 - 1e-12,
              mid[0] < 1e-12)
        return ("neumann" if any(on[s] for s in neumann_sides)
                else "dirichlet")
    return tag


def _renumbered(part, seed):
    """`part` with permuted vertices, rotated element vertex lists and
    permuted elements, written out and read back."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(part.vertices))
    new_id = np.argsort(perm)
    elements = [tuple(int(new_id[v]) for v in e)
                for e in part.elements.tolist()]
    elements = [e[r:] + e[:r]
                for e, r in zip(elements, rng.integers(0, 3, len(elements)))]
    elements = [elements[i] for i in rng.permutation(len(elements))]
    tags = {}
    faces = part.faces
    for v0, v1, (_, high), tag in zip(faces.v0, faces.v1, faces.elements,
                                      faces.tag.tolist()):
        if high < 0:
            tags[tuple(sorted((int(new_id[v0]), int(new_id[v1]))))] = tag
    verts = part.vertices[perm]

    def tag(mid):
        for (a, b), t in tags.items():
            if np.linalg.norm(0.5 * (verts[a] + verts[b]) - mid) < 1e-12:
                return t
    buf = io.StringIO()
    write_partition(GlobalPartition(verts, elements, boundary_tag=tag), buf)
    return read_partition(io.StringIO(buf.getvalue()))


# ---------------------------------------------------------------------------
# The boundary record
# ---------------------------------------------------------------------------

def _check_boundary_record(part, sk, lm, level, depth):
    be = lm.boundary_edges
    e = part.elements[lm.element_id]
    x = lm.mesh.vertices
    N = 2 ** max(depth, level)
    assert len(be) == 3 * N
    faces = part.faces
    for le, fid in enumerate(part.elem_face_ids[lm.element_id].tolist()):
        tag = faces.tag[fid]
        rows = slice(le * N, (le + 1) * N)
        v0, v1 = be.v0[rows], be.v1[rows]
        # the edges walk the local edge from corner le to corner le + 1
        assert np.array_equal(v0[1:], v1[:-1])
        assert np.allclose(x[v0[0]], part.vertices[e[le]], atol=1e-14)
        assert np.allclose(x[v1[-1]], part.vertices[e[(le + 1) % 3]],
                           atol=1e-14)
        # ... and tile the face parameter range [0, 1] once
        s0, s1 = be.face_s0[rows], be.face_s1[rows]
        lo, hi = np.minimum(s0, s1), np.maximum(s0, s1)
        assert np.all(lo < hi)
        order = np.argsort(lo)
        assert lo[order[0]] == 0.0 and hi[order[-1]] == 1.0
        assert np.array_equal(hi[order[:-1]], lo[order[1:]])
        # each end point sits at its parameter along the face
        a, b = part.vertices[faces.v0[fid]], part.vertices[faces.v1[fid]]
        for v, s in ((v0, s0), (v1, s1)):
            assert np.abs(x[v] - (a + s[:, None] * (b - a))).max() < 1e-13
        # Neumann exactly where there is no segment, as the face tag says
        assert np.all(be.neumann[rows] == (tag == "neumann"))
        assert np.array_equal(be.neumann[rows], be.segment[rows] == -1)
        if tag != "neumann":
            segs = be.segment[rows]
            assert set(segs.tolist()) == set(sk.face_segments[fid].tolist())
            assert all(sk.segments.face[s] == fid for s in set(segs.tolist()))
            assert np.all(sk.segments.s0[segs] - 1e-12 <= lo)
            assert np.all(hi <= sk.segments.s1[segs] + 1e-12)
        else:
            assert np.all(sk.face_segments[fid] == -1)
    # the owning triangle holds both end points
    tri = lm.mesh.triangles[be.triangle]
    assert np.all((tri == be.v0[:, None]).any(axis=1))
    assert np.all((tri == be.v1[:, None]).any(axis=1))

    ids, closure, interior = _segment_node_counts(lm)
    expected = sorted(s for fid in part.elem_face_ids[lm.element_id]
                      for s in sk.face_segments[fid].tolist() if s >= 0)
    assert ids.tolist() == expected
    assert np.all(closure == N // 2 ** level + 1)
    assert np.all(interior == N // 2 ** level - 1)
    rep = check_refinement_conditions(1, 1, [lm], sk)
    assert rep.ok == (len(ids) > 0 and N // 2 ** level - 1 >= 3)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 3), level=st.integers(0, 2), depth=st.integers(0, 3),
       neumann=st.sets(st.integers(0, 3), max_size=3),
       renumber=st.none() | st.integers(0, 2**16))
def test_boundary_edges_tile_the_element_boundary(n, level, depth, neumann,
                                                  renumber):
    part = build_structured_triangulation(n, boundary_tag=_side_tag(neumann))
    if renumber is not None:
        part = _renumbered(part, renumber)
    sk = refine_skeleton(part, level, 1)
    for eid in range(part.n_elements):
        lm = build_matching_local_mesh(part, eid, sk, depth)
        _check_boundary_record(part, sk, lm, level, depth)


def test_boundary_edges_on_a_renumbered_partition():
    # face orientations against the local edges in every combination
    part = _renumbered(build_structured_triangulation(
        3, boundary_tag=_side_tag({0, 1})), seed=5)
    reversed_edges = {bool(part.faces.v0[fid] != part.elements[eid][le])
                      for eid in range(part.n_elements)
                      for le, fid in enumerate(part.elem_face_ids[eid])}
    assert reversed_edges == {False, True}
    sk = refine_skeleton(part, 1, 2)
    for eid in range(part.n_elements):
        lm = build_matching_local_mesh(part, eid, sk, 2)
        _check_boundary_record(part, sk, lm, 1, 2)


# ---------------------------------------------------------------------------
# Batched boundary pairings against a per-edge loop
# ---------------------------------------------------------------------------

def _traction(x):
    return np.stack([1.0 + x[..., 1] ** 2,
                     np.sin(x[..., 0] + 2.0 * x[..., 1])], axis=-1)


def _loop_oracle(part, sk, lm, k, g):
    """R, Grm, the Neumann load column and its rigid-mode part, one fine
    boundary edge at a time."""
    ref = reference_element(k)
    dofh = asm.DofHandler(lm.mesh, ref)
    geo = asm.Geometry(lm.mesh)
    vl2g = dofh.vector_loc2glob()
    cen = part.vertices[part.elements[lm.element_id]].mean(axis=0)
    rm = asm.RigidModes(cen)
    seg_ids = [s for fid in part.elem_face_ids[lm.element_id]
               for s in sk.face_segments[fid].tolist() if s >= 0]
    dps = sk.dofs_per_segment
    R = np.zeros((len(seg_ids) * dps, 2 * dofh.n_dofs))
    Grm = np.zeros((len(seg_ids) * dps, 3))
    load = np.zeros(2 * dofh.n_dofs)
    rm_load = np.zeros(3)
    rule = quad_rule("segment", k + sk.degree + 1)
    be = lm.boundary_edges
    for i in range(len(be)):
        x0, x1 = lm.mesh.vertices[be.v0[i]], lm.mesh.vertices[be.v1[i]]
        t = be.triangle[i]
        pts = x0 + rule.points[:, None] * (x1 - x0)
        w = rule.weights * np.linalg.norm(x1 - x0)
        vals = ref.tabulate((pts - geo.origin[t]) @ geo.jinv[t].T)[0]
        dofs = vl2g[t]
        if be.segment[i] >= 0:
            sid = be.segment[i]
            fid = sk.segments.face[sid]
            a = part.vertices[part.faces.v0[fid]]
            b = part.vertices[part.faces.v1[fid]]
            s_face = (pts - a) @ (b - a) / np.dot(b - a, b - a)
            s0, s1 = sk.segments.s0[sid], sk.segments.s1[sid]
            mu = sk.basis_values(sid, (s_face - s0) / (s1 - s0))
            r0 = seg_ids.index(sid) * dps
            R[r0:r0 + dps, dofs] += np.einsum("q,iqc,qb->ibc", w, mu,
                                              vals).reshape(dps, -1)
            Grm[r0:r0 + dps] += np.einsum("q,iqc,mqc->im", w, mu,
                                          rm.evaluate(pts))
        if be.neumann[i]:
            gq = g(pts)
            load[dofs] += np.einsum("q,qc,qb->bc", w, gq, vals).ravel()
            rm_load += np.einsum("q,qc,mqc->m", w, gq, rm.evaluate(pts))
    return R, Grm, load, rm_load


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("k, level, depth", [(1, 1, 3), (2, 1, 2), (3, 2, 0),
                                             (2, 2, 3)])
def test_batched_pairings_match_per_edge_loop(k, level, depth):
    # Neumann on x = 1 and y = 0: the corner element there has two Neumann
    # faces, so a fine corner triangle carries two Neumann edges
    part = build_structured_triangulation(2, boundary_tag=_side_tag({0, 1}))
    sk = refine_skeleton(part, level, 1)
    mat = MaterialField(1.0, 0.4)
    seen_reversed = seen_double_neumann = False
    for eid in range(part.n_elements):
        lm = build_matching_local_mesh(part, eid, sk, depth)
        e = part.elements[eid]
        fids = part.elem_face_ids[eid]
        seen_reversed |= any(part.faces.v0[fid] != e[le]
                             for le, fid in enumerate(fids))
        seen_double_neumann |= sum(part.faces.tag[f] == "neumann"
                                   for f in fids) == 2
        R, Grm, load, rm_load = _loop_oracle(part, sk, lm, k, _traction)
        for op in (assemble_local_gals(part, lm, sk, mat, 1e-3, k),
                   assemble_local_galerkin(part, lm, sk, mat, k)):
            assert _rel(op.R, R) <= 1e-14
            assert _rel(op.Grm, Grm) <= 1e-14
            rhs, rm = element_load(op, np.eye(2, 3)[None], g=_traction)
            rhs, rm = rhs[:, 0], rm[0]
            if np.any(lm.boundary_edges.neumann):
                assert _rel(rhs[:load.size], load) <= 1e-14
                assert _rel(rm, rm_load) <= 1e-14
                assert np.all(rhs[load.size:] == 0.0)
            else:
                assert np.all(rhs == 0.0) and np.all(rm == 0.0)
    assert seen_reversed and seen_double_neumann
