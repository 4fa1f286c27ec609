"""Property tests of the mesh edge table and the continuous P_k numbering,
against plain per-triangle oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmelast import (build_matching_local_mesh,
                      build_structured_triangulation, refine_skeleton,
                      unit_square_mesh)
from mhmelast import _assembly as asm
from mhmelast.fem_core import reference_element

LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


@st.composite
def meshes(draw):
    """(mesh, CCW corners of its domain): a unit-square mesh or the
    lattice of one coarse element."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return unit_square_mesh(n), square
    part = build_structured_triangulation(n)
    eid = draw(st.integers(0, part.n_elements - 1))
    sk = refine_skeleton(part, draw(st.integers(0, 1)), 1)
    lm = build_matching_local_mesh(part, eid, sk, draw(st.integers(0, 3)))
    return lm.mesh, part.vertices[list(part.elements[eid])]


def _on_boundary(x, corners):
    """Points on the boundary of the convex polygon `corners`."""
    dist = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        t = (b - a) / np.linalg.norm(b - a)
        dist.append(np.abs((x - a) @ np.array([-t[1], t[0]])))
    return np.min(dist, axis=0) < 1e-12


def _local_edge_oracle(mesh):
    """Sorted vertex pair -> list of (triangle, local edge)."""
    out = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for le, (i, j) in enumerate(LOCAL_EDGES):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            out.setdefault(key, []).append((t, le))
    return out


@settings(max_examples=30, deadline=None)
@given(meshes())
def test_edge_table_matches_per_triangle_oracle(case):
    mesh, _ = case
    edges = mesh.edge_table
    oracle = _local_edge_oracle(mesh)
    # numbered by first appearance, in the order of the oracle's insertion
    assert [tuple(p) for p in edges.vertices.tolist()] == list(oracle)
    assert edges.counts.tolist() == [len(v) for v in oracle.values()]
    for e, locs in enumerate(oracle.values()):
        for t, le in locs:
            assert edges.ids[t, le] == e


@settings(max_examples=40, deadline=None)
@given(meshes(), st.integers(1, 4))
def test_dofhandler_numbering(case, k):
    mesh, corners = case
    ref = reference_element(k)
    dofh = asm.DofHandler(mesh, ref)
    l2g = dofh.loc2glob
    assert np.array_equal(np.unique(l2g), np.arange(dofh.n_dofs))

    # every (triangle, local node) referencing a dof sits at its coordinate
    a, b, c = (mesh.vertices[mesh.triangles[:, None, i]] for i in range(3))
    x, y = ref.nodes[:, :1], ref.nodes[:, 1:]
    nodes = a + x * (b - a) + y * (c - a)
    assert np.abs(dofh.dof_coords[l2g] - nodes).max() < 1e-12

    # the two triangles of an interior edge list its dofs in reverse order
    npe = k - 1
    for locs in _local_edge_oracle(mesh).values():
        if len(locs) == 2:
            (t0, e0), (t1, e1) = locs
            d0 = l2g[t0, 3 + e0 * npe:3 + (e0 + 1) * npe]
            d1 = l2g[t1, 3 + e1 * npe:3 + (e1 + 1) * npe]
            assert np.array_equal(d0, d1[::-1])

    on_bnd = np.flatnonzero(_on_boundary(dofh.dof_coords, corners))
    assert np.array_equal(dofh.boundary_scalar_dofs(), on_bnd)
