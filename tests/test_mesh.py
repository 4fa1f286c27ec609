"""Coarse partitions, skeleton meshes, matching local meshes, and the
advisory refinement conditions."""

import io

import numpy as np
import pytest

from mhmelast import (GlobalPartition, build_matching_local_mesh,
                      build_structured_triangulation,
                      check_refinement_conditions, quad_rule, read_partition,
                      refine_skeleton, unit_square_mesh, write_partition)
from mhmelast import mesh as mesh_module
from mhmelast.mesh import TriMesh, partition_from_string, partition_to_string


# ---------------------------------------------------------------------------
# Coarse partition
# ---------------------------------------------------------------------------

def test_structured_counts_n4():
    part = build_structured_triangulation(4)
    assert part.n_elements == 32
    assert len(part.vertices) == 25
    assert len(part.faces) == 56
    assert abs(part.element_areas.sum() - 1.0) < 1e-14
    assert abs(part.h_coarse - np.sqrt(2) / 4) < 1e-14


def test_structured_counts_n1():
    part = build_structured_triangulation(1)
    assert part.n_elements == 2
    assert len(part.vertices) == 4
    assert len(part.faces) == 5


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_structured_elements_match_loop_oracle(n):
    # square (i, j) splits along its diagonal into a lower, then an upper
    # triangle, with vertex (i, j) numbered i (n + 1) + j
    expected = []
    for i in range(n):
        for j in range(n):
            v00, v10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
            expected += [(v00, v10, v10 + 1), (v00, v10 + 1, v00 + 1)]
    assert build_structured_triangulation(n).elements == expected


def test_structured_rejects_bad_n():
    with pytest.raises(ValueError):
        build_structured_triangulation(0)


def test_all_boundary_faces_dirichlet_by_default():
    part = build_structured_triangulation(3)
    for f in part.faces:
        if f.is_boundary:
            assert f.tag == "dirichlet"
        else:
            assert f.tag == "interior"


def test_face_normal_conventions():
    part = build_structured_triangulation(3)
    for f in part.faces:
        assert abs(np.linalg.norm(f.normal) - 1) < 1e-14
        mid = 0.5 * (part.vertices[f.v0] + part.vertices[f.v1])
        cen_low = part.vertices[list(part.elements[f.elements[0]])].mean(axis=0)
        # normal points away from the lower-indexed (or only) element
        assert np.dot(f.normal, mid - cen_low) > 0
        if not f.is_boundary:
            cen_high = part.vertices[
                list(part.elements[f.elements[1]])].mean(axis=0)
            assert np.dot(f.normal, cen_high - mid) > 0


def test_element_face_signs():
    part = build_structured_triangulation(2)
    for K in range(part.n_elements):
        e = part.elements[K]
        for le, (fid, sg) in enumerate(zip(part.elem_face_ids[K],
                                           part.elem_face_signs[K])):
            assert sg in (-1, 1)
            a, b = e[le], e[(le + 1) % 3]
            t = part.vertices[b] - part.vertices[a]
            n_out = np.array([t[1], -t[0]]) / np.linalg.norm(t)
            assert sg == (1 if np.dot(n_out, part.faces[fid].normal) > 0
                          else -1)
    # interior faces must carry opposite signs from their two elements
    for f in part.faces:
        if f.is_boundary:
            continue
        signs = []
        for K in f.elements:
            le = part.elem_face_ids[K].index(f.id)
            signs.append(part.elem_face_signs[K][le])
        assert sorted(signs) == [-1, 1]


def test_boundary_tag_callable():
    def tag(mid):
        return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"

    part = build_structured_triangulation(2, boundary_tag=tag)
    tags = {f.tag for f in part.faces if f.is_boundary}
    assert tags == {"dirichlet", "neumann"}


def _faces_oracle(part, boundary_tag):
    """Faces by an adjacency dict over the elements' vertex pairs, in
    sorted pair order; normals outward from the lower element by a centroid
    test; signs from the outward normal of each local edge."""
    adj = {}
    for k, e in enumerate(part.elements):
        for a, b in ((e[0], e[1]), (e[1], e[2]), (e[2], e[0])):
            adj.setdefault((min(a, b), max(a, b)), []).append(k)
    faces, fid_of = [], {}
    for (v0, v1), ks in sorted(adj.items()):
        t = part.vertices[v1] - part.vertices[v0]
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        cen = part.vertices[list(part.elements[ks[0]])].mean(axis=0)
        mid = 0.5 * (part.vertices[v0] + part.vertices[v1])
        if np.dot(n, mid - cen) < 0:
            n = -n
        tag = ("interior" if len(ks) == 2 else
               boundary_tag(mid) if boundary_tag else "dirichlet")
        fid_of[(v0, v1)] = len(faces)
        faces.append((v0, v1, n, tuple(sorted(ks)), tag))
    ids, signs = [], []
    for e in part.elements:
        ids.append([]), signs.append([])
        for a, b in ((e[0], e[1]), (e[1], e[2]), (e[2], e[0])):
            fid = fid_of[(min(a, b), max(a, b))]
            t = part.vertices[b] - part.vertices[a]
            ids[-1].append(fid)
            signs[-1].append(1 if np.dot([t[1], -t[0]], faces[fid][2]) > 0
                             else -1)
    return faces, ids, signs


def _neumann_right(mid):
    return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("renumbered", [False, True])
def test_faces_match_adjacency_dict_oracle(n, renumbered):
    part = build_structured_triangulation(n, boundary_tag=_neumann_right)
    tag = _neumann_right
    if renumbered:
        # permuted vertices, rotated and permuted elements, through the
        # partition file format
        rng = np.random.default_rng(n)
        perm = rng.permutation(len(part.vertices))
        new_id = np.argsort(perm)
        elements = [tuple(int(new_id[v]) for v in e) for e in part.elements]
        elements = [e[r:] + e[:r] for e, r in
                    zip(elements, rng.integers(0, 3, len(elements)))]
        elements = [elements[i] for i in rng.permutation(len(elements))]
        text = partition_to_string(GlobalPartition(
            part.vertices[perm], elements, boundary_tag=tag))
        part = read_partition(io.StringIO(text))
        assert part.elements == elements
    faces, ids, signs = _faces_oracle(part, tag)
    assert len(part.faces) == len(faces)
    for f, (v0, v1, normal, ks, tg) in zip(part.faces, faces):
        assert (f.v0, f.v1, f.elements, f.tag) == (v0, v1, ks, tg)
        assert np.abs(f.normal - normal).max() <= 2e-16
    assert part.elem_face_ids == ids
    assert part.elem_face_signs == signs


def test_partition_rejects_face_of_three_elements():
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.6, 0.5)]
    with pytest.raises(ValueError, match="more than two elements"):
        GlobalPartition(verts, [(0, 1, 2), (0, 3, 1), (0, 1, 4)],
                        domain_area=1.25)


def test_partition_rejects_unknown_boundary_tag():
    with pytest.raises(ValueError, match="invalid boundary tag 'robin'"):
        build_structured_triangulation(1, boundary_tag=lambda mid: "robin")


# ---------------------------------------------------------------------------
# Skeleton mesh
# ---------------------------------------------------------------------------

def test_skeleton_refinement_counts():
    part = build_structured_triangulation(4)
    sk = refine_skeleton(part, 2, 1)
    assert len(sk.segments) == 4 * 56
    assert sk.dofs_per_segment == 4
    assert sk.n_dofs == 4 * 4 * 56
    assert abs(sk.h_skeleton - np.sqrt(2) / 16) < 1e-14


def test_skeleton_h_halves_per_level():
    part = build_structured_triangulation(4)
    h = [refine_skeleton(part, r, 1).h_skeleton for r in range(3)]
    assert abs(h[0] / h[1] - 2) < 1e-12
    assert abs(h[1] / h[2] - 2) < 1e-12


def test_skeleton_segments_cover_faces():
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, 2)
    for f in part.faces:
        ids = sk.face_segments[f.id]
        assert len(ids) == 2
        total = sum(sk.segments[s].length for s in ids)
        flen = np.linalg.norm(part.vertices[f.v1] - part.vertices[f.v0])
        assert abs(total - flen) < 1e-13


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_trace_basis_orthonormal(ell):
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, ell)
    seg = sk.segments[3]
    rule = quad_rule("segment", 2 * ell + 2)
    mu = sk.basis_values(seg, rule.points)       # (dps, nq, 2)
    gram = np.einsum("q,iqc,jqc->ij", rule.weights * seg.length, mu, mu)
    assert np.abs(gram - np.eye(sk.dofs_per_segment)).max() < 1e-12


def test_skeleton_validation():
    part = build_structured_triangulation(2)
    with pytest.raises(ValueError):
        refine_skeleton(part, -1, 1)
    with pytest.raises(ValueError):
        refine_skeleton(part, 0, 0)


# ---------------------------------------------------------------------------
# Local meshes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [0, 1, 2])
def test_local_mesh_counts(depth):
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 0, 1)
    lm = build_matching_local_mesh(part, 0, sk, depth)
    assert lm.mesh.n_triangles == 4 ** depth
    assert abs(lm.mesh.areas.sum() - part.element_areas[0]) < 1e-14
    # 2^depth fine edges per coarse edge, three coarse edges
    assert len(lm.boundary_edges) == 3 * 2 ** depth


def test_local_mesh_matches_skeleton_refinement():
    # requesting depth 0 with a level-2 skeleton must refine to depth 2
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 2, 1)
    lm = build_matching_local_mesh(part, 1, sk, 0)
    assert lm.depth == 2
    # every fine boundary edge sits inside exactly one skeleton segment
    be = lm.boundary_edges
    assert np.all(be.segment >= 0)
    bounds = sk.segment_bounds[be.segment]
    assert np.all(bounds[:, 0] - 1e-12 <= np.minimum(be.face_s0, be.face_s1))
    assert np.all(np.maximum(be.face_s0, be.face_s1) <= bounds[:, 1] + 1e-12)


def test_local_mesh_boundary_edges_lie_on_segments():
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, 1)
    lm = build_matching_local_mesh(part, 2, sk, 2)
    be = lm.boundary_edges
    faces = [part.faces[sk.segments[s].face_id] for s in be.segment]
    a = part.vertices[[f.v0 for f in faces]]
    b = part.vertices[[f.v1 for f in faces]]
    # the local chain may traverse the face backwards, so match endpoints
    # as a set
    targets = np.stack([a + s[:, None] * (b - a)
                        for s in (be.face_s0, be.face_s1)], axis=1)
    for v in (be.v0, be.v1):
        x = lm.mesh.vertices[v]
        dist = np.linalg.norm(x[:, None] - targets, axis=-1).min(axis=1)
        assert np.all(dist < 1e-12)


def test_local_mesh_rejects_negative_depth():
    part = build_structured_triangulation(1)
    sk = refine_skeleton(part, 0, 1)
    with pytest.raises(ValueError):
        build_matching_local_mesh(part, 0, sk, -1)


def test_local_mesh_rejects_interior_edge_on_boundary_chain(monkeypatch):
    # a lattice whose first boundary chain cuts through the interior must be
    # refused with a ValueError naming the element and the edge
    lattice = mesh_module._lattice_triangulation

    def broken(corners, depth):
        mesh, idx, chains = lattice(corners, depth)
        chains[0] = [idx[(0, 1)], idx[(1, 0)], idx[(2, 0)]]
        return mesh, idx, chains

    monkeypatch.setattr(mesh_module, "_lattice_triangulation", broken)
    part = build_structured_triangulation(1)
    sk = refine_skeleton(part, 0, 1)
    with pytest.raises(ValueError, match="element 0: fine edge 0 of local "
                                         "edge 0"):
        build_matching_local_mesh(part, 0, sk, 1)


# ---------------------------------------------------------------------------
# Refinement conditions
# ---------------------------------------------------------------------------

def _meshes(n, level, ell, depth):
    part = build_structured_triangulation(n)
    sk = refine_skeleton(part, level, ell)
    lms = [build_matching_local_mesh(part, e, sk, depth)
           for e in range(part.n_elements)]
    return sk, lms


def test_refinement_conditions_equal_degrees():
    # k = ell = 1 needs 3 interior fine nodes per segment: depth 2 gives
    # exactly 3, depth 1 gives only 1
    sk, lms = _meshes(1, 0, 1, 2)
    rep = check_refinement_conditions(1, 1, lms, sk)
    assert rep.ok
    assert all(s for s, _ in rep.element_status.values())

    sk, lms = _meshes(1, 0, 1, 1)
    rep = check_refinement_conditions(1, 1, lms, sk)
    assert not rep.ok
    status, reason = rep.element_status[0]
    assert not status
    assert "requires 3 interior nodes per segment, found 1" in reason


def test_refinement_conditions_zero_depth_reason():
    sk, lms = _meshes(1, 0, 1, 0)
    rep = check_refinement_conditions(1, 1, lms, sk)
    _, reason = rep.element_status[0]
    assert "found 0" in reason


def test_refinement_conditions_higher_degree():
    # k >= ell + 1 only needs one node per segment closure: depth 0 passes
    sk, lms = _meshes(1, 0, 1, 0)
    rep = check_refinement_conditions(2, 1, lms, sk)
    assert rep.ok
    status, reason = rep.element_status[0]
    assert status and reason.startswith("case 1")


def test_refinement_conditions_report_k_below_ell():
    sk, lms = _meshes(1, 0, 2, 3)
    rep = check_refinement_conditions(1, 2, lms, sk)
    assert not rep.ok
    status, reason = rep.element_status[0]
    assert not status
    assert reason == "both cases require k >= ell, found k=1 < ell=2"


def test_refinement_conditions_monotone_in_depth():
    # once satisfied, further refinement cannot break the conditions
    for depth in (2, 3):
        sk, lms = _meshes(1, 0, 1, depth)
        assert check_refinement_conditions(1, 1, lms, sk).ok


def test_refinement_conditions_validation():
    sk, lms = _meshes(1, 0, 1, 1)
    with pytest.raises(ValueError):
        check_refinement_conditions(0, 1, lms, sk)


# ---------------------------------------------------------------------------
# Plain meshes and partition I/O
# ---------------------------------------------------------------------------

def test_unit_square_mesh():
    mesh = unit_square_mesh(2)
    assert mesh.n_triangles == 8
    assert abs(mesh.areas.sum() - 1.0) < 1e-14
    assert abs(mesh.h_max - np.sqrt(2) / 2) < 1e-14


def test_trimesh_rejects_cw_triangle():
    with pytest.raises(ValueError):
        TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 2, 1]]))


def test_partition_roundtrip(tmp_path):
    def tag(mid):
        return "neumann" if mid[1] < 1e-12 else "dirichlet"

    part = build_structured_triangulation(2, boundary_tag=tag)
    path = tmp_path / "part.txt"
    write_partition(part, str(path))
    back = read_partition(str(path))
    assert back.n_elements == part.n_elements
    assert np.allclose(back.vertices, part.vertices)
    assert back.elements == part.elements
    assert ([f.tag for f in back.faces] == [f.tag for f in part.faces])


def test_partition_string_roundtrip():
    part = build_structured_triangulation(1)
    text = partition_to_string(part)
    back = partition_from_string(text)
    assert back.elements == part.elements
    assert partition_to_string(back) == text


def test_read_partition_rejects_half_square():
    # one triangle is a valid mesh of itself, but the problems live on the
    # unit square
    text = ("vertices 3\n0 0\n1 0\n1 1\nelements 1\n0 1 2\n"
            "boundary_faces 0\n")
    with pytest.raises(ValueError, match="sum to 0.5, not 1: the elements "
                       "must cover the unit square"):
        partition_from_string(text)


def test_read_partition_rejects_garbage():
    with pytest.raises(ValueError):
        read_partition(io.StringIO("nonsense 3\n"))


PARTITION_TEXT = partition_to_string(build_structured_triangulation(1))
FACES_AT = PARTITION_TEXT.index("boundary_faces")


@pytest.mark.parametrize("text, match", [
    ("vertices 3\n0 0\n1 0\n",
     r"ends at line 3, after 2 of 3 rows of the 'vertices' section"),
    ("vertices 1\n0 0\n", r"ends at line 2, before the 'elements' section"),
    ("vertices 2\n0 0\n1\n", r"line 3: expected 2 values in the 'vertices'"),
    ("vertices 1\n0 0\nelement 0\n", r"line 3: expected 'elements <count>'"),
    (PARTITION_TEXT[:FACES_AT], r"before the 'boundary_faces' section"),
    (PARTITION_TEXT.replace("boundary_faces", "boundary_face"),
     r"line \d+: expected 'boundary_faces <count>'"),
    (PARTITION_TEXT.replace(" dirichlet\n", "\n", 1),
     r"line \d+: expected 3 values in the 'boundary_faces' section"),
    (PARTITION_TEXT + "vertices 0\n",
     r"line \d+: unexpected content after the 'boundary_faces' section"),
])
def test_read_partition_names_section_and_line(text, match):
    with pytest.raises(ValueError, match=match):
        partition_from_string(text)
