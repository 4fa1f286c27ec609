"""Coarse partitions, skeleton meshes, matching local meshes, and the
advisory refinement conditions."""

import io
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mhmelast import (BrennerProblem, GlobalPartition,
                      build_matching_local_mesh,
                      build_structured_triangulation,
                      check_refinement_conditions, quad_rule, read_partition,
                      refine_skeleton, unit_square_mesh, write_partition)
from mhmelast import mesh as mesh_module
from mhmelast.mesh import TriMesh
from mhmelast.mhm_global import _dirichlet_data_vector
from mhmelast.verify import _hydrostatic_trace_vector, _traction_error_sq


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
    part = build_structured_triangulation(n)
    assert part.elements.shape == (2 * n * n, 3)
    assert part.elements.tolist() == [list(e) for e in expected]


def test_structured_rejects_bad_n():
    with pytest.raises(ValueError):
        build_structured_triangulation(0)


@pytest.mark.parametrize("n", [0, 2.5, True, "2"])
def test_grid_size_must_be_a_positive_integer(n):
    # a float or a string is named, not met by numpy's TypeError
    message = f"^n must be an integer >= 1, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        build_structured_triangulation(n)
    with pytest.raises(ValueError, match=message):
        unit_square_mesh(n)


def test_all_boundary_faces_dirichlet_by_default():
    part = build_structured_triangulation(3)
    faces = part.faces
    for tag, (_, high) in zip(faces.tag.tolist(), faces.elements):
        if high < 0:
            assert tag == "dirichlet"
        else:
            assert tag == "interior"


def test_face_normal_conventions():
    part = build_structured_triangulation(3)
    faces = part.faces
    for v0, v1, normal, (low, high) in zip(faces.v0, faces.v1, faces.normal,
                                           faces.elements):
        assert abs(np.linalg.norm(normal) - 1) < 1e-14
        mid = 0.5 * (part.vertices[v0] + part.vertices[v1])
        cen_low = part.vertices[part.elements[low]].mean(axis=0)
        # normal points away from the lower-indexed (or only) element
        assert np.dot(normal, mid - cen_low) > 0
        if high >= 0:
            cen_high = part.vertices[part.elements[high]].mean(axis=0)
            assert np.dot(normal, cen_high - mid) > 0


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
            assert sg == (1 if np.dot(n_out, part.faces.normal[fid]) > 0
                          else -1)
    # interior faces must carry opposite signs from their two elements
    for fid, ks in enumerate(part.faces.elements.tolist()):
        if ks[1] < 0:
            continue
        signs = []
        for K in ks:
            le = part.elem_face_ids[K].tolist().index(fid)
            signs.append(part.elem_face_signs[K][le])
        assert sorted(signs) == [-1, 1]


def test_boundary_tag_callable():
    def tag(mid):
        return "neumann" if mid[0] > 1 - 1e-12 else "dirichlet"

    part = build_structured_triangulation(2, boundary_tag=tag)
    tags = set(part.faces.tag[part.faces.elements[:, 1] < 0].tolist())
    assert tags == {"dirichlet", "neumann"}


def _faces_oracle(part, boundary_tag):
    """Faces by an adjacency dict over the elements' vertex pairs, in
    sorted pair order; normals outward from the lower element by a centroid
    test; signs from the outward normal of each local edge."""
    adj = {}
    for k, e in enumerate(part.elements.tolist()):
        for a, b in ((e[0], e[1]), (e[1], e[2]), (e[2], e[0])):
            adj.setdefault((min(a, b), max(a, b)), []).append(k)
    faces, fid_of = [], {}
    for (v0, v1), ks in sorted(adj.items()):
        t = part.vertices[v1] - part.vertices[v0]
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        cen = part.vertices[part.elements[ks[0]]].mean(axis=0)
        mid = 0.5 * (part.vertices[v0] + part.vertices[v1])
        if np.dot(n, mid - cen) < 0:
            n = -n
        tag = ("interior" if len(ks) == 2 else
               boundary_tag(mid) if boundary_tag else "dirichlet")
        fid_of[(v0, v1)] = len(faces)
        faces.append((v0, v1, n, tuple(sorted(ks) + [-1] * (2 - len(ks))),
                      tag))
    ids, signs = [], []
    for e in part.elements.tolist():
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


def _renumbered(n):
    """The structured partition with Neumann faces on x = 1, its vertices
    permuted and its elements rotated and permuted, through the partition
    file format; and its element list."""
    part = build_structured_triangulation(n, boundary_tag=_neumann_right)
    rng = np.random.default_rng(n)
    perm = rng.permutation(len(part.vertices))
    new_id = np.argsort(perm)
    elements = [tuple(int(new_id[v]) for v in e)
                for e in part.elements.tolist()]
    elements = [e[r:] + e[:r] for e, r in
                zip(elements, rng.integers(0, 3, len(elements)))]
    elements = [elements[i] for i in rng.permutation(len(elements))]
    buf = io.StringIO()
    write_partition(GlobalPartition(
        part.vertices[perm], elements, boundary_tag=_neumann_right), buf)
    return read_partition(io.StringIO(buf.getvalue())), elements


def _jittered(n, seed):
    """The structured partition with Neumann faces on x = 1 and every
    interior vertex moved by up to 0.2 / n in each direction."""
    part = build_structured_triangulation(n)
    v = part.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.2 / n, 0.2 / n,
                                                    (inner.sum(), 2))
    return GlobalPartition(v, part.elements, boundary_tag=_neumann_right)


def _check_faces(part, tag):
    """The face record, face ids and signs against `_faces_oracle`."""
    faces, ids, signs = _faces_oracle(part, tag)
    assert len(part.faces) == len(faces)
    got = part.faces
    for fid, (v0, v1, normal, ks, tg) in enumerate(faces):
        assert (got.v0[fid], got.v1[fid], tuple(got.elements[fid].tolist()),
                got.tag[fid]) == (v0, v1, ks, tg)
        assert np.abs(got.normal[fid] - normal).max() <= 2e-16
    assert part.elem_face_ids.tolist() == ids
    assert part.elem_face_signs.tolist() == signs
    return faces


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("renumbered", [False, True])
def test_faces_match_adjacency_dict_oracle(n, renumbered):
    part = build_structured_triangulation(n, boundary_tag=_neumann_right)
    if renumbered:
        part, elements = _renumbered(n)
        assert part.elements.tolist() == [list(e) for e in elements]
    _check_faces(part, _neumann_right)


def _segments_oracle(vertices, faces, level):
    """The skeleton one face and one segment at a time, from the oracle
    faces: (face, p0, p1, length, s0, s1) per segment, and the segment ids
    of each face."""
    nseg = 2 ** level
    segments, face_segments = [], []
    for fid, (v0, v1, _, _, tag) in enumerate(faces):
        ids = []
        a, b = vertices[v0], vertices[v1]
        for j in range(nseg if tag != "neumann" else 0):
            s0, s1 = j / nseg, (j + 1) / nseg
            p0, p1 = a + s0 * (b - a), a + s1 * (b - a)
            ids.append(len(segments))
            segments.append((fid, p0, p1, np.linalg.norm(p1 - p0), s0, s1))
        face_segments.append(ids)
    return segments, face_segments


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _segment_loop_vectors(sk, faces, segments, problem, lam, degree):
    """The Dirichlet data vector, the squared traction error and the
    hydrostatic trace vector, one segment at a time."""
    dirichlet = np.zeros(sk.n_dofs)
    hydro = np.zeros(sk.n_dofs)
    traction_sq = 0.0
    data_rule = quad_rule("segment", degree + sk.degree + 2)
    error_rule = quad_rule("segment", 2 * (degree + sk.degree) + 2)
    for sid, (fid, p0, p1, length, _, _) in enumerate(segments):
        dofs = sk.segment_dofs(sid)
        normal, tag = faces[fid][2], faces[fid][4]
        if tag == "dirichlet":
            pts = p0 + data_rule.points[:, None] * (p1 - p0)
            mu = sk.basis_values(sid, data_rule.points)
            dirichlet[dofs] += np.einsum("q,iqc,qc->i",
                                         data_rule.weights * length, mu,
                                         problem.u(pts))
        pts = p0 + error_rule.points[:, None] * (p1 - p0)
        mu = sk.basis_values(sid, error_rule.points)
        lam_h = np.einsum("i,iqc->qc", lam[dofs], mu)
        traction_sq += np.sum(error_rule.weights * length
                              * ((lam_h - problem.sigma(pts) @ normal)
                                 ** 2).T)
        hydro[dofs[0]] = normal[0] * np.sqrt(length)
        hydro[dofs[sk.degree + 1]] = normal[1] * np.sqrt(length)
    return dirichlet, traction_sq, hydro / np.linalg.norm(hydro)


@pytest.mark.parametrize("case", [f"structured-{n}" for n in range(1, 9)]
                         + ["renumbered-4", "jittered-4"])
@pytest.mark.parametrize("level", [0, 2])
def test_records_match_per_face_and_per_segment_loops(case, level):
    kind, n = case.rsplit("-", 1)
    n = int(n)
    part = {"structured": lambda: build_structured_triangulation(
                n, boundary_tag=_neumann_right),
            "renumbered": lambda: _renumbered(n)[0],
            "jittered": lambda: _jittered(n, seed=1)}[kind]()
    faces = _check_faces(part, _neumann_right)

    sk = refine_skeleton(part, level, 2)
    segments, face_segments = _segments_oracle(part.vertices, faces, level)
    got = sk.segments
    assert len(got) == len(segments)
    for sid, (fid, p0, p1, length, s0, s1) in enumerate(segments):
        assert got.face[sid] == fid
        assert np.abs(got.p0[sid] - p0).max() <= 1e-15
        assert np.abs(got.p1[sid] - p1).max() <= 1e-15
        assert abs(got.length[sid] - length) <= 1e-15
        assert abs(got.s0[sid] - s0) <= 1e-15
        assert abs(got.s1[sid] - s1) <= 1e-15
    for fid, ids in enumerate(face_segments):
        row = sk.face_segments[fid]
        assert row.tolist() == (ids or [-1] * 2 ** level)

    problem = BrennerProblem(0.3)
    lam = np.random.default_rng(level).standard_normal(sk.n_dofs)
    degree = 2
    dirichlet, traction_sq, hydro = _segment_loop_vectors(
        sk, faces, segments, problem, lam, degree)
    got = _dirichlet_data_vector(sk, problem.u, degree + sk.degree + 2)
    assert _rel(got, dirichlet) <= 1e-14
    local_mesh = SimpleNamespace(ref=SimpleNamespace(degree=degree))
    solution = SimpleNamespace(skeleton=sk, lam=lam,
                               caches=[SimpleNamespace(dofh=local_mesh)])
    assert abs(_traction_error_sq(solution, problem) - traction_sq) <= (
        1e-14 * traction_sq)
    assert _rel(_hydrostatic_trace_vector(sk), hydro) <= 1e-14


def test_partition_rejects_face_of_three_elements():
    # areas 0.5, 0.25 and 0.25, which sum to the unit square's
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -0.5), (0.6, 0.5)]
    with pytest.raises(ValueError, match="more than two elements"):
        GlobalPartition(verts, [(0, 1, 2), (0, 3, 1), (0, 1, 4)])


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
    for fid, (v0, v1) in enumerate(zip(part.faces.v0, part.faces.v1)):
        ids = sk.face_segments[fid]
        assert len(ids) == 2
        total = sum(sk.segments.length[s] for s in ids)
        flen = np.linalg.norm(part.vertices[v1] - part.vertices[v0])
        assert abs(total - flen) < 1e-13


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_trace_basis_orthonormal(ell):
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, ell)
    rule = quad_rule("segment", 2 * ell + 2)
    mu = sk.basis_values(3, rule.points)         # (dps, nq, 2)
    gram = np.einsum("q,iqc,jqc->ij", rule.weights * sk.segments.length[3],
                     mu, mu)
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
    s0, s1 = sk.segments.s0[be.segment], sk.segments.s1[be.segment]
    assert np.all(s0 - 1e-12 <= np.minimum(be.face_s0, be.face_s1))
    assert np.all(np.maximum(be.face_s0, be.face_s1) <= s1 + 1e-12)


def test_local_mesh_boundary_edges_lie_on_segments():
    part = build_structured_triangulation(2)
    sk = refine_skeleton(part, 1, 1)
    lm = build_matching_local_mesh(part, 2, sk, 2)
    be = lm.boundary_edges
    faces = [sk.segments.face[s] for s in be.segment]
    a = part.vertices[[part.faces.v0[f] for f in faces]]
    b = part.vertices[[part.faces.v1[f] for f in faces]]
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
    assert np.array_equal(back.elements, part.elements)
    assert back.faces.tag.tolist() == part.faces.tag.tolist()


def test_partition_string_roundtrip():
    part = build_structured_triangulation(1)
    buf, again = io.StringIO(), io.StringIO()
    write_partition(part, buf)
    back = read_partition(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.elements, part.elements)
    write_partition(back, again)
    assert again.getvalue() == buf.getvalue()


def test_read_partition_rejects_half_square():
    # one triangle is a valid mesh of itself, but the problems live on the
    # unit square
    text = ("vertices 3\n0 0\n1 0\n1 1\nelements 1\n0 1 2\n"
            "boundary_faces 0\n")
    with pytest.raises(ValueError, match="sum to 0.5, not 1: the elements "
                       "must cover the unit square"):
        read_partition(io.StringIO(text))


def test_read_partition_rejects_garbage():
    with pytest.raises(ValueError):
        read_partition(io.StringIO("nonsense 3\n"))


_BUF = io.StringIO()
write_partition(build_structured_triangulation(1), _BUF)
PARTITION_TEXT = _BUF.getvalue()
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
        read_partition(io.StringIO(text))


def _with_faces(rows):
    """PARTITION_TEXT (the n = 1 square: vertices 0 (0, 0), 1 (0, 1),
    2 (1, 0), 3 (1, 1); elements 0 2 3 and 0 3 1) with these boundary face
    rows."""
    return (PARTITION_TEXT[:FACES_AT]
            + f"boundary_faces {len(rows)}\n" + "".join(
                row + "\n" for row in rows))


@pytest.mark.parametrize("text, match", [
    (_with_faces(["0 3 neumann"]),
     r"line 12: the boundary face is an interior face"),
    (_with_faces(["0 1 neumann", "1 2 neumann"]),
     r"line 13: the boundary face is not an edge of the elements"),
    (_with_faces(["0 1 neumann", "0 4 neumann"]),
     r"line 13: the boundary face is not an edge of the elements"),
    (_with_faces(["0 1 neumann", "2 3 dirichlet", "1 0 dirichlet"]),
     r"line 14: the boundary face is given twice"),
    (PARTITION_TEXT.replace("\n0 2 3\n", "\n0 2 4\n"),
     r"line 9: element vertex index outside \[0, 4\)"),
    (PARTITION_TEXT.replace("\n0 2 3\n", "\n-1 2 3\n"),
     r"line 9: element vertex index outside \[0, 4\)"),
])
def test_read_partition_rejects_bad_rows(text, match):
    with pytest.raises(ValueError, match=match):
        read_partition(io.StringIO(text))


def test_read_partition_tags_by_pair():
    part = read_partition(io.StringIO(
        _with_faces(["3 1 neumann", "0 2 neumann"])))
    tags = dict(zip(zip(part.faces.v0.tolist(), part.faces.v1.tolist()),
                    part.faces.tag.tolist()))
    assert tags == {(0, 1): "dirichlet", (0, 2): "neumann",
                    (0, 3): "interior", (1, 3): "neumann",
                    (2, 3): "dirichlet"}


def test_partition_rejects_vertex_index_outside_the_vertices():
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        GlobalPartition([(0, 0), (1, 0), (1, 1), (0, 1)],
                        [(0, 1, 2), (0, 2, -1)])
