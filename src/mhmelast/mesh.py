"""Coarse partitions of the domain, skeleton (trace) meshes and matching
local submeshes.

The coarse partition is a triangulation whose edges form the skeleton; each
skeleton face can be split into 2^r equal segments carrying the trace
(traction) degrees of freedom, and each coarse triangle carries a uniformly
red-refined local mesh that matches the skeleton segments.

Each layer is a record of parallel arrays, one row per entity: the
partition's elements (n_el, 3) and `Faces`, the skeleton's `Segments`, and
a local mesh's `BoundaryEdges`.
"""

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fem_core import quad_rule

GEOM_TOL = 1e-12

# Coarse vertices relative to the centroid are compared on a grid of this
# size relative to the element diameter: coordinates such as k/n are not
# exact in binary, so translated or reflected copies agree only to
# round-off.
CONGRUENCE_RTOL = 1e-10


__all__ = [
    "TriMesh",
    "GlobalPartition",
    "SkeletonMesh",
    "LocalMesh",
    "RefinementReport",
    "build_structured_triangulation",
    "refine_skeleton",
    "build_matching_local_mesh",
    "local_depths",
    "check_refinement_conditions",
    "unit_square_mesh",
    "write_partition",
    "read_partition",
]


@dataclass(frozen=True)
class EdgeTable:
    """Edges of a TriMesh."""
    ids: np.ndarray            # (nt, 3) edge id of each local edge
    vertices: np.ndarray       # (ne, 2) sorted vertex pair of each edge
    counts: np.ndarray         # (ne,) number of triangles on each edge


class TriMesh:
    """A plain simplicial mesh: vertex coordinates and triangle connectivity
    (counterclockwise)."""

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        v = self.vertices[self.triangles]
        a, b = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        if np.any(cross <= 0):
            raise ValueError("mesh contains non-CCW or degenerate triangles")
        self.areas = 0.5 * cross
        e0 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        e1 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        e2 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        self.diameters = np.max([e0, e1, e2], axis=0)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def h_max(self):
        return float(self.diameters.max())

    @cached_property
    def edge_table(self):
        """The mesh edges, numbered by first appearance over the triangles'
        local edges (v0, v1), (v1, v2), (v2, v0)."""
        local = self.triangles[:, [[0, 1], [1, 2], [2, 0]]]
        pairs, first, inverse, counts = np.unique(
            np.sort(local.reshape(-1, 2), axis=1), axis=0,
            return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return EdgeTable(rank[inverse].reshape(-1, 3), pairs[order],
                         counts[order])


@dataclass(frozen=True)
class Faces:
    """The skeleton faces of a coarse partition as parallel arrays, numbered
    by sorted vertex pair: the oriented edges of the partition."""
    v0: np.ndarray              # (nf,) the sorted vertex pair, v0 < v1
    v1: np.ndarray
    normal: np.ndarray          # (nf, 2) fixed global unit normal n_F
    elements: np.ndarray        # (nf, 2) adjacent elements, increasing; -1
                                # for the missing one of a boundary face
    tag: np.ndarray             # (nf,) "interior" | "dirichlet" | "neumann"

    def __len__(self):
        return len(self.v0)


class GlobalPartition:
    """The coarse partition: CCW triangles `elements` (n_el, 3), the
    oriented skeleton `faces` with adjacency and boundary tags, and per
    element the face ids `elem_face_ids` (n_el, 3) of its local edges
    (v0, v1), (v1, v2), (v2, v0) and their orientation signs
    `elem_face_signs` (+1 where the face normal is the element's outward
    normal).

    The face normal convention is: for interior faces, n_F points from the
    lower-indexed adjacent element to the higher-indexed one; for boundary
    faces, n_F is the outward normal.
    """

    def __init__(self, vertices, elements, boundary_tag=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.array(elements, dtype=int, ndmin=2)
        if self.elements.shape[1:] != (3,):
            raise ValueError("only triangular coarse elements are supported")
        nv = len(self.vertices)
        if np.any((self.elements < 0) | (self.elements >= nv)):
            raise ValueError(f"element vertex index outside [0, {nv})")
        try:
            mesh = TriMesh(self.vertices, self.elements)
        except ValueError:
            raise ValueError("coarse element is degenerate or not CCW") from None
        self.element_areas = mesh.areas
        total = self.element_areas.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"element areas sum to {total:.15g}, not 1: the "
                             "elements must cover the unit square")
        self.element_diameters = mesh.diameters
        self.h_coarse = float(self.element_diameters.max())

        self._build_faces(mesh, boundary_tag)
        if not np.any(self.faces.tag == "dirichlet"):
            raise ValueError("the Dirichlet boundary must be nonempty")

    def _build_faces(self, mesh, boundary_tag):
        """Faces from the edge table of the coarse mesh, numbered by sorted
        vertex pair, with their adjacent elements in increasing order."""
        edges = mesh.edge_table
        if np.any(edges.counts > 2):
            raise ValueError("a face is shared by more than two elements")
        order = np.lexsort(edges.vertices.T[::-1])
        ids = np.argsort(order)[edges.ids]              # (nt, 3) face ids
        # local edges t * 3 + le grouped by face, elements increasing
        by_face = np.argsort(ids.ravel(), kind="stable")
        counts = edges.counts[order]
        starts = np.cumsum(counts) - counts
        low = by_face[starts]               # local edge of the lower element
        v0, v1 = edges.vertices[order].T
        x0, x1 = self.vertices[v0], self.vertices[v1]
        t = x1 - x0
        normals = np.column_stack([t[:, 1], -t[:, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        # outward from the lower element: flip where its local edge runs
        # v1 -> v0 of the face
        normals[mesh.triangles.ravel()[low] != v0] *= -1

        interior = counts == 2
        elements = np.full((len(v0), 2), -1)
        elements[:, 0] = low // 3
        elements[interior, 1] = by_face[starts[interior] + 1] // 3
        tag = np.where(interior, "interior", "dirichlet")
        if boundary_tag is not None:
            boundary = np.flatnonzero(~interior)
            tags = [boundary_tag(mid) for mid in (0.5 * (x0 + x1))[boundary]]
            bad = [t for t in tags if t not in ("dirichlet", "neumann")]
            if bad:
                raise ValueError(f"invalid boundary tag {bad[0]!r}")
            tag[boundary] = tags
        self.faces = Faces(v0, v1, normals, elements, tag)

        lower = np.zeros(ids.size, dtype=bool)
        lower[low] = True
        self.elem_face_ids = ids
        self.elem_face_signs = np.where(lower, 1, -1).reshape(-1, 3)

    @property
    def n_elements(self):
        return len(self.elements)


def build_structured_triangulation(n, boundary_tag=None):
    """n x n grid of squares on [0, 1]^2, each split along the same diagonal
    (lower-left to upper-right) into two CCW triangles."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # vertex (i, j) is i (n + 1) + j; the lower then the upper triangle of
    # each square (i, j), in row-major order
    v00 = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return GlobalPartition(vertices, elements, boundary_tag=boundary_tag)


# ---------------------------------------------------------------------------
# Skeleton mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segments:
    """The skeleton segments as parallel arrays, face by face in face order
    and along each face from its v0 to its v1."""
    face: np.ndarray            # (ns,) the face of each segment
    p0: np.ndarray              # (ns, 2) end points
    p1: np.ndarray
    length: np.ndarray          # (ns,)
    s0: np.ndarray              # parameter interval [s0, s1] along the face
    s1: np.ndarray              # (0 at its v0, 1 at its v1)

    def __len__(self):
        return len(self.face)


class SkeletonMesh:
    """The refined face mesh: each non-Neumann coarse face split into 2^r
    equal segments, each carrying a vector-valued P_ell trace dof block with
    an orthonormal Legendre (modal) basis per component.  Row f of
    `face_segments` (nf, 2^r) holds the segment ids of face f in face
    order, -1 on a Neumann face, which carries none."""

    def __init__(self, partition, level, degree):
        if degree < 1:
            raise ValueError("trace degree must be >= 1")
        if level < 0:
            raise ValueError("refinement level must be >= 0")
        self.partition = partition
        self.level = level
        self.degree = degree
        faces = partition.faces
        nseg = 2 ** level
        carried = np.flatnonzero(faces.tag != "neumann")
        self.face_segments = np.full((len(faces), nseg), -1)
        self.face_segments[carried] = np.arange(
            len(carried) * nseg).reshape(-1, nseg)
        face = np.repeat(carried, nseg)
        s0 = np.tile(np.arange(nseg), len(carried)) / nseg
        s1 = s0 + 1 / nseg                  # exact: nseg is a power of 2
        a = partition.vertices[faces.v0[face]]
        b = partition.vertices[faces.v1[face]]
        p0, p1 = (a + s[:, None] * (b - a) for s in (s0, s1))
        self.segments = Segments(face, p0, p1,
                                 np.linalg.norm(p1 - p0, axis=1), s0, s1)
        self.h_skeleton = float(self.segments.length.max(initial=0.0))
        self.dofs_per_segment = 2 * (degree + 1)
        self.n_dofs = len(face) * self.dofs_per_segment

    @cached_property
    def element_frames(self):
        """The congruence frame of every element of the partition, computed
        once: its key, sign s = +-1 and roll r, (n_el, 9), (n_el,) and
        (n_el,).  The key holds the rounded centroid-relative vertices (on a
        grid of CONGRUENCE_RTOL times the diameter) and per local edge the
        level of its face's segments (-1 on Neumann faces, `local_depths`),
        taken in the frame, of the six, in which it is least: vertex j of
        the key is s times the element's vertex (j + r) % 3, and edge j its
        edge (j + r) % 3.  Elements with equal keys are congruent by the map
        that takes the frame of one onto the frame of the other, and their
        matching local meshes, whose lattices start at vertex r
        (`build_matching_local_mesh`), are images of each other under it,
        triangle by triangle."""
        part = self.partition
        p = part.vertices[part.elements]                        # (n, 3, 2)
        grid = CONGRUENCE_RTOL * part.element_diameters[:, None, None]
        shape = np.round((p - p.mean(axis=1, keepdims=True)) / grid).astype(
            np.int64)
        levels = local_depths(self, part.elem_face_ids, 0)[0]
        roll = (np.arange(3)[:, None] + np.arange(3)) % 3     # [r, j]
        keys = np.concatenate([np.concatenate(
            [s * shape[:, roll].reshape(-1, 3, 6), levels[:, roll]], axis=2)
            for s in (1, -1)], axis=1)                        # (n, 6, 9)
        # the least of each element's six keys (the sort is stable, so the
        # first of equal ones); round(-x) = -round(x), so a reflected copy
        # has the same six keys
        n = len(keys)
        rows = keys.reshape(-1, 9)
        frame = np.lexsort(tuple(rows.T[::-1]) + (np.repeat(np.arange(n), 6),)
                           )[::6] % 6
        return (keys[np.arange(n), frame], np.where(frame < 3, 1.0, -1.0),
                frame % 3)

    def segment_dofs(self, seg_id):
        """Trace dofs of a segment id, or of an array of ids (last axis)."""
        dps = self.dofs_per_segment
        return dps * np.asarray(seg_id)[..., None] + np.arange(dps)

    def basis_values(self, sid, s):
        """Trace basis values at parameters s in [0, 1] (local arclength
        fraction) of the segments `sid`, ids broadcasting against `s`.
        Returns (n_local_dofs, *s.shape, 2); local dof c * (degree + 1) + m
        is component c times Legendre mode m, orthonormal in L2 of the
        segment."""
        s = np.asarray(s, dtype=float)
        length = self.segments.length[sid]
        ell = self.degree
        out = np.zeros((self.dofs_per_segment,) + s.shape + (2,))
        x = 2 * s - 1
        for m in range(ell + 1):
            phi = (np.polynomial.legendre.legval(x, np.eye(m + 1)[m])
                   * np.sqrt((2 * m + 1) / length))
            out[m, ..., 0] = phi
            out[(ell + 1) + m, ..., 1] = phi
        return out

    def segment_quadrature(self, sid, exactness):
        """Gauss quadrature of the given exactness on the segments `sid`
        (ns,): the points (ns, nq, 2), the ds-weights (ns, nq) and the trace
        basis values (dps, ns, nq, 2) there."""
        rule = quad_rule("segment", exactness)
        seg = self.segments
        p0, p1 = seg.p0[sid], seg.p1[sid]
        pts = p0[:, None] + rule.points[:, None] * (p1 - p0)[:, None]
        w = rule.weights * seg.length[sid, None]
        mu = self.basis_values(sid[:, None],
                               np.broadcast_to(rule.points, w.shape))
        return pts, w, mu


def refine_skeleton(partition, level, degree):
    return SkeletonMesh(partition, level, degree)


# ---------------------------------------------------------------------------
# Local meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryEdges:
    """The fine edges of a local mesh on the coarse element boundary, as
    parallel arrays: the edges of local edge 0, 1, 2 of the coarse triangle
    in turn, each local edge walked from its first to its second vertex."""
    v0: np.ndarray              # (ne,) fine vertices, in walking order
    v1: np.ndarray
    triangle: np.ndarray        # the fine triangle owning the edge
    segment: np.ndarray         # global skeleton segment id (-1 on Neumann faces)
    face_s0: np.ndarray         # parameter of v0 along the coarse face
    face_s1: np.ndarray         # (from its v0 to its v1), and of v1
    neumann: np.ndarray         # True on Neumann faces

    def __len__(self):
        return len(self.v0)


@dataclass(eq=False)
class LocalMesh:
    """Conforming triangulation of one coarse element obtained by uniform
    red refinement, with the fine-boundary-edge-to-skeleton-segment map."""
    element_id: int
    mesh: TriMesh
    depth: int
    boundary_edges: BoundaryEdges


def _lattice_triangulation(corners, depth):
    """Uniform barycentric-lattice refinement of a triangle; equivalent to
    `depth` rounds of red refinement and exactly reproducible.  Node
    `idx[i, j]` (-1 outside the triangle) lies at A + (B - A) i / N +
    (C - A) j / N; the nodes are numbered row j by row j."""
    A, B, C = np.asarray(corners, dtype=float)
    N = 2 ** depth
    j, i = np.indices((N + 1, N + 1))
    inside = i + j <= N
    node = np.full((N + 1, N + 1), -1)                  # node[j, i]
    node[inside] = np.arange(inside.sum())
    verts = (A + (B - A) * (i[inside] / N)[:, None]
             + (C - A) * (j[inside] / N)[:, None])
    # in each lattice cell (i, j) to (i + 1, j + 1), row by row: the
    # triangle at node (i, j), then the one opposite, where they lie inside
    p, q, r, s = node[:-1, :-1], node[:-1, 1:], node[1:, :-1], node[1:, 1:]
    tris = np.stack([np.stack([p, q, r], -1), np.stack([q, s, r], -1)], 2)
    corner = (i + j)[:-1, :-1, None] + np.arange(2)
    mesh = TriMesh(verts, tris[corner < N])
    # fine edges along the three coarse edges, in coarse-edge parameter order
    idx, t = node.T, np.arange(N + 1)
    return mesh, idx, [idx[t, 0], idx[N - t, t], idx[0, N - t]]


def local_depths(skeleton, face_ids, depth):
    """The dyadic level of the skeleton segments on each face of elements,
    `face_ids` (..., 3): log2 of the face's segment count, -1 without
    segments; and the depth of each element's matching local mesh, `depth`
    raised until every segment on its boundary is a union of fine edges."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    segs = skeleton.face_segments[face_ids]                 # (..., 3, w)
    on = segs >= 0
    counts = on.sum(axis=-1)
    if np.any(counts & (counts - 1)):
        raise ValueError("skeleton segments are not a dyadic subdivision")
    # segment j of the n on a face spans [j / n, (j + 1) / n] of it
    sid = segs[on]
    n = np.broadcast_to(counts[..., None], segs.shape)[on]
    piece = (np.nonzero(on)[-1][:, None] + np.arange(2)) / n[:, None]
    bounds = np.column_stack([skeleton.segments.s0[sid],
                              skeleton.segments.s1[sid]])
    if np.any(np.abs(bounds - piece) > GEOM_TOL):
        raise ValueError(
            "skeleton segments do not align with a dyadic subdivision")
    levels = np.frexp(counts)[1] - 1
    return levels, np.maximum(depth, levels.max(axis=-1))


def build_matching_local_mesh(partition, element_id, skeleton, depth):
    """Red-refine coarse element `element_id` to `depth`, then refine further
    until every skeleton segment on its boundary is a union of fine edges.
    The lattice starts at the vertex r of the element's congruence frame
    (`SkeletonMesh.element_frames`), so that the meshes of congruent
    elements are images of each other, triangle by triangle and vertex by
    vertex, and share their quadrature points."""
    fids = partition.elem_face_ids[element_id]
    need = int(local_depths(skeleton, fids, depth)[1])
    r = int(skeleton.element_frames[2][element_id])
    e = partition.elements[element_id]

    mesh, _, chains = _lattice_triangulation(
        partition.vertices[np.roll(e, -r)], need)
    N = 2 ** need
    # chain c runs along local edge (c + r) % 3
    chain = np.asarray(chains)[(np.arange(3) - r) % 3]  # (3, N + 1)
    v0, v1 = chain[:, :-1].ravel(), chain[:, 1:].ravel()

    # the owning triangle of each chain edge, by sorted vertex pair
    edges = mesh.edge_table
    t_bnd, le_bnd = np.nonzero(edges.counts[edges.ids] == 1)
    pairs = edges.vertices[edges.ids[t_bnd, le_bnd]]
    nv = mesh.n_vertices
    keys = pairs[:, 0] * nv + pairs[:, 1]
    order = np.argsort(keys)
    want = np.minimum(v0, v1) * nv + np.maximum(v0, v1)
    hit = order[np.searchsorted(keys, want, sorter=order).clip(
        max=len(keys) - 1)]
    missing = np.flatnonzero(keys[hit] != want)
    if missing.size:
        le, i = divmod(int(missing[0]), N)
        raise ValueError(
            f"element {element_id}: fine edge {i} of local edge {le} "
            f"is not a boundary edge of the fine mesh")

    # face parameters of the chain nodes; a local edge may run v1 -> v0 of
    # its face
    t = np.arange(N + 1) / N
    s = np.where((partition.faces.v0[fids] != e)[:, None], 1 - t, t)
    face_s0, face_s1 = s[:, :-1].ravel(), s[:, 1:].ravel()
    # the segment of each fine edge among the n of its face (-1 where n = 0);
    # local_depths checked that segment j spans [j / n, (j + 1) / n]
    lo = np.minimum(face_s0, face_s1)
    segs = np.repeat(skeleton.face_segments[fids], N, axis=0)
    n = (segs >= 0).sum(axis=1)
    segment = segs[np.arange(3 * N), (lo * n + 0.5 / N).astype(int)]
    neumann = np.repeat(partition.faces.tag[fids] == "neumann", N)
    boundary = BoundaryEdges(v0, v1, t_bnd[hit], segment, face_s0, face_s1,
                             neumann)
    return LocalMesh(element_id, mesh, need, boundary)


# ---------------------------------------------------------------------------
# Refinement (well-posedness) conditions
# ---------------------------------------------------------------------------

def _segment_node_counts(local_mesh):
    """The skeleton segments on a local mesh's boundary (sorted ids), and
    per segment the number of fine nodes on its closure and in its
    interior.  The fine edges in a segment form one chain, so m of them
    carry m + 1 nodes on the closure and m - 1 inside."""
    segment = local_mesh.boundary_edges.segment
    ids, m = np.unique(segment[segment >= 0], return_counts=True)
    return ids, m + 1, m - 1


@dataclass
class RefinementReport:
    ok: bool
    element_status: dict = field(default_factory=dict)  # K -> (bool, reason)


def check_refinement_conditions(k, ell, local_meshes, skeleton,
                                members=None):
    """Advisory check of the sufficient local-refinement conditions for the
    global problem to be well posed: either (k >= ell+1 >= 2 and each
    boundary segment holds at least one fine node) or (k >= ell >= s and each
    segment interior holds at least 4 - s fine nodes, s in {1, 2, 3}).
    Each mesh decides the verdict of its own element, or of its congruence
    class `members[i]`, whose meshes have the same node counts."""
    if k < 1 or ell < 1:
        raise ValueError("degrees must be >= 1")
    report = RefinementReport(ok=True)
    for lm, eids in zip(local_meshes, members or
                        [[lm.element_id] for lm in local_meshes]):
        _, closure, interior = _segment_node_counts(lm)
        min_closure = min(closure.tolist(), default=0)
        min_interior = min(interior.tolist(), default=0)
        status, reason = False, ""
        if k >= ell + 1 >= 2 and min_closure >= 1:
            status, reason = True, "case 1: k >= ell+1 and >= 1 node per segment"
        elif k < ell:
            reason = f"both cases require k >= ell, found k={k} < ell={ell}"
        else:
            s = min(k, ell, 3)
            if min_interior >= 4 - s:
                status, reason = True, f"case 2 with s={s}"
            else:
                reason = (f"case 2 requires {4 - s} interior nodes per segment, "
                          f"found {min_interior}")
                if k >= ell + 1 >= 2:
                    reason = "case 1 requires 1 node per segment; " + reason
        report.element_status.update((int(e), (status, reason))
                                     for e in eids)
        report.ok = report.ok and status
    report.element_status = dict(sorted(report.element_status.items()))
    return report


# ---------------------------------------------------------------------------
# Plain meshes of the whole domain (single-level methods) and mesh I/O
# ---------------------------------------------------------------------------

def unit_square_mesh(n):
    """Structured n x n triangulation of [0, 1]^2 (same diagonal rule as the
    coarse partition) as a plain TriMesh."""
    part = build_structured_triangulation(n)
    return TriMesh(part.vertices, part.elements)


def _opened(stream_or_path, mode):
    """A path opened in `mode`, or a stream left open."""
    if isinstance(stream_or_path, (str, bytes)):
        return open(stream_or_path, mode)
    return nullcontext(stream_or_path)


def write_partition(partition, stream_or_path):
    """Plain-text export: vertex list, element list, boundary faces with
    their tags."""
    faces = partition.faces
    boundary = faces.elements[:, 1] < 0
    sections = {"vertices": partition.vertices, "elements": partition.elements,
                "boundary_faces": np.column_stack(
                    [faces.v0, faces.v1, faces.tag])[boundary]}
    with _opened(stream_or_path, "w") as f:
        f.write("# mhmelast coarse partition\n")
        f.write("# vertices <count>, then x y per line\n")
        for name, rows in sections.items():
            f.write(f"{name} {len(rows)}\n")
            np.savetxt(f, rows, fmt="%s")       # floats as their repr


def read_partition(stream_or_path):
    """A partition of the unit square from the format of
    `write_partition`.  Each boundary face row must name a boundary face of
    the elements, once; the boundary faces it leaves out are Dirichlet."""
    with _opened(stream_or_path, "r") as f:
        lines = [(no, ln.split()) for no, ln in enumerate(f, 1)
                 if ln.strip() and not ln.startswith("#")]
    it = iter(lines)
    last = lines[-1][0] if lines else 0

    def section(name, types):
        """The line numbers and rows of section `name`, each row parsed
        with `types`."""
        no, head = next(it, (None, None))
        if head is None:
            raise ValueError(f"partition file ends at line {last}, before "
                             f"the {name!r} section")
        if len(head) != 2 or head[0] != name or not head[1].isdigit():
            raise ValueError(f"line {no}: expected '{name} <count>', found "
                             f"{' '.join(head)!r}")
        nos, rows = [], []
        for _ in range(int(head[1])):
            no, row = next(it, (None, None))
            if row is None:
                raise ValueError(f"partition file ends at line {last}, after "
                                 f"{len(rows)} of {head[1]} rows of the "
                                 f"{name!r} section")
            try:
                rows.append(tuple(t(v) for t, v in
                                  zip(types, row, strict=True)))
            except ValueError:
                raise ValueError(f"line {no}: expected {len(types)} values in "
                                 f"the {name!r} section, found "
                                 f"{' '.join(row)!r}") from None
            nos.append(no)
        return nos, rows

    _, verts = section("vertices", (float, float))
    elem_nos, elements = section("elements", (int, int, int))
    face_nos, faces = section("boundary_faces", (int, int, str))
    extra = next(it, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: unexpected content after the "
                         f"'boundary_faces' section")
    verts = np.array(verts, dtype=float).reshape(-1, 2)
    elements = np.array(elements, dtype=int).reshape(-1, 3)
    nv = len(verts)

    def refuse(nos, bad, what):
        if np.any(bad):
            raise ValueError(f"line {nos[np.argmax(bad)]}: {what}")

    refuse(elem_nos, np.any((elements < 0) | (elements >= nv), axis=1),
           f"element vertex index outside [0, {nv})")
    # the element edges and the tagged pairs as keys a * nv + b, a < b
    pairs = np.sort(np.array([row[:2] for row in faces],
                             dtype=int).reshape(-1, 2), axis=1)
    keys = pairs @ [nv, 1]
    edges, uses = np.unique(np.sort(elements[:, [[0, 1], [1, 2], [2, 0]]])
                            @ [nv, 1], return_counts=True)
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    refuse(face_nos, (pairs[:, 1] >= nv) | ~np.isin(keys, edges),
           "the boundary face is not an edge of the elements")
    refuse(face_nos, np.isin(keys, edges[uses > 1]),
           "the boundary face is an interior face")
    refuse(face_nos, ~first, "the boundary face is given twice")
    # GlobalPartition forms the midpoint of the sorted pair the same way
    mids = 0.5 * (verts[pairs[:, 0]] + verts[pairs[:, 1]])
    tag_at = dict(zip(map(tuple, mids.tolist()), [row[2] for row in faces]))

    def boundary_tag(mid):
        return tag_at.get(tuple(mid.tolist()), "dirichlet")

    return GlobalPartition(verts, elements, boundary_tag=boundary_tag)
