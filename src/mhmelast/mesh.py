"""Coarse partitions of the domain, skeleton (trace) meshes and matching
local submeshes.

The coarse partition is a triangulation whose edges form the skeleton; each
skeleton face can be split into 2^r equal segments carrying the trace
(traction) degrees of freedom, and each coarse triangle carries a uniformly
red-refined local mesh that matches the skeleton segments.
"""

import io
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GEOM_TOL = 1e-12


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
        # inradius rho = 2 * area / perimeter
        self.shape_regularity = self.diameters * (e0 + e1 + e2) / (2 * self.areas)

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


@dataclass
class Face:
    """A coarse skeleton face: an oriented edge of the global partition."""
    id: int
    v0: int
    v1: int
    normal: np.ndarray         # fixed global unit normal n_F
    elements: tuple            # (K,) boundary or (K_low, K_high) interior
    tag: str                   # "interior" | "dirichlet" | "neumann"

    @property
    def is_boundary(self):
        return len(self.elements) == 1


class GlobalPartition:
    """The coarse partition: CCW triangles, oriented skeleton faces with
    adjacency and boundary tags.

    The face normal convention is: for interior faces, n_F points from the
    lower-indexed adjacent element to the higher-indexed one; for boundary
    faces, n_F is the outward normal.
    """

    def __init__(self, vertices, elements, boundary_tag=None, domain_area=1.0):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = [tuple(int(v) for v in e) for e in elements]
        if any(len(e) != 3 for e in self.elements):
            raise ValueError("only triangular coarse elements are supported")
        try:
            mesh = TriMesh(self.vertices, np.reshape(self.elements, (-1, 3)))
        except ValueError:
            raise ValueError("coarse element is degenerate or not CCW") from None
        self.element_areas = mesh.areas
        total = self.element_areas.sum()
        if abs(total - domain_area) > 1e-12 * max(domain_area, 1.0):
            raise ValueError(f"element areas sum to {total:.15g}, not "
                             f"{domain_area:.15g}: the elements must cover "
                             "the unit square (or the given domain_area)")
        self.element_diameters = mesh.diameters
        self.h_coarse = float(self.element_diameters.max())

        self._build_faces(mesh, boundary_tag)
        if not any(f.tag == "dirichlet" for f in self.faces):
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
        pairs = edges.vertices[order]
        x0, x1 = self.vertices[pairs[:, 0]], self.vertices[pairs[:, 1]]
        t = x1 - x0
        normals = np.column_stack([t[:, 1], -t[:, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        # outward from the lower element: flip where its local edge runs
        # v1 -> v0 of the face
        normals[mesh.triangles.ravel()[low] != pairs[:, 0]] *= -1

        self.faces = []
        adjacent = np.split(by_face // 3, starts[1:])
        for fid, ((v0, v1), ks) in enumerate(zip(pairs.tolist(), adjacent)):
            tag = "interior"
            if len(ks) == 1:
                tag = ("dirichlet" if boundary_tag is None
                       else boundary_tag(0.5 * (x0[fid] + x1[fid])))
                if tag not in ("dirichlet", "neumann"):
                    raise ValueError(f"invalid boundary tag {tag!r}")
            self.faces.append(Face(fid, v0, v1, normals[fid],
                                   tuple(ks.tolist()), tag))

        # per element: face ids in local edge order and orientation signs
        # (+1 where the face normal is the element's outward normal)
        lower = np.zeros(ids.size, dtype=bool)
        lower[low] = True
        self.elem_face_ids = ids.tolist()
        self.elem_face_signs = np.where(lower, 1, -1).reshape(-1, 3).tolist()

    @property
    def n_elements(self):
        return len(self.elements)


def build_structured_triangulation(n, boundary_tag=None):
    """n x n grid of squares on [0, 1]^2, each split along the same diagonal
    (lower-left to upper-right) into two CCW triangles."""
    if n < 1:
        raise ValueError("n must be >= 1")
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

@dataclass
class Segment:
    id: int
    face_id: int
    p0: np.ndarray
    p1: np.ndarray
    length: float
    # parameter interval along the face orientation (v0 -> v1)
    s0: float
    s1: float


class SkeletonMesh:
    """The refined face mesh: each non-Neumann coarse face split into 2^r
    equal segments, each carrying a vector-valued P_ell trace dof block with
    an orthonormal Legendre (modal) basis per component."""

    def __init__(self, partition, level, degree):
        if degree < 1:
            raise ValueError("trace degree must be >= 1")
        if level < 0:
            raise ValueError("refinement level must be >= 0")
        self.partition = partition
        self.level = level
        self.degree = degree
        self.segments = []
        self.face_segments = {}
        nseg = 2 ** level
        for f in partition.faces:
            if f.tag == "neumann":
                self.face_segments[f.id] = []
                continue
            a = partition.vertices[f.v0]
            b = partition.vertices[f.v1]
            ids = []
            for s in range(nseg):
                s0, s1 = s / nseg, (s + 1) / nseg
                p0 = a + s0 * (b - a)
                p1 = a + s1 * (b - a)
                seg = Segment(len(self.segments), f.id, p0, p1,
                              float(np.linalg.norm(p1 - p0)), s0, s1)
                self.segments.append(seg)
                ids.append(seg.id)
            self.face_segments[f.id] = ids
        self.h_skeleton = max((s.length for s in self.segments), default=0.0)
        # per segment id: length and face parameter interval (s0, s1)
        self.segment_lengths = np.array([s.length for s in self.segments])
        self.segment_bounds = np.array(
            [(s.s0, s.s1) for s in self.segments]).reshape(-1, 2)
        self.dofs_per_segment = 2 * (degree + 1)
        self.n_dofs = len(self.segments) * self.dofs_per_segment

    def segment_dofs(self, seg_id):
        """Trace dofs of a segment id, or of an array of ids (last axis)."""
        dps = self.dofs_per_segment
        return dps * np.asarray(seg_id)[..., None] + np.arange(dps)

    def basis_values(self, seg, s):
        """Trace basis values at parameters s in [0, 1] (local arclength
        fraction) of a segment: `seg` is a Segment, or an array of segment
        ids broadcasting against `s`.  Returns (n_local_dofs, *s.shape, 2);
        local dof c * (degree + 1) + m is component c times Legendre mode
        m, orthonormal in L2 of the segment."""
        s = np.asarray(s, dtype=float)
        length = (seg.length if isinstance(seg, Segment)
                  else self.segment_lengths[seg])
        ell = self.degree
        out = np.zeros((self.dofs_per_segment,) + s.shape + (2,))
        x = 2 * s - 1
        for m in range(ell + 1):
            cm = np.zeros(m + 1)
            cm[m] = 1.0
            phi = np.polynomial.legendre.legval(x, cm) * np.sqrt((2 * m + 1) / length)
            out[m, ..., 0] = phi
            out[(ell + 1) + m, ..., 1] = phi
        return out


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
    `depth` rounds of red refinement and exactly reproducible."""
    A, B, C = (np.asarray(c, dtype=float) for c in corners)
    N = 2 ** depth
    idx = {}
    verts = []
    for j in range(N + 1):
        for i in range(N + 1 - j):
            idx[(i, j)] = len(verts)
            verts.append(A + (B - A) * (i / N) + (C - A) * (j / N))
    tris = []
    for j in range(N):
        for i in range(N - j):
            tris.append((idx[(i, j)], idx[(i + 1, j)], idx[(i, j + 1)]))
            if i + j < N - 1:
                tris.append((idx[(i + 1, j)], idx[(i + 1, j + 1)], idx[(i, j + 1)]))
    mesh = TriMesh(np.array(verts), np.array(tris))
    # fine edges along the three coarse edges, in coarse-edge parameter order
    edge_chains = [[idx[ij] for ij in walk] for walk in (
        [(i, 0) for i in range(N + 1)],
        [(N - t, t) for t in range(N + 1)],
        [(0, N - t) for t in range(N + 1)])]
    return mesh, idx, edge_chains


def local_depths(skeleton, face_ids, depth):
    """The dyadic level of the skeleton segments on each face of elements,
    `face_ids` (..., 3): log2 of the face's segment count, -1 without
    segments; and the depth of each element's matching local mesh, `depth`
    raised until every segment on its boundary is a union of fine edges."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    face_ids = np.asarray(face_ids)
    segs = [skeleton.face_segments[f] for f in face_ids.ravel().tolist()]
    counts = np.array([len(ids) for ids in segs])
    if np.any(counts & (counts - 1)):
        raise ValueError("skeleton segments are not a dyadic subdivision")
    # segment j of the n on a face spans [j / n, (j + 1) / n] of it
    sid = np.concatenate([[]] + segs).astype(int)
    j = np.arange(len(sid)) - np.repeat(np.cumsum(counts) - counts, counts)
    piece = (j[:, None] + np.arange(2)) / np.repeat(counts, counts)[:, None]
    if np.any(np.abs(skeleton.segment_bounds[sid] - piece) > GEOM_TOL):
        raise ValueError(
            "skeleton segments do not align with a dyadic subdivision")
    levels = np.frexp(counts)[1].reshape(face_ids.shape) - 1
    return levels, np.maximum(depth, levels.max(axis=-1))


def build_matching_local_mesh(partition, element_id, skeleton, depth):
    """Red-refine coarse element `element_id` to `depth`, then refine further
    until every skeleton segment on its boundary is a union of fine edges."""
    need = int(local_depths(skeleton, partition.elem_face_ids[element_id],
                            depth)[1])
    e = partition.elements[element_id]
    corners = [partition.vertices[v] for v in e]
    fids = partition.elem_face_ids[element_id]

    mesh, _, chains = _lattice_triangulation(corners, need)
    N = 2 ** need
    chain = np.asarray(chains)                          # (3, N + 1)
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

    faces = [partition.faces[fid] for fid in fids]
    # face parameters of the chain nodes; a local edge may run v1 -> v0 of
    # its face
    t = np.arange(N + 1) / N
    s = np.where([[f.v0 != v] for f, v in zip(faces, e)], 1 - t, t)
    face_s0, face_s1 = s[:, :-1].ravel(), s[:, 1:].ravel()
    lo, hi = np.minimum(face_s0, face_s1), np.maximum(face_s0, face_s1)
    segment = np.full(3 * N, -1)
    for le, fid in enumerate(fids):
        segs = np.asarray(skeleton.face_segments[fid], dtype=int)
        if segs.size:
            rows = slice(le * N, (le + 1) * N)
            segment[rows] = segs[(lo[rows] * len(segs) + 0.5 / N).astype(int)]
    on = segment >= 0
    bounds = skeleton.segment_bounds[segment[on]]
    if (np.any(lo[on] < bounds[:, 0] - GEOM_TOL)
            or np.any(hi[on] > bounds[:, 1] + GEOM_TOL)):
        raise ValueError("fine boundary edge not contained in one segment")
    neumann = np.repeat([f.tag == "neumann" for f in faces], N)
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
    return TriMesh(part.vertices, np.array(part.elements))


def _opened(stream_or_path, mode):
    """A path opened in `mode`, or a stream left open."""
    if isinstance(stream_or_path, (str, bytes)):
        return open(stream_or_path, mode)
    return nullcontext(stream_or_path)


def write_partition(partition, stream_or_path):
    """Plain-text export: vertex list, element list, face list with tags."""
    with _opened(stream_or_path, "w") as f:
        f.write("# mhmelast coarse partition\n")
        f.write("# vertices <count>, then x y per line\n")
        f.write(f"vertices {len(partition.vertices)}\n")
        for x, y in partition.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"elements {partition.n_elements}\n")
        for e in partition.elements:
            f.write(" ".join(str(v) for v in e) + "\n")
        nb = sum(1 for fc in partition.faces if fc.is_boundary)
        f.write(f"boundary_faces {nb}\n")
        for fc in partition.faces:
            if fc.is_boundary:
                f.write(f"{fc.v0} {fc.v1} {fc.tag}\n")


def read_partition(stream_or_path):
    """A partition of the unit square from the format of
    `write_partition`."""
    with _opened(stream_or_path, "r") as f:
        lines = [(no, ln.split()) for no, ln in enumerate(f, 1)
                 if ln.strip() and not ln.startswith("#")]
    it = iter(lines)
    last = lines[-1][0] if lines else 0

    def section(name, types):
        """The rows of section `name`, each parsed with `types`."""
        no, head = next(it, (None, None))
        if head is None:
            raise ValueError(f"partition file ends at line {last}, before "
                             f"the {name!r} section")
        if len(head) != 2 or head[0] != name or not head[1].isdigit():
            raise ValueError(f"line {no}: expected '{name} <count>', found "
                             f"{' '.join(head)!r}")
        rows = []
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
        return rows

    verts = section("vertices", (float, float))
    elements = section("elements", (int, int, int))
    tags = {(min(a, b), max(a, b)): tag
            for a, b, tag in section("boundary_faces", (int, int, str))}
    extra = next(it, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: unexpected content after the "
                         f"'boundary_faces' section")
    verts = np.array(verts)

    def boundary_tag(mid):
        # match by midpoint against the tagged pairs
        for (a, b), tag in tags.items():
            m = 0.5 * (verts[a] + verts[b])
            if np.linalg.norm(m - mid) < 1e-10:
                return tag
        return "dirichlet"

    return GlobalPartition(verts, elements, boundary_tag=boundary_tag)


def partition_to_string(partition):
    buf = io.StringIO()
    write_partition(partition, buf)
    return buf.getvalue()


def partition_from_string(text):
    return read_partition(io.StringIO(text))
