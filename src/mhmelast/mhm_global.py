"""Global skeleton problem of the two-level method: the saddle-point system
coupling the trace (traction) unknowns with the per-element rigid-body
modes, its solution, and the reconstruction of the element-wise fields.

The system is stored as the one matrix that is factored: the saddle matrix
in a symmetric order in which the faces take the nested-dissection order of
the partition's elements and every element's rigid modes follow their trace
dofs, so that the factorization needs no row exchanges (`solve_global`).
It is built by a single COO to CSC conversion of the pairing triplets and
of B and its transpose, with every index taken to its position in that
order; the blocks A and B are derived from it on demand.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType, SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _assembly as asm
from .fem_core import MHMError
from .local_solver import member_slices

__all__ = [
    "SaddleSystem",
    "MHMSolution",
    "GlobalSolverError",
    "assemble_global_saddle",
    "solve_global",
    "postprocess_solution",
]


class GlobalSolverError(MHMError):
    pass


@dataclass
class SaddleSystem:
    """Sparse symmetric saddle-point system

        [A  B] [lambda]   [c]
        [B' 0] [rho   ] = [d]

    with A the trace/trace pairing and B the trace/rigid-mode pairing (each
    element couples only its own trace dofs and its three rigid modes), and
    the right-hand side built from the load solutions and the boundary data.

    The matrix is stored once, as `matrix`, the CSC matrix that
    `solve_global` factors: its unknown i is the unknown order[i] of
    [lambda; rho], in the nested-dissection order of the faces
    (`_face_order`), which took `order_s` seconds.  A, B and the matrix in
    the natural order (`full_matrix`) are derived from it on demand.
    """
    matrix: sp.csc_matrix
    order: np.ndarray
    rhs_lambda: np.ndarray
    rhs_rm: np.ndarray
    order_s: float = 0.0

    @property
    def n_lambda(self):
        return len(self.rhs_lambda)

    def full_matrix(self):
        """The saddle matrix (CSR) with the unknowns in their own order."""
        M = self.matrix.tocoo()
        return sp.csr_matrix((M.data, (self.order[M.row], self.order[M.col])),
                             shape=M.shape)

    @property
    def A(self):
        return self.full_matrix()[:self.n_lambda, :self.n_lambda]

    @property
    def B(self):
        return self.full_matrix()[:self.n_lambda, self.n_lambda:]

    def full_rhs(self):
        return np.concatenate([self.rhs_lambda, self.rhs_rm])


def _dirichlet_data_vector(skeleton, u_dirichlet, exactness):
    """Pairing of the trace basis with the boundary displacement data on
    Dirichlet-face segments."""
    faces = skeleton.partition.faces
    sid = np.flatnonzero(faces.tag[skeleton.segments.face] == "dirichlet")
    pts, w, mu = skeleton.segment_quadrature(sid, exactness)
    ud = asm.sampled(u_dirichlet, pts, "the Dirichlet data u_dirichlet")
    out = np.zeros(skeleton.n_dofs)
    out[skeleton.segment_dofs(sid)] = np.einsum("sq,isqc,sqc->si", w, mu, ud)
    return out


def assemble_global_saddle(caches, skeleton, u_dirichlet=None):
    """Condense the stacks' basis records into the global system.

    The trace unknown is single-valued per skeleton segment; each element
    contributes its group's pairing through its dof signs, and element K
    owns rigid-mode unknowns 3K to 3K + 2, which B pairs through the rigid
    signs of its map (`_assembly.rigid_signs`).  On Dirichlet faces the
    continuity equation is driven by the boundary displacement data.  The
    order is taken from the skeleton (`_face_order`), and the blocks of A,
    B and B' are gathered record by record as COO triplets at their
    positions in it (int32), which become the matrix in one COO to CSC
    conversion (duplicates sum).
    """
    n_lambda = skeleton.n_dofs
    start = time.perf_counter()
    order = _face_order(skeleton)
    order_s = time.perf_counter() - start
    position = np.empty(len(order), dtype=np.int32)
    position[order] = np.arange(len(order), dtype=np.int32)
    triplets = []
    c = np.zeros(n_lambda)
    d = np.zeros(len(order) - n_lambda)
    for cache in caches:
        idx, s = cache.trace_dofs, cache.dof_signs       # (m, ntr) each
        rm = 3 * cache.element_ids[:, None] + np.arange(3)
        blocks = np.repeat(_symmetric(cache.pairing),        # (m, ntr, ntr)
                           len(s) // len(cache.pairing), axis=0)
        blocks *= s[:, :, None]
        blocks *= s[:, None, :]
        triplets.append(asm.block_triplets(blocks, position[idx]))
        r = np.repeat(position[idx], 3, axis=1).ravel()
        t = np.tile(position[n_lambda + rm], cache.n_trace).ravel()
        b = (s[:, :, None] * cache.rm_pairing
             * asm.rigid_signs(cache.maps)[:, None]).ravel()
        triplets += [(r, t, b), (t, r, b)]
        np.add.at(c, idx.ravel(), -(s * cache.load_pairing).ravel())
        d[rm] = -cache.rm_load
    if u_dirichlet is not None:
        deg = max(cache.dofh.ref.degree for cache in caches)
        c += _dirichlet_data_vector(skeleton, u_dirichlet,
                                    deg + skeleton.degree + 2)
    rows, cols, vals = map(np.concatenate, zip(*triplets))
    del triplets, blocks, r, t, b   # release them before the conversion
    matrix = sp.csc_matrix((vals, (rows, cols)), shape=(len(order),) * 2)
    return SaddleSystem(matrix, order, c, d, order_s)


def _symmetric(pairing):
    """A stack's trace pairings (ng, ntr, ntr), checked to be symmetric up
    to 1e-10 relative to each block's own largest entry, whatever its
    scale.  `solve_local_basis` stores exactly symmetric blocks, whose sum
    is exactly symmetric; the check guards records built otherwise."""
    T = np.swapaxes(pairing, 1, 2)
    asym = np.abs(pairing - T).max(axis=(1, 2), initial=0.0)
    bad = asym > 1e-10 * np.abs(pairing).max(axis=(1, 2), initial=0.0)
    if bad.any():
        raise GlobalSolverError(f"pairing block not symmetric "
                                f"(|A-A'|={asym[bad][0]})")
    return pairing


def _face_order(skeleton):
    """The saddle unknowns [lambda; rho] in an elimination order that needs
    no pivoting (`solve_global`): the faces of the partition are ranked in
    the nested-dissection order of its elements
    (`_assembly.dissection_order`), the trace dofs of each face are kept
    together in that rank, and each element's rigid modes follow its
    highest-ranked face that carries trace dofs (not a Neumann face)."""
    part = skeleton.partition
    faces = part.elem_face_ids
    rank = asm.dissection_order(part.vertices[part.elements].mean(axis=1),
                                faces, len(part.faces))
    dof_face = np.repeat(skeleton.segments.face, skeleton.dofs_per_segment)
    last = np.where(skeleton.face_segments[faces, 0] >= 0, rank[faces], -1)
    key = np.concatenate([2 * rank[dof_face],
                          2 * np.repeat(last.max(axis=1), 3) + 1])
    return np.argsort(key, kind="stable")


def solve_global(system):
    """Solve the saddle-point system with one sparse LU factorization
    (SuperLU) of its stored matrix, whose symmetric order puts each
    element's rigid modes after its trace dofs (`_face_order`), and verify
    the residual, with one debug record when the logger is enabled
    (`_assembly.logged_solve`).

    With A positive definite, every trace pivot of that order is positive
    and every rigid-mode pivot -b^T S^-1 b negative, so the factorization
    needs no row exchanges (Benzi, Golub & Liesen, Acta Numerica 14, 2005)
    whichever order the faces take; the nested-dissection order of the
    faces bounds the fill.  The pivot threshold is 0.1, not 0: an
    under-refined local mesh makes A singular, and diagonal pivots then
    fail the residual check."""
    M, order = system.matrix, system.order
    x = np.empty(len(order))
    x[order] = asm.logged_solve(
        lambda: splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True}),
        M, system.full_rhs()[order], GlobalSolverError, "global",
        "the local meshes may be too coarse for the trace space (see "
        "check_refinement_conditions)", system.order_s)
    n = system.n_lambda
    return x[:n], x[n:].reshape(-1, 3)


@cache
def _helpers(n):
    """A pool of n threads kept for the life of the process: every
    `ordered_map` of its size reuses the same threads, and with them the
    malloc arenas that their allocations have grown."""
    return ThreadPoolExecutor(max_workers=n, thread_name_prefix="mhmelast")


def ordered_map(threads, fn, items):
    """The list of fn(item) over `items`, in their order.  With one thread
    this is `map`; with more, the calling thread and `threads - 1` helper
    threads (`_helpers`) each take the next item as they finish one,
    advancing `items` under a lock, so at most `threads` items are in
    flight and a generator of large items is never drained ahead of the
    work.  The first error stops the others taking items, and is raised
    once they have finished theirs."""
    if threads == 1:
        return list(map(fn, items))
    lock, results, source = threading.Lock(), {}, [enumerate(items)]

    def work():
        while True:
            with lock:
                i, item = next(source[0], (None, None))
            if i is None:
                return
            try:
                results[i] = fn(item)
            except BaseException:
                source[0] = iter(())
                raise

    helpers = [_helpers(threads - 1).submit(work)
               for _ in range(threads - 1)]
    try:
        work()
    finally:
        # a helper still queued behind other work takes no item: drop it
        started = [h for h in helpers if not h.cancel()]
        wait(started)
    for h in started:
        h.result()                      # a helper's error
    return [results[i] for i in range(len(results))]


class MHMSolution:
    """Reconstructed two-level solution: trace coefficients, rigid-body
    coefficients per element, and the fine fields, stored once per local
    mesh: `members[dofh]` is (element ids (m,), U (m, 2*nsd), P (m, nsd) or
    None, maps (m, 2, 3)), with the rows of its records in `caches` order:
    the coefficients of each member's fields at the images of the mesh's
    nodes under its map."""

    def __init__(self, skeleton, lam, rho, members, caches, threads=1):
        self.skeleton = skeleton
        self.lam = lam
        self.rho = rho
        self.members = members
        self.caches = caches          # the class records of the members
        self.threads = threads

    @cached_property
    def fields(self):
        """A read-only mapping, built once on first access, in increasing id
        order, of element id to views of its rows: its record `cache`,
        `u` (2*nsd,), `p` (nsd,) or None, and `map` (2, 3), the rows
        [J | b] of the affine map x = J x^ + b, J = +-I, of the class mesh
        onto the element: `u` and `p` are the element's coefficients at the
        nodes map(cache.dofh.dof_coords)."""
        fields, done = {}, dict.fromkeys(self.members, 0)
        for c in self.caches:
            _, U, P, maps = self.members[c.dofh]
            for i, eid in enumerate(c.element_ids.tolist(), done[c.dofh]):
                fields[eid] = SimpleNamespace(cache=c, u=U[i], map=maps[i],
                                              p=None if P is None else P[i])
            done[c.dofh] += len(c.element_ids)
        return MappingProxyType(dict(sorted(fields.items())))

    def member_chunks(self, tabulate):
        """The member arrays in slices, mesh by mesh: `tab = tabulate(dofh)`
        once, whose `points` (nt, nq, 2) are a member's evaluation points,
        then (tab, loc2glob, ids, U, P, maps) of 1 to
        SAMPLE_POINTS // (nt * nq) members, views of `members[dofh]`."""
        for dofh, (ids, U, P, maps) in self.members.items():
            tab = tabulate(dofh)
            for rows in member_slices(len(ids), tab.points[..., 0].size):
                yield (tab, dofh.loc2glob, ids[rows], U[rows],
                       None if P is None else P[rows], maps[rows])

    def map_chunks(self, fn, tabulate):
        """The list of fn(tab, loc2glob, ids, U, P, maps) over the chunks
        of `member_chunks(tabulate)`, in their order, in `threads` threads
        (`ordered_map`): `fn` and what it calls must be thread-safe."""
        return ordered_map(self.threads, lambda chunk: fn(*chunk),
                           self.member_chunks(tabulate))


def postprocess_solution(caches, skeleton, lam, rho, threads=1):
    """Recombine the condensed basis: per element,
    u = sum_i sign_i lambda_i T(mu_i) + That(f) + rigid part, one batched
    matrix product per record over its ng groups of S = m / ng members.
    The basis holds the members' displacements pulled back onto the class
    mesh as s (u o map), so the members share its rigid-mode matrix, each
    member's coefficients rho taken through the rigid signs of its map
    (`_assembly.rigid_signs`), and the sign s of the map takes the sum back
    to the member's coefficients.  The records of one local mesh are joined
    into its member arrays.  `threads` is the thread count of the
    solution's evaluations."""
    parts = {}
    for cache in caches:
        m, ng = len(cache.element_ids), len(cache.pairing)
        coef = (cache.dof_signs * lam[cache.trace_dofs]).reshape(
            ng, m // ng, cache.n_trace)
        rm_nodal = cache.rigid_modes.nodal_coefficients(cache.dofh.dof_coords)
        u = ((coef @ np.swapaxes(cache.trace_u, 1, 2)).reshape(m, -1)
             + cache.load_u
             + (rho[cache.element_ids] * asm.rigid_signs(cache.maps))
             @ rm_nodal.T)
        u *= asm.map_signs(cache.maps)[:, None]
        p = ((coef @ np.swapaxes(cache.trace_p, 1, 2)).reshape(m, -1)
             + cache.load_p if cache.trace_p is not None else None)
        parts.setdefault(cache.dofh, []).append(
            (cache.element_ids, u, p, cache.maps))
    members = {dofh: tuple(None if a[0] is None else np.concatenate(a)
                           for a in zip(*records))
               for dofh, records in parts.items()}
    return MHMSolution(skeleton, lam, rho, members, caches, threads)
