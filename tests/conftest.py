"""Shared test configuration.

The acceptance tests register one PASS/FAIL line per criterion here so the
verdicts are echoed in the terminal summary even when output capture is on.
`saddle_system` builds a global system from given blocks, `_side_tag`
puts Neumann faces on two sides of the unit square, and `_jittered_mesh`
moves the interior vertices of a unit-square mesh.
"""

import numpy as np
import scipy.sparse as sp

from mhmelast import SaddleSystem, TriMesh, unit_square_mesh

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def saddle_system(A, B, rhs_lambda, rhs_rm):
    """The system [[A, B], [B', 0]] of the blocks A and B (any matrix form),
    stored in the natural order of its unknowns."""
    M = sp.bmat([[sp.csr_matrix(A), sp.csr_matrix(B)],
                 [sp.csr_matrix(B).T, None]], format="csc")
    return SaddleSystem(M, np.arange(M.shape[0]), rhs_lambda, rhs_rm)


def _side_tag(mid):
    """Neumann on the faces x = 1 and y = 0, Dirichlet elsewhere: the
    structured grid's elements then fall into more than one congruence
    class."""
    return "neumann" if mid[0] > 1 - 1e-12 or mid[1] < 1e-12 else "dirichlet"


def _jittered_mesh(n, seed):
    """The n x n unit-square mesh with every interior vertex moved by up to
    0.3 / n in each direction, so that no two triangles share a map."""
    mesh = unit_square_mesh(n)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.3 / n, 0.3 / n,
                                                    (inner.sum(), 2))
    return TriMesh(v, mesh.triangles)
