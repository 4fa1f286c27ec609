"""Shared test configuration.

The acceptance tests register one PASS/FAIL line per criterion here so the
verdicts are echoed in the terminal summary even when output capture is on.
`saddle_system` builds a global system from given blocks, and `_side_tag`
puts Neumann faces on two sides of the unit square.
"""

import numpy as np
import scipy.sparse as sp

from mhmelast import SaddleSystem

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
