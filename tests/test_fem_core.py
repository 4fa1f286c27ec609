"""Reference elements, quadrature, and the inverse-inequality constant."""

import math

import numpy as np
import pytest

from mhmelast import (InverseConstant, estimate_inverse_constant,
                      inverse_constant, quad_rule, reference_element)
from mhmelast.mesh import TriMesh, _lattice_triangulation


def _random_reference_points(rng, n):
    """Uniform points in the open reference triangle."""
    a = rng.random((n, 2))
    flip = a.sum(axis=1) > 1
    a[flip] = 1 - a[flip]
    return a


# ---------------------------------------------------------------------------
# Lagrange shape functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity(k):
    ref = reference_element(k)
    pts = _random_reference_points(np.random.default_rng(0), 40)
    vals, grads, hess = ref.tabulate(pts)
    assert np.abs(vals.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(grads.sum(axis=1)).max() < 1e-11
    assert np.abs(hess.sum(axis=1)).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kronecker_at_nodes(k):
    ref = reference_element(k)
    vals, _, _ = ref.tabulate(ref.nodes)
    assert np.abs(vals - np.eye(ref.n_basis)).max() < 1e-11


def test_p1_barycenter_values():
    ref = reference_element(1)
    p = np.array([1 / 3, 1 / 3])
    vals, grads, hess = (t[0] for t in ref.tabulate(p[None]))
    assert np.allclose(vals, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    # P1 shape functions are affine
    assert np.abs(hess).max() < 1e-13
    # constant gradients: (-1,-1), (1,0), (0,1)
    assert np.allclose(grads, [[-1, -1], [1, 0], [0, 1]], atol=1e-13)


def test_p2_edge_midpoint_kronecker():
    ref = reference_element(2)
    # node 3 is the midpoint of the edge from (0,0) to (1,0)
    p = np.array([0.5, 0.0])
    vals = ref.tabulate(p[None])[0][0]
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.allclose(vals, expected, atol=1e-12)


def test_degree_validation():
    with pytest.raises(ValueError):
        reference_element(0).tabulate  # construction should already fail


def _guarded_tabulation(ref, pts):
    """Values, gradients and Hessians with every power of a zero exponent
    factor set to 0, the formula that predates the clipped exponents, in the
    centred monomial coordinates 3 (x - 1/3), 3 (y - 1/3)."""
    a, b = (ref.exponents[:, i].astype(float) for i in (0, 1))
    x, y = 3 * (pts[:, 0:1] - 1 / 3), 3 * (pts[:, 1:2] - 1 / 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        xa, yb = x ** a, y ** b
        xam1 = np.where(a >= 1, x ** np.maximum(a - 1, 0), 0.0)
        ybm1 = np.where(b >= 1, y ** np.maximum(b - 1, 0), 0.0)
        xam2 = np.where(a >= 2, x ** np.maximum(a - 2, 0), 0.0)
        ybm2 = np.where(b >= 2, y ** np.maximum(b - 2, 0), 0.0)
    C = ref.coeffs
    hess = np.empty((len(pts), ref.n_basis, 2, 2))
    hess[..., 0, 0] = 9 * ((a * (a - 1) * xam2 * yb) @ C)
    hess[..., 1, 1] = 9 * ((b * (b - 1) * xa * ybm2) @ C)
    hess[..., 0, 1] = hess[..., 1, 0] = 9 * ((a * b * xam1 * ybm1) @ C)
    return ((xa * yb) @ C,
            3 * np.stack([(a * xam1 * yb) @ C, (b * xa * ybm1) @ C],
                         axis=-1),
            hess)


@pytest.mark.parametrize("k", range(1, 9))
def test_tabulation_equals_guarded_formula_bitwise(k):
    # points on x = 1/3, y = 1/3 and both, where a centred coordinate is 0
    # and a power of a clipped exponent is 1 rather than 0; the nodes and
    # the random points are elsewhere too
    ref = reference_element(k)
    pts = np.vstack([ref.nodes, [[1 / 3, 0.5], [0.5, 1 / 3], [1 / 3, 1 / 3]],
                     _random_reference_points(np.random.default_rng(k), 20)])
    assert (3 * (pts - 1 / 3) == 0).any(axis=0).all()
    for got, want in zip(ref.tabulate(pts), _guarded_tabulation(ref, pts)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", range(0, 9))
def test_triangle_rule_weight_sum(p):
    rule = quad_rule("triangle", p)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("p", range(0, 9))
def test_segment_rule_weight_sum(p):
    rule = quad_rule("segment", p)
    assert abs(rule.weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_triangle_monomial_exactness(p):
    rule = quad_rule("triangle", p)
    for a in range(p + 1):
        for b in range(p + 1 - a):
            # int over the reference triangle: a! b! / (a + b + 2)!
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            got = np.sum(rule.weights * rule.points[:, 0] ** a
                         * rule.points[:, 1] ** b)
            assert abs(got - exact) < 1e-14, (a, b)


def test_triangle_xy_integral():
    rule = quad_rule("triangle", 2)
    got = np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert abs(got - 1 / 24) < 1e-15


@pytest.mark.parametrize("p", [1, 3, 5])
def test_segment_monomial_exactness(p):
    rule = quad_rule("segment", p)
    for n in range(p + 1):
        got = np.sum(rule.weights * rule.points ** n)
        assert abs(got - 1 / (n + 1)) < 1e-14


def test_quadrature_exactness_invariance():
    # a smooth integral should already be converged: raising the exactness
    # must not change it beyond roundoff-level wiggle
    f = lambda x, y: np.exp(x) * np.cos(3 * y)
    vals = []
    for p in (20, 24):
        rule = quad_rule("triangle", p)
        vals.append(np.sum(rule.weights * f(rule.points[:, 0],
                                            rule.points[:, 1])))
    assert abs(vals[0] - vals[1]) < 1e-12


def test_quad_rule_validation():
    with pytest.raises(ValueError):
        quad_rule("square", 2)
    with pytest.raises(ValueError):
        quad_rule("triangle", -1)
    with pytest.raises(ValueError):
        quad_rule("triangle", 10_000)


# ---------------------------------------------------------------------------
# Inverse-inequality constant
# ---------------------------------------------------------------------------

def test_inverse_constant_p1_is_one():
    # for affine fields the divergence term vanishes, h_tau = h_K, and the
    # two quadratic forms coincide; the smallest quotient is exactly 1
    ci = inverse_constant(1)
    assert isinstance(ci, InverseConstant)
    assert ci.degree == 1
    assert ci.value >= 1 - 1e-9
    assert abs(ci.value - 1.0) < 1e-9
    assert abs(ci.safe_value - 0.9 * ci.value) < 1e-15


def test_inverse_constant_frozen_values():
    # frozen outputs of the generalized eigenvalue oracle
    assert abs(inverse_constant(2).value - 0.011764705882352941) < 1e-10
    assert abs(inverse_constant(3).value - 0.003152530433773236) < 1e-9


def test_inverse_constant_decreases_with_degree():
    vals = [inverse_constant(k).value for k in (1, 2, 3)]
    assert vals[0] > vals[1] > vals[2] > 0


@pytest.mark.parametrize("k", [1, 2])
def test_inverse_constant_refinement_stability(k):
    # the estimate on a red-refined sample mesh stays within 5% of the
    # single-triangle value
    base = inverse_constant(k).value
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for depth in (1, 2):
        mesh, _, _ = _lattice_triangulation(corners, depth)
        est = estimate_inverse_constant(k, mesh)
        assert abs(est.value - base) / base < 0.05


def test_estimate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                np.array([[0, 1, 2]]))
