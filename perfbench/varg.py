"""The wide-varG manufactured problem: a point-varying shear modulus and a
divergence-free displacement, with data drawn from the workload seed."""

import numpy as np

from mhmelast import MaterialField

# Ranges the workload seed draws the wide-varG data from.
GRAD_RANGE = 0.3     # G(x) = 1 + g.x with each g_i in [-0.3, 0.3]
AFFINE_RANGE = 1.0   # entries of A (traceless) and b in [-1, 1]
QUADRATIC = 2.0      # fixed amplitude of the quadratic field


class VarGProblem:
    """Manufactured solution with a point-varying shear modulus
    G(x) = 1 + g.x and a divergence-free displacement

        u = A x + b + c (x^2 - 2xy, y^2 - 2xy),   trace(A) = 0,

    so p = 0, sigma = 2 G eps(u) and f = -2 eps(u) g - 2 G c (1, 1).

    The affine part alone is reproduced up to the consistency error of the
    local least-squares terms, which drop the gradient of G; that error moves
    with the seeded data by tens of percent.  The fixed quadratic part adds a
    discretization error that dominates it, so h1_err is steady across seeds.
    """

    def __init__(self, g, A, b, c, nu):
        self.g = np.asarray(g, dtype=float)
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = float(c)
        self.nu = float(nu)
        self.material = MaterialField(self.G, self.nu)
        # scalar weight of the p_eps norm, taken at G = 1
        self.epsilon = (1 - 2 * self.nu) / (2 * self.nu)

    def G(self, x):
        return 1.0 + x @ self.g

    def u(self, x):
        x = np.asarray(x, dtype=float)
        X, Y = x[..., 0], x[..., 1]
        quad = np.stack([X**2 - 2 * X * Y, Y**2 - 2 * X * Y], axis=-1)
        return x @ self.A.T + self.b + self.c * quad

    def grad_u(self, x):
        x = np.asarray(x, dtype=float)
        X, Y = x[..., 0], x[..., 1]
        g = np.broadcast_to(self.A, x.shape[:-1] + (2, 2)).copy()
        g[..., 0, 0] += self.c * (2 * X - 2 * Y)
        g[..., 0, 1] -= self.c * 2 * X
        g[..., 1, 0] -= self.c * 2 * Y
        g[..., 1, 1] += self.c * (2 * Y - 2 * X)
        return g

    def _strain(self, x):
        g = self.grad_u(x)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def p(self, x):
        return np.zeros(np.shape(x)[:-1])

    def grad_p(self, x):
        return np.zeros(np.shape(x))

    def sigma(self, x):
        return 2 * self.G(x)[..., None, None] * self._strain(x)

    def f(self, x):
        return (-2 * self._strain(x) @ self.g
                - 2 * self.c * self.G(x)[..., None])

    def h1_seminorm(self):
        """|u|_H1 on the unit square by a tensor Gauss rule, exact here."""
        s, w = np.polynomial.legendre.leggauss(4)
        s, w = 0.5 * (s + 1), 0.5 * w
        X, Y = np.meshgrid(s, s, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        return float(np.sqrt(np.einsum("i,j,ijab->", w, w,
                                       self.grad_u(pts) ** 2)))


def varg_problem(seed, nu):
    """The wide-varG problem drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-GRAD_RANGE, GRAD_RANGE, 2)
    a, a12, a21 = rng.uniform(-AFFINE_RANGE, AFFINE_RANGE, 3)
    b = rng.uniform(-AFFINE_RANGE, AFFINE_RANGE, 2)
    return VarGProblem(g, [[a, a12], [a21, -a]], b, QUADRATIC, nu)
