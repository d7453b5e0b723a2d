"""The degree-4 isoparametric polynomial attached to a Clifford system.

With constraint forms g_a(x) = <P_a x, x>, the polynomial is

    F(x) = |x|^4 - 2 sum_a g_a(x)^2.

Its restriction f to the unit sphere satisfies the two isoparametric PDEs

    |grad_S f|^2 = 16 (1 - f^2),
    lap_S f      = 8 (m2 - m1) - 4 (2l + 2) f,

with multiplicities m1 = m and m2 = l - m - 1.  `verify_cartan_munzner`
measures both residuals at random unit points, from the exact ambient
derivatives that `FkmPolynomial.sphere_derivatives` reduces them to.  That
kernel takes all K points in one call and holds one (m+1, K, 2l) array,
the stack P_a x; everything else it reads from that stack by contractions
whose results are at most (K, 2l).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .clifford import CliffordSystem
from .records import fold

__all__ = [
    "FkmPolynomial",
    "sphere_samples",
    "verify_cartan_munzner",
]


@dataclass(frozen=True)
class FkmPolynomial:
    """F(x) = |x|^4 - 2 sum_a <P_a x, x>^2 for a fixed Clifford system;
    its PDEs need only the Clifford relations, so they hold for m2 = 0."""

    system: CliffordSystem

    def sphere_derivatives(self, x) -> tuple:
        """Value, intrinsic gradient and intrinsic Laplacian at a (K, 2l)
        block of unit points, one per row, as arrays (K,), (K, 2l) and (K,).

        Both reductions follow from degree-4 homogeneity.  The sphere
        gradient is the tangential projection of the ambient gradient
        grad F = 4 |x|^2 x - 8 sum_a g_a(x) P_a x.  For the Laplacian, split
        the ambient operator at r = |x| = 1 into radial and spherical parts;
        with F = r^g f on rays (g = 4, ambient dimension n = 2l),

            lap F = lap_S f + g (g - 1) F + (n - 1) g F,

        so lap_S f = lap F - g (g + n - 2) F = lap F - 4 (2l + 2) F.  The
        ambient Laplacian is the trace of the analytic Hessian, taken term
        by term with no Hessian formed (a block of K points costs O(K m l)):

            lap F = (8 + 4 (2l)) |x|^2 - 16 sum_a |P_a x|^2
                    - 8 sum_a g_a(x) trace(P_a).
        """
        stack, n = self.system.matrices, self.system.ambient_dim
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"point block shape {x.shape} is not (K, {n})")
        unit_gap = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
        bad = np.flatnonzero(~(unit_gap <= 1e-12))
        if bad.size:
            raise ValueError("sphere derivatives need unit points (row "
                             f"{bad[0]} is off the sphere)")
        # P_a x, (m+1, K, 2l), is the only array of that size: g_a(x),
        # sum_a g_a P_a x and sum_a |P_a x|^2 are two-operand contractions
        # of it that allocate only their (m+1, K), (K, 2l) and (K,) results,
        # where elementwise products would each hold another stack
        px = x @ stack.transpose(0, 2, 1)
        g = np.einsum("akj,kj->ak", px, x)
        xx = np.einsum("kj,kj->k", x, x)
        grad = 4.0 * xx[:, None] * x - 8.0 * np.einsum("ak,akj->kj", g, px)
        grad_s = grad - np.einsum("kj,kj->k", grad, x)[:, None] * x
        value = xx * xx - 2.0 * np.einsum("ak,ak->k", g, g)
        traces = np.trace(stack, axis1=1, axis2=2)
        lap = ((8.0 + 4.0 * n) * xx
               - 16.0 * np.einsum("akj,akj->k", px, px) - 8.0 * (traces @ g))
        lap_s = lap - 4.0 * (n + 2.0) * value
        return value, grad_s, lap_s


def sphere_samples(rng, count: int, dim: int) -> np.ndarray:
    """count independent uniform points of the unit sphere in R^dim, as rows.

    One standard_normal((count, dim)) draw, so row i holds the numbers that
    the i-th of count successive standard_normal(dim) draws would give.
    """
    z = rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1)[:, None]


def verify_cartan_munzner(poly: FkmPolynomial, n_samples: int, seed) -> tuple:
    """Residuals of the two isoparametric PDEs at random unit points, drawn
    from default_rng(seed) (an int or a SeedSequence).

    Returns the worst over the samples of
      | |grad_S f|^2 - 16 (1 - f^2) |  and
      | lap_S f - 8 (m2 - m1) + 4 (2l + 2) f |,
    reported as `max_gradient_residual` and `max_laplacian_residual` and
    held to the tolerance that report.CHECKED_FIELDS names.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    system = poly.system
    points = sphere_samples(default_rng(seed), n_samples, system.ambient_dim)
    const = 8.0 * (system.m2 - system.m)
    slope = 4.0 * (system.ambient_dim + 2.0)
    value, grad, lap = poly.sphere_derivatives(points)
    return (fold(np.abs(np.sum(grad * grad, axis=1)
                        - 16.0 * (1.0 - value * value))),
            fold(np.abs(lap - const + slope * value)))
