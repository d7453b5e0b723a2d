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
        block of unit points, one per row, as new arrays (K,), (K, 2l) and
        (K,), in float64, the PDE samples' dtype.  A row whose norm, the
        root of the |x|^2 that the derivatives use, is off 1 by more than
        1e-12 (NaN included) raises ValueError naming it, before any product.

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
        # the guard reads |x| off |x|^2, which the derivatives need anyway;
        # x * x holds no product of an infinite entry with a zero, so a
        # non-finite row reaches no other product
        xx = np.einsum("kj,kj->k", x, x)
        bad = np.flatnonzero(~(np.abs(np.sqrt(xx) - 1.0) <= 1e-12))
        if bad.size:
            raise ValueError("sphere derivatives need unit points (row "
                             f"{bad[0]} is off the sphere)")
        # P_a x, (m+1, K, 2l), is the only array of that size: g_a(x),
        # sum_a g_a P_a x and sum_a |P_a x|^2 are two-operand contractions
        # of it that allocate only their (m+1, K), (K, 2l) and (K,) results,
        # where elementwise products would each hold another stack.  The
        # gradient takes two (K, 2l) buffers, each term formed in place in
        # the order of grad = 4 |x|^2 x - 8 sum_a g_a P_a x and
        # grad_S = grad - <grad, x> x.
        px = x @ stack.transpose(0, 2, 1)
        g = np.einsum("akj,kj->ak", px, x)
        grad = np.multiply(4.0 * xx[:, None], x)
        term = np.einsum("ak,akj->kj", g, px)
        term *= 8.0
        grad -= term
        grad -= np.multiply(np.einsum("kj,kj->k", grad, x)[:, None], x,
                            out=term)
        value = xx * xx - 2.0 * np.einsum("ak,ak->k", g, g)
        lap = ((8.0 + 4.0 * n) * xx
               - 16.0 * np.einsum("akj,akj->k", px, px)
               - 8.0 * (stack.trace(axis1=1, axis2=2) @ g))
        lap_s = lap - 4.0 * (n + 2.0) * value
        return value, grad, lap_s


def sphere_samples(rng, count: int, dim: int) -> np.ndarray:
    """count independent uniform points of the unit sphere in R^dim, as rows.

    One standard_normal((count, dim)) draw, so row i holds the numbers that
    the i-th of count successive standard_normal(dim) draws would give,
    divided in place by its norm, the root of the row's sum of squares.
    """
    z = rng.standard_normal((count, dim))
    # np.linalg.norm(z, axis=1), without its copy z.conj()
    z /= np.sqrt(np.add.reduce(z * z, axis=1))[:, None]
    return z


def verify_cartan_munzner(poly: FkmPolynomial, n_samples: int, seed) -> dict:
    """Residuals of the two isoparametric PDEs at random unit points, drawn
    from default_rng(seed) (an int or a SeedSequence).

    Returns the worst over the samples of
      | |grad_S f|^2 - 16 (1 - f^2) |  and
      | lap_S f - 8 (m2 - m1) + 4 (2l + 2) f |
    as a dict of two floats keyed by the cartan_munzner block's fields,
    max_gradient_residual and max_laplacian_residual in that order; the
    report holds them to the tolerance that report.CHECKED_FIELDS names.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    system = poly.system
    points = sphere_samples(default_rng(seed), n_samples, system.ambient_dim)
    const = 8.0 * (system.m2 - system.m)
    slope = 4.0 * (system.ambient_dim + 2.0)
    value, grad, lap = poly.sphere_derivatives(points)
    grad *= grad
    gradient = np.add.reduce(grad, axis=1) - 16.0 * (1.0 - value * value)
    laplacian = lap - const + slope * value
    return {"max_gradient_residual": fold(np.abs(gradient)),
            "max_laplacian_residual": fold(np.abs(laplacian))}
