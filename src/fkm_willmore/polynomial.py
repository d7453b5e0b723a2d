"""The degree-4 isoparametric polynomial attached to a Clifford system.

With constraint forms g_a(x) = <P_a x, x>, the polynomial is

    F(x) = |x|^4 - 2 sum_a g_a(x)^2.

Its restriction f to the unit sphere satisfies the two isoparametric PDEs

    |grad_S f|^2 = 16 (1 - f^2),
    lap_S f      = 8 (m2 - m1) - 4 (2l + 2) f,

with multiplicities m1 = m and m2 = l - m - 1.  `verify_cartan_munzner`
checks both residuals at random unit points, from the exact ambient
derivatives that `FkmPolynomial.sphere_derivatives` reduces them to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .clifford import CliffordSystem
from .errors import AdmissibilityError
from .records import Check, fold

__all__ = [
    "FkmPolynomial",
    "sphere_samples",
    "verify_cartan_munzner",
]


@dataclass(frozen=True)
class FkmPolynomial:
    """F(x) = |x|^4 - 2 sum_a <P_a x, x>^2 for a fixed Clifford system."""

    system: CliffordSystem

    def __post_init__(self):
        if self.system.m2 < 1:
            raise AdmissibilityError(
                f"polynomial needs m2 >= 1, got m2={self.system.m2}",
                m2=self.system.m2)

    @property
    def ambient_dim(self) -> int:
        return self.system.ambient_dim

    @property
    def m1(self) -> int:
        return self.system.m

    @property
    def m2(self) -> int:
        return self.system.m2

    def _check_points(self, x) -> np.ndarray:
        """One point (2l,) or a block of points (K, 2l), one per row."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.ambient_dim:
            raise ValueError(
                f"point shape {x.shape} is neither ({self.ambient_dim},) nor "
                f"(K, {self.ambient_dim})")
        return x

    def _terms(self, x: np.ndarray):
        """P_a x as (m+1, ..., 2l), g_a(x) as (m+1, ...) and |x|^2 as (...)."""
        px = x @ self.system.stack.transpose(0, 2, 1)
        return px, np.sum(px * x, axis=-1), np.sum(x * x, axis=-1)

    @staticmethod
    def _value(g, xx):
        return xx * xx - 2.0 * np.sum(g * g, axis=0)

    def value(self, x):
        """F at one point (a float) or at each row of a block (an array)."""
        x = self._check_points(x)
        _, g, xx = self._terms(x)
        return _scalar(self._value(g, xx), x)

    def sphere_derivatives(self, x) -> tuple:
        """Value, intrinsic gradient and intrinsic Laplacian at unit points.

        x is one unit point, which gives (float, (2l,), float), or a (K, 2l)
        block of unit points (one per row), which gives arrays (K,),
        (K, 2l) and (K,).  Both reductions follow from degree-4 homogeneity.
        The sphere gradient is the tangential projection of the ambient
        gradient grad F = 4 |x|^2 x - 8 sum_a g_a(x) P_a x.  For the
        Laplacian, split the ambient operator at r = |x| = 1 into radial and
        spherical parts; with F = r^g f on rays (g = 4, ambient dimension
        n = 2l),

            lap F = lap_S f + g (g - 1) F + (n - 1) g F,

        so lap_S f = lap F - g (g + n - 2) F = lap F - 4 (2l + 2) F.  The
        ambient Laplacian is the trace of the analytic Hessian, taken term
        by term with no Hessian formed (a block of K points costs O(K m l)):

            lap F = (8 + 4 (2l)) |x|^2 - 16 sum_a |P_a x|^2
                    - 8 sum_a g_a(x) trace(P_a).
        """
        x = self._check_points(x)
        unit_gap = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
        bad = np.flatnonzero(~(unit_gap <= 1e-12))
        if bad.size:
            raise ValueError("sphere derivatives need unit points (row "
                             f"{bad[0]} is off the sphere)")
        # P_a x, g_a and |x|^2 once, for all three derivatives
        px, g, xx = self._terms(x)
        grad = 4.0 * xx[..., None] * x - 8.0 * np.sum(g[..., None] * px,
                                                      axis=0)
        grad_s = grad - np.sum(grad * x, axis=-1)[..., None] * x
        value = _scalar(self._value(g, xx), x)
        traces = np.trace(self.system.stack, axis1=1, axis2=2)
        lap = ((8.0 + 4.0 * self.ambient_dim) * xx
               - 16.0 * np.sum(px * px, axis=(0, -1)) - 8.0 * (traces @ g))
        lap_s = _scalar(lap, x) - 4.0 * (self.ambient_dim + 2.0) * value
        return value, grad_s, lap_s


def _scalar(out, x):
    """out as a float for one point x, as the array it is for a block."""
    return float(out) if x.ndim == 1 else out


def sphere_samples(rng, count: int, dim: int) -> np.ndarray:
    """count independent uniform points of the unit sphere in R^dim, as rows.

    One standard_normal((count, dim)) draw, so row i holds the numbers that
    the i-th of count successive standard_normal(dim) draws would give.
    """
    z = rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1)[:, None]


def verify_cartan_munzner(poly: FkmPolynomial, n_samples: int, seed,
                          tol: float = 1e-8) -> tuple:
    """Residuals of the two isoparametric PDEs at random unit points, drawn
    from default_rng(seed) (an int or a SeedSequence).

    Returns the `max_gradient_residual` and `max_laplacian_residual`
    checks, the worst over the samples of
      | |grad_S f|^2 - 16 (1 - f^2) |  and
      | lap_S f - 8 (m2 - m1) + 4 (2l + 2) f |.
    Both are NaN for a system with a non-finite entry, which is not
    evaluated.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not poly.system.finite:
        worst_grad = worst_lap = float("nan")
    else:
        points = sphere_samples(default_rng(seed), n_samples,
                                poly.ambient_dim)
        const = 8.0 * (poly.m2 - poly.m1)
        slope = 4.0 * (poly.ambient_dim + 2.0)
        value, grad, lap = poly.sphere_derivatives(points)
        worst_grad = fold(np.abs(np.sum(grad * grad, axis=1)
                                 - 16.0 * (1.0 - value * value)))
        worst_lap = fold(np.abs(lap - const + slope * value))
    return (Check("max_gradient_residual", worst_grad, tol),
            Check("max_laplacian_residual", worst_lap, tol))
