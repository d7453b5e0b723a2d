"""The degree-4 isoparametric polynomial attached to a Clifford system.

With constraint forms g_a(x) = <P_a x, x>, the polynomial is

    F(x) = |x|^4 - 2 sum_a g_a(x)^2.

Its restriction f to the unit sphere satisfies the two isoparametric PDEs

    |grad_S f|^2 = 16 (1 - f^2),
    lap_S f      = 8 (m2 - m1) - 4 (2l + 2) f,

with multiplicities m1 = m and m2 = l - m - 1.  `verify_cartan_munzner`
checks both residuals at random unit points; everything else here supplies
the exact ambient derivatives those checks are reduced to.
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
    "SphericalDerivatives",
    "sphere_samples",
    "verify_cartan_munzner",
]

# verify_cartan_munzner evaluates its samples this many at a time.
_SAMPLE_BLOCK = 250


@dataclass(frozen=True)
class SphericalDerivatives:
    """Restriction data at a unit point: value, tangential gradient, intrinsic Laplacian.

    For a block of K points the fields are arrays of shape (K,), (K, 2l)
    and (K,).
    """

    value: float | np.ndarray
    gradient: np.ndarray
    laplacian: float | np.ndarray


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

    def _check_shape(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise ValueError(
                f"point shape {x.shape} != ({self.ambient_dim},)")
        return x

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

    def constraint_values(self, x) -> np.ndarray:
        """g_a(x) = <P_a x, x> for a = 0..m."""
        x = self._check_shape(x)
        return self.system.stack @ x @ x

    def value(self, x):
        """F at one point (a float) or at each row of a block (an array)."""
        x = self._check_points(x)
        _, g, xx = self._terms(x)
        out = xx * xx - 2.0 * np.sum(g * g, axis=0)
        return float(out) if x.ndim == 1 else out

    def euclidean_gradient(self, x) -> np.ndarray:
        """grad F = 4 |x|^2 x - 8 sum_a g_a(x) P_a x, row-wise for a block."""
        x = self._check_points(x)
        px, g, xx = self._terms(x)
        return 4.0 * xx[..., None] * x - 8.0 * np.sum(g[..., None] * px,
                                                      axis=0)

    def laplacian(self, x):
        """Ambient lap F, the Hessian trace taken term by term:

        lap F = (8 + 4 (2l)) |x|^2 - 16 sum_a |P_a x|^2
                - 8 sum_a g_a(x) trace(P_a).

        No Hessian is formed, so a block of K points costs O(K m l).
        """
        x = self._check_points(x)
        px, g, xx = self._terms(x)
        traces = np.trace(self.system.stack, axis1=1, axis2=2)
        out = ((8.0 + 4.0 * self.ambient_dim) * xx
               - 16.0 * np.sum(px * px, axis=(0, -1))
               - 8.0 * (traces @ g))
        return float(out) if x.ndim == 1 else out

    def euclidean_hessian_apply(self, x, v) -> np.ndarray:
        """Directional derivative of the gradient:

        Hess F(x) v = 8 <x, v> x + 4 |x|^2 v
                      - 16 sum_a <P_a x, v> P_a x - 8 sum_a g_a(x) P_a v.
        """
        x = self._check_shape(x)
        v = self._check_shape(v)
        px = self.system.stack @ x
        g = px @ x
        pv = self.system.stack @ v
        return (8.0 * float(x @ v) * x + 4.0 * float(x @ x) * v
                - 16.0 * ((px @ v) @ px) - 8.0 * (g @ pv))

    def hessian_matrix(self, x) -> np.ndarray:
        """The analytic Hessian as a dense symmetric matrix."""
        x = self._check_shape(x)
        n = self.ambient_dim
        px = self.system.stack @ x
        g = px @ x
        mat = 8.0 * np.outer(x, x) + 4.0 * float(x @ x) * np.eye(n)
        mat -= 16.0 * np.einsum("ai,aj->ij", px, px)
        mat -= 8.0 * np.einsum("a,aij->ij", g, self.system.stack)
        return mat

    def sphere_derivatives(self, x) -> SphericalDerivatives:
        """Value, intrinsic gradient and intrinsic Laplacian at unit points.

        x is one unit point, or a (K, 2l) block of unit points (one per
        row), which gives arrays with a leading axis of length K.  Both
        reductions follow from degree-4 homogeneity.  The sphere gradient is
        the tangential projection of the ambient gradient.  For the
        Laplacian, split the ambient operator at r = |x| = 1 into radial and
        spherical parts; with F = r^g f on rays (g = 4, ambient dimension
        n = 2l),

            lap F = lap_S f + g (g - 1) F + (n - 1) g F,

        so lap_S f = lap F - g (g + n - 2) F = lap F - 4 (2l + 2) F.  The
        ambient Laplacian is the trace of the analytic Hessian (`laplacian`).
        """
        x = self._check_points(x)
        unit_gap = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
        bad = np.flatnonzero(~(unit_gap <= 1e-12))
        if bad.size:
            raise ValueError("sphere derivatives need unit points (row "
                             f"{bad[0]} is off the sphere)")
        grad = self.euclidean_gradient(x)
        grad_s = grad - np.sum(grad * x, axis=-1)[..., None] * x
        value = self.value(x)
        lap_s = self.laplacian(x) - 4.0 * (self.ambient_dim + 2.0) * value
        return SphericalDerivatives(value=value, gradient=grad_s,
                                    laplacian=lap_s)


def sphere_samples(rng, count: int, dim: int) -> np.ndarray:
    """count independent uniform points of the unit sphere in R^dim, as rows.

    One standard_normal((count, dim)) draw, so row i holds the numbers that
    the i-th of count successive standard_normal(dim) draws would give.  A
    row of norm below 1e-12 is redrawn from the stream that follows.
    """
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1)
    for i in np.flatnonzero(norms < 1e-12):
        while norms[i] < 1e-12:
            z[i] = rng.standard_normal(dim)
            norms[i] = np.linalg.norm(z[i])
    return z / norms[:, None]


def verify_cartan_munzner(poly: FkmPolynomial, n_samples: int, seed: int,
                          tol: float = 1e-8) -> tuple:
    """Residuals of the two isoparametric PDEs at random unit points.

    Returns the `max_gradient_residual` and `max_laplacian_residual`
    checks, the worst over the samples of
      | |grad_S f|^2 - 16 (1 - f^2) |  and
      | lap_S f - 8 (m2 - m1) + 4 (2l + 2) f |.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    points = sphere_samples(default_rng(seed), n_samples, poly.ambient_dim)
    const = 8.0 * (poly.m2 - poly.m1)
    slope = 4.0 * (poly.ambient_dim + 2.0)
    worst_grad = []
    worst_lap = []
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        d = poly.sphere_derivatives(points[start:start + _SAMPLE_BLOCK])
        r_grad = np.abs(np.sum(d.gradient * d.gradient, axis=1)
                        - 16.0 * (1.0 - d.value * d.value))
        r_lap = np.abs(d.laplacian - const + slope * d.value)
        worst_grad.append(fold(r_grad))
        worst_lap.append(fold(r_lap))
    return (Check("max_gradient_residual", fold(worst_grad), tol),
            Check("max_laplacian_residual", fold(worst_lap), tol))
