"""Certified points on the focal manifold M+ = {x in S^{2l-1} : all g_a(x) = 0}.

M+ is the level set F = +1 of the degree-4 polynomial, cut out by the m + 2
constraints

    c(x) = (|x|^2 - 1, g_0(x), ..., g_m(x)),      g_a(x) = <P_a x, x>.

Projection onto M+ is Gauss-Newton on c: with Jacobian rows
(2x, 2 P_0 x, ..., 2 P_m x),

    x  <-  x - J^T (J J^T)^{-1} c(x).

At a feasible point the rows are orthogonal with squared norm 4, so
J J^T = 4 I and the normal equations stay perfectly conditioned; this is
asserted on every converged point.  Each returned point is certified
against fixed thresholds, never trusted from convergence alone.

Sampling draws independent Gaussian starts from per-index sub-seeds, so the
result list has a fixed order and the projections are independent of each
other (safe to run concurrently; this implementation folds sequentially).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .clifford import CliffordSystem
from .errors import (CertificationError, ConvergenceError, SamplingError,
                     SingularityError)
from .records import Check, fold

__all__ = [
    "CONSTRAINT_TOL",
    "FocalPoint",
    "SPHERE_TOL",
    "VALUE_TOL",
    "deterministic_seed",
    "project_to_focal",
    "sample_focal_points",
    "tangent_jacobian_rank",
]

# Fixed certification thresholds.
CONSTRAINT_TOL = 1e-10     # max |g_a(x)|
SPHERE_TOL = 1e-12         # | |x|^2 - 1 |
VALUE_TOL = 1e-9           # |F(x) - 1|

_MAX_RETRIES = 10
_COND_LIMIT = 1e12
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class FocalPoint:
    """A certified point of M+ together with its certification residuals."""

    x: np.ndarray
    residual_constraints: float
    residual_sphere: float
    iterations: int = 0

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def _constraints(system: CliffordSystem, x: np.ndarray):
    g = system.stack @ x @ x
    sphere = float(x @ x) - 1.0
    return g, sphere


def certify(system: CliffordSystem, x: np.ndarray,
            iterations: int = 0) -> FocalPoint:
    """Wrap x as a FocalPoint or raise CertificationError.

    Checks max |g_a| <= 1e-10, | |x|^2 - 1 | <= 1e-12 and |F(x) - 1| <= 1e-9,
    under the keys of the report's points block.
    """
    x = np.asarray(x, dtype=float)
    g, sphere = _constraints(system, x)
    res_c = fold(np.abs(g))
    res_s = abs(sphere)
    xx = float(x @ x)
    value_gap = abs(xx * xx - 2.0 * float(g @ g) - 1.0)
    checks = (Check("max_constraint_residual", res_c, CONSTRAINT_TOL),
              Check("max_sphere_residual", res_s, SPHERE_TOL),
              Check("max_value_gap", value_gap, VALUE_TOL))
    if not all(c.passed for c in checks):
        raise CertificationError(
            f"point failed certification: constraints {res_c:.3e} "
            f"(tol {CONSTRAINT_TOL:.1e}), sphere {res_s:.3e} "
            f"(tol {SPHERE_TOL:.1e}), value gap {value_gap:.3e} "
            f"(tol {VALUE_TOL:.1e})",
            residual_constraints=res_c, residual_sphere=res_s)
    return FocalPoint(x=x, residual_constraints=res_c, residual_sphere=res_s,
                      iterations=iterations)


def deterministic_seed(system: CliffordSystem) -> FocalPoint:
    """A fixed, RNG-free point of M+.

    Take v = e_1 / sqrt(2) in the second R^l factor and u = the first
    standard basis vector (scaled by 1/sqrt(2)) orthogonal to
    Span{e_1, E_1 e_1, ..., E_{m-1} e_1}; that span has dimension m <= l - 2,
    so the scan always succeeds.  Then x = (u, v) satisfies every constraint
    by construction: g_0 = |u|^2 - |v|^2, g_1 = 2 <u, v> and
    g_{1+i} = 2 <E_i v, u> all vanish.
    """
    l = system.l
    n = system.ambient_dim
    # Span to avoid: e_1 and the images E_i e_1, read off the block form
    # of P_{1+i} applied to (0, e_1).
    obstruction = [np.eye(l)[0]]
    for P in system.matrices[2:]:
        # top-left l x l block of P_{1+i} is 0, top-right is E_i
        obstruction.append(P[:l, l:] @ np.eye(l)[0])
    u = None
    for j in range(l):
        r = np.eye(l)[j]
        for b in obstruction:
            nb = float(np.linalg.norm(b))
            if nb > 0.0:
                r = r - (float(r @ b) / (nb * nb)) * b
        nr = float(np.linalg.norm(r))
        if nr > 1e-6:
            u = r / nr
            break
    if u is None:
        raise RuntimeError("no basis vector escapes the obstruction span")
    x = np.zeros(n)
    x[:l] = u / np.sqrt(2.0)
    x[l] = 1.0 / np.sqrt(2.0)
    return certify(system, x, iterations=0)


def _gauss_newton_step(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    g, sphere = _constraints(system, x)
    c = np.concatenate(([sphere], g))
    jac = 2.0 * np.vstack([x[None, :], system.stack @ x])
    jjt = jac @ jac.T
    with np.errstate(divide="ignore"):
        cond = float(np.linalg.cond(jjt))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularityError(
            f"normal equations are singular (cond {cond:.3e}); restart the "
            "projection from a different start point")
    y = np.linalg.solve(jjt, c)
    return x - jac.T @ y


def project_to_focal(system: CliffordSystem, x0, tol: float = 1e-13,
                     max_iter: int = 50) -> FocalPoint:
    """Gauss-Newton projection of x0 onto M+.

    Deterministic: identical inputs produce bitwise identical iterates.
    Starts already on M+ (residual below tol) are returned unchanged with
    zero iterations.  Returns only certified points; non-convergence raises
    ConvergenceError carrying the last residual.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.array(x0, dtype=float)
    if x.shape != (system.ambient_dim,):
        raise ValueError(
            f"start shape {x.shape} != ({system.ambient_dim},)")
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        raise ValueError("start point must be nonzero")

    def residual(p):
        g, sphere = _constraints(system, p)
        return max(float(np.max(np.abs(g))), abs(sphere))

    res = residual(x)
    if res < tol:
        _assert_conditioning(system, x)
        return certify(system, x, iterations=0)
    # Radial retraction first: Gauss-Newton then only has to move along the
    # sphere, which keeps far Gaussian starts well inside its basin.
    x = x / norm
    for it in range(1, max_iter + 1):
        x = _gauss_newton_step(system, x)
        res = residual(x)
        if res < tol:
            _assert_conditioning(system, x)
            return certify(system, x, iterations=it)
    raise ConvergenceError(
        f"projection did not reach tol {tol:.1e} in {max_iter} iterations "
        f"(last residual {res:.3e})", residual=res)


def _assert_conditioning(system: CliffordSystem, x: np.ndarray) -> None:
    # At a feasible point J J^T = 4 I; anything else means the run is broken.
    jac = 2.0 * np.vstack([x[None, :], system.stack @ x])
    dev = float(np.max(np.abs(jac @ jac.T / 4.0 - np.eye(system.m + 2))))
    if dev > 1e-6:
        raise SingularityError(
            f"normal equations deviate from 4I by {dev:.3e} at a converged "
            "point; projection result rejected")


def sample_focal_points(system: CliffordSystem, n: int, seed: int) -> list:
    """n certified points from independent Gaussian starts.

    Point i uses the sub-seed (seed, spawn_key=(i, attempt)); failed
    projections retry with fresh attempts, up to 10 retries per point.  The
    returned order is fixed by i, independent of retry counts.
    """
    if n < 1:
        raise ValueError("n must be positive")
    entropy = int(seed) & _SEED_MASK
    points = []
    failures = 0
    for i in range(n):
        produced = None
        for attempt in range(_MAX_RETRIES + 1):
            rng = default_rng(SeedSequence(entropy, spawn_key=(i, attempt)))
            x0 = rng.standard_normal(system.ambient_dim)
            try:
                produced = project_to_focal(system, x0)
                break
            except (ConvergenceError, SingularityError, CertificationError):
                failures += 1
        if produced is None:
            raise SamplingError(
                f"sample point {i} failed after {_MAX_RETRIES + 1} attempts "
                f"({failures} failed projections so far)", failures=failures)
        points.append(produced)
    return points


def tangent_jacobian_rank(system: CliffordSystem, point: FocalPoint) -> int:
    """Rank of the (m+2) x 2l matrix with rows x, P_0 x, ..., P_m x.

    Full rank m + 2 certifies that the constraint normals span the whole
    normal space plus the radial direction (singular values above 1e-8
    count).
    """
    rows = np.vstack([point.x[None, :], system.stack @ point.x])
    return int(np.linalg.matrix_rank(rows, tol=1e-8))
