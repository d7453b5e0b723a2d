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
other.  Each attempt round projects the starts of every point still
missing as one masked Gauss-Newton sweep over a stack of rows; a row's
iterates are bit for bit those of a projection on its own.
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
_GN_TOL = 1e-13            # Gauss-Newton stops below this residual
_GN_MAX_ITER = 50
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


def _rows(system: CliffordSystem, x: np.ndarray):
    """P_a x as (K, m+1, 2l), g_a(x) as (K, m+1) and |x|^2 as (K,) for the
    rows of a (K, 2l) stack.

    Each product is a stacked matrix-vector or vector-vector product, so
    every row gets the rounding of the one-point expressions stack @ x,
    (stack @ x) @ x and x @ x bit for bit, whatever K is.  (einsum, sums of
    elementwise products and np.linalg.norm with an axis round differently
    in the last place.)
    """
    px = system.apply(x)
    g = np.matmul(px, x[..., None])[..., 0]
    xx = np.matmul(x[:, None, :], x[..., None])[:, 0, 0]
    return px, g, xx


def _verdict(x: np.ndarray, g: np.ndarray, xx: float,
             iterations: int) -> FocalPoint | CertificationError:
    """The point x with its constraint values g and |x|^2, certified."""
    res_c = fold(np.abs(g))
    res_s = abs(xx - 1.0)
    value_gap = abs(xx * xx - 2.0 * float(g @ g) - 1.0)
    checks = (Check("max_constraint_residual", res_c, CONSTRAINT_TOL),
              Check("max_sphere_residual", res_s, SPHERE_TOL),
              Check("max_value_gap", value_gap, VALUE_TOL))
    if not all(c.passed for c in checks):
        return CertificationError(
            f"point failed certification: constraints {res_c:.3e} "
            f"(tol {CONSTRAINT_TOL:.1e}), sphere {res_s:.3e} "
            f"(tol {SPHERE_TOL:.1e}), value gap {value_gap:.3e} "
            f"(tol {VALUE_TOL:.1e})",
            residual_constraints=res_c, residual_sphere=res_s)
    return FocalPoint(x=x, residual_constraints=res_c, residual_sphere=res_s,
                      iterations=iterations)


def certify(system: CliffordSystem, x: np.ndarray,
            iterations: int = 0) -> FocalPoint:
    """Wrap x as a FocalPoint or raise CertificationError.

    Checks max |g_a| <= 1e-10, | |x|^2 - 1 | <= 1e-12 and |F(x) - 1| <= 1e-9,
    under the keys of the report's points block.
    """
    x = np.asarray(x, dtype=float)
    _, g, xx = _rows(system, x[None])
    result = _verdict(x, g[0], float(xx[0]), iterations)
    if isinstance(result, CertificationError):
        raise result
    return result


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


def _residual(g: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """max(max_a |g_a|, | |x|^2 - 1 |) per row, the stopping test."""
    return np.maximum(np.max(np.abs(g), axis=1), np.abs(xx - 1.0))


def _jacobian(x: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Constraint Jacobians 2 (x, P_0 x, ..., P_m x) as (K, m+2, 2l)."""
    return 2.0 * np.concatenate([x[:, None, :], px], axis=1)


def _settle(out: list, rows, x, px, g, xx, iterations: int) -> None:
    """Certify the converged rows and store each verdict at out[row]."""
    jac = _jacobian(x, px)
    dev = np.max(np.abs(jac @ jac.transpose(0, 2, 1) / 4.0
                        - np.eye(jac.shape[1])), axis=(1, 2))
    for i, xi, gi, xxi, devi in zip(rows, x, g, xx, dev):
        # At a feasible point J J^T = 4 I; anything else means the run is
        # broken.
        if devi > 1e-6:
            out[i] = SingularityError(
                f"normal equations deviate from 4I by {devi:.3e} at a "
                "converged point; projection result rejected")
        else:
            out[i] = _verdict(xi, gi, float(xxi), iterations)


def _project(system: CliffordSystem, starts: np.ndarray, tol: float,
             max_iter: int) -> list:
    """Masked Gauss-Newton sweep over the rows of `starts`.

    Every row follows the iteration of project_to_focal, and the arithmetic
    has the forms of the one-point code (see _rows; the steps use
    jac @ jac^T and jac^T @ y on stacks), so a row's iterates do not depend
    on the other rows.  Rows leave the sweep when they converge or fail.
    Returns, per row, its FocalPoint or the exception that rejected it.
    """
    x = np.array(starts, dtype=float)
    out = [None] * len(x)
    rows = np.arange(len(x))
    px, g, xx = _rows(system, x)
    if np.any(np.sqrt(xx) < 1e-12):
        raise ValueError("start point must be nonzero")
    res = _residual(g, xx)
    # Starts already on M+ are kept as they are.
    done = res < tol
    _settle(out, rows[done], x[done], px[done], g[done], xx[done], 0)
    rows, x, xx, res = (a[~done] for a in (rows, x, xx, res))
    # Radial retraction first: Gauss-Newton then only has to move along the
    # sphere, which keeps far Gaussian starts well inside its basin.
    x = x / np.sqrt(xx)[:, None]
    px, g, xx = _rows(system, x)
    for it in range(1, max_iter + 1):
        if not rows.size:
            break
        jac = _jacobian(x, px)
        jjt = jac @ jac.transpose(0, 2, 1)
        with np.errstate(divide="ignore"):
            cond = np.linalg.cond(jjt)
        ok = cond <= _COND_LIMIT
        for r in np.flatnonzero(~ok):
            out[rows[r]] = SingularityError(
                f"normal equations are singular (cond {cond[r]:.3e}); "
                "restart the projection from a different start point")
        c = np.concatenate([(xx - 1.0)[:, None], g], axis=1)
        y = np.linalg.solve(jjt[ok], c[ok][..., None])
        rows = rows[ok]
        x = x[ok] - (jac[ok].transpose(0, 2, 1) @ y)[..., 0]
        px, g, xx = _rows(system, x)
        res = _residual(g, xx)
        done = res < tol
        _settle(out, rows[done], x[done], px[done], g[done], xx[done], it)
        rows, x, px, g, xx, res = (a[~done]
                                   for a in (rows, x, px, g, xx, res))
    for i, r in zip(rows, res):
        out[i] = ConvergenceError(
            f"projection did not reach tol {tol:.1e} in {max_iter} "
            f"iterations (last residual {r:.3e})", residual=float(r))
    return out


def project_to_focal(system: CliffordSystem, x0, tol: float = _GN_TOL,
                     max_iter: int = _GN_MAX_ITER) -> FocalPoint:
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
    (result,) = _project(system, x[None], tol, max_iter)
    if isinstance(result, Exception):
        raise result
    return result


def sample_focal_points(system: CliffordSystem, n: int, seed: int) -> list:
    """n certified points from independent Gaussian starts.

    Point i uses the sub-seed (seed, spawn_key=(i, attempt)); failed
    projections retry with fresh attempts, up to 10 retries per point.  The
    returned order is fixed by i, independent of retry counts.  Each attempt
    round projects the starts of all points still missing in one sweep,
    which gives every point the iterates of project_to_focal.
    """
    if n < 1:
        raise ValueError("n must be positive")
    entropy = int(seed) & _SEED_MASK
    points = [None] * n
    failures = np.zeros(n, dtype=int)
    pending = list(range(n))
    for attempt in range(_MAX_RETRIES + 1):
        if not pending:
            break
        starts = np.array([
            default_rng(SeedSequence(entropy, spawn_key=(i, attempt)))
            .standard_normal(system.ambient_dim) for i in pending])
        results = _project(system, starts, _GN_TOL, _GN_MAX_ITER)
        for i, result in zip(pending, results):
            if isinstance(result, FocalPoint):
                points[i] = result
            else:
                failures[i] += 1
        pending = [i for i in pending if points[i] is None]
    if pending:
        i = pending[0]
        total = int(np.sum(failures[:i + 1]))
        raise SamplingError(
            f"sample point {i} failed after {_MAX_RETRIES + 1} attempts "
            f"({total} failed projections so far)", failures=total)
    return points


def tangent_jacobian_rank(system: CliffordSystem, points) -> np.ndarray:
    """Rank of the (m+2) x 2l matrix with rows x, P_0 x, ..., P_m x at each
    of a sequence of points, from one stacked SVD.

    Full rank m + 2 certifies that the constraint normals span the whole
    normal space plus the radial direction (singular values above 1e-8
    count).
    """
    x = np.array([p.x for p in points])
    px, _, _ = _rows(system, x)
    return np.linalg.matrix_rank(np.concatenate([x[:, None, :], px], axis=1),
                                 tol=1e-8)
