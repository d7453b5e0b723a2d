"""Certified points on the focal manifold M+ = {x in S^{2l-1} : all g_a(x) = 0}.

M+ is the level set F = +1 of the degree-4 polynomial, cut out by the m + 2
constraints

    c(x) = (|x|^2 - 1, g_0(x), ..., g_m(x)),      g_a(x) = <P_a x, x>.

Every point of M+ is (u + w) / sqrt(2) with u a unit vector of the +1
eigenspace E+ of P_0 and w a unit vector of the -1 eigenspace E- that is
orthogonal to P_1 u, ..., P_m u.  The seed point and the sampler's starts
are built that way from the projectors (I +- P_0) / 2, using nothing but
the Clifford relations, so they hold for any representation of the system.

Projection onto M+ is Gauss-Newton on c: with Jacobian rows
(2x, 2 P_0 x, ..., 2 P_m x),

    x  <-  x - J^T (J J^T)^{-1} c(x).

At a feasible point the rows are orthogonal with squared norm 4, so
J J^T = 4 I and the normal equations stay perfectly conditioned; this is
asserted on every converged point.  Each returned point is certified
against fixed thresholds, never trusted from convergence alone.

Sampling draws one block of Gaussian rows per attempt round from the
sub-seed of that attempt, one row per point, and maps each row onto M+
through the eigenspaces of P_0, so the result list has a fixed order and a
point's start does not depend on the other points.  Each attempt round
projects the starts of every point still missing as one masked
Gauss-Newton sweep over a stack of rows; a start that the map put on M+
is certified as it is, and a row's iterates are bit for bit those of a
projection on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .clifford import CliffordSystem
from .errors import (CertificationError, ConvergenceError, SamplingError,
                     SingularityError)
from .records import fold

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
    return px, g, _dot(x, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_k, b_k> for the rows of two (K, d) stacks, each with the rounding
    of the one-point a_k @ b_k (see _rows)."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _verdicts(x: np.ndarray, g: np.ndarray, xx: np.ndarray,
              iterations: int) -> list:
    """Each row of x, with its constraint values g and |x|^2, certified:
    its FocalPoint, or the CertificationError that rejects it.

    The thresholds of certify are applied to the whole stack at once; a
    residual passes when it is <= its threshold, so NaN fails.
    """
    res_c = fold(np.abs(g), axis=1)
    res_s = np.abs(xx - 1.0)
    value_gap = np.abs(xx * xx - 2.0 * _dot(g, g) - 1.0)
    passed = ((res_c <= CONSTRAINT_TOL) & (res_s <= SPHERE_TOL)
              & (value_gap <= VALUE_TOL))
    out = []
    for xi, c, s, v, ok in zip(x, res_c.tolist(), res_s.tolist(),
                               value_gap.tolist(), passed):
        if ok:
            out.append(FocalPoint(x=xi, residual_constraints=c,
                                  residual_sphere=s, iterations=iterations))
        else:
            out.append(CertificationError(
                f"point failed certification: constraints {c:.3e} "
                f"(tol {CONSTRAINT_TOL:.1e}), sphere {s:.3e} "
                f"(tol {SPHERE_TOL:.1e}), value gap {v:.3e} "
                f"(tol {VALUE_TOL:.1e})",
                residual_constraints=c, residual_sphere=s))
    return out


def certify(system: CliffordSystem, x: np.ndarray,
            iterations: int = 0) -> FocalPoint:
    """Wrap x as a FocalPoint or raise CertificationError.

    Checks max |g_a| <= 1e-10, | |x|^2 - 1 | <= 1e-12 and |F(x) - 1| <= 1e-9,
    under the keys of the report's points block.
    """
    x = np.asarray(x, dtype=float)
    _, g, xx = _rows(system, x[None])
    (result,) = _verdicts(x[None], g, xx, iterations)
    if isinstance(result, CertificationError):
        raise result
    return result


def _eigenparts(system: CliffordSystem, z: np.ndarray):
    """(I + P_0) z / 2 and (I - P_0) z / 2 for the rows of a (K, 2l) stack:
    the components of each row in the +1 and -1 eigenspaces of P_0."""
    p0z = np.matmul(system.stack[0], z[..., None])[..., 0]
    return 0.5 * (z + p0z), 0.5 * (z - p0z)


def _reduce(system: CliffordSystem, u: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """v - sum_{a>=1} <v, P_a u> P_a u for the rows of two (K, 2l) stacks.

    For a unit u in E+, the P_a u (a >= 1) are orthonormal vectors of E-,
    so a v in E- loses exactly its components along them.
    """
    pu = np.matmul(system.stack[1:], u[:, None, :, None])[..., 0]
    c = np.matmul(pu, v[..., None])
    return v - np.matmul(c.transpose(0, 2, 1), pu)[:, 0]


def _onto_focal(system: CliffordSystem, z: np.ndarray) -> np.ndarray:
    """Each row z of a (K, 2l) stack mapped to (u + w) / sqrt(2) on M+.

    u is the unit E+ part of z, w the unit part of its E- part that is
    orthogonal to P_1 u, ..., P_m u; then |x|^2 = 1, g_0 = (|u|^2 - |w|^2)/2
    and g_a = <P_a u, w> all vanish.  A row whose E+ part or reduced E- part
    is shorter than 1e-12 |z| has no such image and is returned as it is.
    Every product is a stacked matrix-vector form, so a row's image does not
    depend on the other rows.
    """
    x = z
    # The map fixes M+, so a second pass moves a mapped row only by
    # rounding: like Gram-Schmidt done twice, it removes the error that the
    # first pass amplifies when E+ or the reduced E- part of z is short.
    for _ in range(2):
        plus, minus = _eigenparts(system, x)
        floor = 1e-12 * np.sqrt(_dot(x, x))
        norm_u = np.sqrt(_dot(plus, plus))
        ok = norm_u > floor
        u = plus / np.where(ok, norm_u, 1.0)[:, None]
        w = _reduce(system, u, minus)
        norm_w = np.sqrt(_dot(w, w))
        ok &= norm_w > floor
        x = np.where(ok[:, None],
                     (u + w / np.where(ok, norm_w, 1.0)[:, None])
                     / np.sqrt(2.0), x)
    return x


def _first_unit(rows: np.ndarray) -> np.ndarray:
    """The first row of norm above 1e-6, normalized."""
    norms = np.sqrt(_dot(rows, rows))
    found = np.flatnonzero(norms > 1e-6)
    if not found.size:
        raise CertificationError(
            "no seed point: every candidate row is shorter than 1e-6")
    return rows[found[0]] / norms[found[0]]


def deterministic_seed(system: CliffordSystem) -> FocalPoint:
    """A fixed, RNG-free point of M+, built from the eigenspaces of P_0.

    u is the first (I + P_0) e_j / 2 of norm above 1e-6, normalized; w is
    the first (I - P_0) e_k / 2 with its components along P_1 u, ..., P_m u
    removed whose norm is above 1e-6, normalized.  Then x = (u + w) / sqrt(2)
    lies on M+ by the Clifford relations alone (see _onto_focal).  For
    integer systems u and w are signed basis vectors, so
    x = (+-e_j +- e_k) / sqrt(2) and its residuals come only from the
    rounding of 1/sqrt(2).
    """
    eye = np.eye(system.ambient_dim)
    plus, minus = _eigenparts(system, eye)
    u = _first_unit(plus)
    w = _first_unit(_reduce(system, np.broadcast_to(u, eye.shape), minus))
    return certify(system, (u + w) / np.sqrt(2.0))


def _residual(g: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """max(max_a |g_a|, | |x|^2 - 1 |) per row, the stopping test."""
    return np.maximum(np.max(np.abs(g), axis=1), np.abs(xx - 1.0))


def _jacobian(x: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Constraint Jacobians 2 (x, P_0 x, ..., P_m x) as (K, m+2, 2l)."""
    return 2.0 * np.concatenate([x[:, None, :], px], axis=1)


def _condition(sym: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of symmetric matrices.

    Their singular values are the moduli of their eigenvalues, so
    max |lambda| / min |lambda| from eigvalsh equals np.linalg.cond without
    its SVD; a singular matrix gives inf.
    """
    lam = np.abs(np.linalg.eigvalsh(sym))
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam.max(axis=-1) / lam.min(axis=-1)


def _settle(out: list, rows, x, px, g, xx, iterations: int) -> None:
    """Certify the converged rows and store each verdict at out[row]."""
    jac = _jacobian(x, px)
    dev = np.max(np.abs(jac @ jac.transpose(0, 2, 1) / 4.0
                        - np.eye(jac.shape[1])), axis=(1, 2))
    for i, verdict, devi in zip(rows, _verdicts(x, g, xx, iterations), dev):
        # At a feasible point J J^T = 4 I; anything else means the run is
        # broken.
        if devi > 1e-6:
            out[i] = SingularityError(
                f"normal equations deviate from 4I by {devi:.3e} at a "
                "converged point; projection result rejected")
        else:
            out[i] = verdict


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
    if not np.all(np.sqrt(xx) >= 1e-12):
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
        cond = _condition(jjt)
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
    """n certified points from independent Gaussian rows mapped onto M+.

    Attempt a draws one (n, 2l) Gaussian block from the sub-seed
    (seed, spawn_key=(a,)), and point i takes row i of it, mapped onto M+
    through the eigenspaces of P_0 (a row without an image keeps its raw
    value).  Failed projections retry with the next attempt's row, up to 10
    retries per point, so a point's start depends only on i and its own
    retry count, never on n or on which other points failed.  Each attempt
    round projects the starts of all points still missing in one sweep,
    which gives every point the iterates of project_to_focal: a start the
    map put on M+ is certified as it is, with zero iterations, and
    Gauss-Newton moves only the rest.
    """
    if n < 1:
        raise ValueError("n must be positive")
    entropy = int(seed) & _SEED_MASK
    points = [None] * n
    failures = np.zeros(n, dtype=int)
    pending = np.arange(n)
    for attempt in range(_MAX_RETRIES + 1):
        if not pending.size:
            break
        rng = default_rng(SeedSequence(entropy, spawn_key=(attempt,)))
        starts = _onto_focal(
            system, rng.standard_normal((n, system.ambient_dim))[pending])
        results = _project(system, starts, _GN_TOL, _GN_MAX_ITER)
        for i, result in zip(pending, results):
            if isinstance(result, FocalPoint):
                points[i] = result
            else:
                failures[i] += 1
        # a point still missing has failed every attempt so far
        pending = pending[failures[pending] > attempt]
    if pending.size:
        i = int(pending[0])
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
