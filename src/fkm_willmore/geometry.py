"""Extrinsic geometry of M+ inside the unit sphere.

Conventions at a point x of M+:

  * normal frame: xi_a = P_a x, a = 0..m (orthonormal by the relations);
  * tangent frame: deterministic orthonormal complement of {x, xi_0..xi_m};
  * shape operators: A_a X = -(P_a X)^tangential, i.e. in frame coordinates
    (A_a)_{ij} = -<P_a e_i, e_j>, which is also the second fundamental form
    component h^a_{ij};
  * sectional curvature of an orthonormal tangent pair (Gauss equation):
      K(X, Y) = 1 + sum_a ( <P_a X, X><P_a Y, Y> - <P_a X, Y>^2 );
  * Ricci quadratic form of a unit tangent X (closed form):
      Ric(X) = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2;
  * Ricci tensor from the shape operators (n = dim M+):
      R_ij = (n - 1) delta_ij + sum_a ( tr(A_a) (A_a)_ij - (A_a^2)_ij ).

The closed Ricci form and the operator form are independent routes to the
same object; keeping both is the point, so neither is ever rewritten in
terms of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordSystem
from .errors import FrameError
from .focal import FocalPoint

__all__ = [
    "AdaptedFrame",
    "FRAME_GRAM_TOL",
    "ShapeData",
    "build_frame",
    "pair_products",
    "ricci_quadratic",
    "sectional_curvature",
    "sectional_curvature_from_shape",
    "shape_operators",
]

FRAME_GRAM_TOL = 1e-8
_TANGENCY_TOL = 1e-8
_UNIT_TOL = 1e-10


def _many(item, kind) -> tuple:
    """(True, [item]) for one `kind`, (False, list(item)) for a sequence."""
    return (True, [item]) if isinstance(item, kind) else (False, list(item))


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal splitting R^{2l} = <x> + normal + tangent at a focal point.

    `tangent` has the n = 2l - m - 2 tangent vectors as columns, `normal`
    the m + 1 vectors P_a x as columns (exactly, by construction).  `pairs`
    holds the pair products P_a P_b x as an (m+1, m+1, 2l) array, formed
    once per point for the closed-form Ricci and the Willmore chain.
    """

    point: FocalPoint
    tangent: np.ndarray
    normal: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        for name in ("tangent", "normal", "pairs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def x(self) -> np.ndarray:
        return self.point.x

    @property
    def tangent_dim(self) -> int:
        return self.tangent.shape[1]

    @property
    def codim(self) -> int:
        return self.normal.shape[1]


def build_frame(system: CliffordSystem, point):
    """Deterministic adapted frame at a certified point.

    The tangent basis comes from Householder QR of [x | P_0 x .. P_m x | I]:
    the trailing 2l - (m + 2) columns of Q are an orthonormal basis of the
    orthogonal complement of the leading block.  The assembled frame must
    reproduce the identity Gram matrix within 1e-8, else FrameError.
    `point` is one FocalPoint, or a sequence of them, which gives a list of
    frames from one stacked QR; a frame does not depend on the others.
    """
    single, points = _many(point, FocalPoint)
    n = system.ambient_dim
    codim = system.m + 1
    x = np.array([p.x for p in points]).reshape(-1, n)
    normal = system.apply(x).transpose(0, 2, 1)     # columns xi_a = P_a x
    lead = np.concatenate([x[:, :, None], normal], axis=2)
    eye = np.broadcast_to(np.eye(n), (len(x), n, n))
    q, _ = np.linalg.qr(np.concatenate([lead, eye], axis=2))
    tangent = q[:, :, codim + 1:]
    full = np.concatenate([lead, tangent], axis=2)
    gram_dev = np.max(np.abs(full.transpose(0, 2, 1) @ full - np.eye(n)),
                      axis=(1, 2))
    bad = np.flatnonzero(gram_dev > FRAME_GRAM_TOL)
    if bad.size:
        where = "" if single else f"point {bad[0]}: "
        raise FrameError(
            f"{where}adapted frame failed completeness: Gram deviation "
            f"{gram_dev[bad[0]]:.3e} (tol {FRAME_GRAM_TOL:.1e})")
    pairs = pair_products(system, x)
    frames = [AdaptedFrame(point=p, tangent=t, normal=nv, pairs=pp)
              for p, t, nv, pp in zip(points, tangent, normal, pairs)]
    return frames[0] if single else frames


@dataclass(frozen=True)
class ShapeData:
    """Shape operators and the scalars derived from them.

    `operators[a][i, j]` is both the shape operator A_a and the second
    fundamental form component h^a_{ij} in the frame's tangent basis.
    """

    operators: np.ndarray          # (m+1, n, n)
    sff_norm_sq: float             # sum of squared h components
    trace_free_norm_sq: float      # sff_norm_sq - n |H|^2
    mean_curvature: np.ndarray     # (m+1,), components tr(A_a) / n
    ricci: np.ndarray              # (n, n)

    def __post_init__(self):
        for name in ("operators", "mean_curvature", "ricci"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def shape_operators(system: CliffordSystem, frame):
    """All shape operators at the frame's point, plus derived scalars.

    `frame` is one AdaptedFrame, or a sequence of them, which gives a list
    of ShapeData from one stacked contraction.
    """
    single, frames = _many(frame, AdaptedFrame)
    t = np.array([f.tangent for f in frames])
    ops = -np.einsum("kip,aij,kjq->kapq", t, system.stack, t)
    n = t.shape[2]
    traces = np.einsum("kapp->ka", ops)
    h_vec = traces / n
    s = np.sum(ops * ops, axis=(1, 2, 3))
    rho_sq = s - n * np.matmul(h_vec[:, None, :], h_vec[:, :, None])[:, 0, 0]
    sq = np.einsum("kapq,kaqr->kapr", ops, ops)
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("ka,kapq->kpq", traces, ops) - np.sum(sq, axis=1))
    shapes = [ShapeData(operators=o, sff_norm_sq=float(si),
                        trace_free_norm_sq=float(ri), mean_curvature=h,
                        ricci=r)
              for o, si, ri, h, r in zip(ops, s, rho_sq, h_vec, ricci)]
    return shapes[0] if single else shapes


def _tangency_residual(frames: list, cols: np.ndarray) -> np.ndarray:
    """Norm of the components along x and the normals P_a x of every column
    of a (P, 2l, K) stack, block p taken at frames[p]; shape (P, K)."""
    x = np.array([f.x for f in frames])
    normal = np.array([f.normal for f in frames])
    parts = np.concatenate([x[:, None, :] @ cols,
                            normal.transpose(0, 2, 1) @ cols], axis=1)
    return np.linalg.norm(parts, axis=1)


def sectional_curvature(system: CliffordSystem, frame: AdaptedFrame,
                        X, Y) -> float:
    """K(X, Y) for an orthonormal tangent pair, directly from the P_a."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if (abs(float(np.linalg.norm(X)) - 1.0) > _UNIT_TOL
            or abs(float(np.linalg.norm(Y)) - 1.0) > _UNIT_TOL
            or abs(float(X @ Y)) > _UNIT_TOL):
        raise ValueError("sectional curvature needs an orthonormal pair")
    if np.any(_tangency_residual([frame], np.stack([X, Y], axis=1)[None])
              > _TANGENCY_TOL):
        raise ValueError("sectional curvature needs tangent vectors")
    px = system.stack @ X
    py = system.stack @ Y
    return 1.0 + float((px @ X) @ (py @ Y) - (px @ Y) @ (px @ Y))


def sectional_curvature_from_shape(frame: AdaptedFrame, shape: ShapeData,
                                   X, Y) -> float:
    """Same quantity through the shape operators (Gauss equation route)."""
    p = frame.tangent.T @ np.asarray(X, dtype=float)
    q = frame.tangent.T @ np.asarray(Y, dtype=float)
    ap = shape.operators @ p
    aq = shape.operators @ q
    return 1.0 + float((ap @ p) @ (aq @ q) - (ap @ q) @ (ap @ q))


def pair_products(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """P_a P_b x for all a, b as one (m+1, m+1, 2l) array, diagonal included.

    `x` is one point (2l,) or a (K, 2l) stack of points, which gives a
    (K, m+1, m+1, 2l) stack.
    """
    return np.einsum("aij,...bj->...abi", system.stack, system.apply(x))


def ricci_quadratic(system: CliffordSystem, frame, X):
    """Ric(X) = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2 for unit tangent X.

    X is one vector, or a (2l, K) block with one unit tangent per column;
    a block gives the K values as an array, and the unit and tangency
    checks run on every column.  `frame` may also be a sequence of P
    frames, with X a (P, 2l, K) stack of blocks, one per frame; that gives
    a (P, K) array.  The closed form needs codimension headroom
    l >= m + 2; admissible systems always have it, the check is defensive.
    """
    if system.l < system.m + 2:
        raise ValueError("closed-form Ricci needs l >= m + 2")
    single, frames = _many(frame, AdaptedFrame)
    X = np.asarray(X, dtype=float)
    dim = system.ambient_dim
    if single:
        if X.ndim not in (1, 2) or X.shape[0] != dim:
            raise ValueError(
                f"tangent shape {X.shape} is neither ({dim},) nor ({dim}, K)")
        cols = X.reshape(1, dim, -1)
    else:
        if X.ndim != 3 or X.shape[:2] != (len(frames), dim):
            raise ValueError(f"tangent shape {X.shape} != "
                             f"({len(frames)}, {dim}, K)")
        cols = X

    def column(p, k):
        return f"column {k}" if single else f"point {p}, column {k}"

    unit_gap = np.abs(np.linalg.norm(cols, axis=1) - 1.0)
    bad = np.argwhere(unit_gap > _UNIT_TOL)
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs unit vectors ({column(*bad[0])} "
            f"has norm deviation {unit_gap[tuple(bad[0])]:.3e})")
    tangency = _tangency_residual(frames, cols)
    bad = np.argwhere(tangency > _TANGENCY_TOL)
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs tangent vectors ({column(*bad[0])} "
            f"has residual {tangency[tuple(bad[0])]:.3e})")
    idx_a, idx_b = np.triu_indices(system.m + 1, k=1)
    pairs = np.array([f.pairs[idx_a, idx_b] for f in frames])
    proj = pairs @ cols
    values = 2.0 * (system.l - system.m - 2) + 2.0 * np.sum(proj * proj,
                                                            axis=1)
    if not single:
        return values
    return float(values[0, 0]) if X.ndim == 1 else values[0]
