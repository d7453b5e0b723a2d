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
    "mean_curvature",
    "pair_products",
    "ricci_quadratic",
    "ricci_tensor",
    "second_fundamental_norm",
    "sectional_curvature",
    "sectional_curvature_from_shape",
    "shape_operators",
]

FRAME_GRAM_TOL = 1e-8
_TANGENCY_TOL = 1e-8
_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal splitting R^{2l} = <x> + normal + tangent at a focal point.

    `tangent` has the n = 2l - m - 2 tangent vectors as columns, `normal`
    the m + 1 vectors P_a x as columns (exactly, by construction).
    """

    point: FocalPoint
    tangent: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("tangent", "normal"):
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


def build_frame(system: CliffordSystem, point: FocalPoint) -> AdaptedFrame:
    """Deterministic adapted frame at a certified point.

    The tangent basis comes from Householder QR of [x | P_0 x .. P_m x | I]:
    the trailing 2l - (m + 2) columns of Q are an orthonormal basis of the
    orthogonal complement of the leading block.  The assembled frame must
    reproduce the identity Gram matrix within 1e-8, else FrameError.
    """
    x = point.x
    n = system.ambient_dim
    codim = system.m + 1
    normal = (system.stack @ x).T                    # columns xi_a = P_a x
    lead = np.hstack([x[:, None], normal])
    q, _ = np.linalg.qr(np.hstack([lead, np.eye(n)]))
    tangent = q[:, codim + 1:]
    full = np.hstack([lead, tangent])
    gram_dev = float(np.max(np.abs(full.T @ full - np.eye(n))))
    if gram_dev > FRAME_GRAM_TOL:
        raise FrameError(
            f"adapted frame failed completeness: Gram deviation {gram_dev:.3e} "
            f"(tol {FRAME_GRAM_TOL:.1e})")
    return AdaptedFrame(point=point, tangent=tangent, normal=normal)


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


def shape_operators(system: CliffordSystem, frame: AdaptedFrame) -> ShapeData:
    """All shape operators at the frame's point, plus derived scalars."""
    t = frame.tangent
    ops = -np.einsum("ip,aij,jq->apq", t, system.stack, t)
    n = t.shape[1]
    traces = np.einsum("app->a", ops)
    h_vec = traces / n
    s = float(np.sum(ops * ops))
    rho_sq = s - n * float(h_vec @ h_vec)
    sq = np.einsum("apq,aqr->apr", ops, ops)
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("a,apq->pq", traces, ops) - np.sum(sq, axis=0))
    return ShapeData(operators=ops, sff_norm_sq=s, trace_free_norm_sq=rho_sq,
                     mean_curvature=h_vec, ricci=ricci)


def second_fundamental_norm(shape: ShapeData) -> float:
    """S = sum over a, i, j of (h^a_{ij})^2."""
    return float(np.sum(shape.operators * shape.operators))


def mean_curvature(shape: ShapeData) -> np.ndarray:
    """Mean curvature vector components H^a = tr(A_a) / n."""
    n = shape.operators.shape[1]
    return np.einsum("app->a", shape.operators) / n


def _tangency_residual(frame: AdaptedFrame, v: np.ndarray):
    """Norm of the components of v (or of each column of v) along x and the
    normals P_a x."""
    parts = np.concatenate(([v.T @ frame.x], (v.T @ frame.normal).T))
    return np.linalg.norm(parts, axis=0)


def sectional_curvature(system: CliffordSystem, frame: AdaptedFrame,
                        X, Y) -> float:
    """K(X, Y) for an orthonormal tangent pair, directly from the P_a."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if (abs(float(np.linalg.norm(X)) - 1.0) > _UNIT_TOL
            or abs(float(np.linalg.norm(Y)) - 1.0) > _UNIT_TOL
            or abs(float(X @ Y)) > _UNIT_TOL):
        raise ValueError("sectional curvature needs an orthonormal pair")
    if (_tangency_residual(frame, X) > _TANGENCY_TOL
            or _tangency_residual(frame, Y) > _TANGENCY_TOL):
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
    """P_a P_b x for all a, b as one (m+1, m+1, 2l) array, diagonal included."""
    px = system.stack @ x                          # (m+1, 2l)
    return np.einsum("aij,bj->abi", system.stack, px)


def ricci_quadratic(system: CliffordSystem, frame: AdaptedFrame, X):
    """Ric(X) = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2 for unit tangent X.

    X is one vector, or a (2l, K) block with one unit tangent per column;
    a block gives the K values as an array, and the unit and tangency
    checks run on every column.  The closed form needs codimension headroom
    l >= m + 2; admissible systems always have it, the check is defensive.
    """
    if system.l < system.m + 2:
        raise ValueError("closed-form Ricci needs l >= m + 2")
    X = np.asarray(X, dtype=float)
    dim = system.ambient_dim
    if X.ndim not in (1, 2) or X.shape[0] != dim:
        raise ValueError(
            f"tangent shape {X.shape} is neither ({dim},) nor ({dim}, K)")
    cols = X.reshape(X.shape[0], -1)
    unit_gap = np.abs(np.linalg.norm(cols, axis=0) - 1.0)
    bad = np.flatnonzero(unit_gap > _UNIT_TOL)
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs unit vectors (column {bad[0]} has "
            f"norm deviation {unit_gap[bad[0]]:.3e})")
    tangency = _tangency_residual(frame, cols)
    bad = np.flatnonzero(tangency > _TANGENCY_TOL)
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs tangent vectors (column {bad[0]} has "
            f"residual {tangency[bad[0]]:.3e})")
    idx_a, idx_b = np.triu_indices(system.m + 1, k=1)
    pairs = pair_products(system, frame.x)[idx_a, idx_b]
    proj = pairs @ cols
    values = 2.0 * (system.l - system.m - 2) + 2.0 * np.sum(proj * proj,
                                                            axis=0)
    return float(values[0]) if X.ndim == 1 else values


def ricci_tensor(system: CliffordSystem, frame: AdaptedFrame) -> np.ndarray:
    """Ricci tensor in the frame's tangent basis, via the shape operators."""
    return shape_operators(system, frame).ricci
