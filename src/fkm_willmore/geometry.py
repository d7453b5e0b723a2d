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

from dataclasses import dataclass, fields

import numpy as np

from .clifford import CliffordSystem
from .errors import FrameError

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
    "take",
]

FRAME_GRAM_TOL = 1e-8
_TANGENCY_TOL = 1e-8
_UNIT_TOL = 1e-10


def _freeze(record, names=()) -> None:
    """Store the fields `names` (all by default) as read-only arrays."""
    for name in names or [f.name for f in fields(record)]:
        arr = np.array(getattr(record, name), dtype=float)
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def take(block, rows):
    """The points `rows` (a slice or an index array) of a stacked
    AdaptedFrame or ShapeData, as a record of the same type."""
    return type(block)(**{f.name: getattr(block, f.name)[rows]
                          for f in fields(block)})


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal splittings R^{2l} = <x> + normal + tangent at P points.

    `x` holds the points as rows (P, 2l).  `tangent` (P, 2l, n) has the
    n = 2l - m - 2 tangent vectors of each point as columns, `normal`
    (P, 2l, m+1) the m + 1 vectors P_a x as columns (exactly, by
    construction).  `pairs` holds the pair products P_a P_b x as a
    (P, m+1, m+1, 2l) array, formed once per point for the closed-form
    Ricci and the Willmore chain.
    """

    x: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        _freeze(self)


def build_frame(system: CliffordSystem, points) -> AdaptedFrame:
    """Deterministic adapted frames at a sequence of certified points.

    The tangent basis comes from the complete Householder QR of the
    2l x (m + 2) block [x | P_0 x .. P_m x]: the trailing 2l - (m + 2)
    columns of Q are an orthonormal basis of the orthogonal complement of
    that block.  Every assembled frame must reproduce the identity Gram
    matrix within 1e-8, else FrameError naming the first point that fails.
    One stacked QR serves all points; a frame does not depend on the
    others.
    """
    n = system.ambient_dim
    codim = system.m + 1
    x = np.array([p.x for p in points]).reshape(-1, n)
    normal = system.apply(x).transpose(0, 2, 1)     # columns xi_a = P_a x
    lead = np.concatenate([x[:, :, None], normal], axis=2)
    q, _ = np.linalg.qr(lead, mode="complete")
    tangent = q[:, :, codim + 1:]
    full = np.concatenate([lead, tangent], axis=2)
    gram_dev = np.max(np.abs(full.transpose(0, 2, 1) @ full - np.eye(n)),
                      axis=(1, 2))
    bad = np.flatnonzero(~(gram_dev <= FRAME_GRAM_TOL))
    if bad.size:
        raise FrameError(
            f"point {bad[0]}: adapted frame failed completeness: Gram "
            f"deviation {gram_dev[bad[0]]:.3e} (tol {FRAME_GRAM_TOL:.1e})")
    return AdaptedFrame(x=x, tangent=tangent, normal=normal,
                        pairs=pair_products(system, x))


@dataclass(frozen=True)
class ShapeData:
    """Shape operators and the scalars derived from them, at P points.

    `operators[p, a, i, j]` is both the shape operator A_a and the second
    fundamental form component h^a_{ij} in the tangent basis of point p.
    """

    operators: np.ndarray          # (P, m+1, n, n)
    sff_norm_sq: np.ndarray        # (P,), sum of squared h components
    trace_free_norm_sq: np.ndarray  # (P,), sff_norm_sq - n |H|^2
    mean_curvature: np.ndarray     # (P, m+1), components tr(A_a) / n
    ricci: np.ndarray              # (P, n, n)

    def __post_init__(self):
        _freeze(self)


def shape_operators(system: CliffordSystem,
                    frame: AdaptedFrame) -> ShapeData:
    """All shape operators A_a = -T^T P_a T at the frame's points, plus
    derived scalars."""
    t = frame.tangent
    tt = t.transpose(0, 2, 1)
    # one generator at a time: broadcasting them all holds (P, m+1, 2l, n)
    ops = -np.stack([tt @ (p_a @ t) for p_a in system.stack], axis=1)
    n = t.shape[2]
    traces = np.einsum("kapp->ka", ops)
    h_vec = traces / n
    s = np.sum(ops * ops, axis=(1, 2, 3))
    rho_sq = s - n * np.matmul(h_vec[:, None, :], h_vec[:, :, None])[:, 0, 0]
    sq = ops @ ops
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("ka,kapq->kpq", traces, ops) - np.sum(sq, axis=1))
    return ShapeData(operators=ops, sff_norm_sq=s, trace_free_norm_sq=rho_sq,
                     mean_curvature=h_vec, ricci=ricci)


def _tangency_residual(frame: AdaptedFrame, cols: np.ndarray) -> np.ndarray:
    """Norm of the components along x and the normals P_a x of every column
    of a (P, 2l, K) stack, block p taken at point p; shape (P, K)."""
    parts = np.concatenate([frame.x[:, None, :] @ cols,
                            frame.normal.transpose(0, 2, 1) @ cols], axis=1)
    return np.linalg.norm(parts, axis=1)


def sectional_curvature(system: CliffordSystem, frame: AdaptedFrame,
                        X, Y) -> np.ndarray:
    """K(X_p, Y_p) for an orthonormal tangent pair at every point p,
    directly from the P_a; X and Y are (P, 2l), the result (P,)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gap = np.maximum.reduce([np.abs(np.linalg.norm(X, axis=1) - 1.0),
                             np.abs(np.linalg.norm(Y, axis=1) - 1.0),
                             np.abs(np.sum(X * Y, axis=1))])
    if not np.all(gap <= _UNIT_TOL):
        raise ValueError("sectional curvature needs an orthonormal pair")
    if not np.all(_tangency_residual(frame, np.stack([X, Y], axis=2))
                  <= _TANGENCY_TOL):
        raise ValueError("sectional curvature needs tangent vectors")
    px = system.apply(X)
    py = system.apply(Y)
    xy = np.sum(px * Y[:, None], axis=2)
    return 1.0 + np.sum(np.sum(px * X[:, None], axis=2)
                        * np.sum(py * Y[:, None], axis=2) - xy * xy, axis=1)


def sectional_curvature_from_shape(frame: AdaptedFrame, shape: ShapeData,
                                   X, Y) -> np.ndarray:
    """Same quantity through the shape operators (Gauss equation route)."""
    def form(u, v):                 # <A_a u, v> for every point and a
        return np.einsum("kapq,kp,kq->ka", shape.operators, u, v)

    p = np.einsum("kip,ki->kp", frame.tangent, np.asarray(X, dtype=float))
    q = np.einsum("kip,ki->kp", frame.tangent, np.asarray(Y, dtype=float))
    return 1.0 + np.sum(form(p, p) * form(q, q) - form(p, q) ** 2, axis=1)


def pair_products(system: CliffordSystem, x: np.ndarray) -> np.ndarray:
    """P_a P_b x for all a, b as one (m+1, m+1, 2l) array, diagonal included.

    `x` is one point (2l,) or a (K, 2l) stack of points, which gives a
    (K, m+1, m+1, 2l) stack.
    """
    return np.einsum("aij,...bj->...abi", system.stack, system.apply(x))


def ricci_quadratic(system: CliffordSystem, frame: AdaptedFrame,
                    X) -> np.ndarray:
    """Ric(X) = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2 for unit tangent X.

    X is a (P, 2l, K) stack with K unit tangents of point p as the columns
    of X[p]; gives the (P, K) values.  The unit and tangency checks run on
    every column.  The closed form needs codimension headroom l >= m + 2;
    admissible systems always have it, the check is defensive.
    """
    if system.l < system.m + 2:
        raise ValueError("closed-form Ricci needs l >= m + 2")
    cols = np.asarray(X, dtype=float)
    shape = (len(frame.x), system.ambient_dim)
    if cols.ndim != 3 or cols.shape[:2] != shape:
        raise ValueError(f"tangent shape {cols.shape} != ({shape[0]}, "
                         f"{shape[1]}, K)")
    unit_gap = np.abs(np.linalg.norm(cols, axis=1) - 1.0)
    bad = np.argwhere(~(unit_gap <= _UNIT_TOL))
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs unit vectors (point {bad[0][0]}, "
            f"column {bad[0][1]} has norm deviation "
            f"{unit_gap[tuple(bad[0])]:.3e})")
    tangency = _tangency_residual(frame, cols)
    bad = np.argwhere(~(tangency <= _TANGENCY_TOL))
    if bad.size:
        raise ValueError(
            f"Ricci quadratic form needs tangent vectors (point {bad[0][0]}, "
            f"column {bad[0][1]} has residual "
            f"{tangency[tuple(bad[0])]:.3e})")
    idx_a, idx_b = np.triu_indices(system.m + 1, k=1)
    proj = frame.pairs[:, idx_a, idx_b] @ cols
    return 2.0 * (system.l - system.m - 2) + 2.0 * np.sum(proj * proj,
                                                          axis=1)
