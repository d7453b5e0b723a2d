"""Extrinsic geometry of M+ inside the unit sphere.

Conventions at a point x of M+:

  * normal frame: xi_a = P_a x, a = 0..m (orthonormal by the relations);
  * tangent frame: deterministic orthonormal complement of {x, xi_0..xi_m};
  * shape operators: A_a X = -(P_a X)^tangential, i.e. in frame coordinates
    (A_a)_{ij} = -<P_a e_i, e_j>, which is also the second fundamental form
    component h^a_{ij};
  * Ricci form of the induced metric (closed form), as the matrix
      Ric_closed = 2 (l - m - 2) I + 2 Q^T Q, where the rows of Q are the
      pair vectors P_a P_b x, a < b, in tangent coordinates, so that
      X^T Ric_closed X = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2;
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
from .records import Record

__all__ = [
    "AdaptedFrame",
    "ShapeData",
    "build_frame",
    "pair_products",
    "shape_operators",
]


@dataclass(frozen=True)
class AdaptedFrame(Record):
    """Orthonormal splittings R^{2l} = <x> + normal + tangent at P points.

    `x` holds the points as rows (P, 2l); the normal space of a point is
    spanned by the m + 1 vectors P_a x (system.apply(x)), which no field
    repeats.  `tangent` (P, 2l, n) has the n = 2l - m - 2 tangent vectors
    of each point as columns, and `operators` (P, m+1, n, n) the shape
    operators A_a = -T^T P_a T in that basis.  `pair_coords`
    (P, m+1, m+1, 2l) holds the pair products P_a P_b x in the basis
    [x | P_0 x .. P_m x | T]: m + 2 x and normal components, then n tangent
    coordinates.  `closed_ricci` (P, n, n) is the closed-form Ricci matrix
    in the tangent basis, formed from those; the Ricci cross-check, the
    Willmore balance and the Einstein probe read it.
    """

    x: np.ndarray
    tangent: np.ndarray
    operators: np.ndarray
    pair_coords: np.ndarray
    closed_ricci: np.ndarray


def build_frame(system: CliffordSystem, x) -> AdaptedFrame:
    """Deterministic adapted frames at the certified points, the rows of a
    (P, 2l) array x, or at the one point x of shape (2l,); any other shape
    raises ValueError naming it.

    The tangent basis comes from the complete Householder QR of the
    2l x (m + 2) block [x | P_0 x .. P_m x]: the trailing 2l - (m + 2)
    columns of Q are an orthonormal basis of the orthogonal complement of
    that block.  Nothing here judges the frames: the deviation of
    [x | P_0 x .. P_m x | T] from orthonormal is, to rounding, the larger
    of a point's sphere and constraint residuals (docs/derivations.md
    section 4), which the points block holds before any frame is built.
    A point with a non-finite coordinate raises ValueError before any
    product.  P_a x is formed once, for the QR block and the pairs, which
    one product reads in the frame; one stacked QR serves all points, and
    a frame does not depend on the others.  The record takes over the
    arrays it forms; x and the tangent slice of Q are views, so it copies
    them.  The closed-form Ricci matrix needs l >= m + 2.  The stage is
    float64, np.linalg's only float: a wider system's QR raises TypeError.
    """
    if system.l < system.m + 2:
        raise ValueError("closed-form Ricci needs l >= m + 2")
    n = system.ambient_dim
    codim = system.m + 1
    x = np.asarray(x, dtype=float)
    if x.ndim > 2 or x.shape[-1:] != (n,):
        raise ValueError(f"point shape {x.shape} is not ({n},) or (P, {n})")
    x = x.reshape(-1, n)
    bad = np.flatnonzero(~np.logical_and.reduce(np.isfinite(x), axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]}: non-finite coordinates")
    px = system.apply(x)
    lead = np.concatenate([x[:, :, None], px.transpose(0, 2, 1)], axis=2)
    q, _ = np.linalg.qr(lead, mode="complete")
    tangent = q[:, :, codim + 1:]
    full = np.concatenate([lead, tangent], axis=2)
    operators = _tangent_forms(system, tangent)
    np.negative(operators, out=operators)
    pair_coords = pair_products(system, px) @ full[:, None]
    idx_a, idx_b = _upper_pairs(codim)
    rows = pair_coords[:, idx_a, idx_b, codim + 1:]  # Q, (P, m(m+1)/2, n)
    closed_ricci = (2.0 * (system.l - system.m - 2) * np.eye(tangent.shape[2])
                    + 2.0 * (rows.transpose(0, 2, 1) @ rows))
    return AdaptedFrame(x=x, tangent=tangent, operators=operators,
                        pair_coords=pair_coords, closed_ricci=closed_ricci)


@dataclass(frozen=True)
class ShapeData(Record):
    """Shape operators and the scalars derived from them, at P points.

    `operators[p, a, i, j]` is both the shape operator A_a and the second
    fundamental form component h^a_{ij} in the tangent basis of point p.
    """

    operators: np.ndarray          # (P, m+1, n, n)
    sff_norm_sq: np.ndarray        # (P,), sum of squared h components
    trace_free_norm_sq: np.ndarray  # (P,), sff_norm_sq - n |H|^2
    mean_curvature: np.ndarray     # (P, m+1), components tr(A_a) / n
    ricci: np.ndarray              # (P, n, n)


def shape_operators(frame: AdaptedFrame) -> ShapeData:
    """The frame's shape operators A_a = -T^T P_a T, as the same array, and
    the scalars and the Ricci tensor derived from them."""
    ops = frame.operators
    n = ops.shape[2]
    traces = np.einsum("kapp->ka", ops)
    h_vec = traces / n
    s = np.add.reduce(ops * ops, axis=(1, 2, 3))
    rho_sq = s - n * np.matmul(h_vec[:, None, :], h_vec[:, :, None])[:, 0, 0]
    sq = ops @ ops
    ricci = ((n - 1.0) * np.eye(n) + np.einsum("ka,kapq->kpq", traces, ops)
             - np.add.reduce(sq, axis=1))
    return ShapeData(operators=ops, sff_norm_sq=s, trace_free_norm_sq=rho_sq,
                     mean_curvature=h_vec, ricci=ricci)


def _tangent_forms(system: CliffordSystem, tangent: np.ndarray) -> np.ndarray:
    """T^T P_a T, (P, m+1, n, n), for the (P, 2l, n) tangent bases T, one
    generator at a time: broadcasting them all holds (P, m+1, 2l, n)."""
    out = np.empty((len(tangent), system.m + 1) + tangent.shape[2:] * 2,
                   system.matrices.dtype)
    for a, p_a in enumerate(system.matrices):
        np.matmul(tangent.transpose(0, 2, 1), p_a @ tangent, out=out[:, a])
    return out


def _upper_pairs(count: int, k: int = 1) -> tuple:
    """np.triu_indices(count, k): the index pairs (i, j) with j - i >= k in
    row-major order, the pairs a < b of the normals at k = 1, without the
    broadcast masks that make np.triu_indices cost tens of microseconds."""
    idx = np.arange(count)
    return (idx[:, None] + k <= idx).nonzero()


def pair_products(system: CliffordSystem, px: np.ndarray) -> np.ndarray:
    """P_a P_b x for all a, b, diagonal included, from the normals P_b x.

    `px` is system.apply(x): (m+1, 2l) for one point, which gives an
    (m+1, m+1, 2l) array, or (K, m+1, 2l) for a stack of points, which
    gives a (K, m+1, m+1, 2l) stack.
    """
    return np.matmul(px[..., None, :, :], system.matrices.transpose(0, 2, 1))
