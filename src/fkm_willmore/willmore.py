"""Certification that M+ is Willmore, identity by identity.

M+ is minimal in the sphere, so the Willmore condition reduces to

    sum_ij R_ij h^a_ij = 0   for every normal index a,            (reduced)

with R the Ricci tensor and h the second fundamental form.  For a unit
normal xi = sum_a c_a P_a x, the shape operator A_xi has principal
curvatures 0, +1, -1 with multiplicities (m, l-m-1, l-m-1); writing v_i for
a T_{+1} basis and w_i for a T_{-1} basis, the verified chain is

    sum_ij R_ij h^xi_ij  =  sum_i Ric(v_i) - sum_i Ric(w_i)       (bridge)
                         =  sum_{a != b} ( |(P_a P_b x)^{T+1}|^2
                                         - |(P_a P_b x)^{T-1}|^2 )

so the reduced criterion is equivalent to a Ricci balance between the two
curved eigenspaces, and that balance to a projection balance of the pair
vectors P_a P_b x.  After rotating the system so that P'_0 x = xi, the
balance holds pair by pair; for m = 2, P'_0 U = 0 holds for the T_0
component U of P'_1 P'_2 x.  (For m > 2 the norm bookkeeping
2 = |U|^2 + |P'_0 U|^2 + 4 |W|^2 is the pair tangency and the pairwise
balance again, and is read as those.)  Each identity holds at one focal
point with one adapted frame; the report module sweeps points and normal
directions.  No eigenbasis is computed: on M+, A_xi^3 = A_xi, and the
lemma reads that and the traces of the spectral projectors
Pi_{+-1} = (A_xi^2 +- A_xi)/2, Pi_0 = I - A_xi^2 for every sampled normal.
Every other identity is read once per point for every normal and every
rotation at once: those linear in xi at the coordinate normals, and the
pairwise balance, the (0, b) leaks and |U| as tensors in the pair
vectors' tangent coordinates Z_cd = T^T P_c P_d x, whose worst entries
bound them at every normal (docs/derivations.md, section 9).  The
reflection P'_0 v = -v on T_{+1}, P'_0 w = w on T_{-1} reads, beyond
rounding and the pair leaks, only the gap A_a + T^T P_a T between the
operators under test and the system's own; linear in xi, it is read once
per point, and it is the one check of the operators' sign, as -A_a (the
normals -P_a x) pass every other identity.  certify_point evaluates the
chain over blocks of points and returns the worst residual of every
identity at every point, by the name of its report field, and the
lemma's deviation and multiplicities at every normal, which the report
holds to (m, l-m-1, l-m-1).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .clifford import CliffordSystem
from .geometry import AdaptedFrame, ShapeData, _tangent_forms, _upper_pairs
from .records import fold

__all__ = [
    "CLUSTER_RADIUS",
    "certify_point",
    "einstein_probe",
]

# Within this radius of max |A_xi^3 - A_xi| every eigenvalue of A_xi lies
# within 4 n / 3 times it of {0, +1, -1}, so the rounded traces of the
# spectral projectors are the multiplicities for n < 400; above it the
# lemma does not read them.
CLUSTER_RADIUS = 1e-6


# ---------------------------------------------------------------------------
# the chain: the lemma per normal, the pair identities per point
# ---------------------------------------------------------------------------
#
# The helpers below take a block of P points (leading axis P) and return
# one value per point, or per point and normal for the lemma; certify_point
# runs them once per block.  Each point (and each (point, normal) row of
# the lemma) is computed on its own, so its values do not depend on the
# other rows of the block.

# Bytes of intermediates the chain holds at a time; the shape of a block
# follows from the system (_block_points).
_BLOCK_BYTES = 1_200_000


def _block_points(system: CliffordSystem, num: int) -> tuple:
    """Points and normals per chain block for points with `num` normals
    each: as many whole points as fit _BLOCK_BYTES, or, when the lemma rows
    of one point alone exceed it, one point and its normals split evenly
    over the fewest blocks that fit (one normal a block at least).

    A (point, normal) row of the lemma holds A_xi, A_xi^2 and A_xi^3, which
    becomes |A_xi^3 - A_xi| in place, and its traces and counts: 4 n^2
    floats.  A point's pair tensors (_pair_tensors) run after the lemma of
    its block, which leaves only its maxima: the products Z_cd^T A_g and
    the leak sums, 2 (m+1)^3 n floats, the pair slices of the products,
    (m+1) p n with p = m(m+1)/2 pairs, K and its two gathers, about
    2 (m+1) p^2, and the operators side by side, (m+1) n^2; at m = 2 the
    |U| cubic and its symmetrization, 5 * 27 n.  A point takes the larger
    of its rows and its tensors.  At (m, k) = (6, 1) with 57 normals:
    106 KB of tensors and 117 KB of rows, so 10 points fit a block; at
    (9, 1), 0.77 MB of tensors and 60 rows of 14 KB, so a point with 60
    normals fits one."""
    m1 = system.m + 1
    n = system.ambient_dim - m1 - 1
    npairs = m1 * system.m // 2
    num = max(1, num)
    row = 8 * 4 * n * n
    tensors = 8 * m1 * (2 * m1 * m1 * n + npairs * n + 2 * npairs * npairs
                        + n * n)
    if system.m == 2:
        tensors += 8 * 5 * 27 * n
    point = max(tensors, row * num)
    if point <= _BLOCK_BYTES:
        return _BLOCK_BYTES // point, num
    blocks = -(-num // max(1, _BLOCK_BYTES // row))
    return 1, -(-num // blocks)


def _coefficient_rows(system: CliffordSystem, coeffs,
                      count: int) -> np.ndarray:
    """The normals' coefficient vectors as a (P, N, m+1) array of unit rows
    in the system's dtype, N of them for each of `count` points.  A row
    whose norm (the root of its sum of squares) is off 1 by more than
    1e-12, NaN included, raises ValueError naming its point and normal.
    Rows normalized in a narrower float pass, but carry its rounding."""
    m1 = system.m + 1
    c = np.asarray(coeffs, dtype=system.matrices.dtype)
    if c.ndim != 3 or c.shape[0] != count or c.shape[2] != m1:
        raise ValueError(f"coefficient shape {c.shape} != ({count}, N, {m1})")
    gap = np.abs(np.sqrt(np.add.reduce(c * c, axis=2)) - 1.0)
    bad = np.flatnonzero(~(gap <= 1e-12))
    if bad.size:
        p, k = divmod(int(bad[0]), c.shape[1])
        raise ValueError(f"point {p}, normal {k}: coefficients must form a "
                         f"unit vector (norm deviation {gap[p, k]:.3e})")
    return c


def _contractions(ricci: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_ij R_ij h^a_ij = tr(R A_a) for every point and normal index a,
    as (P, m+1), with R the tensor or the closed-form Ricci matrix."""
    return np.einsum("kpq,kapq->ka", ricci, ops)


def _at_normals(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a c_a X_a for every normal, (P, N, ...), from the (P, N, m+1)
    coefficients and a (P, m+1, ...) stack: A_xi from the shape
    operators."""
    return (coeffs @ stack.reshape(*stack.shape[:2], -1)).reshape(
        *coeffs.shape[:2], *stack.shape[2:])


def _lemma(ops: np.ndarray, coeffs: np.ndarray) -> tuple:
    """max |A_xi^3 - A_xi| for every A_xi = sum_a c_a A_a, (P, N), and the
    multiplicities read there, (P, N, 3): the traces of (I - A^2,
    (A^2 + A)/2, (A^2 - A)/2), the spectral projectors, rounded, which is
    exact within CLUSTER_RADIUS, and (0, 0, 0), no focal manifold's, above
    it.  A_xi, A_xi^2 and A_xi^3 are the only per-normal arrays of the
    chain."""
    n = ops.shape[2]
    a_xi = _at_normals(coeffs, ops)
    sq = a_xi @ a_xi
    tr_sq = sq.trace(axis1=2, axis2=3)
    tr_a = a_xi.trace(axis1=2, axis2=3)
    cube = sq @ a_xi
    cube -= a_xi
    deviation = np.maximum.reduce(np.abs(cube, out=cube), axis=(2, 3),
                                  initial=0.0)
    traces = np.empty(tr_sq.shape + (3,))
    traces[..., 0] = n - tr_sq
    traces[..., 1] = (tr_sq + tr_a) / 2.0
    traces[..., 2] = (tr_sq - tr_a) / 2.0
    return deviation, np.where((deviation <= CLUSTER_RADIUS)[..., None],
                               np.rint(traces), 0.0).astype(int)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The worst Euclidean norm along the last axis, per point (axis 0)."""
    sq = np.einsum("...i,...i->...", vectors, vectors)
    return np.sqrt(fold(sq.reshape(len(sq), -1), axis=1))


def _pair_tables(m1: int) -> tuple:
    """Index tables of the pairwise tensor for m + 1 = m1 generators.

    Returns the columns c m1 + d of the pairs (c, d), c < d, in
    np.triu_indices order, and three flat tables into K laid out as
    (pair (c, d), g, pair (e, f)): the entries K^g_{cd,ef} for every g and
    every row pair up to its column pair (the sum below is symmetric in
    the two pairs), then where K^g_{ed,cf} sits for each, and the product
    of the orientation signs of (e, d) and (c, f), 0 when e = d or c = f,
    since P_c P_c x = x has no tangent part."""
    ia, ib = _upper_pairs(m1)
    count = len(ia)
    index = np.zeros((m1, m1), dtype=int)
    index[ia, ib] = index[ib, ia] = np.arange(count)
    sign = np.zeros((m1, m1))
    sign[ia, ib], sign[ib, ia] = 1.0, -1.0
    row, col = _upper_pairs(count, 0)
    c, d, e, f = ia[row], ib[row], ia[col], ib[col]
    g = np.arange(m1)[:, None]
    return (ia * m1 + ib, ((row * m1 + g) * count + col).ravel(),
            ((index[e, d] * m1 + g) * count + index[c, f]).ravel(),
            (sign[e, d] * sign[c, f])[None].repeat(m1, axis=0).ravel())


def _pair_tensors(system: CliffordSystem, ops: np.ndarray,
                  pairs: np.ndarray, tables: tuple) -> tuple:
    """The pair identities of the chain as tensors, for every normal and
    every rotation to it at once, from the operators under test A_g
    (P, m+1, n, n), the tangent coordinates Z_cd = T^T P_c P_d x
    (P, m+1, m+1, n) of the pair vectors and _pair_tables(m + 1).

    Returns the aggregate 2 tr(A_a Q^T Q) at the coordinate normals,
    (P, m+1), and per point: the worst |K^g_{cd,ef} + K^g_{ed,cf}| over
    c < d, e < f and g, with K^g_{cd,ef} = Z_cd^T A_g Z_ef (the pairwise
    balance); the worst norm |A_g Z_cd + A_c Z_gd| (the leaks); and, for
    m = 2, the worst norm of the symmetrized cubic coefficients of
    (|xi|^2 I - A_xi^2) Z(*xi), the T_0 component of the curved pair
    (|U|), else 0.  Each worst entry bounds its identity at every unit
    normal within a factor in m (docs/derivations.md, section 9).
    """
    count, m1, n = len(ops), system.m + 1, ops.shape[2]
    cols, direct, swapped, sign = tables
    z = pairs.reshape(count, m1 * m1, n)
    # one product per point: the rows Z_cd^T A_g, laid out as (c, d, g, n)
    za = z @ ops.transpose(0, 2, 1, 3).reshape(count, n, m1 * n)
    zag = za.reshape(count, m1, m1, m1, n)
    leak = _norms(zag + zag.transpose(0, 3, 2, 1, 4))
    k = (za[:, cols].reshape(count, -1, n)
         @ z[:, cols].swapaxes(1, 2)).reshape(count, -1)
    summed = k[:, swapped]
    summed *= sign
    summed += k[:, direct]
    pairwise = fold(np.abs(summed, out=summed), axis=1)
    aggregate = 2.0 * np.einsum("kpgp->kg", k.reshape(count, len(cols), m1,
                                                      len(cols)))
    u = np.zeros(count)
    if system.m == 2:
        # Z(*xi) = sum_e xi_e W_e with W = (Z_12, Z_20, Z_01)
        w = pairs[:, [1, 2, 0], [2, 0, 1]]
        cubic = (np.eye(3)[:, :, None, None] * w[:, None, None]
                 - (w[:, None] @ ops)[:, None] @ ops[:, :, None])
        u = _norms(sum(cubic.transpose(0, *order, 4)
                       for order in permutations((1, 2, 3))) / 6.0)
    return aggregate, pairwise, leak, u


def _pair_tangency(system: CliffordSystem, frame: AdaptedFrame) -> np.ndarray:
    """max |<P_a P_b x, x>| and |<P_a P_b x, P_g x>|, a < b, per point, from
    the x and normal columns of the pair coordinates: the rotated pairs and
    normals are orthonormal images of these (Lambda^2 B, B), so this bounds
    theirs within a factor sqrt(m (m+1) (m+2) / 2)."""
    ia, ib = _upper_pairs(system.m + 1)
    return np.maximum.reduce(
        np.abs(frame.pair_coords[:, ia, ib, :system.m + 2]), axis=(1, 2),
        initial=0.0)


def _sign_gap(system: CliffordSystem, frame: AdaptedFrame,
              ops: np.ndarray) -> np.ndarray:
    """max_a |A_a + T^T P_a T| per point: the operators under test against
    the system's own, formed here from T and the P_a one generator at a
    time, by build_frame's product.  The gap is linear in xi, so its value
    at the m + 1 coordinate normals bounds it at every normal.  It is the
    one check of the operators' sign: -A_a are the operators of the
    system {-P_a}, with the same M+, pair vectors and Ricci forms.  The
    gap is formed in place in the stack of products."""
    own = _tangent_forms(system, frame.tangent)
    own += ops
    return fold(np.abs(own, out=own), axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# per-point aggregation
# ---------------------------------------------------------------------------

def certify_point(system: CliffordSystem, frame: AdaptedFrame,
                  shape: ShapeData, normal_coeffs) -> tuple:
    """Every check of the chain at P points, in the system's dtype; the
    lemma over their normal directions.

    `normal_coeffs` is a (P, N, m+1) array: N unit coefficient vectors for
    each point of the stacked `frame` and `shape`.  Returns the residuals,
    a dict of (P,) arrays of the operators' dtype keyed by the report's
    willmore fields in their order, each the worst over the point's
    normals, so their order does not change it; and the lemma's tables,
    indexed like `normal_coeffs`: the (P, N) deviations max |A_xi^3 - A_xi|
    and the (P, N, 3) multiplicities read at each normal (_lemma).  Folding
    the deviations and comparing the multiplicities with (m, l-m-1, l-m-1)
    is the report's business.

    Every other check is read once per point, for every normal at once.
    Before any block, over all points: the non-finite guard (ValueError
    naming the point), the pair tangency (folded into case_identity_max,
    so it counts with no normals too), and, at the coordinate normals,
    since each is linear in xi, the criterion, the balance
    tr((Pi_{+1} - Pi_{-1}) Ric_closed) = tr(A_xi Ric_closed)
    (residual_max, balance_max, bridge_max) and the sign gap
    A_a + T^T P_a T (reflection_max, _sign_gap), whose T^T P_a T is formed
    from T and the P_a, never taken from the operators under test.  Then,
    over blocks that fit _BLOCK_BYTES (_block_points), the lemma of each
    normal (_lemma; whole points, or chunks of one point's normals, written
    into one (P, N) table of deviations and one of multiplicities) and the
    pair tensors of each point (_pair_tensors: the pairwise balance, the
    leaks, |U| at m = 2 and the aggregate, which chain_max holds against
    the balance).  The blocks read no ambient array, so a point's results
    do not depend on the block it is in.
    """
    count = len(frame.x)
    coeffs = _coefficient_rows(system, normal_coeffs, count)
    ops = shape.operators
    if len(ops) != count:
        raise ValueError(f"{count} frames and {len(ops)} shapes")
    bad = np.flatnonzero(~np.logical_and.reduce(np.isfinite(ops),
                                                axis=(1, 2, 3)))
    if bad.size:
        raise ValueError(
            f"point {bad[0]}: shape operators have non-finite entries")
    reduced = _contractions(shape.ricci, ops)
    balance = _contractions(frame.closed_ricci, ops)
    gap = _sign_gap(system, frame, ops)
    pairs = frame.pair_coords[..., system.m + 2:]
    num = coeffs.shape[1]
    step, chunk = _block_points(system, num)
    tables = _pair_tables(system.m + 1)
    deviation = np.empty((count, num), ops.dtype)
    read = np.empty((count, num, 3), dtype=int)
    aggregate = np.empty((count, system.m + 1), ops.dtype)
    pairwise, leak, u = (np.empty(count, ops.dtype) for _ in range(3))
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        for k in range(0, num, chunk):
            normals = slice(k, k + chunk)
            deviation[rows, normals], read[rows, normals] = _lemma(
                ops[rows], coeffs[rows, normals])
        aggregate[rows], pairwise[rows], leak[rows], u[rows] = _pair_tensors(
            system, ops[rows], pairs[rows], tables)
    residual, bal, bridge, chain, agg = (fold(np.abs(r), axis=1) for r in (
        reduced, balance, reduced - balance, balance - aggregate, aggregate))
    case = np.maximum(u, _pair_tangency(system, frame))
    return {"residual_max": residual, "balance_max": bal,
            "bridge_max": bridge, "chain_max": chain,
            "projection_pairwise_max": pairwise,
            "projection_aggregate_max": agg, "t0_pair_leak_max": leak,
            "reflection_max": gap, "case_identity_max": case}, deviation, read


# ---------------------------------------------------------------------------
# non-Einstein probe
# ---------------------------------------------------------------------------

def einstein_probe(frame: AdaptedFrame) -> tuple:
    """The extremes of the Ricci quadratic form over unit tangents at P
    points: (lowest, highest), two (P,) arrays.

    Over unit X, X^T Ric X is extremal at the lowest and highest
    eigenvalues, so the probe reads them off one stacked eigvalsh of the
    frame's closed-form Ricci matrices, in float64, np.linalg's one float.
    It only measures: the report's einstein block forms the spread and
    applies the dimension gate and the spread threshold.
    """
    values = np.linalg.eigvalsh(frame.closed_ricci)
    return values[:, 0], values[:, -1]
