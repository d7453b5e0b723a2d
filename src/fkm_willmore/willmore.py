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
balance holds pair by pair; the m = 2 case is forced by P'_0 U = 0 for the
T_0 component U of P'_1 P'_2 x, the m > 2 case by the norm bookkeeping

    2 = |U|^2 + |P'_0 U|^2 + 4 |W|^2 = |U|^2 + |P'_0 U|^2 + 4 |V|^2,

both read with |P'_0 U| = |U| (P'_0 is orthogonal).  Each identity holds
at one focal point with one adapted frame; the report module sweeps points
and normal directions.  No eigenbasis is computed: on M+, A_xi^3 = A_xi,
so the eigenspaces are read through the spectral projectors
Pi_{+-1} = (A_xi^2 +- A_xi)/2 and Pi_0 = I - A_xi^2 in tangent coordinates,
where the pair vectors are rotated too; only the reflection reads P'_0 in
R^{2l}, with a P_a T of its own: the one check of the operators' sign, as
-A_a (the normals -P_a x) pass every other identity.  certify_point
evaluates the chain over blocks of points x normals and returns the worst
residual of every identity at every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordSystem, _orthonormal_completion
from .errors import MultiplicityError, SpectrumError
from .geometry import AdaptedFrame, ShapeData
from .records import Record, fold

__all__ = [
    "CHECK_NAMES",
    "CLUSTER_RADIUS",
    "EinsteinProbe",
    "certify_point",
    "einstein_probe",
]

# max |A_xi^3 - A_xi| must stay within this radius; every eigenvalue of
# A_xi then lies within 4 n / 3 times it of {0, +1, -1}.  The true gaps are
# of size 1, so the radius is purely defensive.
CLUSTER_RADIUS = 1e-6

RICCI_SPREAD_THRESHOLD = 0.1


@dataclass(frozen=True)
class EinsteinProbe(Record):
    """Ricci spread probe at P points plus the integer inequality gate."""

    ricci_min: np.ndarray              # (P,)
    ricci_max: np.ndarray              # (P,)
    spread: np.ndarray                 # (P,)
    dimension_condition: bool          # 4l > m^2 + 3m + 4
    spread_exceeds_threshold: bool | None   # at every point, gated
    status: str                        # "evidence" or "inconclusive"


# ---------------------------------------------------------------------------
# the chain, batched over a block of points and their normals
# ---------------------------------------------------------------------------
#
# The helpers below take a block of P points with N normals each (leading
# axes P, N) and return one value per normal; certify_point reads what the
# normal does not change once per point, and runs them once per block.
# Each (point, normal) row is computed on its own, so a row's values do
# not depend on the other rows of the block.

# Bytes of intermediates the chain holds at a time, per point and per row;
# the shape of a block follows from the system (_block_points).
_BLOCK_BYTES = 1_200_000


def _block_points(system: CliffordSystem, num: int) -> tuple:
    """Points and normals per chain block for points with `num` normals
    each: as many whole points as fit _BLOCK_BYTES, or, when the rows of
    one point alone exceed it, one point and its normals split evenly over
    the fewest blocks that fit (one normal a block at least).

    A (point, normal) row holds A_xi, the projectors and one temporary of
    the purification, 5 n^2 floats, and the pair vectors, m(m+1)/2 n.  It
    peaks in the rotation, with the completion and the half and full
    products, (m+1)^2 (2n + 1), or in the reflection, with P'_0 T and two
    temporaries, 3 (2l) n.  A point holds P_a T, (m+1) 2l n, formed once
    for its block of points.  At (m, k) = (6, 1): 10.6 KB a row, 7.2 KB a
    point; at (9, 1): 59.6 KB a row, 53.8 KB a point, so 19 normals fit a
    block and 60 normals run as 4 blocks of 15."""
    m1, dim = system.m + 1, system.ambient_dim
    n = dim - m1 - 1
    num = max(1, num)
    row = 8 * (5 * n * n + m1 * m1
               + (m1 * system.m // 2 + max(2 * m1 * m1, 3 * dim)) * n)
    point = 8 * m1 * dim * n
    if row * num + point <= _BLOCK_BYTES:
        return _BLOCK_BYTES // (row * num + point), num
    blocks = -(-num // max(1, (_BLOCK_BYTES - point) // row))
    return 1, -(-num // blocks)


def _coefficient_rows(system: CliffordSystem, coeffs,
                      count: int) -> np.ndarray:
    """The normals' coefficient vectors as a (P, N, m+1) array of unit rows,
    N of them for each of `count` points."""
    m1 = system.m + 1
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 3 or c.shape[0] != count or c.shape[2] != m1:
        raise ValueError(f"coefficient shape {c.shape} != ({count}, N, {m1})")
    gap = np.abs(np.linalg.norm(c, axis=2) - 1.0)
    bad = np.argwhere(~(gap <= 1e-12))
    if bad.size:
        p, k = bad[0]
        raise ValueError(f"point {p}, normal {k}: coefficients must form a "
                         f"unit vector (norm deviation {gap[p, k]:.3e})")
    return c


def _contractions(ricci: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_ij R_ij h^a_ij = tr(R A_a) for every point and normal index a,
    as (P, m+1), with R the tensor or the closed-form Ricci matrix."""
    return np.einsum("kpq,kapq->ka", ricci, ops)


def _purified(proj: np.ndarray) -> np.ndarray:
    """One McWeeny step 3 Pi^2 - 2 Pi^3 on a stack of near-projectors.

    An eigenvalue 1 + d of Pi moves to 1 - 3 d^2 - 2 d^3 and an eigenvalue
    d to 3 d^2 - 2 d^3, so a scale error of A_xi of order d reaches the
    identities read through the projectors only at order d^2."""
    sq = proj @ proj
    return 3.0 * sq - 2.0 * (sq @ proj)


def _at_normals(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a c_a X_a for every normal, (P, N, ...), from the (P, N, m+1)
    coefficients and a (P, m+1, ...) stack: A_xi from the shape operators,
    P'_0 T from P_a T (no 2l x 2l P'_0 is formed)."""
    return (coeffs @ stack.reshape(*stack.shape[:2], -1)).reshape(
        *coeffs.shape[:2], *stack.shape[2:])


def _decompose(system: CliffordSystem, ops: np.ndarray, coeffs: np.ndarray,
               first: tuple):
    """Spectral projectors of every A_xi = sum_a c_a A_a, in tangent
    coordinates.

    Returns the deviations max |A_xi^3 - A_xi| (P, N), then A_xi and the
    projectors Pi_0, Pi_{+1}, Pi_{-1} onto the eigenspaces for 0, +1, -1,
    each (P, N, n, n).  A deviation above CLUSTER_RADIUS raises SpectrumError,
    and traces of (I - A^2, (A^2 + A)/2, (A^2 - A)/2) that do not round to
    (m, l-m-1, l-m-1) raise MultiplicityError; both name the first failing
    row as point first[0] + p, normal first[1] + k.  The curved projectors
    are then purified (_purified) and Pi_0 is their complement.
    """
    m, m2, n = system.m, system.m2, ops.shape[2]
    a_xi = _at_normals(coeffs, ops)
    sq = a_xi @ a_xi
    deviation = np.max(np.abs(sq @ a_xi - a_xi), axis=(2, 3), initial=0.0)
    bad = np.argwhere(~(deviation <= CLUSTER_RADIUS))
    if bad.size:
        p, k = bad[0]
        raise SpectrumError(
            f"point {first[0] + p}, normal {first[1] + k}: max |A_xi^3 - "
            f"A_xi| = {deviation[p, k]:.3e}, so the spectrum leaves the "
            f"clusters around {{0, +1, -1}} (radius {CLUSTER_RADIUS:.1e})")
    tr_sq = np.trace(sq, axis1=2, axis2=3)
    tr_a = np.trace(a_xi, axis1=2, axis2=3)
    expected = (m, m2, m2)
    counts = np.rint(np.stack([n - tr_sq, (tr_sq + tr_a) / 2.0,
                               (tr_sq - tr_a) / 2.0], axis=2)).astype(int)
    bad = np.argwhere(np.any(counts != expected, axis=2))
    if bad.size:
        p, k = bad[0]
        raise MultiplicityError(
            f"point {first[0] + p}, normal {first[1] + k}: principal "
            f"multiplicities {tuple(counts[p, k].tolist())} != expected "
            f"{expected} for (0, +1, -1)")
    plus = _purified((sq + a_xi) / 2.0)
    minus = _purified((sq - a_xi) / 2.0)
    return deviation, a_xi, np.eye(n) - plus - minus, plus, minus


def _rotated(pairs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The pair vectors P'_a P'_b x = sum_cd B_ac B_bd P_c P_d x for a < b,
    with B the completion rows, in tangent coordinates: `pairs` is the
    (P, m+1, m+1, n) tangent slice of the pair coordinates, and two matrix
    products give (P, N, m(m+1)/2, n) in np.triu_indices order, so the m
    pairs (0, b) come first."""
    (count, num, m1), n = coeffs.shape, pairs.shape[3]
    basis = _orthonormal_completion(coeffs.reshape(-1, m1)).reshape(
        count, num, m1, m1)
    half = basis @ pairs.reshape(count, 1, m1, m1 * n)
    prods = basis[:, :, None] @ half.reshape(count, num, m1, m1, n)
    ia, ib = np.triu_indices(m1, k=1)
    return prods[:, :, ia, ib]


def _pair_tangency(system: CliffordSystem, frame: AdaptedFrame) -> np.ndarray:
    """max |<P_a P_b x, x>| and |<P_a P_b x, P_g x>|, a < b, per point, from
    the x and normal columns of the pair coordinates: the rotated pairs and
    normals are orthonormal images of these (Lambda^2 B, B), so this bounds
    theirs within a factor sqrt(m (m+1) (m+2) / 2)."""
    ia, ib = np.triu_indices(system.m + 1, k=1)
    return np.max(np.abs(frame.pair_coords[:, ia, ib, :system.m + 2]),
                  axis=(1, 2), initial=0.0)


def _reflection(p0t, t, plus, minus):
    """max |(P'_0 + I) T Pi_{+1}| and |(P'_0 - I) T Pi_{-1}|: P'_0 v = -v
    on T_{+1} and P'_0 w = w on T_{-1}, in ambient coordinates."""
    return np.maximum(
        np.max(np.abs((p0t + t) @ plus), axis=(2, 3), initial=0.0),
        np.max(np.abs((p0t - t) @ minus), axis=(2, 3), initial=0.0))


def _projection_stats(m: int, p_plus: np.ndarray, p_minus: np.ndarray):
    """Per normal: worst pair deviation, signed ordered-pair aggregate and
    the worst leak norm of the m pairs (0, b)."""
    diff = p_plus - p_minus
    pairwise = np.max(np.abs(diff), axis=2, initial=0.0)
    # The ordered sums of the balance identity double the unordered ones
    # (P'_b P'_a x = -P'_a P'_b x leaves squared projections unchanged).
    signed = 2.0 * np.sum(diff, axis=2)
    leak = np.sqrt(np.max(np.maximum(p_plus[..., :m], p_minus[..., :m]),
                          axis=2, initial=0.0))
    return pairwise, signed, leak


def _case_residuals(system: CliffordSystem, y_t, a_xi, pi0, p_plus,
                    p_minus):
    """Per-normal orthogonality, bookkeeping and |U| maxima.

    For pairs a, b >= 1, y = P'_a P'_b x and z = T^T y (`y_t`),
    <P'_0 y, y> = 0 is read as -z^T A_xi z, since T^T P'_0 T = -A_xi
    (_pair_tangency bounds the rest of y); with U, V, W the T_0, T_{+1},
    T_{-1} components (U = T Pi_0 z) and |P'_0 U| = |U| (P'_0 is
    orthogonal), 2 = 2 |U|^2 + 4 |W|^2 and the same with |V|^2.  U = 0 is
    only an identity for m = 2, else |U| is reported as 0.
    """
    z = y_t[:, :, system.m:]            # pairs a, b >= 1
    orthogonality = np.max(np.abs(np.sum((z @ a_xi) * z, axis=3)), axis=2,
                           initial=0.0)
    u_sq = np.sum((z @ pi0) ** 2, axis=3)       # U = T Pi_0 z
    bookkeeping = np.max(
        np.maximum(np.abs(2.0 - (2.0 * u_sq + 4.0 * p_minus[..., system.m:])),
                   np.abs(2.0 - (2.0 * u_sq + 4.0 * p_plus[..., system.m:]))),
        axis=2, initial=0.0)
    u_max = (np.sqrt(np.max(u_sq, axis=2, initial=0.0)) if system.m == 2
             else np.zeros(u_sq.shape[:2]))
    return orthogonality, bookkeeping, u_max


def _chain(system: CliffordSystem, coeffs: np.ndarray, first: tuple, ops,
           pairs, t, pt, balance) -> np.ndarray:
    """The worst residual of the per-normal checks, max_spectrum_deviation
    and CHECK_NAMES[4:], at each point of a block whose first point and
    normal are `first` (indices into certify_point's input), as (P, 7).
    The points come as arrays: shape operators, the tangent slice of the
    pair coordinates, T, P_a T, and the balance at the coordinate normals,
    which certify_point reads once per point."""
    spectrum, a_xi, pi0, plus, minus = _decompose(system, ops, coeffs, first)
    y_t = _rotated(pairs, coeffs)
    p_plus, p_minus = (np.sum((y_t @ pi) ** 2, axis=3) for pi in (plus, minus))
    pairwise, signed_proj, leak = _projection_stats(system.m, p_plus, p_minus)
    case = np.maximum.reduce(_case_residuals(system, y_t, a_xi, pi0, p_plus,
                                             p_minus))
    reflection = _reflection(_at_normals(coeffs, pt), t[:, None], plus, minus)
    # chain_max: the projection sum against c . b, the balance at the normal
    return np.stack([fold(np.abs(r), axis=1) for r in (
        spectrum, (coeffs @ balance[:, :, None])[..., 0] - signed_proj,
        pairwise, signed_proj, leak, reflection, case)], axis=1)


# ---------------------------------------------------------------------------
# per-point aggregation
# ---------------------------------------------------------------------------

CHECK_NAMES = ("max_spectrum_deviation", "residual_max", "balance_max",
               "bridge_max", "chain_max", "projection_pairwise_max",
               "projection_aggregate_max", "t0_pair_leak_max",
               "reflection_max", "case_identity_max")


def certify_point(system: CliffordSystem, frame: AdaptedFrame,
                  shape: ShapeData, normal_coeffs) -> np.ndarray:
    """Every per-normal check at P points over their normal directions.

    `normal_coeffs` is a (P, N, m+1) array: N unit coefficient vectors for
    each point of the stacked `frame` and `shape`.  Returns a (P, 10) array
    of residuals, one row per point and one column per key of the report's
    lemma and willmore blocks, in the order of CHECK_NAMES.  Each residual
    is the worst over the point's normals, so identical inputs give
    identical rows and the order of the normals does not matter.

    What the normal does not change is read once, over all points: the
    non-finite guard (SpectrumError naming the point), the pair tangency
    (folded into case_identity_max after the blocks, so it counts with no
    normals too), and the criterion and the balance
    tr((Pi_{+1} - Pi_{-1}) Ric_closed) = tr(A_xi Ric_closed), linear in xi,
    at the coordinate normals (residual_max, balance_max, bridge_max).  The
    chain then runs over blocks that fit _BLOCK_BYTES (_block_points):
    whole points, or chunks of one point's normals folded into the point's
    row by their maximum (NaN if any is NaN).  The reflection's P_a T is
    formed once per block of points, apart from the operators under test,
    and a point's residuals do not depend on the block it is in.
    """
    count = len(frame.x)
    coeffs = _coefficient_rows(system, normal_coeffs, count)
    ops = shape.operators
    if len(ops) != count:
        raise ValueError(f"{count} frames and {len(ops)} shapes")
    bad = np.flatnonzero(~np.all(np.isfinite(ops), axis=(1, 2, 3)))
    if bad.size:
        raise SpectrumError(
            f"point {bad[0]}: shape operators have non-finite entries")
    reduced = _contractions(shape.ricci, ops)
    balance = _contractions(frame.closed_ricci, ops)
    pairs = frame.pair_coords[..., system.m + 2:]
    num = coeffs.shape[1]
    step, chunk = _block_points(system, num)
    chain = np.empty((count, 7))
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        t = frame.tangent[rows]
        pt = system.matrices @ t[:, None]       # P_a T, (P, m+1, 2l, n)
        chain[rows] = fold([_chain(system, coeffs[rows, k:k + chunk], (lo, k),
                                   ops[rows], pairs[rows], t, pt,
                                   balance[rows])
                            for k in range(0, max(1, num), chunk)], axis=0)
    # the last column is case_identity_max
    chain[:, -1] = np.maximum(chain[:, -1], _pair_tangency(system, frame))
    per_point = [fold(np.abs(r), axis=1)
                 for r in (reduced, balance, reduced - balance)]
    return np.column_stack([chain[:, 0], *per_point, chain[:, 1:]])


# ---------------------------------------------------------------------------
# non-Einstein probe
# ---------------------------------------------------------------------------

def einstein_probe(system: CliffordSystem,
                   frame: AdaptedFrame) -> EinsteinProbe:
    """Spread of the Ricci quadratic form over unit tangents at P points.

    Over unit X, X^T Ric X is extremal at the lowest and highest
    eigenvalues, so the probe reads them off one stacked eigvalsh of the
    frame's closed-form Ricci matrices.  When the exact integer inequality
    4l > m^2 + 3m + 4 holds (equivalently, the focal dimension exceeds
    m(m+1)/2), a spread above 0.1 at every point is reported as
    non-Einstein evidence; otherwise the probe is inconclusive and asserts
    nothing.
    """
    values = np.linalg.eigvalsh(frame.closed_ricci)
    ricci_min = values[:, 0]
    ricci_max = values[:, -1]
    spread = ricci_max - ricci_min
    m, l = system.m, system.l
    gated = 4 * l > m * m + 3 * m + 4
    return EinsteinProbe(
        ricci_min, ricci_max, spread, dimension_condition=gated,
        spread_exceeds_threshold=(bool(np.all(spread > RICCI_SPREAD_THRESHOLD))
                                  if gated else None),
        status="evidence" if gated else "inconclusive")
