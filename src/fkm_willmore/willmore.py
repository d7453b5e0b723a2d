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

    2 = |U|^2 + |P'_0 U|^2 + 4 |W|^2 = |U|^2 + |P'_0 U|^2 + 4 |V|^2.

Each identity holds at one focal point with one adapted frame; the report
module sweeps points and normal directions.  certify_point evaluates the
chain over blocks of points x normals and returns one Check per identity
and point; principal_decomposition is the same code with one normal per
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordSystem, _orthonormal_completion
from .errors import MultiplicityError, SpectrumError
from .geometry import (AdaptedFrame, ShapeData, _freeze, ricci_quadratic,
                       take)
from .records import Check, fold

__all__ = [
    "CLUSTER_RADIUS",
    "EinsteinProbe",
    "PrincipalDecomposition",
    "certify_point",
    "einstein_probe",
    "principal_decomposition",
    "willmore_residual",
]

# Eigenvalues must land within this radius of {0, +1, -1}.  The true gaps
# are of size 1, so the radius is purely defensive.
CLUSTER_RADIUS = 1e-6

RICCI_SPREAD_THRESHOLD = 0.1


@dataclass(frozen=True)
class PrincipalDecomposition:
    """Eigenspaces of A_xi at P points, one normal xi each, as ambient
    column blocks.

    t0, t1, tm1 (P, 2l, .) hold orthonormal bases of the principal-curvature
    eigenspaces for 0, +1, -1 (dimensions m, l-m-1, l-m-1).
    """

    xi_coeffs: np.ndarray              # (P, m+1)
    xi: np.ndarray                     # (P, 2l)
    t0: np.ndarray
    t1: np.ndarray
    tm1: np.ndarray
    spectrum_deviation: np.ndarray     # (P,)

    def __post_init__(self):
        _freeze(self)


@dataclass(frozen=True)
class EinsteinProbe:
    """Ricci spread probe at P points plus the integer inequality gate."""

    ricci_min: np.ndarray              # (P,)
    ricci_max: np.ndarray              # (P,)
    spread: np.ndarray                 # (P,)
    dimension_condition: bool          # 4l > m^2 + 3m + 4
    dim_inequality: bool | None        # dim M+ > m(m+1)/2, gated
    spread_exceeds_threshold: bool | None   # at every point, gated
    status: str                        # "evidence" or "inconclusive"

    def __post_init__(self):
        _freeze(self, ("ricci_min", "ricci_max", "spread"))


# ---------------------------------------------------------------------------
# the chain, batched over a block of points and their normals
# ---------------------------------------------------------------------------
#
# Every helper below takes a block of P points with N normals each (leading
# axes P, N) and returns one value per normal; certify_point runs them once
# per block.  Each (point, normal) row is computed on its own, so a row's
# values do not depend on the other rows of the block.

# Bytes of per-row intermediates the chain holds at a time; the rows
# (points x normals) of a block follow from the system (_block_points).
_BLOCK_BYTES = 1_200_000


def _block_points(system: CliffordSystem, num: int) -> int:
    """Points per chain block: as many as fit _BLOCK_BYTES, at least one.

    A (point, normal) row holds the completed half and full pair products,
    (m+1)^2 2l floats each, P'_0, (2l)^2 floats, the ambient eigenbases,
    2l n floats, A_xi and its eigenvectors, n^2 floats each, and the normals
    and pair vectors, (m+1) 2l and m(m+1)/2 2l floats.  At (m, k) = (6, 1)
    that is 20 KB a row and 1.15 MB a point with 57 normals."""
    m1, dim = system.m + 1, system.ambient_dim
    n = dim - system.m - 2
    row = 8 * ((2 * m1 * m1 + dim + n + m1 + m1 * system.m // 2) * dim
               + 2 * n * n)
    return max(1, _BLOCK_BYTES // (row * max(1, num)))


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
    """sum_ij R_ij h^a_ij for every point and normal index a (the
    shape-operator route), as (P, m+1)."""
    return np.einsum("kpq,kapq->ka", ricci, ops)


def _decompose(system: CliffordSystem, tangent: np.ndarray, ops: np.ndarray,
               coeffs: np.ndarray, where):
    """Eigenspaces of every A_xi from one stacked eigh.

    Returns the spectrum deviations (P, N) and the ambient bases t0, t1,
    tm1 as (P, N, 2l, m), (P, N, 2l, m2), (P, N, 2l, m2).  Radius and
    cluster sizes are checked for every normal before the ascending
    eigenbasis is sliced into its -1, 0, +1 blocks, which eigh returns
    orthonormal; `where(p, k)` names a failing row in the error, and a
    non-finite A_xi fails before eigh.
    """
    m, m2 = system.m, system.m2
    count, n = ops.shape[0], ops.shape[2]
    a_xi = (coeffs @ ops.reshape(count, m + 1, n * n)).reshape(
        *coeffs.shape[:2], n, n)
    bad = np.argwhere(~np.all(np.isfinite(a_xi), axis=(2, 3)))
    if bad.size:
        p, k = bad[0]
        raise SpectrumError(f"{where(p, k)}: A_xi has non-finite entries")
    vals, vecs = np.linalg.eigh(a_xi)
    dist = np.minimum(np.abs(vals), np.abs(np.abs(vals) - 1.0))
    deviation = np.max(dist, axis=2, initial=0.0)
    bad = np.argwhere(~(deviation <= CLUSTER_RADIUS))
    if bad.size:
        p, k = bad[0]
        raise SpectrumError(
            f"{where(p, k)}: eigenvalue {vals[p, k, np.argmax(dist[p, k])]:.6f}"
            " is outside every cluster around {0, +1, -1} "
            f"(radius {CLUSTER_RADIUS:.1e})")
    expected = (m, m2, m2)
    counts = np.stack([np.sum(np.abs(vals - target) <= CLUSTER_RADIUS, axis=2)
                       for target in (0.0, 1.0, -1.0)], axis=2)
    bad = np.argwhere(np.any(counts != expected, axis=2))
    if bad.size:
        p, k = bad[0]
        raise MultiplicityError(
            f"{where(p, k)}: principal multiplicities "
            f"{tuple(counts[p, k].tolist())} != expected {expected} for "
            "(0, +1, -1)")
    return deviation, *(tangent[:, None] @ vecs[..., lo:hi]
                        for lo, hi in ((m2, m2 + m), (m2 + m, n), (0, m2)))


def _rotated(system: CliffordSystem, x: np.ndarray, pairs: np.ndarray,
             coeffs: np.ndarray):
    """P'_0, the normals P'_g x and the pair vectors P'_a P'_b x for a < b.

    With B the completion rows (P'_a = sum_c B_ac P_c), bilinearity gives
    P'_a P'_b x = sum_cd B_ac B_bd P_c P_d x from the unrotated pair
    products, in two matrix products; no rotated system is built.  Shapes
    (P, N, 2l, 2l), (P, N, m+1, 2l) and (P, N, m(m+1)/2, 2l), the pairs in
    np.triu_indices order, so the m pairs (0, b) come first.
    """
    m1, dim = system.m + 1, system.ambient_dim
    count, num = coeffs.shape[:2]
    basis = _orthonormal_completion(coeffs.reshape(-1, m1)).reshape(
        count, num, m1, m1)
    p0 = (coeffs @ system.stack.reshape(m1, dim * dim)).reshape(
        count, num, dim, dim)
    normals = basis @ system.apply(x)[:, None]
    half = basis @ pairs.reshape(count, 1, m1, m1 * dim)
    prods = basis[:, :, None] @ half.reshape(count, num, m1, m1, dim)
    ia, ib = np.triu_indices(m1, k=1)
    return p0, normals, prods[:, :, ia, ib]


def _reflection(p0: np.ndarray, t1: np.ndarray, tm1: np.ndarray):
    """max |P'_0 v + v| over T_{+1} and |P'_0 w - w| over T_{-1}."""
    return np.maximum(np.max(np.abs(p0 @ t1 + t1), axis=(2, 3), initial=0.0),
                      np.max(np.abs(p0 @ tm1 - tm1), axis=(2, 3),
                             initial=0.0))


def _balance_and_bridge(system: CliffordSystem, frame: AdaptedFrame,
                        contractions: np.ndarray, coeffs: np.ndarray,
                        t1: np.ndarray, tm1: np.ndarray):
    """Signed closed-form balance and bridge gap of every normal.

    sum_i Ric(v_i) = 2 (l-m-2) m2 + 2 |pairs . T_{+1}|_F^2 and likewise for
    T_{-1}, from one ricci_quadratic call over all the eigenvectors of the
    block; the bridge compares with
    sum_ij R_ij h^xi_ij = sum_a c_a sum_ij R_ij h^a_ij.
    """
    count, num, dim, m2 = t1.shape
    block = np.concatenate([t1, tm1], axis=3).transpose(0, 2, 1, 3)
    ric = ricci_quadratic(system, frame,
                          block.reshape(count, dim, num * 2 * m2))
    sums = np.sum(ric.reshape(count, num, 2, m2), axis=3)
    signed = sums[..., 0] - sums[..., 1]
    bridge = np.abs((coeffs @ contractions[:, :, None])[..., 0] - signed)
    return signed, bridge


def _pair_projections(y: np.ndarray, t1: np.ndarray, tm1: np.ndarray):
    """|proj_{T+1} y|^2 and |proj_{T-1} y|^2 for the pair vectors y."""
    return np.sum((y @ t1) ** 2, axis=3), np.sum((y @ tm1) ** 2, axis=3)


def _projection_stats(m: int, p_plus: np.ndarray, p_minus: np.ndarray):
    """Per normal: worst pair deviation, signed ordered-pair aggregate and
    the worst leak of the m pairs (0, b)."""
    diff = p_plus - p_minus
    pairwise = np.max(np.abs(diff), axis=2, initial=0.0)
    # The ordered sums of the balance identity double the unordered ones
    # (P'_b P'_a x = -P'_a P'_b x leaves squared projections unchanged).
    signed = 2.0 * np.sum(diff, axis=2)
    leak = np.max(np.maximum(p_plus[..., :m], p_minus[..., :m]), axis=2,
                  initial=0.0)
    return pairwise, signed, leak


def _case_residuals(system: CliffordSystem, x: np.ndarray, p0, normals,
                    y, t0, p_plus, p_minus):
    """Per-normal tangency, orthogonality, bookkeeping and |P'_0 U| maxima.

    Every pair vector y = P'_a P'_b x is orthogonal to x and to every P'_g x;
    for pairs a, b >= 1, <P'_0 y, y> = 0 and, with U, V, W the T_0, T_{+1},
    T_{-1} components, 2 = |U|^2 + |P'_0 U|^2 + 4 |W|^2 and the same with
    |V|^2.  |P'_0 U| is only an identity for m = 2 and is reported as 0
    otherwise.
    """
    tangency = np.maximum(
        np.max(np.abs(y @ x[:, None, :, None]), axis=(2, 3), initial=0.0),
        np.max(np.abs(y @ normals.swapaxes(2, 3)), axis=(2, 3), initial=0.0))
    curved = slice(system.m, None)      # pairs a, b >= 1
    y = y[:, :, curved]
    p0t = p0.swapaxes(2, 3)
    orthogonality = np.max(np.abs(np.sum((y @ p0t) * y, axis=3)), axis=2,
                           initial=0.0)
    u = (y @ t0) @ t0.swapaxes(2, 3)
    p0u = u @ p0t
    p0u_sq = np.sum(p0u * p0u, axis=3)
    base = np.sum(u * u, axis=3) + p0u_sq
    bookkeeping = np.max(
        np.maximum(np.abs(2.0 - (base + 4.0 * p_minus[..., curved])),
                   np.abs(2.0 - (base + 4.0 * p_plus[..., curved]))),
        axis=2, initial=0.0)
    p0u_max = np.sqrt(np.max(p0u_sq, axis=2, initial=0.0))
    if system.m != 2:
        p0u_max = np.zeros_like(p0u_max)
    return tangency, orthogonality, bookkeeping, p0u_max


def _chain(system: CliffordSystem, frame: AdaptedFrame, shape: ShapeData,
           coeffs: np.ndarray, where) -> list:
    """The worst residual of every check at each point of a block, as (P,)
    arrays in the order of _CHECK_NAMES; residual_max does not depend on
    the normals."""
    contractions = _contractions(shape.ricci, shape.operators)
    spectrum, t0, t1, tm1 = _decompose(system, frame.tangent, shape.operators,
                                       coeffs, where)
    p0, normals, y = _rotated(system, frame.x, frame.pairs, coeffs)
    signed_balance, bridge = _balance_and_bridge(system, frame, contractions,
                                                 coeffs, t1, tm1)
    p_plus, p_minus = _pair_projections(y, t1, tm1)
    pairwise, signed_proj, leak = _projection_stats(system.m, p_plus, p_minus)
    case = np.maximum.reduce(_case_residuals(system, frame.x, p0, normals, y,
                                             t0, p_plus, p_minus))
    worst = [fold(r, axis=1) for r in (
        spectrum, np.abs(signed_balance), bridge,
        np.abs(signed_balance - signed_proj), pairwise, np.abs(signed_proj),
        leak, _reflection(p0, t1, tm1), case)]
    return [worst[0], fold(np.abs(contractions), axis=1), *worst[1:]]


# ---------------------------------------------------------------------------
# one normal, and the reduced criterion
# ---------------------------------------------------------------------------

def principal_decomposition(system: CliffordSystem, frame: AdaptedFrame,
                            xi_coeffs, shape: ShapeData
                            ) -> PrincipalDecomposition:
    """Eigendecomposition of A_xi for xi = sum_a c_a P_a x at every point.

    `xi_coeffs` is (P, m+1), one unit coefficient vector per point of the
    stacked `frame` and `shape`.  Eigenvalues are clustered around
    {0, +1, -1} with radius 1e-6; a value outside every cluster raises
    SpectrumError, cluster sizes other than (m, l-m-1, l-m-1) raise
    MultiplicityError.  The columns of eigh's orthonormal eigenbasis are
    mapped to ambient coordinates as they are, cluster by cluster.
    """
    c = _coefficient_rows(system,
                          np.asarray(xi_coeffs, dtype=float)[..., None, :],
                          len(frame.x))
    deviation, t0, t1, tm1 = _decompose(system, frame.tangent,
                                        shape.operators, c,
                                        lambda p, k: f"point {p}")
    return PrincipalDecomposition(
        xi_coeffs=c[:, 0], xi=(frame.normal @ c.swapaxes(1, 2))[..., 0],
        t0=t0[:, 0], t1=t1[:, 0], tm1=tm1[:, 0],
        spectrum_deviation=deviation[:, 0])


def willmore_residual(shape: ShapeData) -> np.ndarray:
    """max_a | sum_ij R_ij h^a_ij | per point, the reduced Willmore
    criterion."""
    return fold(np.abs(_contractions(shape.ricci, shape.operators)), axis=1)


# ---------------------------------------------------------------------------
# per-point aggregation
# ---------------------------------------------------------------------------

_CHECK_NAMES = ("max_spectrum_deviation", "residual_max", "balance_max",
                "bridge_max", "chain_max", "projection_pairwise_max",
                "projection_aggregate_max", "t0_pair_leak_max",
                "reflection_max", "case_identity_max")
# residual_max and balance_max are held to willmore_tol
_WILLMORE_CHECKS = ("residual_max", "balance_max")


def certify_point(system: CliffordSystem, frame: AdaptedFrame,
                  shape: ShapeData, normal_coeffs, geom_tol: float = 1e-8,
                  willmore_tol: float = 1e-7) -> list:
    """Every per-normal check at P points over their normal directions.

    `normal_coeffs` is a (P, N, m+1) array: N unit coefficient vectors for
    each point of the stacked `frame` and `shape`.  Returns, per point, one
    Check per key of the report's lemma and willmore blocks, in their
    order: max_spectrum_deviation, then residual_max (the reduced criterion
    at the point) and the chain.  Each residual is the worst over the
    point's normals, so identical inputs give identical checks and the order
    of the normals does not matter.  residual_max and balance_max are held
    to `willmore_tol`, every other check to `geom_tol`.

    The chain runs over blocks of whole points whose per-row intermediates
    fit _BLOCK_BYTES (one point at least), with one stacked eigh, one set of
    rotated pair products and one ricci_quadratic call per block; a point's
    checks do not depend on the block it is in.
    """
    count = len(frame.x)
    coeffs = _coefficient_rows(system, normal_coeffs, count)
    if len(shape.operators) != count:
        raise ValueError(f"{count} frames and {len(shape.operators)} shapes")
    tols = [willmore_tol if name in _WILLMORE_CHECKS else geom_tol
            for name in _CHECK_NAMES]
    step = _block_points(system, coeffs.shape[1])
    out = []
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        worst = _chain(system, take(frame, rows), take(shape, rows),
                       coeffs[rows],
                       lambda p, k, lo=lo: f"point {lo + p}, normal {k}")
        out.extend(tuple(Check(name, float(v), tol)
                         for name, v, tol in zip(_CHECK_NAMES, values, tols))
                   for values in zip(*worst))
    return out


# ---------------------------------------------------------------------------
# non-Einstein probe
# ---------------------------------------------------------------------------

def einstein_probe(system: CliffordSystem, frame: AdaptedFrame,
                   shape: ShapeData) -> EinsteinProbe:
    """Spread of the Ricci quadratic form over unit tangents at P points.

    Over unit X, Ric(X) is extremal at the Ricci tensor's lowest and highest
    eigenvectors, so the closed form is evaluated there: one stacked eigh of
    `shape.ricci` and one ricci_quadratic call with two directions a point.
    When the exact integer inequality 4l > m^2 + 3m + 4 holds, the focal
    dimension exceeds m(m+1)/2 and a spread above 0.1 at every point is
    reported as non-Einstein evidence; otherwise the probe is inconclusive
    and asserts nothing.
    """
    n = frame.tangent.shape[2]
    extremal = np.linalg.eigh(shape.ricci)[1][..., [0, n - 1]]
    values = ricci_quadratic(system, frame, frame.tangent @ extremal)
    ricci_min = np.min(values, axis=1)
    ricci_max = np.max(values, axis=1)
    spread = ricci_max - ricci_min
    m, l = system.m, system.l
    gated = 4 * l > m * m + 3 * m + 4
    return EinsteinProbe(
        ricci_min, ricci_max, spread, dimension_condition=gated,
        dim_inequality=(2 * l - m - 2) > m * (m + 1) // 2 if gated else None,
        spread_exceeds_threshold=(bool(np.all(spread > RICCI_SPREAD_THRESHOLD))
                                  if gated else None),
        status="evidence" if gated else "inconclusive")
