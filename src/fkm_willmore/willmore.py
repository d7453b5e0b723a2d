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
and point; principal_decomposition is the same code on a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .clifford import CliffordSystem, _orthonormal_completion
from .errors import MultiplicityError, SpectrumError
from .geometry import (AdaptedFrame, ShapeData, _many, ricci_quadratic,
                       shape_operators)
from .polynomial import sphere_samples
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
    """Eigenspaces of A_xi at a point, as ambient column blocks.

    t0, t1, tm1 hold orthonormal bases of the principal-curvature
    eigenspaces for 0, +1, -1 (dimensions m, l-m-1, l-m-1).
    """

    xi_coeffs: np.ndarray
    xi: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    tm1: np.ndarray
    spectrum_deviation: float

    def __post_init__(self):
        for name in ("xi_coeffs", "xi", "t0", "t1", "tm1"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EinsteinProbe:
    """Ricci spread probe plus the integer inequality gate."""

    ricci_min: float
    ricci_max: float
    spread: float
    dimension_condition: bool          # 4l > m^2 + 3m + 4
    dim_inequality: bool | None        # dim M+ > m(m+1)/2, gated
    spread_exceeds_threshold: bool | None
    status: str                        # "evidence" or "inconclusive"


# ---------------------------------------------------------------------------
# the chain, batched over a block of points and their normals
# ---------------------------------------------------------------------------
#
# Every helper below takes a block of P points with N normals each (leading
# axes P, N) and returns one value per normal; certify_point runs them once
# per block.  Each (point, normal) row is computed on its own, so a row's
# values do not depend on the other rows of the block.

# Rows (points x normals) the chain evaluates at a time.  A row holds about
# 20 KB of intermediates at (m, k) = (6, 1), so a block stays near 1 MB.
_BLOCK_ROWS = 64


def _coefficient_rows(system: CliffordSystem, coeffs) -> np.ndarray:
    """The normals' coefficient vectors as an (N, m+1) array of unit rows."""
    m1 = system.m + 1
    rows = [np.asarray(c, dtype=float) for c in coeffs]
    c = np.array(rows) if rows else np.zeros((0, m1))
    if c.ndim != 2 or c.shape[1] != m1:
        raise ValueError(f"coefficient shape {c.shape} != (N, {m1})")
    gap = np.abs(np.linalg.norm(c, axis=1) - 1.0)
    bad = np.flatnonzero(gap > 1e-12)
    if bad.size:
        raise ValueError(f"normal {bad[0]}: coefficients must form a unit "
                         f"vector (norm deviation {gap[bad[0]]:.3e})")
    return c


def _contractions(ricci: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_ij R_ij h^a_ij for every normal index a (shape-operator route),
    for one point or a (P, ...) stack of points."""
    return np.einsum("...pq,...apq->...a", ricci, ops)


def _decompose(system: CliffordSystem, tangent: np.ndarray, ops: np.ndarray,
               coeffs: np.ndarray, where):
    """Eigenspaces of every A_xi from one stacked eigh.

    Returns the spectrum deviations (P, N) and the ambient bases t0, t1,
    tm1 as (P, N, 2l, m), (P, N, 2l, m2), (P, N, 2l, m2).  Radius and
    cluster sizes are checked for every normal before the ascending
    eigenbasis is sliced into its -1, 0, +1 blocks; `where(p, k)` names a
    failing row in the error.
    """
    m, m2 = system.m, system.m2
    count, n = ops.shape[0], ops.shape[2]
    a_xi = (coeffs @ ops.reshape(count, m + 1, n * n)).reshape(
        *coeffs.shape[:2], n, n)
    vals, vecs = np.linalg.eigh(a_xi)
    dist = np.minimum(np.abs(vals), np.abs(np.abs(vals) - 1.0))
    deviation = np.max(dist, axis=2, initial=0.0)
    bad = np.argwhere(deviation > CLUSTER_RADIUS)
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
    blocks = []
    for lo, hi in ((m2, m2 + m), (m2 + m, n), (0, m2)):
        sub = vecs[..., lo:hi]
        if hi > lo:
            sub = np.linalg.qr(sub)[0]
        blocks.append(tangent[:, None] @ sub)
    return deviation, *blocks


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


def _balance_and_bridge(system: CliffordSystem, frames: list,
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
    ric = ricci_quadratic(system, frames,
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


def _chain(system: CliffordSystem, frames: list, shapes: list,
           coeffs: np.ndarray, where) -> list:
    """The worst residual of every check at each point of a block, as (P,)
    arrays in the order of _CHECK_NAMES; residual_max does not depend on
    the normals."""
    x = np.array([f.x for f in frames])
    tangent = np.array([f.tangent for f in frames])
    pairs = np.array([f.pairs for f in frames])
    ops = np.array([s.operators for s in shapes])
    contractions = _contractions(np.array([s.ricci for s in shapes]), ops)
    spectrum, t0, t1, tm1 = _decompose(system, tangent, ops, coeffs, where)
    p0, normals, y = _rotated(system, x, pairs, coeffs)
    signed_balance, bridge = _balance_and_bridge(system, frames,
                                                 contractions, coeffs, t1,
                                                 tm1)
    p_plus, p_minus = _pair_projections(y, t1, tm1)
    pairwise, signed_proj, leak = _projection_stats(system.m, p_plus, p_minus)
    case = np.maximum.reduce(_case_residuals(system, x, p0, normals, y, t0,
                                             p_plus, p_minus))
    worst = [fold(r, axis=1) for r in (
        spectrum, np.abs(signed_balance), bridge,
        np.abs(signed_balance - signed_proj), pairwise, np.abs(signed_proj),
        leak, _reflection(p0, t1, tm1), case)]
    return [worst[0], fold(np.abs(contractions), axis=1), *worst[1:]]


# ---------------------------------------------------------------------------
# one normal, and the reduced criterion
# ---------------------------------------------------------------------------

def principal_decomposition(system: CliffordSystem, frame: AdaptedFrame,
                            xi_coeffs, shape: ShapeData | None = None
                            ) -> PrincipalDecomposition:
    """Eigendecomposition of A_xi for xi = sum_a c_a P_a x.

    Eigenvalues are clustered around {0, +1, -1} with radius 1e-6; a value
    outside every cluster raises SpectrumError, cluster sizes other than
    (m, l-m-1, l-m-1) raise MultiplicityError.  Within each cluster the
    eigenbasis is re-orthonormalized (QR) before mapping to ambient
    coordinates.
    """
    c = np.asarray(xi_coeffs, dtype=float)
    if c.shape != (system.m + 1,):
        raise ValueError(f"coefficient shape {c.shape} != ({system.m + 1},)")
    c = _coefficient_rows(system, [c])
    if shape is None:
        shape = shape_operators(system, frame)
    deviation, t0, t1, tm1 = _decompose(
        system, frame.tangent[None], shape.operators[None], c[None],
        lambda p, k: f"normal {k}")
    return PrincipalDecomposition(xi_coeffs=c[0], xi=frame.normal @ c[0],
                                  t0=t0[0, 0], t1=t1[0, 0], tm1=tm1[0, 0],
                                  spectrum_deviation=float(deviation[0, 0]))


def willmore_residual(shape: ShapeData) -> float:
    """max_a | sum_ij R_ij h^a_ij |, the reduced Willmore criterion."""
    return float(np.max(np.abs(_contractions(shape.ricci, shape.operators))))


# ---------------------------------------------------------------------------
# per-point aggregation
# ---------------------------------------------------------------------------

_CHECK_NAMES = ("max_spectrum_deviation", "residual_max", "balance_max",
                "bridge_max", "chain_max", "projection_pairwise_max",
                "projection_aggregate_max", "t0_pair_leak_max",
                "reflection_max", "case_identity_max")
# residual_max and balance_max are held to willmore_tol
_WILLMORE_CHECKS = ("residual_max", "balance_max")


def certify_point(system: CliffordSystem, frame, shape, normal_coeffs,
                  geom_tol: float = 1e-8, willmore_tol: float = 1e-7):
    """Every per-normal check over a fixed list of normal directions.

    `normal_coeffs` is an ordered iterable of unit coefficient vectors.
    Returns one Check per key of the report's lemma and willmore blocks, in
    their order: max_spectrum_deviation, then residual_max (the reduced
    criterion at this point) and the chain.  Each residual is the worst over
    the normals, so identical inputs give identical checks and the order of
    the normals does not matter.  residual_max and balance_max are held to
    `willmore_tol`, every other check to `geom_tol`.

    `frame` and `shape` may also be sequences over P points, with
    `normal_coeffs` a sequence of P coefficient lists of one length N; that
    gives a list of P check tuples.  The chain runs over blocks of points x
    normals of at most _BLOCK_ROWS rows (one point at least), with one
    stacked eigh, one set of rotated pair products and one ricci_quadratic
    call per block; a point's checks do not depend on the block it is in.
    """
    single, frames = _many(frame, AdaptedFrame)
    shapes = [shape] if single else list(shape)
    coeffs = [_coefficient_rows(system, c)
              for c in ([normal_coeffs] if single else normal_coeffs)]
    if not len(frames) == len(shapes) == len(coeffs):
        raise ValueError(f"{len(frames)} frames, {len(shapes)} shapes and "
                         f"{len(coeffs)} coefficient lists")
    if len({len(c) for c in coeffs}) > 1:
        raise ValueError("every point needs the same number of normals")
    tols = [willmore_tol if name in _WILLMORE_CHECKS else geom_tol
            for name in _CHECK_NAMES]
    num = len(coeffs[0]) if coeffs else 0
    step = max(1, _BLOCK_ROWS // max(1, num))
    out = []
    for lo in range(0, len(frames), step):
        def where(p, k, lo=lo):
            return f"normal {k}" if single else f"point {lo + p}, normal {k}"

        worst = _chain(system, frames[lo:lo + step], shapes[lo:lo + step],
                       np.array(coeffs[lo:lo + step]), where)
        out.extend(tuple(Check(name, float(v), tol)
                         for name, v, tol in zip(_CHECK_NAMES, values, tols))
                   for values in zip(*worst))
    return out[0] if single else out


# ---------------------------------------------------------------------------
# non-Einstein probe
# ---------------------------------------------------------------------------

def einstein_probe(system: CliffordSystem, frame, n_dirs: int, seed,
                   shape=None):
    """Spread of the Ricci quadratic form over probe directions.

    Probes n_dirs random unit tangents plus the extremal eigendirections of
    the Ricci tensor.  When the exact integer inequality 4l > m^2 + 3m + 4
    holds, the focal dimension exceeds m(m+1)/2 and a spread above 0.1 is
    reported as non-Einstein evidence; otherwise the probe is inconclusive
    and asserts nothing.  `frame`, `seed` and `shape` may also be sequences
    over points, which gives a list of probes from one stacked eigh and one
    ricci_quadratic call; each point keeps its own random stream.
    """
    if n_dirs < 2:
        raise ValueError("n_dirs must be at least 2")
    single, frames = _many(frame, AdaptedFrame)
    seeds = [seed] if single else list(seed)
    if shape is None:
        shapes = shape_operators(system, frames)
    else:
        shapes = [shape] if single else list(shape)
    t = np.array([f.tangent for f in frames])
    n = t.shape[2]
    extremal = np.linalg.eigh(np.array([s.ricci for s in shapes]))[1][
        ..., [0, n - 1]]
    samples = np.array([sphere_samples(default_rng(int(s) & ((1 << 64) - 1)),
                                       n_dirs, n) for s in seeds])
    dirs = np.concatenate([samples.transpose(0, 2, 1), extremal], axis=2)
    values = ricci_quadratic(system, frames, t @ dirs)
    m, l = system.m, system.l
    condition = 4 * l > m * m + 3 * m + 4
    probes = []
    for ricci_min, ricci_max in zip(np.min(values, axis=1),
                                    np.max(values, axis=1)):
        spread = float(ricci_max) - float(ricci_min)
        if condition:
            dim_ok = (2 * l - m - 2) > m * (m + 1) // 2
            spread_ok = spread > RICCI_SPREAD_THRESHOLD
            status = "evidence"
        else:
            dim_ok = None
            spread_ok = None
            status = "inconclusive"
        probes.append(EinsteinProbe(
            ricci_min=float(ricci_min), ricci_max=float(ricci_max),
            spread=spread, dimension_condition=condition,
            dim_inequality=dim_ok, spread_exceeds_threshold=spread_ok,
            status=status))
    return probes[0] if single else probes
