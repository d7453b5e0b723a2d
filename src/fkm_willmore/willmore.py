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

Everything here works at one focal point with one adapted frame; the report
module sweeps points and normal directions.  certify_point evaluates the
chain once per point, batched over all of its normals; the per-normal
functions are the same code on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .clifford import CliffordSystem, _orthonormal_completion
# The chain rotates no system; the name stays importable here because the
# benchmark's span tracer (perfbench/spans.py) wraps it in this module.
from .clifford import rotate_system  # noqa: F401
from .errors import MultiplicityError, SpectrumError
from .geometry import (AdaptedFrame, ShapeData, pair_products,
                       ricci_quadratic, shape_operators)
from .polynomial import sphere_samples
from .records import VerificationRecord

__all__ = [
    "CLUSTER_RADIUS",
    "EinsteinProbe",
    "PrincipalDecomposition",
    "ProjectionBalance",
    "RicciBalance",
    "WillmoreCertificate",
    "case_identities",
    "certify_point",
    "einstein_probe",
    "principal_decomposition",
    "projection_balance",
    "reflection_check",
    "ricci_balance",
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
class RicciBalance:
    """|sum Ric(v) - sum Ric(w)| plus the bridge identity residual."""

    balance: float
    signed_balance: float
    bridge_gap: float


@dataclass(frozen=True)
class ProjectionBalance:
    """Pair-vector projection balance onto T_{+1} versus T_{-1}."""

    pairwise_max: float
    aggregate_gap: float
    signed_aggregate: float
    t0_pair_leak_max: float
    n_ordered_pairs: int


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


@dataclass(frozen=True)
class WillmoreCertificate:
    """Aggregated residuals of every Willmore identity at one point."""

    residual_reduced: float
    residual_balance: float
    residual_projection: float
    projection_pairwise_max: float
    projection_aggregate_max: float
    bridge_max: float
    chain_gap_max: float
    reflection_max: float
    case_max: float
    spectrum_deviation_max: float
    t0_pair_leak_max: float
    n_normals: int
    passed: bool


# ---------------------------------------------------------------------------
# the chain, batched over the normals of one point
# ---------------------------------------------------------------------------
#
# Every helper below takes a stack of N normals (leading axis N) and
# returns one value per normal; certify_point runs them once per point and
# the per-normal public functions run them on a batch of one.

def _fold(values) -> float:
    return float(np.max(values, initial=0.0))


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


def _contractions(shape: ShapeData) -> np.ndarray:
    """sum_ij R_ij h^a_ij for every normal index a (shape-operator route)."""
    return np.einsum("pq,apq->a", shape.ricci, shape.operators)


def _decompose(system: CliffordSystem, frame: AdaptedFrame,
               shape: ShapeData, coeffs: np.ndarray):
    """Eigenspaces of every A_xi from one stacked eigh.

    Returns the spectrum deviations (N,) and the ambient bases t0, t1, tm1
    as (N, 2l, m), (N, 2l, m2), (N, 2l, m2).  Radius and cluster sizes are
    checked for every normal before the ascending eigenbasis is sliced into
    its -1, 0, +1 blocks.
    """
    m, m2 = system.m, system.m2
    ops = shape.operators
    n = ops.shape[1]
    a_xi = (coeffs @ ops.reshape(m + 1, n * n)).reshape(-1, n, n)
    vals, vecs = np.linalg.eigh(a_xi)
    dist = np.minimum(np.abs(vals), np.abs(np.abs(vals) - 1.0))
    deviation = np.max(dist, axis=1, initial=0.0)
    bad = np.flatnonzero(deviation > CLUSTER_RADIUS)
    if bad.size:
        k = bad[0]
        raise SpectrumError(
            f"normal {k}: eigenvalue {vals[k, np.argmax(dist[k])]:.6f} is "
            "outside every cluster around {0, +1, -1} "
            f"(radius {CLUSTER_RADIUS:.1e})")
    expected = (m, m2, m2)
    counts = np.stack([np.sum(np.abs(vals - target) <= CLUSTER_RADIUS, axis=1)
                       for target in (0.0, 1.0, -1.0)], axis=1)
    bad = np.flatnonzero(np.any(counts != expected, axis=1))
    if bad.size:
        k = bad[0]
        raise MultiplicityError(
            f"normal {k}: principal multiplicities {tuple(counts[k].tolist())}"
            f" != expected {expected} for (0, +1, -1)")
    blocks = []
    for lo, hi in ((m2, m2 + m), (m2 + m, n), (0, m2)):
        sub = vecs[:, :, lo:hi]
        if hi > lo:
            sub = np.linalg.qr(sub)[0]
        blocks.append(frame.tangent @ sub)
    return deviation, *blocks


def _rotated(system: CliffordSystem, x: np.ndarray, coeffs: np.ndarray):
    """P'_0, the normals P'_g x and the pair vectors P'_a P'_b x for a < b.

    With B the completion rows (P'_a = sum_c B_ac P_c), bilinearity gives
    P'_a P'_b x = sum_cd B_ac B_bd P_c P_d x from the unrotated pair
    products, in two matrix products; no rotated system is built.  Shapes
    (N, 2l, 2l), (N, m+1, 2l) and (N, m(m+1)/2, 2l), the pairs in
    np.triu_indices order, so the m pairs (0, b) come first.
    """
    m1, dim = system.m + 1, system.ambient_dim
    basis = _orthonormal_completion(coeffs)
    p0 = (coeffs @ system.stack.reshape(m1, dim * dim)).reshape(-1, dim, dim)
    normals = basis @ (system.stack @ x)
    half = basis @ pair_products(system, x).reshape(m1, m1 * dim)
    prods = basis[:, None] @ half.reshape(-1, m1, m1, dim)
    ia, ib = np.triu_indices(m1, k=1)
    return p0, normals, prods[:, ia, ib]


def _reflection(p0: np.ndarray, t1: np.ndarray, tm1: np.ndarray):
    """max |P'_0 v + v| over T_{+1} and |P'_0 w - w| over T_{-1}."""
    return np.maximum(np.max(np.abs(p0 @ t1 + t1), axis=(1, 2), initial=0.0),
                      np.max(np.abs(p0 @ tm1 - tm1), axis=(1, 2),
                             initial=0.0))


def _ricci_balance(system: CliffordSystem, frame: AdaptedFrame,
                   shape: ShapeData, coeffs: np.ndarray, t1: np.ndarray,
                   tm1: np.ndarray):
    """Signed closed-form balance and bridge gap of every normal.

    sum_i Ric(v_i) = 2 (l-m-2) m2 + 2 |pairs . T_{+1}|_F^2 and likewise for
    T_{-1}, from one ricci_quadratic call over all the eigenvectors; the
    bridge compares with sum_ij R_ij h^xi_ij = sum_a c_a sum_ij R_ij h^a_ij.
    """
    count, dim, m2 = t1.shape
    block = np.concatenate([t1, tm1], axis=2).transpose(1, 0, 2)
    ric = ricci_quadratic(system, frame, block.reshape(dim, -1))
    sums = np.sum(ric.reshape(count, 2, m2), axis=2)
    signed = sums[:, 0] - sums[:, 1]
    return signed, np.abs(coeffs @ _contractions(shape) - signed)


def _pair_projections(y: np.ndarray, t1: np.ndarray, tm1: np.ndarray):
    """|proj_{T+1} y|^2 and |proj_{T-1} y|^2 for the pair vectors y, (N, P)."""
    return np.sum((y @ t1) ** 2, axis=2), np.sum((y @ tm1) ** 2, axis=2)


def _projection_stats(m: int, p_plus: np.ndarray, p_minus: np.ndarray):
    """Per normal: worst pair deviation, signed ordered-pair aggregate and
    the worst leak of the m pairs (0, b)."""
    diff = p_plus - p_minus
    pairwise = np.max(np.abs(diff), axis=1, initial=0.0)
    # The ordered sums of the balance identity double the unordered ones
    # (P'_b P'_a x = -P'_a P'_b x leaves squared projections unchanged).
    signed = 2.0 * np.sum(diff, axis=1)
    leak = np.max(np.maximum(p_plus[:, :m], p_minus[:, :m]), axis=1,
                  initial=0.0)
    return pairwise, signed, leak


def _case_residuals(system: CliffordSystem, x: np.ndarray, p0, normals,
                    y, t0, p_plus, p_minus):
    """Per-normal tangency, orthogonality, bookkeeping and |P'_0 U| maxima.

    |P'_0 U| is only an identity for m = 2 and is reported as 0 otherwise.
    """
    tangency = np.maximum(np.max(np.abs(y @ x), axis=1, initial=0.0),
                          np.max(np.abs(y @ normals.transpose(0, 2, 1)),
                                 axis=(1, 2), initial=0.0))
    curved = slice(system.m, None)      # pairs a, b >= 1
    y = y[:, curved]
    p0t = p0.transpose(0, 2, 1)
    orthogonality = np.max(np.abs(np.sum((y @ p0t) * y, axis=2)), axis=1,
                           initial=0.0)
    u = (y @ t0) @ t0.transpose(0, 2, 1)
    p0u = u @ p0t
    p0u_sq = np.sum(p0u * p0u, axis=2)
    base = np.sum(u * u, axis=2) + p0u_sq
    bookkeeping = np.max(
        np.maximum(np.abs(2.0 - (base + 4.0 * p_minus[:, curved])),
                   np.abs(2.0 - (base + 4.0 * p_plus[:, curved]))),
        axis=1, initial=0.0)
    p0u_max = np.sqrt(np.max(p0u_sq, axis=1, initial=0.0))
    if system.m != 2:
        p0u_max = np.zeros_like(p0u_max)
    return tangency, orthogonality, bookkeeping, p0u_max


# ---------------------------------------------------------------------------
# per-normal entry points (batches of one)
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
    deviation, t0, t1, tm1 = _decompose(system, frame, shape, c)
    return PrincipalDecomposition(xi_coeffs=c[0], xi=frame.normal @ c[0],
                                  t0=t0[0], t1=t1[0], tm1=tm1[0],
                                  spectrum_deviation=float(deviation[0]))


def reflection_check(system: CliffordSystem, frame: AdaptedFrame,
                     decomp: PrincipalDecomposition) -> float:
    """Residual of the eigenspace reflection property.

    After rotating so that P'_0 x = xi, the curvature-(+1) space lies in the
    (-1)-eigenspace of P'_0 and vice versa: returns the max over the bases
    of |P'_0 v + v| and |P'_0 w - w|.
    """
    p0, _, _ = _rotated(system, frame.x, decomp.xi_coeffs[None])
    return float(_reflection(p0, decomp.t1[None], decomp.tm1[None])[0])


def willmore_residual(shape: ShapeData) -> float:
    """max_a | sum_ij R_ij h^a_ij |, the reduced Willmore criterion."""
    return float(np.max(np.abs(_contractions(shape))))


def ricci_balance(system: CliffordSystem, frame: AdaptedFrame,
                  decomp: PrincipalDecomposition,
                  shape: ShapeData | None = None) -> RicciBalance:
    """Ricci balance between the curved eigenspaces, with the bridge residual.

    balance = | sum_i Ric(v_i) - sum_i Ric(w_i) | over the T_{+1} and T_{-1}
    bases (closed-form Ricci).  The bridge gap compares the signed balance
    against sum_ij R_ij h^xi_ij computed from the shape-operator route; the
    two must agree whether or not the Willmore property holds.
    """
    if shape is None:
        shape = shape_operators(system, frame)
    signed, bridge = _ricci_balance(system, frame, shape,
                                    decomp.xi_coeffs[None], decomp.t1[None],
                                    decomp.tm1[None])
    return RicciBalance(balance=abs(float(signed[0])),
                        signed_balance=float(signed[0]),
                        bridge_gap=float(bridge[0]))


def projection_balance(system: CliffordSystem, frame: AdaptedFrame,
                       decomp: PrincipalDecomposition) -> ProjectionBalance:
    """|proj_{T+1} P'_a P'_b x|^2 versus |proj_{T-1} P'_a P'_b x|^2.

    pairwise_max is the worst deviation over unordered pairs a < b;
    aggregate_gap is the deviation of the full sums over ordered pairs
    a != b.  Pairs containing index 0 must project to (almost) zero on both
    sides since P'_0 P'_b x has principal curvature 0; their worst leak is
    reported separately.
    """
    _, _, pairs = _rotated(system, frame.x, decomp.xi_coeffs[None])
    p_plus, p_minus = _pair_projections(pairs, decomp.t1[None],
                                        decomp.tm1[None])
    pairwise, signed, leak = _projection_stats(system.m, p_plus, p_minus)
    m1 = system.m + 1
    return ProjectionBalance(pairwise_max=float(pairwise[0]),
                             aggregate_gap=abs(float(signed[0])),
                             signed_aggregate=float(signed[0]),
                             t0_pair_leak_max=float(leak[0]),
                             n_ordered_pairs=m1 * (m1 - 1))


def case_identities(system: CliffordSystem, frame: AdaptedFrame,
                    decomp: PrincipalDecomposition,
                    tol: float = 1e-8) -> VerificationRecord:
    """The pair-vector identities behind the balance, in the rotated system.

    Checked for every unordered pair a < b:
      * tangency: P'_a P'_b x is orthogonal to x and to every P'_g x.
    For pairs with a, b >= 1:
      * orthogonality: <P'_0 P'_a P'_b x, P'_a P'_b x> = 0;
      * norm bookkeeping: with U, V, W the T_0, T_{+1}, T_{-1} components,
        2 = |U|^2 + |P'_0 U|^2 + 4 |W|^2 and the same with |V|^2.
    For m = 2 additionally P'_0 U = 0 (U is then tangent, and P'_0 U is
    normal, so it must vanish).  m = 1 has no curved pairs at all: the
    record reports trivially_balanced.
    """
    x = frame.x
    p0, normals, pairs = _rotated(system, x, decomp.xi_coeffs[None])
    t1, tm1 = decomp.t1[None], decomp.tm1[None]
    residuals = _case_residuals(system, x, p0, normals, pairs,
                                decomp.t0[None],
                                *_pair_projections(pairs, t1, tm1))
    tangency, orthogonality, bookkeeping, p0u = (float(r[0])
                                                 for r in residuals)
    worst = max(tangency, orthogonality, bookkeeping, p0u)
    return VerificationRecord(
        name=f"case_identities(m={system.m})",
        passed=worst <= tol,
        max_residual=worst,
        tolerance=tol,
        details={
            "tangency_max": tangency,
            "orthogonality_max": orthogonality,
            "bookkeeping_max": bookkeeping,
            "p0u_max": p0u if system.m == 2 else None,
            "curved_pairs": system.m * (system.m - 1) // 2,
            "trivially_balanced": system.m == 1,
        },
    )


# ---------------------------------------------------------------------------
# per-point aggregation
# ---------------------------------------------------------------------------

def certify_point(system: CliffordSystem, frame: AdaptedFrame,
                  shape: ShapeData, normal_coeffs,
                  geom_tol: float = 1e-8,
                  willmore_tol: float = 1e-7) -> WillmoreCertificate:
    """Every per-normal check over a fixed list of normal directions.

    `normal_coeffs` is an ordered iterable of unit coefficient vectors.  The
    whole chain runs once over the stacked normals (one eigh, one set of
    pair products, one ricci_quadratic call) and each field is the maximum
    over the normals, so identical inputs give identical certificates and
    the order of the normals does not matter.
    """
    coeffs = _coefficient_rows(system, normal_coeffs)
    x = frame.x
    reduced = willmore_residual(shape)
    spectrum, t0, t1, tm1 = _decompose(system, frame, shape, coeffs)
    p0, normals, pairs = _rotated(system, x, coeffs)
    reflection = _reflection(p0, t1, tm1)
    signed_balance, bridge = _ricci_balance(system, frame, shape, coeffs,
                                            t1, tm1)
    p_plus, p_minus = _pair_projections(pairs, t1, tm1)
    pairwise, signed_proj, leak = _projection_stats(system.m, p_plus, p_minus)
    case = np.maximum.reduce(_case_residuals(system, x, p0, normals, pairs,
                                             t0, p_plus, p_minus))
    balance_max = _fold(np.abs(signed_balance))
    bridge_max = _fold(bridge)
    chain_max = _fold(np.abs(signed_balance - signed_proj))
    proj_pair_max = _fold(pairwise)
    proj_agg_max = _fold(np.abs(signed_proj))
    t0_leak_max = _fold(leak)
    reflection_max = _fold(reflection)
    case_max = _fold(case)
    spectrum_max = _fold(spectrum)
    geom_worst = max(bridge_max, chain_max, proj_pair_max, proj_agg_max,
                     t0_leak_max, reflection_max, case_max, spectrum_max)
    passed = (reduced < willmore_tol and balance_max < willmore_tol
              and geom_worst < geom_tol)
    return WillmoreCertificate(
        residual_reduced=reduced,
        residual_balance=balance_max,
        residual_projection=max(proj_pair_max, proj_agg_max),
        projection_pairwise_max=proj_pair_max,
        projection_aggregate_max=proj_agg_max,
        bridge_max=bridge_max,
        chain_gap_max=chain_max,
        reflection_max=reflection_max,
        case_max=case_max,
        spectrum_deviation_max=spectrum_max,
        t0_pair_leak_max=t0_leak_max,
        n_normals=len(coeffs),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# non-Einstein probe
# ---------------------------------------------------------------------------

def einstein_probe(system: CliffordSystem, frame: AdaptedFrame,
                   n_dirs: int, seed: int,
                   shape: ShapeData | None = None) -> EinsteinProbe:
    """Spread of the Ricci quadratic form over probe directions.

    Probes n_dirs random unit tangents plus the extremal eigendirections of
    the Ricci tensor.  When the exact integer inequality 4l > m^2 + 3m + 4
    holds, the focal dimension exceeds m(m+1)/2 and a spread above 0.1 is
    reported as non-Einstein evidence; otherwise the probe is inconclusive
    and asserts nothing.
    """
    if n_dirs < 2:
        raise ValueError("n_dirs must be at least 2")
    if shape is None:
        shape = shape_operators(system, frame)
    rng = default_rng(int(seed) & ((1 << 64) - 1))
    t = frame.tangent
    n = t.shape[1]
    extremal = np.linalg.eigh(shape.ricci)[1][:, [0, n - 1]]
    dirs = np.hstack([sphere_samples(rng, n_dirs, n).T, extremal])
    values = ricci_quadratic(system, frame, t @ dirs)
    ricci_min = float(np.min(values))
    ricci_max = float(np.max(values))
    spread = ricci_max - ricci_min
    m, l = system.m, system.l
    condition = 4 * l > m * m + 3 * m + 4
    if condition:
        dim_ok = (2 * l - m - 2) > m * (m + 1) // 2
        spread_ok = spread > RICCI_SPREAD_THRESHOLD
        status = "evidence"
    else:
        dim_ok = None
        spread_ok = None
        status = "inconclusive"
    return EinsteinProbe(ricci_min=ricci_min, ricci_max=ricci_max,
                         spread=spread, dimension_condition=condition,
                         dim_inequality=dim_ok,
                         spread_exceeds_threshold=spread_ok, status=status)
