"""Symmetric Clifford systems with exact integer entries.

A symmetric Clifford system on R^{2l} is a tuple (P_0, ..., P_m) of symmetric
matrices satisfying

    P_a P_b + P_b P_a = 2 delta_{ab} I_{2l}.

The construction used throughout is the classical split form on
R^{2l} = R^l + R^l:

    P_0 (u, v) = (u, -v)
    P_1 (u, v) = (v, u)
    P_{1+i} (u, v) = (E_i v, -E_i u),      i = 1, ..., m-1,

where E_1, ..., E_{m-1} are pairwise anticommuting orthogonal skew matrices
on R^{delta(m)}, extended to R^l (l = k * delta(m)) as k-fold block
diagonals.  The base generators are left multiplications in the complex
numbers (m = 2), the quaternions (m = 3, 4) and the octonions (m = 5..8),
all read from one recursive Cayley-Dickson product (_product); m = 9
doubles the octonion set once to dimension 16.  Left multiplications by
basis elements are signed permutations, so every matrix built here has
entries in {-1, 0, +1} and its algebraic identities hold exactly in double
precision.  The report holds every system's relations to 1e-12, which
those of a system with other entries (a rotated or conjugated one) meet
past rounding.  A system is finite by construction: CliffordSystem rejects
a NaN or infinite entry, so no stage guards against one.

Admissibility: the focal manifold construction needs m2 = l - m - 1 >= 1.

Rotations within the unit sphere of Span{P_0, ..., P_m} preserve all of the
relations; the Willmore chain never forms one: it reads its pair identities
as per-point tensors that hold for every rotation at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import fold, freeze

__all__ = [
    "AdmissibilityError",
    "CliffordSystem",
    "build_clifford_system",
    "build_skew_generators",
    "delta",
    "dump_matrices",
    "verify_clifford_relations",
]

_DELTA_BASE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}


class AdmissibilityError(ValueError):
    """The requested pair (m, k) leaves no room for a focal manifold.

    The pipeline's one exception type: nothing raises on measured data (a
    false identity or an uncertified point leaves residuals that fail their
    block of the report), and an input a stage cannot read, a non-finite
    system entry included, raises ValueError.  Carries the computed second
    multiplicity m2 = l - m - 1, which must be at least 1 for the
    construction to make sense.
    """

    def __init__(self, message: str, m2: int | None = None):
        super().__init__(message)
        self.m2 = m2


def delta(m: int) -> int:
    """Dimension of the generator substrate for a system with m + 1 matrices.

    Values for m = 1..8 are 1, 2, 4, 4, 8, 8, 8, 8 and the table extends by
    delta(m + 8) = 16 * delta(m).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m <= 8:
        return _DELTA_BASE[m]
    return 16 * delta(m - 8)


def _product(s: int, t: int, dim: int) -> tuple:
    """e_s e_t = sign * e_r in the Cayley-Dickson algebra of dimension dim
    (1, 2, 4 or 8: the reals, complex numbers, quaternions, octonions), as
    (sign, r).

    The algebra of dimension 2h holds pairs of elements of the one of
    dimension h, with basis e_p = (e_p, 0) and e_{h+p} = (0, e_p) for p < h,
    and product (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)).
    Conjugation fixes e_0 and negates every other basis element.
    """
    if dim == 1:
        return 1, 0
    h = dim // 2
    (slot_s, p), (slot_t, q) = divmod(s, h), divmod(t, h)
    conj = 1 if q == 0 else -1
    if not slot_s and not slot_t:       # (a, 0)(c, 0) = (a c, 0)
        return _product(p, q, h)
    if not slot_s:                      # (a, 0)(0, d) = (0, d a)
        sign, r = _product(q, p, h)
        return sign, h + r
    if not slot_t:                      # (0, b)(c, 0) = (0, b conj(c))
        sign, r = _product(p, q, h)
        return conj * sign, h + r
    sign, r = _product(q, p, h)         # (0, b)(0, d) = (-conj(d) b, 0)
    return -conj * sign, r


def _left_multiplication(t: int, dim: int) -> np.ndarray:
    """Left multiplication by e_t on R^dim: column s holds the coordinates
    of e_t e_s."""
    mat = np.zeros((dim, dim))
    for s in range(dim):
        sign, r = _product(t, s, dim)
        mat[r, s] = float(sign)
    return mat


def build_skew_generators(m: int) -> tuple:
    """The m - 1 base skew generators on R^{delta(m)}, as read-only
    matrices: E_i E_j + E_j E_i = -2 delta_{ij} I, E_i^T = -E_i.

    For m <= 8 they are the left multiplications by e_1, ..., e_{m-1} in
    the Cayley-Dickson algebra of dimension delta(m) (none for m = 1).
    m = 9 doubles the octonion set to R^16: each generator split across
    diag(1, -1), and the complex structure of R^2 tensored with I_8.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m <= 8:
        mats = tuple(_left_multiplication(t, delta(m)) for t in range(1, m))
    elif m == 9:
        split = np.diag([1.0, -1.0])
        mats = (tuple(np.kron(split, E) for E in build_skew_generators(8))
                + (np.kron(_left_multiplication(1, 2), np.eye(8)),))
    else:
        raise NotImplementedError(
            f"m={m} needs a further Bott-periodicity doubling of the "
            "generator set; only m <= 9 is constructed")
    return tuple(freeze(E) for E in mats)


@dataclass(frozen=True)
class CliffordSystem:
    """A symmetric Clifford system (P_0, ..., P_m) on R^{2l}.

    `matrices` holds the generators as one read-only (m+1, 2l, 2l) array.
    The constructor accepts any array or sequence of matrices of that
    shape, and takes over an array that owns its data (records.freeze).
    It rejects l < 1 and any NaN or infinite entry, so every stage reads a
    finite, non-empty system.  All derived objects treat the system as
    immutable, which is what makes the per-configuration checks safe to run
    concurrently.
    """

    m: int
    l: int
    matrices: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.l < 1:
            raise ValueError(f"m and l must be >= 1, got m={self.m}, "
                             f"l={self.l}")
        expected = (self.m + 1, 2 * self.l, 2 * self.l)
        try:
            mats = np.asarray(self.matrices, float)
        except ValueError:                  # matrices of unequal shapes
            mats = None
        if mats is None or mats.shape != expected:
            raise ValueError(f"matrices are not one {expected} array")
        if not np.isfinite(mats).all():
            raise ValueError("matrices have a NaN or infinite entry")
        # frozen only once accepted, so a rejected array stays writable
        object.__setattr__(self, "matrices", freeze(mats))

    @property
    def ambient_dim(self) -> int:
        return 2 * self.l

    @property
    def m2(self) -> int:
        return self.l - self.m - 1

    def apply(self, x) -> np.ndarray:
        """P_a x for every a: (m+1, 2l) for one point, (K, m+1, 2l) for a
        (K, 2l) stack of points.

        Every P_a x is its own matrix-vector product, so each point of a
        stack gets the rounding of `matrices @ x` bit for bit.
        """
        return (self.matrices @ np.asarray(x)[..., None, :, None])[..., 0]


def build_clifford_system(m: int, k: int) -> CliffordSystem:
    """Split construction on R^{2l} = R^l + R^l with l = k * delta(m),
    written block by block into one (m+1, 2l, 2l) zero stack.

    Raises AdmissibilityError when m2 = l - m - 1 < 1: such systems carry no
    focal manifold of the kind verified here.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    gens = build_skew_generators(m)
    l = k * delta(m)
    m2 = l - m - 1
    if m2 < 1:
        raise AdmissibilityError(
            f"inadmissible configuration m={m}, k={k}: l={l} gives m2={m2}, "
            "need m2 >= 1", m2=m2)
    # Each block is written in place into one zero stack.  The lower-right
    # -I of P_0 and each -E^(k) are negations, as in the block form
    # [[I, 0], [0, -I]], [[0, I], [I, 0]], [[0, E^(k)], [-E^(k), 0]], and
    # E^(k) = I_k (x) E holds the products I_k[b, c] E[p, q] that the
    # Kronecker product forms, so even the zeros carry the same signs.
    eye = np.eye(l)
    mats = np.zeros((m + 1, 2 * l, 2 * l))
    mats[0, :l, :l] = mats[1, :l, l:] = mats[1, l:, :l] = eye
    np.negative(eye, out=mats[0, l:, l:])
    if gens:
        ek = mats[2:, :l, l:]
        ek[...] = (np.eye(k)[:, None, :, None]
                   * np.asarray(gens)[:, None, :, None, :]).reshape(
                       m - 1, l, l)
        np.negative(ek, out=mats[2:, l:, :l])
    return CliffordSystem(m=m, l=l, matrices=mats)


def verify_clifford_relations(system: CliffordSystem) -> float:
    """The worst absolute residual of symmetry, anticommutation/involution
    and tracelessness.

    Freshly built systems have entries in {-1, 0, +1}; their products are
    exact in double precision, so their residual is 0, and any false
    relation among integer entries leaves a residual of at least 1.  The
    report holds it to the fixed 1e-12 that CHECKED_FIELDS names.
    """
    stack, m1 = system.matrices, system.m + 1
    prods = stack[:, None] @ stack[None]             # P_a P_b for all a, b
    anti = prods + prods.swapaxes(0, 1)
    # 2 delta_ab I off the diagonal a = b is a zero, whose subtraction
    # leaves every entry as it is, so only the m + 1 diagonal products
    # lose 2 I
    anti.reshape(m1 * m1, *stack.shape[1:])[::m1 + 1] -= (
        2.0 * np.eye(system.ambient_dim))
    residuals = (stack - stack.transpose(0, 2, 1), anti,
                 stack.trace(axis1=1, axis2=2))
    return fold([fold(np.abs(r, out=r)) for r in residuals])


def dump_matrices(system: CliffordSystem) -> str:
    """Plain-text dump: header "2l m", then m+1 blocks of 2l integer rows.

    Only integer systems (freshly built ones) are dumpable; rotated or
    conjugated systems raise ValueError.
    """
    if not np.array_equal(system.matrices, np.rint(system.matrices)):
        raise ValueError(
            "matrix dump requires exact integer entries; rotated systems "
            "are not dumpable")
    lines = [f"{system.ambient_dim} {system.m}"]
    for P in system.matrices.astype(int):
        for row in P:
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
