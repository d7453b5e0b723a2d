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
numbers (m = 2), the quaternions (m = 3, 4) and the octonions (m = 5..8);
m = 9 doubles the octonion set once to dimension 16.  Left multiplication
tables are signed permutations, so every matrix built here has entries in
{-1, 0, +1} and its algebraic identities are checked with zero tolerance;
systems with other entries (rotated or conjugated ones) are held to 1e-12.

Admissibility: the focal manifold construction needs m2 = l - m - 1 >= 1.

Rotations within the unit sphere of Span{P_0, ..., P_m} preserve all of the
relations; `rotate_system` realises them with a closed-form orthonormal
completion (one Householder reflection), so that repeated runs give bitwise
identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AdmissibilityError
from .records import Check, fold

__all__ = [
    "CliffordSystem",
    "SkewGeneratorSet",
    "build_clifford_system",
    "build_skew_generators",
    "delta",
    "dump_matrices",
    "parse_matrices",
    "rotate_system",
    "verify_clifford_relations",
]

_DELTA_BASE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}

# q_a * q_b over the quaternion basis (1, i, j, k), stored as (sign, index).
_QUATERNION_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)

_J2 = ((0.0, -1.0), (1.0, 0.0))

# Relation tolerance for systems with non-integer entries.
_RELATIONS_TOL = 1e-12


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


def _octonion_table() -> tuple:
    """Octonion basis products by Cayley-Dickson doubling of the quaternions.

    Basis convention: e_p = (q_p, 0) for p = 0..3 and e_{4+p} = (0, q_p),
    with pair product (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)).
    Conjugation fixes q_0 and negates q_1, q_2, q_3.
    """
    def conj_sign(p):
        return 1 if p == 0 else -1

    table = [[None] * 8 for _ in range(8)]
    for s in range(8):
        slot_s, p_s = divmod(s, 4)
        for t in range(8):
            slot_t, p_t = divmod(t, 4)
            if slot_s == 0 and slot_t == 0:
                sign, r = _QUATERNION_TABLE[p_s][p_t]
                slot = 0
            elif slot_s == 0 and slot_t == 1:
                # (a, 0)(0, d) = (0, d a)
                sign, r = _QUATERNION_TABLE[p_t][p_s]
                slot = 1
            elif slot_s == 1 and slot_t == 0:
                # (0, b)(c, 0) = (0, b conj(c))
                sign, r = _QUATERNION_TABLE[p_s][p_t]
                sign *= conj_sign(p_t)
                slot = 1
            else:
                # (0, b)(0, d) = (-conj(d) b, 0)
                sign, r = _QUATERNION_TABLE[p_t][p_s]
                sign = -sign * conj_sign(p_t)
                slot = 0
            table[s][t] = (sign, 4 * slot + r)
    return tuple(tuple(row) for row in table)


def _left_multiplication(table, t: int, dim: int) -> np.ndarray:
    # Column s of L_t holds the coordinates of e_t * e_s.
    mat = np.zeros((dim, dim))
    for s in range(dim):
        sign, r = table[t][s]
        mat[r, s] = float(sign)
    return mat


@dataclass(frozen=True)
class SkewGeneratorSet:
    """Anticommuting orthogonal skew matrices: E_i E_j + E_j E_i = -2 delta_{ij} I."""

    dim: int
    matrices: tuple

    def __post_init__(self):
        mats = tuple(_freeze(E) for E in self.matrices)
        object.__setattr__(self, "matrices", mats)

    @property
    def count(self) -> int:
        return len(self.matrices)


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def build_skew_generators(m: int) -> SkewGeneratorSet:
    """The m - 1 base skew generators on R^{delta(m)}.

    m = 1 needs none; m = 2 uses the standard complex structure on R^2;
    m = 3, 4 use quaternion left multiplication by i, j(, k) on R^4;
    m = 5..8 use octonion left multiplication by e_1, ..., e_{m-1} on R^8;
    m = 9 doubles the octonion set to R^16 (split each generator across
    diag(1, -1) and append the block rotation J (x) I_8).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m == 1:
        return SkewGeneratorSet(dim=1, matrices=())
    if m == 2:
        return SkewGeneratorSet(dim=2, matrices=(np.array(_J2),))
    if m <= 4:
        mats = tuple(_left_multiplication(_QUATERNION_TABLE, t, 4)
                     for t in range(1, m))
        return SkewGeneratorSet(dim=4, matrices=mats)
    if m <= 8:
        table = _octonion_table()
        mats = tuple(_left_multiplication(table, t, 8) for t in range(1, m))
        return SkewGeneratorSet(dim=8, matrices=mats)
    if m == 9:
        base = build_skew_generators(8).matrices
        split = np.diag([1.0, -1.0])
        doubled = tuple(np.kron(split, E) for E in base)
        extra = np.kron(np.array(_J2), np.eye(8))
        return SkewGeneratorSet(dim=16, matrices=doubled + (extra,))
    raise NotImplementedError(
        f"m={m} needs a further Bott-periodicity doubling of the generator "
        "set; only m <= 9 is constructed")


@dataclass(frozen=True)
class CliffordSystem:
    """A symmetric Clifford system (P_0, ..., P_m) on R^{2l}.

    Matrices are stored read-only; all derived objects treat the system as
    immutable, which is what makes the per-configuration checks safe to run
    concurrently.
    """

    m: int
    l: int
    matrices: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(self.matrices) != self.m + 1:
            raise ValueError(
                f"expected {self.m + 1} matrices, got {len(self.matrices)}")
        n = 2 * self.l
        mats = []
        for P in self.matrices:
            P = _freeze(P)
            if P.shape != (n, n):
                raise ValueError(f"matrix shape {P.shape} != ({n}, {n})")
            mats.append(P)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def ambient_dim(self) -> int:
        return 2 * self.l

    @property
    def m2(self) -> int:
        return self.l - self.m - 1

    @cached_property
    def stack(self) -> np.ndarray:
        """All matrices as one read-only (m+1, 2l, 2l) array."""
        s = np.stack(self.matrices)
        s.setflags(write=False)
        return s

    @cached_property
    def integer(self) -> bool:
        """Whether every entry is an integer (as in freshly built systems),
        so that the relations hold exactly in double precision."""
        return bool(np.array_equal(self.stack, np.rint(self.stack)))

    def apply(self, x) -> np.ndarray:
        """P_a x for every a: (m+1, 2l) for one point, (K, m+1, 2l) for a
        (K, 2l) stack of points.

        Every P_a x is its own matrix-vector product, so each point of a
        stack gets the rounding of `stack @ x` bit for bit.
        """
        return np.matmul(self.stack, np.asarray(x)[..., None, :, None])[..., 0]


def build_clifford_system(m: int, k: int) -> CliffordSystem:
    """Split construction on R^{2l} = R^l + R^l with l = k * delta(m).

    Raises AdmissibilityError when m2 = l - m - 1 < 1: such systems carry no
    focal manifold of the kind verified here.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    gens = build_skew_generators(m)
    l = k * gens.dim
    m2 = l - m - 1
    if m2 < 1:
        raise AdmissibilityError(
            f"inadmissible configuration m={m}, k={k}: l={l} gives m2={m2}, "
            "need m2 >= 1", m2=m2)
    eye = np.eye(l)
    zero = np.zeros((l, l))
    mats = [
        np.block([[eye, zero], [zero, -eye]]),
        np.block([[zero, eye], [eye, zero]]),
    ]
    for E in gens.matrices:
        Ek = np.kron(np.eye(k), E)
        mats.append(np.block([[zero, Ek], [-Ek, zero]]))
    return CliffordSystem(m=m, l=l, matrices=tuple(mats))


def verify_clifford_relations(system: CliffordSystem,
                              tol: float | None = None) -> Check:
    """Check symmetry, anticommutation/involution and tracelessness.

    Returns the `max_deviation` check, the worst absolute residual of all
    three.  Freshly built systems have entries in {-1, 0, +1}; their
    products are exact in double precision, so by default an integer system
    is held to tol=0.  Rotated or conjugated systems carry float entries
    and are held to tol=1e-12 by default.
    """
    if tol is None:
        tol = 0.0 if system.integer else _RELATIONS_TOL
    stack = system.stack
    prods = stack[:, None] @ stack[None]             # P_a P_b for all a, b
    anti = (prods + prods.swapaxes(0, 1)
            - 2.0 * np.eye(system.m + 1)[:, :, None, None]
            * np.eye(system.ambient_dim))
    residuals = (stack - stack.transpose(0, 2, 1), anti,
                 np.trace(stack, axis1=1, axis2=2))
    return Check("max_deviation", fold([fold(np.abs(r)) for r in residuals]),
                 tol)


def _orthonormal_completion(first: np.ndarray) -> np.ndarray:
    """Orthonormal bases whose first rows are the rows of `first`.

    `first` is an (N, dim) stack of unit vectors c; the result is
    (N, dim, dim) with out[k] an orthonormal basis (as rows) and
    out[k, 0] = first[k].  Each basis is the Householder reflection
    I - w w^T / (1 + |c_0|) with w = c + s e_0, s = +1 for c_0 > 0 and -1
    otherwise, so |w|^2 = 2 (1 + |c_0|) never cancels.  Its row 0 is -s c
    and is set to c.  A coordinate vector c = e_j (j > 0) swaps e_0 and e_j.
    """
    c = np.asarray(first, dtype=float)
    w = c.copy()
    w[:, 0] += np.where(c[:, 0] > 0, 1.0, -1.0)
    scaled = w / (1.0 + np.abs(c[:, :1]))
    out = np.eye(c.shape[1]) - w[:, :, None] * scaled[:, None, :]
    out[:, 0] = c
    return out


def rotate_system(system: CliffordSystem, coeffs) -> CliffordSystem:
    """Rotate the system so that the new P_0 is sum_a c_a P_a.

    `coeffs` must be a unit vector in R^{m+1}.  The remaining matrices are
    the images of the Householder completion of `coeffs` (rows 1..m of
    I - w w^T / (1 + |c_0|), see _orthonormal_completion), so the output is
    a Clifford system spanning the same space (relations hold within 1e-12;
    entries are floats in general).  A coordinate vector e_j swaps P_0 and
    P_j and keeps the other matrices.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (system.m + 1,):
        raise ValueError(
            f"coefficient shape {c.shape} != ({system.m + 1},)")
    if not abs(float(np.linalg.norm(c)) - 1.0) <= 1e-12:
        raise ValueError("rotation coefficients must form a unit vector")
    basis = _orthonormal_completion(c[None])[0]
    new = np.einsum("ab,bij->aij", basis, system.stack)
    return CliffordSystem(m=system.m, l=system.l, matrices=tuple(new))


def dump_matrices(system: CliffordSystem) -> str:
    """Plain-text dump: header "2l m", then m+1 blocks of 2l integer rows.

    Only integer systems (freshly built ones) are dumpable; rotated systems
    raise ValueError.
    """
    if not system.integer:
        raise ValueError(
            "matrix dump requires exact integer entries; rotated systems "
            "are not dumpable")
    lines = [f"{system.ambient_dim} {system.m}"]
    for P in system.stack.astype(int):
        for row in P:
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrices(text: str) -> CliffordSystem:
    """Inverse of dump_matrices."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix dump")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected '2l m'")
    n, m = int(head[0]), int(head[1])
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"ambient dimension must be even and positive, got {n}")
    expected = 1 + (m + 1) * n
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, got {len(lines)}")
    mats = []
    pos = 1
    for _ in range(m + 1):
        rows = [[float(v) for v in lines[pos + r].split()] for r in range(n)]
        pos += n
        P = np.array(rows)
        if P.shape != (n, n):
            raise ValueError("matrix block has wrong row length")
        mats.append(P)
    return CliffordSystem(m=m, l=n // 2, matrices=tuple(mats))
