"""Points of the focal manifold M+ = {x in S^{2l-1} : all g_a(x) = 0}.

M+ is the level set F = +1 of the degree-4 polynomial, cut out by the m + 2
constraints

    c(x) = (|x|^2 - 1, g_0(x), ..., g_m(x)),      g_a(x) = <P_a x, x>.

Every point of M+ is (u + w) / sqrt(2) with u a unit vector of the +1
eigenspace E+ of P_0 and w a unit vector of the -1 eigenspace E- that is
orthogonal to P_1 u, ..., P_m u.  The seed point and the sampled points are
built that way from the projectors (I +- P_0) / 2, using nothing but the
Clifford relations, so they hold for any representation of the system.
Nothing is searched for: a point is constructed, then measured.

The points are measured, not judged, here: every row gets its constraint,
sphere and value residuals and the deviation of the Gram identity of the
constraint normals (see _certify), and the points block of the report
holds them to its tolerances and names the first row that fails.  At a
point of M+ the rows x, P_0 x, ..., P_m x are orthonormal, so J J^T = 4 I
for the constraint Jacobian J = 2 (x, P_0 x, ..., P_m x); a deviation that
is not small means the matrices are not a Clifford system, whatever the
residuals say.

sample_focal_points returns all points as one FocalPoints record, row 0
the seed.  The other rows come from one block of Gaussian rows, one row per
point, each mapped onto M+; all rows are measured in one stacked pass.  It
raises nothing on the system: a row that cannot be built stays finite and
off M+, and its residuals show it.  So the record has a fixed order, and a
point's row does not depend on the other points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .clifford import CliffordSystem
from .records import Record, fold

__all__ = [
    "FocalPoints",
    "SPHERE_TOL",
    "VALUE_TOL",
    "sample_focal_points",
]

# The points block's fixed thresholds (the constraints are held to `cert`).
SPHERE_TOL = 1e-12         # | |x|^2 - 1 |
VALUE_TOL = 1e-9           # |F(x) - 1|


def _subseed(master: int, *key: int) -> SeedSequence:
    """The sub-stream of the master seed named by `key`, ready for
    default_rng."""
    return SeedSequence(int(master), spawn_key=tuple(int(v) for v in key))


@dataclass(frozen=True)
class FocalPoints(Record):
    """n points built on M+ and the residuals that the points block checks.

    `x` (n, 2l) holds the points as rows, row 0 the closed-form seed.  The
    other fields are (n,) arrays from the one measuring pass of each row:
    max_a |g_a(x)|, | |x|^2 - 1 |, |F(x) - 1| = | |x|^4 - 2 |g|^2 - 1 |
    and the Gram deviation max |J J^T / 4 - I| of the (m+2) x 2l matrix
    J / 2 with rows x, P_0 x, ..., P_m x.  The points block reads the
    rank of J off the deviation.
    """

    x: np.ndarray
    residual_constraints: np.ndarray
    residual_sphere: np.ndarray
    value_gap: np.ndarray
    gram_deviation: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_k, b_k> for the rows of two (K, d) stacks, each with the rounding
    of the one-point a_k @ b_k.  (einsum, sums of elementwise products and
    np.linalg.norm with an axis round differently in the last place.)"""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _certify(system: CliffordSystem, x: np.ndarray) -> dict:
    """The certification residuals of every row of a (K, 2l) stack, in one
    pass, as (K,) arrays under the names of the FocalPoints fields.

    P_a x is formed once, as a stacked matrix-vector product, so every row
    gets the rounding of the one-point expressions stack @ x, (stack @ x) @ x
    and x @ x bit for bit, whatever K is.
    """
    px = system.apply(x)
    g = np.matmul(px, x[..., None])[..., 0]
    xx = _dot(x, x)
    rows = np.concatenate([x[:, None, :], px], axis=1)   # J / 2
    jjt = rows @ rows.transpose(0, 2, 1)                  # J J^T / 4
    jjt -= np.eye(rows.shape[1])
    return {"residual_constraints": fold(np.abs(g), axis=1),
            "residual_sphere": np.abs(xx - 1.0),
            "value_gap": np.abs(xx * xx - 2.0 * _dot(g, g) - 1.0),
            "gram_deviation": np.maximum.reduce(np.abs(jjt, out=jjt),
                                                axis=(1, 2))}


def _eigenparts(system: CliffordSystem, z: np.ndarray):
    """(I + P_0) z / 2 and (I - P_0) z / 2 for the rows of a (K, 2l) stack:
    the components of each row in the +1 and -1 eigenspaces of P_0."""
    p0z = np.matmul(system.matrices[0], z[..., None])[..., 0]
    return 0.5 * (z + p0z), 0.5 * (z - p0z)


def _reduce(system: CliffordSystem, u: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """v - sum_{a>=1} <v, P_a u> P_a u for the rows of two (K, 2l) stacks;
    a (1, 2l) u serves every row of v, with its P_a u formed once.

    For a unit u in E+, the P_a u (a >= 1) are orthonormal vectors of E-,
    so a v in E- loses exactly its components along them.
    """
    pu = np.matmul(system.matrices[1:], u[:, None, :, None])[..., 0]
    c = np.matmul(pu, v[..., None])
    return v - np.matmul(c.transpose(0, 2, 1), pu)[:, 0]


def _onto_focal(system: CliffordSystem, z: np.ndarray) -> np.ndarray:
    """Each row z of a (K, 2l) stack mapped to (u + w) / sqrt(2) on M+.

    u is the unit E+ part of z, w the unit part of its E- part that is
    orthogonal to P_1 u, ..., P_m u; then |x|^2 = 1, g_0 = (|u|^2 - |w|^2)/2
    and g_a = <P_a u, w> all vanish.  A row whose E+ part or reduced E- part
    is shorter than 1e-12 |z| has no such image and is returned as it is.
    Every product is a stacked matrix-vector form, so a row's image does not
    depend on the other rows.
    """
    x = z
    # The map fixes M+, so a second pass moves a mapped row only by
    # rounding: like Gram-Schmidt done twice, it removes the error that the
    # first pass amplifies when E+ or the reduced E- part of z is short.
    for _ in range(2):
        plus, minus = _eigenparts(system, x)
        floor = 1e-12 * np.sqrt(_dot(x, x))
        norm_u = np.sqrt(_dot(plus, plus))
        ok = norm_u > floor
        u = plus / np.where(ok, norm_u, 1.0)[:, None]
        w = _reduce(system, u, minus)
        norm_w = np.sqrt(_dot(w, w))
        ok &= norm_w > floor
        x = np.where(ok[:, None],
                     (u + w / np.where(ok, norm_w, 1.0)[:, None])
                     / np.sqrt(2.0), x)
    return x


def _first_unit(rows: np.ndarray) -> np.ndarray:
    """The first row of norm above 1e-6, normalized; a zero row if there
    is none."""
    norms = np.sqrt(_dot(rows, rows))
    found = np.flatnonzero(norms > 1e-6)
    if not found.size:
        return np.zeros(rows.shape[1])
    return rows[found[0]] / norms[found[0]]


def _seed_row(system: CliffordSystem) -> np.ndarray:
    """A fixed, RNG-free point of M+, built from the eigenspaces of P_0.

    u is the first (I + P_0) e_j / 2 of norm above 1e-6, normalized; w is
    the first (I - P_0) e_k / 2 with its components along P_1 u, ..., P_m u
    removed whose norm is above 1e-6, normalized.  Then x = (u + w) / sqrt(2)
    lies on M+ by the Clifford relations alone (see _onto_focal).  Without
    such a u or w that part is zero, so the seed, like a sampled row
    without an image, stays finite and off M+.  For integer systems u and
    w are signed basis vectors, so x = (+-e_j +- e_k) / sqrt(2) and its
    residuals come only from the rounding of 1/sqrt(2).
    """
    eye = np.eye(system.ambient_dim)
    plus, minus = _eigenparts(system, eye)
    u = _first_unit(plus)
    w = _first_unit(_reduce(system, u[None], minus))
    return (u + w) / np.sqrt(2.0)


def sample_focal_points(system: CliffordSystem, n: int,
                        seed: int) -> FocalPoints:
    """n points of M+ with their certification residuals: the closed-form
    seed (row 0) and n - 1 points from independent Gaussian rows mapped
    onto M+.

    One (n - 1, 2l) Gaussian block is drawn from the sub-seed
    (seed, spawn_key=(0,)), and sampled point i (row i + 1 of the record)
    takes row i of it, mapped onto M+ through the eigenspaces of P_0.  A
    row that cannot be built, the seed included, stays finite and off M+,
    and its residuals show it.  All n rows are measured in one stacked
    pass; the points block of the report judges them.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = default_rng(_subseed(seed, 0))
    x = np.empty((n, system.ambient_dim))
    x[0] = _seed_row(system)
    x[1:] = _onto_focal(system, rng.standard_normal(x[1:].shape))
    return FocalPoints(x=x, **_certify(system, x))
