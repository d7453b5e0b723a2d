"""Clifford systems: generator algebra, split construction, rotations, dumps.

Freshly built systems have integer entries, so the defining relations
hold exactly; the report holds every system to 1e-12, which rotated ones
(built by the test oracle oracles.rotate_system) meet past rounding.
"""

import hashlib
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (AdmissibilityError, CliffordSystem,
                          VerificationConfig, build_clifford_system,
                          build_frame, build_skew_generators, certify_point,
                          delta, dump_matrices, evaluate_system,
                          sample_focal_points, shape_operators,
                          verify_clifford_relations)
from fkm_willmore.clifford import _product

from conftest import (GRID, NON_FINITE, conjugated_system, corrupt_system,
                      nan_pair_matrices)
from oracles import (block_system, orthonormal_completion, parse_dump,
                     rotate_system)

DELTA_TABLE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16}


def clifford_block(system):
    """The clifford block that the report makes of `system`."""
    cfg = VerificationConfig(n_points=1, n_normals=0)
    return evaluate_system(system, cfg, 0)["blocks"]["clifford"]


def test_delta_table():
    for m, expected in DELTA_TABLE.items():
        assert delta(m) == expected, f"delta({m})"
    # periodicity: one full period and a nested one
    assert delta(10) == 16 * delta(2)
    assert delta(17) == 16 * delta(9) == 256
    with pytest.raises(ValueError):
        delta(0)


@pytest.mark.parametrize("m", range(1, 10))
def test_skew_generators_exact(m):
    gens = build_skew_generators(m)
    assert len(gens) == m - 1
    assert all(e.shape == (delta(m), delta(m)) for e in gens)
    eye = np.eye(delta(m))
    for i, e in enumerate(gens):
        assert np.array_equal(e.T, -e), f"E_{i + 1} not skew"
        assert np.array_equal(e @ e, -eye), f"E_{i + 1}^2 != -I"
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i == j:
                continue
            assert np.array_equal(a @ b, -(b @ a)), f"E pair ({i},{j})"


# SHA-256 of np.stack(build_skew_generators(m)).tobytes(): the generators,
# and so every system and report built from them, keep their bytes
GENERATOR_SHA256 = {
    2: "c4b31ed64280cb80a693e5ab551136b63439d7bb2900db77eb8b831c7d9a39b0",
    3: "8eb69dddb60df7974c6f6bf924ad8891d21b8191fad7026f6b386ec7f860efa6",
    4: "02bb12f2c6a5849e102813c4278461fedc1bd81f1caca76d81f7dbbaa9879add",
    5: "d41808e44378f73d995e75a5ad56c7354f10f558d21363b66f05093792b02a4e",
    6: "7522b76997d89e67c78ed6bdcfe5a2f2c2af8fe079706d787ce97b832f95c3d0",
    7: "744fcd4cac148d6b12306ce41eecf615236a5bf01cba274f74352bc4b8f5d082",
    8: "4a1d8699d6d99b93174247e0f925cae5c74155ffdb987a2bf2d7b05a332aefb5",
    9: "e2f76a970e606ef5ecd48f59e93ded235d9eb2b05244bd9bac5b86932e2da0d6",
}


@pytest.mark.parametrize("m", sorted(GENERATOR_SHA256))
def test_generator_bytes_are_pinned(m):
    data = np.stack(build_skew_generators(m)).tobytes()
    assert hashlib.sha256(data).hexdigest() == GENERATOR_SHA256[m]


def test_cayley_dickson_product_gives_the_quaternions():
    # basis (1, i, j, k) = e_0..e_3: i j = k, j k = i, k i = j, and each
    # imaginary unit squares to -1
    one, i, j, k = range(4)
    assert _product(i, j, 4) == (1, k)
    assert _product(j, k, 4) == (1, i)
    assert _product(k, i, 4) == (1, j)
    assert _product(j, i, 4) == (-1, k)
    for unit in (i, j, k):
        assert _product(unit, unit, 4) == (-1, one)
    # e_0 is the unit of every algebra the recursion builds
    for dim in (1, 2, 4, 8):
        for s in range(dim):
            assert _product(0, s, dim) == _product(s, 0, dim) == (1, s)


def test_generators_unimplemented_range():
    with pytest.raises(NotImplementedError):
        build_skew_generators(10)
    # below the table there is no generator set at all, not an empty one
    with pytest.raises(ValueError, match="m must be a positive integer"):
        build_skew_generators(0)


def test_split_construction_blocks():
    system = build_clifford_system(1, 3)
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    p0 = np.block([[eye, zero], [zero, -eye]])
    p1 = np.block([[zero, eye], [eye, zero]])
    assert np.array_equal(system.matrices[0], p0)
    assert np.array_equal(system.matrices[1], p1)


# Every admissible (m, k) with 2l <= 32; (7, 2), (8, 2) and (9, 1) among
# them.
ADMISSIBLE_32 = [(m, k) for m in range(1, 10)
                 for k in range(1, 16 // delta(m) + 1)
                 if k * delta(m) >= m + 2]


def test_admissible_grid_to_32():
    assert len(ADMISSIBLE_32) == 34
    assert {(7, 2), (8, 2), (9, 1)} | set(GRID) <= set(ADMISSIBLE_32)


@pytest.mark.parametrize("m,k", ADMISSIBLE_32)
def test_built_system_equals_the_block_construction(m, k):
    # the blocks written in place are the block matrices of the split
    # form, entry for entry and bit for bit, the signs of the zeros
    # included; the stack is one read-only float array
    system = build_clifford_system(m, k)
    want = block_system(m, k)
    assert type(system.matrices) is np.ndarray
    assert system.matrices.dtype == np.float64
    assert not system.matrices.flags.writeable
    assert np.array_equal(system.matrices, want)
    assert system.matrices.tobytes() == want.tobytes()


@pytest.mark.parametrize("m,k", GRID + [(7, 2), (8, 2), (9, 1)])
def test_relations_exact_on_grid(m, k):
    system = build_clifford_system(m, k)
    assert system.l == k * delta(m)
    assert system.m2 == system.l - m - 1 >= 1
    residual = verify_clifford_relations(system)
    assert type(residual) is float
    assert residual == 0.0, f"integer relations must be exact: {residual}"
    for p in system.matrices:
        assert np.isin(p, (-1.0, 0.0, 1.0)).all(), "entries must be integers"


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (1, 2), (2, 1)])
def test_inadmissible_configurations_rejected(m, k):
    with pytest.raises(AdmissibilityError) as info:
        build_clifford_system(m, k)
    assert info.value.m2 is not None and info.value.m2 < 1


def test_relations_tolerance_follows_the_entries():
    # the report holds every system to 1e-12: an integer system meets its
    # relations exactly, and one with float entries (here conjugated by a
    # random orthogonal Q) passes with a residual above 0
    block = clifford_block(build_clifford_system(2, 2))
    assert block == {"max_deviation": 0.0, "pass": True}
    block = clifford_block(conjugated_system(2, 2))
    assert block["pass"] and 0.0 < block["max_deviation"] <= 1e-14


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_relations_tolerance_is_1e_12(factor):
    # every P_a scaled by s gives P_a^2 = s^2 I, so the worst residual is
    # 2 (s^2 - 1) past rounding: sized 10% below 1e-12 the clifford block
    # of a conjugated system passes, 10% above it the block fails
    base = conjugated_system(2, 2)
    s = np.sqrt(1.0 + factor * 0.5e-12)
    scaled = CliffordSystem(m=2, l=base.l, matrices=base.matrices * s)
    block = clifford_block(scaled)
    assert abs(block["max_deviation"] - factor * 1e-12) <= 1e-14
    assert block["pass"] == (factor < 1.0)


def test_corruption_detected():
    system = corrupt_system(2, 2)
    assert verify_clifford_relations(system) >= 1e-3
    assert not clifford_block(system)["pass"]


def test_a_false_integer_relation_misses_by_at_least_one():
    # products of integer matrices are integer, so a false relation among
    # them leaves a residual of at least 1, and 1e-12 judges an integer
    # system as zero tolerance would.  Negating P_1's symmetric pair at
    # (0, l) and (l, 0) keeps P_1 symmetric and traceless but breaks
    # P_1^2 = I: the relations, the PDEs and the sampled points all fail
    base = build_clifford_system(2, 2)
    mats = np.array(base.matrices)
    l = base.l
    mats[1, 0, l] = mats[1, l, 0] = -mats[1, 0, l]
    system = CliffordSystem(m=2, l=l, matrices=mats)
    assert verify_clifford_relations(system) >= 1.0
    entry = evaluate_system(system, VerificationConfig(n_points=3,
                                                       n_normals=0), 0)
    failed = [name for name, b in entry["blocks"].items() if not b["pass"]]
    assert failed == ["clifford", "cartan_munzner", "points"]


def test_nan_entry_pair_fails():
    # a system is finite by construction: a NaN or infinite entry (here one
    # symmetric pair of P_1) raises ValueError before any stage reads the
    # matrices, so verify_clifford_relations and the clifford block never
    # see one; nothing warns, and a rejected array is not taken over
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in NON_FINITE:
            mats = nan_pair_matrices(2, 2, value)
            with pytest.raises(ValueError, match="NaN or infinite entry"):
                CliffordSystem(m=2, l=mats.shape[1] // 2, matrices=mats)
            assert mats.flags.writeable, value


def test_l_below_one_is_rejected():
    # l < 1 raises ValueError; l = 1 holds the smallest system, (P_0, P_1)
    # on R^2
    with pytest.raises(ValueError, match="l=0"):
        CliffordSystem(m=1, l=0, matrices=np.zeros((2, 0, 0)))
    # k < 1 is refused by name, not read as an inadmissible l = 0
    with pytest.raises(ValueError, match="k must be a positive integer"):
        build_clifford_system(1, 0)
    smallest = CliffordSystem(m=1, l=1, matrices=[[[1, 0], [0, -1]],
                                                  [[0, 1], [1, 0]]])
    assert verify_clifford_relations(smallest) == 0.0


def test_rotate_identity_coefficients():
    system = build_clifford_system(2, 2)
    c = np.zeros(3)
    c[0] = 1.0
    rotated = rotate_system(system, c)
    for a in range(3):
        assert np.array_equal(rotated.matrices[a], system.matrices[a])


def test_rotate_swap_coefficients():
    # c = e_1 makes P'_0 = P_1; the completion reuses e_0 for the next row.
    system = build_clifford_system(2, 2)
    c = np.zeros(3)
    c[1] = 1.0
    rotated = rotate_system(system, c)
    assert np.array_equal(rotated.matrices[0], system.matrices[1])
    assert np.array_equal(rotated.matrices[1], system.matrices[0])
    assert np.array_equal(rotated.matrices[2], system.matrices[2])


def test_rotate_rejects_non_unit():
    # the Willmore chain rotates the system by each normal's coefficients,
    # and certify_point refuses coefficients that are not a unit vector
    system = build_clifford_system(1, 3)
    frame = build_frame(system, sample_focal_points(system, 1, seed=0))
    with pytest.raises(ValueError, match="unit vector"):
        certify_point(system, frame, shape_operators(frame),
                      [[np.array([0.5, 0.5])]])


@pytest.mark.parametrize("scale,fails", [(1.0 + 2e-12, True),
                                         (1.0 + 5e-13, False)])
def test_coefficient_guard_names_point_and_normal(scale, fails):
    # the guard holds each coefficient row's norm to 1 within 1e-12 and
    # names the first row outside it by its point and its normal
    system = build_clifford_system(1, 3)
    frame = build_frame(system, sample_focal_points(system, 2, seed=0))
    coeffs = np.tile(np.eye(2), (2, 2, 1))               # (2 points, 4, 2)
    coeffs[1, 2] *= scale
    coeffs[1, 3] *= scale
    if not fails:
        certify_point(system, frame, shape_operators(frame), coeffs)
        return
    with pytest.raises(ValueError, match=r"^point 1, normal 2: coefficients "
                                         r"must form a unit vector \(norm "
                                         r"deviation 2\.000e-12\)$"):
        certify_point(system, frame, shape_operators(frame), coeffs)


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2), (6, 1)])
def test_rotated_systems_keep_relations(m, k):
    system = build_clifford_system(m, k)
    rng = default_rng(2024)
    for _ in range(100):
        c = rng.standard_normal(m + 1)
        c /= np.linalg.norm(c)
        rotated = rotate_system(system, c)
        residual = verify_clifford_relations(rotated)
        assert residual <= 1e-12, f"c={c}: {residual:.3e}"
        # first rotated matrix is the requested combination
        combo = np.einsum("a,aij->ij", c, system.matrices)
        assert np.max(np.abs(rotated.matrices[0] - combo)) <= 1e-14


def test_rotation_is_orthogonal_change_of_span():
    system = build_clifford_system(3, 2)
    rng = default_rng(7)
    c = rng.standard_normal(4)
    c /= np.linalg.norm(c)
    rotated = rotate_system(system, c)
    two_l = system.ambient_dim
    # recover the mixing matrix from Frobenius inner products; it must be
    # orthogonal and reproduce the rotated stack from the original one
    b = np.einsum("aij,bij->ab", rotated.matrices, system.matrices) / two_l
    assert np.max(np.abs(b @ b.T - np.eye(4))) <= 1e-12
    rebuilt = np.einsum("ab,bij->aij", b, system.matrices)
    assert np.max(np.abs(rebuilt - rotated.matrices)) <= 1e-12
    assert np.max(np.abs(b[0] - c)) <= 1e-12


def test_completion_batch_equals_rows():
    # one stacked completion, one reflection per row: a row's basis does
    # not depend on the other rows of the stack
    rng = default_rng(8)
    first = np.vstack([np.eye(5), rng.standard_normal((6, 5))])
    first /= np.linalg.norm(first, axis=1)[:, None]
    batch = orthonormal_completion(first)
    assert batch.shape == (11, 5, 5)
    for row, basis in zip(first, batch):
        assert np.array_equal(basis[0], row)
        assert np.max(np.abs(basis @ basis.T - np.eye(5))) <= 1e-14
        assert np.max(np.abs(orthonormal_completion(row[None])[0]
                             - basis)) <= 1e-15
    # e_2 first: the reflection swaps e_0 and e_2, the rest stay in place
    assert np.array_equal(batch[2], np.eye(5)[[2, 1, 0, 3, 4]])


def _unit_rows():
    """Unit vectors in R^2..R^10, with the coordinate vectors +-e_j, c_0 = 0
    and c_0 near -1 drawn often."""
    def build(dim, kind, j, sign, z, eps):
        if kind == "coordinate":
            c = np.zeros(dim)
            c[j % dim] = sign
            return c
        if kind == "equator":
            z = z[:dim].copy()
            z[0] = 0.0
        elif kind == "near-minus-e0":
            z = eps * z[:dim]
            z[0] = -1.0
        else:
            z = z[:dim]
        assume(np.linalg.norm(z) > 1e-3)
        return z / np.linalg.norm(z)
    floats = st.floats(-1.0, 1.0)
    return st.builds(
        build, st.integers(2, 10),
        st.sampled_from(["coordinate", "equator", "near-minus-e0", "any"]),
        st.integers(0, 9), st.sampled_from([1.0, -1.0]),
        hnp.arrays(float, 10, elements=floats),
        st.sampled_from([1e-12, 1e-8, 1e-4]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=_unit_rows())
def test_completion_is_an_orthonormal_householder_basis(c):
    basis = orthonormal_completion(c[None])[0]
    assert np.array_equal(basis[0], c)
    assert np.max(np.abs(basis @ basis.T - np.eye(len(c)))) <= 1e-14
    if np.count_nonzero(c) == 1:
        # a coordinate vector gives a signed permutation
        assert set(np.unique(basis)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(np.abs(basis).sum(axis=0), np.ones(len(c)))
        assert np.array_equal(np.abs(basis).sum(axis=1), np.ones(len(c)))


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (5, 1)])
def test_dump_parse_roundtrip(m, k):
    system = build_clifford_system(m, k)
    text = dump_matrices(system)
    first = text.splitlines()[0].split()
    assert first == [str(system.ambient_dim), str(m)]
    back = parse_dump(text)
    assert back.m == system.m and back.l == system.l
    for a, b in zip(back.matrices, system.matrices):
        assert np.array_equal(a, b)


def test_dump_rejects_non_integer_system():
    system = build_clifford_system(2, 2)
    c = np.array([3.0, 4.0, 0.0]) / 5.0
    rotated = rotate_system(system, c)
    with pytest.raises(ValueError, match="not dumpable"):
        dump_matrices(rotated)


def test_matrices_are_readonly():
    # the generators are held once, as one read-only (m+1, 2l, 2l) array
    system = build_clifford_system(1, 3)
    assert type(system.matrices) is np.ndarray
    assert system.matrices.shape == (2, 6, 6)
    assert not hasattr(system, "stack")
    with pytest.raises(ValueError):
        system.matrices[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        system.matrices[0, 0, 0] = 5.0
    # an owned float array is taken over, not copied
    mats = np.array(system.matrices)
    assert CliffordSystem(m=1, l=3, matrices=mats).matrices is mats
    assert not mats.flags.writeable


def test_wrong_matrix_shape_names_the_expected_array():
    mats = build_clifford_system(1, 3).matrices
    for bad in (mats[:1], mats[:, :4, :4], (mats[0], mats[1, :4, :4])):
        with pytest.raises(ValueError, match=r"\(2, 6, 6\)"):
            CliffordSystem(m=1, l=3, matrices=bad)


@pytest.mark.parametrize("kind,kept", [
    (np.longdouble, np.longdouble), (np.float64, np.float64),
    (np.float32, np.float64), (int, np.float64), (bool, np.float64),
    (object, np.float64), (list, np.float64), (complex, None)],
    ids=["longdouble", "float64", "float32", "int", "bool", "object", "list",
         "complex"])
def test_matrices_are_real_float64_or_wider(kind, kept):
    # the system's dtype is the precision of the sampler and the Willmore
    # chain: a wider float is kept, any other real input becomes float64,
    # an owned array of a kept dtype is taken over as is, and a complex
    # stack is refused by its dtype, with no ComplexWarning (an error here)
    mats = build_clifford_system(1, 3).matrices
    given = mats.tolist() if kind is list else mats.astype(kind)
    if kept is None:
        with pytest.raises(ValueError, match="not real: dtype complex128"):
            CliffordSystem(m=1, l=3, matrices=given)
        return
    system = CliffordSystem(m=1, l=3, matrices=given)
    assert system.matrices.dtype == kept
    assert np.array_equal(system.matrices, np.array(given, dtype=kept))
    assert (system.matrices is given) == (kind in (np.float64, np.longdouble))
