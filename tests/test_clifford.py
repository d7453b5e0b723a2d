"""Clifford systems: generator algebra, split construction, rotations, dumps.

Freshly built systems have integer entries, so the defining relations are
checked with zero tolerance; rotated systems only get 1e-12.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (AdmissibilityError, build_clifford_system,
                          build_skew_generators, delta, dump_matrices,
                          parse_matrices, rotate_system,
                          verify_clifford_relations)
from fkm_willmore.clifford import _orthonormal_completion

from conftest import GRID, conjugated_system, corrupt_system, nan_pair_system

DELTA_TABLE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16}


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
    assert gens.count == m - 1
    assert gens.dim == delta(m)
    eye = np.eye(gens.dim)
    for i, e in enumerate(gens.matrices):
        assert np.array_equal(e.T, -e), f"E_{i + 1} not skew"
        assert np.array_equal(e @ e, -eye), f"E_{i + 1}^2 != -I"
    for i, a in enumerate(gens.matrices):
        for j, b in enumerate(gens.matrices):
            if i == j:
                continue
            assert np.array_equal(a @ b, -(b @ a)), f"E pair ({i},{j})"


def test_generators_unimplemented_range():
    with pytest.raises(NotImplementedError):
        build_skew_generators(10)


def test_split_construction_blocks():
    system = build_clifford_system(1, 3)
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    p0 = np.block([[eye, zero], [zero, -eye]])
    p1 = np.block([[zero, eye], [eye, zero]])
    assert np.array_equal(system.matrices[0], p0)
    assert np.array_equal(system.matrices[1], p1)


@pytest.mark.parametrize("m,k", GRID + [(7, 2), (8, 2), (9, 1)])
def test_relations_exact_on_grid(m, k):
    system = build_clifford_system(m, k)
    assert system.l == k * delta(m)
    assert system.m2 == system.l - m - 1 >= 1
    check = verify_clifford_relations(system)
    assert check.name == "max_deviation" and check.passed
    assert check.residual == 0.0, f"integer relations must be exact: {check}"
    for p in system.matrices:
        assert np.isin(p, (-1.0, 0.0, 1.0)).all(), "entries must be integers"


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (1, 2), (2, 1)])
def test_inadmissible_configurations_rejected(m, k):
    with pytest.raises(AdmissibilityError) as info:
        build_clifford_system(m, k)
    assert info.value.m2 is not None and info.value.m2 < 1


def test_relations_tolerance_follows_the_entries():
    # an integer system is held to 0, one with float entries (here
    # conjugated by a random orthogonal Q) to 1e-12
    assert verify_clifford_relations(build_clifford_system(2, 2)).tol == 0.0
    conjugated = conjugated_system(2, 2)
    check = verify_clifford_relations(conjugated)
    assert check.tol == 1e-12 and check.passed and check.residual > 0.0
    assert not verify_clifford_relations(conjugated, tol=0.0).passed


def test_corruption_detected():
    check = verify_clifford_relations(corrupt_system(2, 2))
    assert not check.passed
    assert check.residual >= 1e-3


def test_nan_entry_pair_fails():
    check = verify_clifford_relations(nan_pair_system(2, 2))
    assert np.isnan(check.residual)
    assert not check.passed


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
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        rotate_system(system, np.array([0.5, 0.5]))


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2), (6, 1)])
def test_rotated_systems_keep_relations(m, k):
    system = build_clifford_system(m, k)
    rng = default_rng(2024)
    for _ in range(100):
        c = rng.standard_normal(m + 1)
        c /= np.linalg.norm(c)
        rotated = rotate_system(system, c)
        check = verify_clifford_relations(rotated, tol=1e-12)
        assert check.passed, f"c={c}: {check}"
        # first rotated matrix is the requested combination
        combo = np.einsum("a,aij->ij", c, system.stack)
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
    b = np.einsum("aij,bij->ab", rotated.stack, system.stack) / two_l
    assert np.max(np.abs(b @ b.T - np.eye(4))) <= 1e-12
    rebuilt = np.einsum("ab,bij->aij", b, system.stack)
    assert np.max(np.abs(rebuilt - rotated.stack)) <= 1e-12
    assert np.max(np.abs(b[0] - c)) <= 1e-12


def test_completion_batch_equals_rows():
    # one stacked completion, one reflection per row: a row's basis does
    # not depend on the other rows of the stack
    rng = default_rng(8)
    first = np.vstack([np.eye(5), rng.standard_normal((6, 5))])
    first /= np.linalg.norm(first, axis=1)[:, None]
    batch = _orthonormal_completion(first)
    assert batch.shape == (11, 5, 5)
    for row, basis in zip(first, batch):
        assert np.array_equal(basis[0], row)
        assert np.max(np.abs(basis @ basis.T - np.eye(5))) <= 1e-14
        assert np.max(np.abs(_orthonormal_completion(row[None])[0]
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
    basis = _orthonormal_completion(c[None])[0]
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
    back = parse_matrices(text)
    assert back.m == system.m and back.l == system.l
    for a, b in zip(back.matrices, system.matrices):
        assert np.array_equal(a, b)


def test_dump_rejects_non_integer_system():
    system = build_clifford_system(2, 2)
    c = np.array([3.0, 4.0, 0.0]) / 5.0
    rotated = rotate_system(system, c)
    with pytest.raises(ValueError):
        dump_matrices(rotated)


def test_parse_rejects_malformed_header():
    with pytest.raises(ValueError):
        parse_matrices("6\n")


def test_matrices_are_readonly():
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        system.matrices[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        system.stack[0, 0, 0] = 5.0
