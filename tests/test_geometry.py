"""Frames, shape operators, curvature scalars and the Ricci tensor."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (build_clifford_system, build_frame, report,
                          sample_focal_points, shape_operators)
from fkm_willmore.geometry import _upper_pairs, pair_products

from conftest import (GRID, conjugated_system, conjugator, geometry_fields,
                      judged_points)
from oracles import (sectional_curvature, sectional_curvature_from_shape,
                     take)


def _setup(m, k, n_points=2, seed=3):
    """The system, and the seed point and n_points sampled points as the
    rows of one array."""
    system = build_clifford_system(m, k)
    return system, sample_focal_points(system, n_points + 1, seed=seed)


@pytest.mark.parametrize("m,k", GRID)
def test_frame_is_orthonormal_and_complete(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, point)
        full = np.hstack([point[:, None], system.apply(frame.x)[0].T,
                          frame.tangent[0]])
        dev = np.max(np.abs(full.T @ full - np.eye(system.ambient_dim)))
        assert dev <= 1e-12
        assert frame.tangent.shape[2] == 2 * system.l - m - 2
        # completeness: squared coefficients of any vector sum to its norm
        rng = default_rng(42)
        v = rng.standard_normal(system.ambient_dim)
        assert abs(float(np.sum((full.T @ v) ** 2) - v @ v)) <= 1e-12


def test_frame_rejects_uncertified_input():
    # build_frame measures and judges nothing: the points block rejects a
    # row off M+, and the report builds frames only from points it passed
    system = build_clifford_system(1, 3)
    seed = sample_focal_points(system, 1, seed=0)
    build_frame(system, 1.1 * seed)
    _, block = judged_points(system, 1.1 * seed)
    assert not block["pass"]
    assert block["error"] == ("point 0 failed certification: "
                              "max_sphere_residual 2.1e-01 (tol 1e-12)")


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2)])
def test_tangent_decomposition_identities(m, k):
    # Expand the unit vector P_a X over the adapted basis {x, e_j, P_b x}
    # with a tangent basis whose first vector is X itself.  The x component
    # is <X, P_a x> = 0, so the tangential and normal squares alone sum to
    # one.  The tangential block of P_a is also trace free, which restates
    # minimality vector by vector.
    system, points = _setup(m, k)
    rng = default_rng(60 + m)
    for point in points:
        frame = build_frame(system, point)
        tangent, normal = frame.tangent[0], system.apply(frame.x)[0].T
        n = tangent.shape[1]
        for _ in range(5):
            z = rng.standard_normal(n)
            z /= np.linalg.norm(z)
            seed_cols = np.hstack([z[:, None], np.eye(n)])
            q, _ = np.linalg.qr(seed_cols)
            basis = tangent @ q[:, :n]
            for p in system.matrices:
                px = p @ basis[:, 0]
                assert abs(px @ point) <= 1e-12
                tang = basis.T @ px
                norm = normal.T @ px
                total = float(np.sum(tang ** 2) + np.sum(norm ** 2))
                assert abs(total - 1.0) <= 1e-9
                assert abs(np.trace(basis.T @ p @ basis)) <= 1e-9


@pytest.mark.parametrize("m,k", GRID)
def test_shape_operators_symmetric_traceless(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(build_frame(system, point))
        for a in range(m + 1):
            op = shape.operators[0, a]
            assert np.max(np.abs(op - op.T)) <= 1e-13
            assert abs(float(np.trace(op))) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_sff_norm_closed_form(m, k):
    system, points = _setup(m, k)
    expected = report._m_plus(system)["S"]
    for point in points:
        shape = shape_operators(build_frame(system, point))
        assert abs(shape.sff_norm_sq[0] - expected) <= 1e-12
        ops = shape.operators[0]
        assert abs(float(np.sum(ops * ops)) - expected) <= 1e-12


def test_sff_norm_examples():
    # spot values: (1,3) -> 4, (2,2) -> 6, (3,2) -> 32
    for (m, k), want in [((1, 3), 4.0), ((2, 2), 6.0), ((3, 2), 32.0)]:
        system = build_clifford_system(m, k)
        frame = build_frame(system, sample_focal_points(system, 1, seed=0))
        assert abs(shape_operators(frame).sff_norm_sq[0] - want) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_minimal_and_trace_free(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(build_frame(system, point))
        assert np.max(np.abs(shape.mean_curvature[0])) <= 1e-13
        ops = shape.operators[0]
        traces = np.trace(ops, axis1=1, axis2=2)
        assert np.max(np.abs(traces / ops.shape[1])) <= 1e-13
        # with H = 0 the trace-free norm coincides with the full norm
        assert geometry_fields(system, shape)["rho2_vs_S_max_gap"][0] <= 1e-12


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2)])
def test_sectional_curvature_two_routes(m, k):
    system, points = _setup(m, k)
    rng = default_rng(60 + m)
    for point in points:
        frame = build_frame(system, point)
        shape = shape_operators(frame)
        for _ in range(10):
            z = rng.standard_normal((frame.tangent.shape[2], 2))
            q, _ = np.linalg.qr(z)
            x_vec = frame.tangent @ q[:, 0]
            y_vec = frame.tangent @ q[:, 1]
            direct = sectional_curvature(system, x_vec, y_vec)[0]
            via_shape = sectional_curvature_from_shape(frame, shape, x_vec,
                                                       y_vec)[0]
            assert abs(direct - via_shape) <= 1e-10
            swapped = sectional_curvature(system, y_vec, x_vec)[0]
            assert abs(direct - swapped) <= 1e-10


def _closed_form(system, x, X):
    """Ric(X) = 2 (l - m - 2) + 2 sum_{a<b} <X, P_a P_b x>^2 for one unit
    tangent X at the point x, one pair at a time."""
    total = 2.0 * (system.l - system.m - 2)
    for a in range(system.m + 1):
        for b in range(a + 1, system.m + 1):
            total += 2.0 * float(X @ system.matrices[a]
                                 @ system.matrices[b] @ x) ** 2
    return total


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_sectional_sum(m, k):
    # X^T Ric_closed X = sum_i K(X, e_i) over an orthonormal tangent basis
    # with e_1 = X, and equals the closed form summed pair by pair
    system, points = _setup(m, k, n_points=1)
    rng = default_rng(70 + m)
    for point in points:
        frame = build_frame(system, point)
        n = frame.tangent.shape[2]
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        basis = np.linalg.qr(np.column_stack([z, np.eye(n)]))[0][:, :n]
        x_vec = frame.tangent @ basis[:, 0]
        total = sum(sectional_curvature(system, x_vec,
                                        frame.tangent @ basis[:, i])[0]
                    for i in range(1, n))
        quad = float(basis[:, 0] @ frame.closed_ricci[0] @ basis[:, 0])
        assert abs(quad - total) <= 1e-10
        assert abs(quad - _closed_form(system, point, x_vec[0])) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_tensor(m, k):
    # the closed-form matrix and the tensor from the shape operators give
    # one quadratic form, direction by direction; the closed form also
    # equals its pair-by-pair sum
    system, points = _setup(m, k)
    rng = default_rng(80 + m)
    for point in points:
        frame = build_frame(system, point)
        ric = shape_operators(frame).ricci[0]
        closed = frame.closed_ricci[0]
        assert np.max(np.abs(ric - ric.T)) <= 1e-12
        assert np.array_equal(closed, closed.T)
        for _ in range(100):
            z = rng.standard_normal(frame.tangent.shape[2])
            z /= np.linalg.norm(z)
            quad = float(z @ closed @ z)
            assert abs(quad - float(z @ ric @ z)) <= 1e-12
            assert abs(quad - _closed_form(system, point,
                                           frame.tangent[0] @ z)) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_spectra_invariant_under_conjugation(m, k):
    # x -> Q x maps M+ of the system onto M+ of the conjugated system
    # Q P_a Q^T isometrically, so both Ricci routes have the same spectrum
    # at Q x as at x, in whatever tangent basis each frame picks
    system, points = _setup(m, k)
    q = conjugator(system.ambient_dim, seed=m)
    conjugated = conjugated_system(m, k, seed=m)
    frames = build_frame(system, points)
    moved_x = np.array([q @ x for x in points])
    assert judged_points(conjugated, moved_x)[1]["pass"]
    moved = build_frame(conjugated, moved_x)
    for name, one, other in [
            ("closed", frames.closed_ricci, moved.closed_ricci),
            ("tensor", shape_operators(frames).ricci,
             shape_operators(moved).ricci)]:
        gap = np.linalg.eigvalsh(one) - np.linalg.eigvalsh(other)
        assert np.max(np.abs(gap)) <= 1e-12, name


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_trace_identity(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, point)
        shape = shape_operators(frame)
        n = frame.tangent.shape[2]
        want = n * (n - 1) - shape.sff_norm_sq[0]
        assert abs(float(np.trace(shape.ricci[0])) - want) <= 1e-11


# ---------------------------------------------------------------------------
# stacks of points against one point at a time
# ---------------------------------------------------------------------------

def _reference_frame_and_shape(system, x):
    """Tangent basis, pair products in the frame's basis, shape operators,
    |A|^2 and Ricci tensor of one point with 2-D arrays, the per-point code
    the stacks replace."""
    px = system.matrices @ x
    lead = np.hstack([x[:, None], px.T])
    q, _ = np.linalg.qr(lead, mode="complete")
    t = q[:, system.m + 2:]
    pairs = (np.einsum("aij,bj->abi", system.matrices, px)
             @ np.hstack([lead, t]))
    ops = -np.stack([t.T @ (p_a @ t) for p_a in system.matrices])
    n = t.shape[1]
    sq = ops @ ops
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("a,apq->pq", np.einsum("app->a", ops), ops)
             - np.sum(sq, axis=0))
    return t, pairs, ops, float(np.sum(ops * ops)), ricci


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_stacked_frames_and_shapes_equal_single_points(m, k):
    system, points = _setup(m, k, n_points=5)
    frames = build_frame(system, points)
    shapes = shape_operators(frames)
    gap = geometry_fields(system, shapes)["rho2_vs_S_max_gap"]
    assert len(frames.x) == len(shapes.operators) == len(points)
    for p, point in enumerate(points):
        frame, shape = take(frames, p), take(shapes, p)
        single = build_frame(system, point)
        assert np.array_equal(frame.x, point)
        for name in ("tangent", "operators", "pair_coords"):
            assert np.array_equal(getattr(frame, name),
                                  getattr(single, name)[0]), name
        # the pair products in the basis [x | P_0 x .. P_m x | T]
        full = np.hstack([point[:, None], system.apply(frame.x).T,
                          frame.tangent])
        assert np.array_equal(
            frame.pair_coords,
            pair_products(system, system.apply(point)) @ full)
        one = shape_operators(single)
        for name in ("operators", "sff_norm_sq", "mean_curvature", "ricci"):
            assert np.array_equal(getattr(shape, name),
                                  getattr(one, name)[0]), name
        assert gap[p] == geometry_fields(system, one)["rho2_vs_S_max_gap"][0]
        # bit for bit the arithmetic of the one-point code
        t, pairs, ops, s, ricci = _reference_frame_and_shape(system, point)
        assert np.array_equal(frame.tangent, t)
        assert np.array_equal(frame.pair_coords, pairs)
        assert np.array_equal(shape.operators, ops)
        assert shape.sff_norm_sq == s
        assert np.array_equal(shape.ricci, ricci)


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_shape_operators_match_einsum_reference(m, k):
    # a second route to A_a = -T^T P_a T and its Ricci tensor: one einsum
    # over all points and generators, summed in another order
    system, points = _setup(m, k, n_points=5)
    frames = build_frame(system, points)
    shapes = shape_operators(frames)
    t = frames.tangent
    ops = -np.einsum("kip,aij,kjq->kapq", t, system.matrices, t)
    n = t.shape[2]
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("ka,kapq->kpq", np.einsum("kapp->ka", ops), ops)
             - np.sum(np.einsum("kapq,kaqr->kapr", ops, ops), axis=1))
    assert np.max(np.abs(shapes.operators - ops)) <= 1e-14
    assert np.max(np.abs(shapes.ricci - ricci)) <= 1e-14
    s = np.sum(ops * ops, axis=(1, 2, 3))
    assert np.max(np.abs(shapes.sff_norm_sq - s) / s) <= 1e-14


@pytest.mark.parametrize("k", [0, 1, 2])
def test_upper_pairs_are_the_triu_indices(k):
    # the pair tables of the frame and the chain are np.triu_indices',
    # formed without its masks: the same pairs, order and integer type
    for count in range(12):
        got, want = _upper_pairs(count, k), np.triu_indices(count, k)
        assert len(got) == 2
        for have, pair in zip(got, want):
            assert have.dtype == pair.dtype
            assert np.array_equal(have, pair)


def test_pair_products_are_the_products_of_the_matrices():
    system, points = _setup(3, 2, n_points=1)
    x = points[1]
    pairs = pair_products(system, system.apply(x))
    for a, pa in enumerate(system.matrices):
        for b, pb in enumerate(system.matrices):
            assert np.allclose(pairs[a, b], pa @ pb @ x, atol=1e-15)
    assert np.array_equal(
        pair_products(system, system.apply(np.array([x, x])))[1], pairs)


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_stacked_ricci_quadratic_equals_single_frames(m, k):
    # the closed-form Ricci matrices of a stack are, bit for bit, the
    # one-point products 2 (l - m - 2) I + 2 Q^T Q with Q the tangent
    # coordinates of the rows Y = P_a P_b x, a < b
    system, points = _setup(m, k, n_points=4)
    frames = build_frame(system, points)
    ia, ib = np.triu_indices(m + 1, k=1)
    for p, point in enumerate(points):
        t, pairs = _reference_frame_and_shape(system, point)[:2]
        q = pairs[ia, ib, m + 2:]
        want = 2.0 * (system.l - m - 2) * np.eye(t.shape[1]) + 2.0 * (q.T @ q)
        assert np.array_equal(frames.closed_ricci[p], want)
        assert np.array_equal(frames.closed_ricci[p],
                              build_frame(system, point).closed_ricci[0])


def test_stacked_validation_names_the_point():
    # a stack is judged row by row, and the first row off M+ is named by
    # its index in the stack
    system, points = _setup(2, 2, n_points=2)
    _, block = judged_points(
        system, np.array([points[1], points[2], 1.1 * points[0]]))
    assert not block["pass"]
    assert block["error"].startswith(
        "point 2 failed certification: max_sphere_residual ")
