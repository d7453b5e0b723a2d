"""Frames, shape operators, curvature scalars and the Ricci tensor."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (AdaptedFrame, FocalPoint, FrameError,
                          build_clifford_system, build_frame,
                          deterministic_seed, ricci_quadratic,
                          sample_focal_points, sectional_curvature,
                          sectional_curvature_from_shape, shape_operators)
from fkm_willmore.geometry import pair_products, take

from conftest import GRID


def _setup(m, k, n_points=2, seed=3):
    system = build_clifford_system(m, k)
    points = [deterministic_seed(system)]
    points += sample_focal_points(system, n_points, seed=seed)
    return system, points


@pytest.mark.parametrize("m,k", GRID)
def test_frame_is_orthonormal_and_complete(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, [point])
        normals = (system.stack @ point.x).T
        assert np.array_equal(frame.normal[0], normals), \
            "normals are P_a x exactly"
        full = np.hstack([point.x[:, None], frame.normal[0],
                          frame.tangent[0]])
        dev = np.max(np.abs(full.T @ full - np.eye(system.ambient_dim)))
        assert dev <= 1e-12
        assert frame.tangent.shape[2] == 2 * system.l - m - 2
        # completeness: squared coefficients of any vector sum to its norm
        rng = default_rng(42)
        v = rng.standard_normal(system.ambient_dim)
        assert abs(float(np.sum((full.T @ v) ** 2) - v @ v)) <= 1e-12


def test_frame_rejects_uncertified_input():
    system = build_clifford_system(1, 3)
    seed = deterministic_seed(system)
    fake = FocalPoint(x=1.1 * seed.x, residual_constraints=0.0,
                      residual_sphere=0.0)
    with pytest.raises(FrameError):
        build_frame(system, [fake])


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
        frame = build_frame(system, [point])
        tangent, normal = frame.tangent[0], frame.normal[0]
        n = tangent.shape[1]
        for _ in range(5):
            z = rng.standard_normal(n)
            z /= np.linalg.norm(z)
            seed_cols = np.hstack([z[:, None], np.eye(n)])
            q, _ = np.linalg.qr(seed_cols)
            basis = tangent @ q[:, :n]
            for p in system.matrices:
                px = p @ basis[:, 0]
                assert abs(px @ point.x) <= 1e-12
                tang = basis.T @ px
                norm = normal.T @ px
                total = float(np.sum(tang ** 2) + np.sum(norm ** 2))
                assert abs(total - 1.0) <= 1e-9
                assert abs(np.trace(basis.T @ p @ basis)) <= 1e-9


@pytest.mark.parametrize("m,k", GRID)
def test_shape_operators_symmetric_traceless(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(system, build_frame(system, [point]))
        for a in range(m + 1):
            op = shape.operators[0, a]
            assert np.max(np.abs(op - op.T)) <= 1e-13
            assert abs(float(np.trace(op))) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_sff_norm_closed_form(m, k):
    system, points = _setup(m, k)
    expected = 2.0 * (system.l - m - 1) * (m + 1)
    for point in points:
        shape = shape_operators(system, build_frame(system, [point]))
        assert abs(shape.sff_norm_sq[0] - expected) <= 1e-12
        ops = shape.operators[0]
        assert abs(float(np.sum(ops * ops)) - expected) <= 1e-12


def test_sff_norm_examples():
    # spot values: (1,3) -> 4, (2,2) -> 6, (3,2) -> 32
    for (m, k), want in [((1, 3), 4.0), ((2, 2), 6.0), ((3, 2), 32.0)]:
        system = build_clifford_system(m, k)
        frame = build_frame(system, [deterministic_seed(system)])
        assert abs(shape_operators(system, frame).sff_norm_sq[0]
                   - want) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_minimal_and_trace_free(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(system, build_frame(system, [point]))
        assert np.max(np.abs(shape.mean_curvature[0])) <= 1e-13
        ops = shape.operators[0]
        traces = np.trace(ops, axis1=1, axis2=2)
        assert np.max(np.abs(traces / ops.shape[1])) <= 1e-13
        # with H = 0 the trace-free norm coincides with the full norm
        assert abs(shape.trace_free_norm_sq[0]
                   - shape.sff_norm_sq[0]) <= 1e-12


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2)])
def test_sectional_curvature_two_routes(m, k):
    system, points = _setup(m, k)
    rng = default_rng(60 + m)
    for point in points:
        frame = build_frame(system, [point])
        shape = shape_operators(system, frame)
        for _ in range(10):
            z = rng.standard_normal((frame.tangent.shape[2], 2))
            q, _ = np.linalg.qr(z)
            x_vec = frame.tangent @ q[:, 0]
            y_vec = frame.tangent @ q[:, 1]
            direct = sectional_curvature(system, frame, x_vec, y_vec)[0]
            via_shape = sectional_curvature_from_shape(frame, shape, x_vec,
                                                       y_vec)[0]
            assert abs(direct - via_shape) <= 1e-10
            swapped = sectional_curvature(system, frame, y_vec, x_vec)[0]
            assert abs(direct - swapped) <= 1e-10


def test_sectional_curvature_validates_input():
    system = build_clifford_system(1, 3)
    frame = build_frame(system, [deterministic_seed(system)])
    t0, t1 = frame.tangent[:, :, 0], frame.tangent[:, :, 1]
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, t0, t0)          # not orthogonal
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, 2.0 * t0, t1)
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, frame.normal[:, :, 0],
                            t1)                             # not tangent


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_sectional_sum(m, k):
    # Ric(X) = sum_i K(X, e_i) over an orthonormal tangent basis with e_1 = X
    system, points = _setup(m, k, n_points=1)
    rng = default_rng(70 + m)
    for point in points:
        frame = build_frame(system, [point])
        n = frame.tangent.shape[2]
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        basis = np.linalg.qr(np.column_stack([z, np.eye(n)]))[0][:, :n]
        x_vec = frame.tangent @ basis[:, 0]
        total = sum(sectional_curvature(system, frame, x_vec,
                                        frame.tangent @ basis[:, i])[0]
                    for i in range(1, n))
        quad = ricci_quadratic(system, frame, x_vec[:, :, None])[0, 0]
        assert abs(quad - total) <= 1e-10


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_tensor(m, k):
    system, points = _setup(m, k)
    rng = default_rng(80 + m)
    for point in points:
        frame = build_frame(system, [point])
        ric = shape_operators(system, frame).ricci[0]
        assert np.max(np.abs(ric - ric.T)) <= 1e-12
        for _ in range(100):
            z = rng.standard_normal(frame.tangent.shape[2])
            z /= np.linalg.norm(z)
            quad = ricci_quadratic(system, frame,
                                   (frame.tangent @ z)[:, :, None])[0, 0]
            assert abs(quad - float(z @ ric @ z)) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_trace_identity(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, [point])
        shape = shape_operators(system, frame)
        n = frame.tangent.shape[2]
        want = n * (n - 1) - shape.sff_norm_sq[0]
        assert abs(float(np.trace(shape.ricci[0])) - want) <= 1e-11


def test_ricci_quadratic_validates_input():
    system = build_clifford_system(2, 2)
    frame = build_frame(system, [deterministic_seed(system)])
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, 0.5 * frame.tangent[:, :, :1])
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, frame.normal[:, :, :1])


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_ricci_quadratic_block_matches_columns(m, k):
    system, points = _setup(m, k, n_points=1)
    rng = default_rng(90 + m)
    for point in points:
        frame = build_frame(system, [point])
        z = rng.standard_normal((frame.tangent.shape[2], 7))
        block = frame.tangent @ (z / np.linalg.norm(z, axis=0))
        values = ricci_quadratic(system, frame, block)[0]
        assert values.shape == (7,)
        for i in range(7):
            single = ricci_quadratic(system, frame, block[:, :, i:i + 1])[0, 0]
            assert isinstance(single, float)
            assert abs(values[i] - single) <= 1e-13


def test_ricci_quadratic_block_validation_names_the_column():
    system = build_clifford_system(2, 2)
    frame = build_frame(system, [deterministic_seed(system)])
    block = np.array(frame.tangent[:, :, :3])
    block[:, :, 2] = frame.normal[:, :, 1]
    with pytest.raises(ValueError, match="column 2 "):
        ricci_quadratic(system, frame, block)
    block = np.array(frame.tangent[:, :, :3])
    block[:, :, 1] *= 0.5
    with pytest.raises(ValueError, match="column 1 "):
        ricci_quadratic(system, frame, block)
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, frame.tangent[:, :3])


# ---------------------------------------------------------------------------
# stacks of points against one point at a time
# ---------------------------------------------------------------------------

def _reference_frame_and_shape(system, x):
    """Tangent basis, pair products, shape operators, |A|^2 and Ricci tensor
    of one point with 2-D arrays, the per-point code the stacks replace."""
    px = system.stack @ x
    lead = np.hstack([x[:, None], px.T])
    q, _ = np.linalg.qr(lead, mode="complete")
    t = q[:, system.m + 2:]
    pairs = np.einsum("aij,bj->abi", system.stack, px)
    ops = -np.stack([t.T @ (p_a @ t) for p_a in system.stack])
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
    shapes = shape_operators(system, frames)
    assert len(frames.x) == len(shapes.operators) == len(points)
    for p, point in enumerate(points):
        frame, shape = take(frames, p), take(shapes, p)
        single = build_frame(system, [point])
        assert np.array_equal(frame.x, point.x)
        for name in ("tangent", "normal", "pairs"):
            assert np.array_equal(getattr(frame, name),
                                  getattr(single, name)[0]), name
        assert np.array_equal(frame.pairs, pair_products(system, point.x))
        one = shape_operators(system, single)
        for name in ("operators", "mean_curvature", "ricci"):
            assert np.array_equal(getattr(shape, name),
                                  getattr(one, name)[0])
        assert shape.sff_norm_sq == one.sff_norm_sq[0]
        assert shape.trace_free_norm_sq == one.trace_free_norm_sq[0]
        # bit for bit the arithmetic of the one-point code
        t, pairs, ops, s, ricci = _reference_frame_and_shape(system, point.x)
        assert np.array_equal(frame.tangent, t)
        assert np.array_equal(frame.pairs, pairs)
        assert np.array_equal(shape.operators, ops)
        assert shape.sff_norm_sq == s
        assert np.array_equal(shape.ricci, ricci)


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_shape_operators_match_einsum_reference(m, k):
    # a second route to A_a = -T^T P_a T and its Ricci tensor: one einsum
    # over all points and generators, summed in another order
    system, points = _setup(m, k, n_points=5)
    frames = build_frame(system, points)
    shapes = shape_operators(system, frames)
    t = frames.tangent
    ops = -np.einsum("kip,aij,kjq->kapq", t, system.stack, t)
    n = t.shape[2]
    ricci = ((n - 1.0) * np.eye(n)
             + np.einsum("ka,kapq->kpq", np.einsum("kapp->ka", ops), ops)
             - np.sum(np.einsum("kapq,kaqr->kapr", ops, ops), axis=1))
    assert np.max(np.abs(shapes.operators - ops)) <= 1e-14
    assert np.max(np.abs(shapes.ricci - ricci)) <= 1e-14
    s = np.sum(ops * ops, axis=(1, 2, 3))
    assert np.max(np.abs(shapes.sff_norm_sq - s) / s) <= 1e-14


def test_pair_products_are_the_products_of_the_matrices():
    system, points = _setup(3, 2, n_points=1)
    x = points[1].x
    pairs = pair_products(system, x)
    for a, pa in enumerate(system.matrices):
        for b, pb in enumerate(system.matrices):
            assert np.allclose(pairs[a, b], pa @ pb @ x, atol=1e-15)
    assert np.array_equal(pair_products(system, np.array([x, x]))[1], pairs)


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_stacked_ricci_quadratic_equals_single_frames(m, k):
    system, points = _setup(m, k, n_points=4)
    frames = build_frame(system, points)
    rng = default_rng(7 + m)
    z = rng.standard_normal((len(points), frames.tangent.shape[2], 9))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    block = frames.tangent @ z
    values = ricci_quadratic(system, frames, block)
    assert values.shape == (len(points), 9)
    for p in range(len(points)):
        assert np.array_equal(values[p], ricci_quadratic(
            system, take(frames, [p]), block[p:p + 1])[0])


def test_stacked_validation_names_the_point():
    system, points = _setup(2, 2, n_points=2)
    frames = build_frame(system, points)
    block = np.array(frames.tangent[:, :, :3])
    block[1, :, 2] = frames.normal[1, :, 0]
    with pytest.raises(ValueError, match="point 1, column 2 "):
        ricci_quadratic(system, frames, block)
    with pytest.raises(ValueError):
        ricci_quadratic(system, frames, block[:2])
    fake = FocalPoint(x=1.1 * points[0].x, residual_constraints=0.0,
                      residual_sphere=0.0)
    with pytest.raises(FrameError, match="point 2: "):
        build_frame(system, [points[1], points[2], fake])
