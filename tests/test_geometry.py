"""Frames, shape operators, curvature scalars and the Ricci tensor."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (AdaptedFrame, FocalPoint, FrameError,
                          build_clifford_system, build_frame,
                          deterministic_seed, mean_curvature, ricci_quadratic,
                          ricci_tensor, sample_focal_points,
                          second_fundamental_norm, sectional_curvature,
                          sectional_curvature_from_shape, shape_operators)

from conftest import GRID


def _setup(m, k, n_points=2, seed=3):
    system = build_clifford_system(m, k)
    points = [deterministic_seed(system)]
    points += sample_focal_points(system, n_points, seed=seed)
    return system, points


def _random_tangent(frame, rng):
    z = rng.standard_normal(frame.tangent_dim)
    z /= np.linalg.norm(z)
    return frame.tangent @ z


@pytest.mark.parametrize("m,k", GRID)
def test_frame_is_orthonormal_and_complete(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, point)
        normals = (system.stack @ point.x).T
        assert np.array_equal(frame.normal, normals), "normals are P_a x exactly"
        full = np.hstack([point.x[:, None], frame.normal, frame.tangent])
        dev = np.max(np.abs(full.T @ full - np.eye(system.ambient_dim)))
        assert dev <= 1e-12
        assert frame.tangent_dim == 2 * system.l - m - 2
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
        build_frame(system, fake)


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
        for _ in range(5):
            z = rng.standard_normal(frame.tangent_dim)
            z /= np.linalg.norm(z)
            seed_cols = np.hstack([z[:, None],
                                   np.eye(frame.tangent_dim)])
            q, _ = np.linalg.qr(seed_cols)
            basis = frame.tangent @ q[:, :frame.tangent_dim]
            for p in system.matrices:
                px = p @ basis[:, 0]
                assert abs(px @ point.x) <= 1e-12
                tang = basis.T @ px
                norm = frame.normal.T @ px
                total = float(np.sum(tang ** 2) + np.sum(norm ** 2))
                assert abs(total - 1.0) <= 1e-9
                assert abs(np.trace(basis.T @ p @ basis)) <= 1e-9


@pytest.mark.parametrize("m,k", GRID)
def test_shape_operators_symmetric_traceless(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(system, build_frame(system, point))
        for a in range(m + 1):
            op = shape.operators[a]
            assert np.max(np.abs(op - op.T)) <= 1e-13
            assert abs(float(np.trace(op))) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_sff_norm_closed_form(m, k):
    system, points = _setup(m, k)
    expected = 2.0 * (system.l - m - 1) * (m + 1)
    for point in points:
        shape = shape_operators(system, build_frame(system, point))
        assert abs(shape.sff_norm_sq - expected) <= 1e-12
        assert abs(second_fundamental_norm(shape) - expected) <= 1e-12


def test_sff_norm_examples():
    # spot values: (1,3) -> 4, (2,2) -> 6, (3,2) -> 32
    for (m, k), want in [((1, 3), 4.0), ((2, 2), 6.0), ((3, 2), 32.0)]:
        system = build_clifford_system(m, k)
        frame = build_frame(system, deterministic_seed(system))
        assert abs(shape_operators(system, frame).sff_norm_sq - want) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_minimal_and_trace_free(m, k):
    system, points = _setup(m, k)
    for point in points:
        shape = shape_operators(system, build_frame(system, point))
        assert np.max(np.abs(shape.mean_curvature)) <= 1e-13
        assert np.max(np.abs(mean_curvature(shape))) <= 1e-13
        # with H = 0 the trace-free norm coincides with the full norm
        assert abs(shape.trace_free_norm_sq - shape.sff_norm_sq) <= 1e-12


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2)])
def test_sectional_curvature_two_routes(m, k):
    system, points = _setup(m, k)
    rng = default_rng(60 + m)
    for point in points:
        frame = build_frame(system, point)
        shape = shape_operators(system, frame)
        for _ in range(10):
            z = rng.standard_normal((frame.tangent_dim, 2))
            q, _ = np.linalg.qr(z)
            x_vec = frame.tangent @ q[:, 0]
            y_vec = frame.tangent @ q[:, 1]
            direct = sectional_curvature(system, frame, x_vec, y_vec)
            via_shape = sectional_curvature_from_shape(frame, shape, x_vec, y_vec)
            assert abs(direct - via_shape) <= 1e-10
            swapped = sectional_curvature(system, frame, y_vec, x_vec)
            assert abs(direct - swapped) <= 1e-10


def test_sectional_curvature_validates_input():
    system = build_clifford_system(1, 3)
    frame = build_frame(system, deterministic_seed(system))
    t0 = frame.tangent[:, 0]
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, t0, t0)          # not orthogonal
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, 2.0 * t0, frame.tangent[:, 1])
    with pytest.raises(ValueError):
        sectional_curvature(system, frame, frame.normal[:, 0],
                            frame.tangent[:, 1])            # not tangent


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_sectional_sum(m, k):
    # Ric(X) = sum_i K(X, e_i) over an orthonormal tangent basis with e_1 = X
    system, points = _setup(m, k, n_points=1)
    rng = default_rng(70 + m)
    for point in points:
        frame = build_frame(system, point)
        n = frame.tangent_dim
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        basis = np.linalg.qr(np.column_stack([z, np.eye(n)]))[0][:, :n]
        x_vec = frame.tangent @ basis[:, 0]
        total = sum(sectional_curvature(system, frame, x_vec,
                                        frame.tangent @ basis[:, i])
                    for i in range(1, n))
        assert abs(ricci_quadratic(system, frame, x_vec) - total) <= 1e-10


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_quadratic_vs_tensor(m, k):
    system, points = _setup(m, k)
    rng = default_rng(80 + m)
    for point in points:
        frame = build_frame(system, point)
        ric = ricci_tensor(system, frame)
        assert np.max(np.abs(ric - ric.T)) <= 1e-12
        for _ in range(100):
            z = rng.standard_normal(frame.tangent_dim)
            z /= np.linalg.norm(z)
            quad = ricci_quadratic(system, frame, frame.tangent @ z)
            assert abs(quad - float(z @ ric @ z)) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_trace_identity(m, k):
    system, points = _setup(m, k)
    for point in points:
        frame = build_frame(system, point)
        shape = shape_operators(system, frame)
        n = frame.tangent_dim
        want = n * (n - 1) - shape.sff_norm_sq
        assert abs(float(np.trace(shape.ricci)) - want) <= 1e-11


def test_ricci_quadratic_validates_input():
    system = build_clifford_system(2, 2)
    frame = build_frame(system, deterministic_seed(system))
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, 0.5 * frame.tangent[:, 0])
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, frame.normal[:, 0])


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_ricci_quadratic_block_matches_columns(m, k):
    system, points = _setup(m, k, n_points=1)
    rng = default_rng(90 + m)
    for point in points:
        frame = build_frame(system, point)
        z = rng.standard_normal((frame.tangent_dim, 7))
        block = frame.tangent @ (z / np.linalg.norm(z, axis=0))
        values = ricci_quadratic(system, frame, block)
        assert values.shape == (7,)
        for i in range(7):
            single = ricci_quadratic(system, frame, block[:, i])
            assert isinstance(single, float)
            assert abs(values[i] - single) <= 1e-13


def test_ricci_quadratic_block_validation_names_the_column():
    system = build_clifford_system(2, 2)
    frame = build_frame(system, deterministic_seed(system))
    block = np.array(frame.tangent[:, :3])
    block[:, 2] = frame.normal[:, 1]
    with pytest.raises(ValueError, match="column 2 "):
        ricci_quadratic(system, frame, block)
    block = np.array(frame.tangent[:, :3])
    block[:, 1] *= 0.5
    with pytest.raises(ValueError, match="column 1 "):
        ricci_quadratic(system, frame, block)
    with pytest.raises(ValueError):
        ricci_quadratic(system, frame, frame.tangent[:3])
