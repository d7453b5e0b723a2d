"""Focal points: deterministic seed, Gauss-Newton projection, sampling."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (CONSTRAINT_TOL, SPHERE_TOL, ConvergenceError,
                          SingularityError, build_clifford_system, certify,
                          CertificationError, deterministic_seed,
                          project_to_focal, sample_focal_points,
                          tangent_jacobian_rank)

from conftest import GRID


def test_seed_coordinates_smallest_case():
    system = build_clifford_system(1, 3)
    point = deterministic_seed(system)
    r = 1.0 / np.sqrt(2.0)
    assert np.array_equal(point.x, np.array([0.0, r, 0.0, r, 0.0, 0.0]))
    assert point.iterations == 0


@pytest.mark.parametrize("m,k", GRID)
def test_seed_certifies_exactly(m, k):
    system = build_clifford_system(m, k)
    point = deterministic_seed(system)
    # construction is by signed basis vectors, residuals are exact zeros
    assert point.residual_constraints <= 1e-15
    assert point.residual_sphere <= 1e-15


def test_projection_fixed_point():
    system = build_clifford_system(2, 2)
    seed = deterministic_seed(system)
    again = project_to_focal(system, seed.x)
    assert again.iterations == 0
    assert np.array_equal(again.x, seed.x)


def test_projection_convergence_study():
    # documented in docs/derivations.md: all 100 Gaussian starts on (2,2)
    # land within a handful of iterations
    system = build_clifford_system(2, 2)
    rng = default_rng(90)
    iters = []
    failures = 0
    for _ in range(100):
        x0 = rng.standard_normal(8)
        try:
            point = project_to_focal(system, x0)
        except (ConvergenceError, SingularityError, CertificationError):
            failures += 1
            continue
        iters.append(point.iterations)
        assert point.iterations <= 25
    assert failures <= 1, f"{failures} of 100 starts failed"
    assert max(iters) <= 25 and len(iters) >= 99


def test_projection_singular_start_raises():
    # e_1 is a +1 eigenvector of P_0, making the constraint rows parallel
    system = build_clifford_system(1, 3)
    with pytest.raises(SingularityError):
        project_to_focal(system, np.eye(6)[0])


def test_projection_rejects_bad_starts():
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        project_to_focal(system, np.zeros(6))
    with pytest.raises(ValueError):
        project_to_focal(system, np.ones(5))
    with pytest.raises(ValueError):
        project_to_focal(system, np.ones(6), tol=0.0)


def test_projection_deterministic_bitwise():
    system = build_clifford_system(3, 2)
    x0 = default_rng(8).standard_normal(16)
    a = project_to_focal(system, x0)
    b = project_to_focal(system, x0)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def test_sampling_deterministic_and_seed_sensitive():
    system = build_clifford_system(2, 2)
    first = sample_focal_points(system, 5, seed=9)
    second = sample_focal_points(system, 5, seed=9)
    other = sample_focal_points(system, 5, seed=10)
    for a, b in zip(first, second):
        assert np.array_equal(a.x, b.x)
    assert any(not np.array_equal(a.x, b.x) for a, b in zip(first, other))


def test_sampling_certifies_hundred_points():
    system = build_clifford_system(2, 2)
    points = sample_focal_points(system, 100, seed=1234)
    assert len(points) == 100
    for p in points:
        assert p.residual_constraints <= CONSTRAINT_TOL
        assert p.residual_sphere <= SPHERE_TOL
    # the sampler should not collapse onto few points
    coords = np.array([p.x for p in points])
    assert np.min(np.ptp(coords, axis=0)) > 0.1


def test_sampling_rejects_nonpositive_count():
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        sample_focal_points(system, 0, seed=1)


def test_certify_rejects_off_manifold():
    system = build_clifford_system(1, 3)
    with pytest.raises(CertificationError):
        certify(system, np.eye(6)[0])


def test_certify_rejects_nan():
    system = build_clifford_system(1, 3)
    with pytest.raises(CertificationError):
        certify(system, np.full(system.ambient_dim, np.nan))


@pytest.mark.parametrize("m,k,rank", [(1, 3, 3), (2, 2, 4), (5, 1, 7)])
def test_jacobian_rank(m, k, rank):
    system = build_clifford_system(m, k)
    for point in [deterministic_seed(system)] + sample_focal_points(system, 3, seed=2):
        assert tangent_jacobian_rank(system, point) == rank == m + 2
