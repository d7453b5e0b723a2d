"""Focal points: deterministic seed, Gauss-Newton projection, sampling."""

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from fkm_willmore import (CONSTRAINT_TOL, SPHERE_TOL, ConvergenceError,
                          SamplingError, SingularityError,
                          build_clifford_system, certify, CertificationError,
                          deterministic_seed, project_to_focal,
                          sample_focal_points, tangent_jacobian_rank)
from fkm_willmore import focal

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
    points = [deterministic_seed(system)] + sample_focal_points(system, 3,
                                                                 seed=2)
    for point in points:
        assert tangent_jacobian_rank(system, [point])[0] == rank == m + 2
    # a sequence of points gives the ranks from one stacked SVD
    assert tangent_jacobian_rank(system, points).tolist() == [rank] * 4


# ---------------------------------------------------------------------------
# the batched sweep against one-point projections
# ---------------------------------------------------------------------------

def _start(system, seed, i, attempt):
    rng = default_rng(SeedSequence(seed, spawn_key=(i, attempt)))
    return rng.standard_normal(system.ambient_dim)


def _same_point(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.residual_constraints == b.residual_constraints
    assert a.residual_sphere == b.residual_sphere


def _reference_projection(system, x0, tol=1e-13, max_iter=50):
    """Gauss-Newton on one point with 1-D arrays, the loop the sweep
    replaces: its final iterate and iteration count."""
    def residual(p):
        return max(float(np.max(np.abs(system.stack @ p @ p))),
                   abs(float(p @ p) - 1.0))

    x = np.array(x0, dtype=float)
    if residual(x) < tol:
        return x, 0
    x = x / float(np.linalg.norm(x))
    for it in range(1, max_iter + 1):
        c = np.concatenate(([float(x @ x) - 1.0], system.stack @ x @ x))
        jac = 2.0 * np.vstack([x[None, :], system.stack @ x])
        x = x - jac.T @ np.linalg.solve(jac @ jac.T, c)
        if residual(x) < tol:
            return x, it
    raise AssertionError("reference projection did not converge")


@pytest.mark.parametrize("m,k", GRID + [(7, 2), (9, 1)])
def test_sampling_sweep_equals_single_projections(m, k):
    # one sweep over all starts gives each point the iterates of its own
    # projection, and of the one-point loop, bit for bit, with the same
    # iteration count
    system = build_clifford_system(m, k)
    points = sample_focal_points(system, 40, seed=77)
    for i, point in enumerate(points):
        x0 = _start(system, 77, i, 0)
        _same_point(point, project_to_focal(system, x0))
        x, iterations = _reference_projection(system, x0)
        assert np.array_equal(point.x, x) and point.iterations == iterations


class _RiggedRng:
    """Stands in for the generator of one start and draws a fixed vector."""

    def __init__(self, x):
        self.x = x

    def standard_normal(self, size):
        return np.array(self.x, dtype=float)


def _rig(monkeypatch, singular_keys):
    # e_1 is a +1 eigenvector of P_0, a start whose normal equations are
    # singular; the given (point, attempt) keys draw it
    real = focal.default_rng

    def rigged(seed_seq):
        if seed_seq.spawn_key in singular_keys:
            return _RiggedRng(np.eye(6)[0])
        return real(seed_seq)

    monkeypatch.setattr(focal, "default_rng", rigged)


def test_sampling_sweep_retries_like_single_projections(monkeypatch):
    system = build_clifford_system(1, 3)
    _rig(monkeypatch, {(2, 0)})
    points = sample_focal_points(system, 4, seed=9)
    # point 2 fails its first attempt and takes the start of attempt 1
    _same_point(points[2], project_to_focal(system, _start(system, 9, 2, 1)))
    for i in (0, 1, 3):
        _same_point(points[i],
                    project_to_focal(system, _start(system, 9, i, 0)))


def test_sampling_failure_counts_projections_so_far(monkeypatch):
    system = build_clifford_system(1, 3)
    _rig(monkeypatch, {(0, 0)} | {(1, a) for a in range(11)})
    with pytest.raises(SamplingError) as info:
        sample_focal_points(system, 3, seed=9)
    # one retry of point 0, then all eleven attempts of point 1
    assert info.value.failures == 12
    assert "sample point 1 failed after 11 attempts" in str(info.value)


def test_sweep_rows_with_mixed_outcomes_match_single_projections():
    # singular, non-converging and converging rows in one sweep: each row
    # ends as its own projection does, with the same exception text
    system = build_clifford_system(2, 2)
    rng = default_rng(4)
    starts = [np.eye(8)[0]] + [rng.standard_normal(8) for _ in range(12)]
    starts.append(deterministic_seed(system).x)
    for max_iter in (1, 2, 3, 50):
        swept = focal._project(system, np.array(starts), 1e-13, max_iter)
        for x0, got in zip(starts, swept):
            try:
                want = project_to_focal(system, x0, max_iter=max_iter)
            except (ConvergenceError, SingularityError,
                    CertificationError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                _same_point(got, want)
