"""Quartic polynomial: values, derivatives vs finite differences, sphere PDEs."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (AdmissibilityError, CliffordSystem, FkmPolynomial,
                          build_clifford_system, build_skew_generators,
                          deterministic_seed, verify_cartan_munzner)
from fkm_willmore.polynomial import sphere_samples

from conftest import FD_RTOL, GRID, corrupt_system, fd_directional, fd_gradient, rel_err


def _poly(m, k):
    return FkmPolynomial(build_clifford_system(m, k))


def test_value_at_origin_and_axis():
    poly = _poly(1, 3)
    assert poly.value(np.zeros(6)) == 0.0
    # e_1 lies in the +1 eigenspace of P_0: g_0 = 1, so F = 1 - 2 = -1
    e1 = np.eye(6)[0]
    assert poly.value(e1) == -1.0


@pytest.mark.parametrize("m,k", GRID)
def test_value_one_on_focal_seed(m, k):
    system = build_clifford_system(m, k)
    poly = FkmPolynomial(system)
    x = deterministic_seed(system).x
    assert abs(poly.value(x) - 1.0) <= 1e-15


def test_degree_four_homogeneity():
    # scale factors spanning two decades; error budget grows with the
    # magnitude of t^4 F(x)
    poly = _poly(2, 2)
    rng = default_rng(5)
    for _ in range(40):
        x = rng.standard_normal(8)
        t = float(rng.uniform(0.1, 10.0))
        want = t ** 4 * poly.value(x)
        assert abs(poly.value(t * x) - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2)])
def test_gradient_matches_finite_differences(m, k):
    poly = _poly(m, k)
    n = poly.ambient_dim
    rng = default_rng(100 + m)
    for _ in range(34):
        x = rng.standard_normal(n)
        grad = poly.euclidean_gradient(x)
        want = fd_gradient(poly.value, x)
        assert rel_err(grad, want) <= FD_RTOL, f"at |x|={np.linalg.norm(x):.2f}"


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2)])
def test_hessian_matches_finite_differences(m, k):
    poly = _poly(m, k)
    n = poly.ambient_dim
    rng = default_rng(200 + m)
    for _ in range(34):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        hv = poly.euclidean_hessian_apply(x, v)
        assert rel_err(hv, fd_directional(poly.euclidean_gradient, x, v)) <= FD_RTOL
        # matrix route agrees with the matrix-free apply
        assert rel_err(poly.hessian_matrix(x) @ v, hv) <= 1e-12


def test_hessian_symmetric():
    poly = _poly(2, 2)
    rng = default_rng(17)
    x = rng.standard_normal(8)
    h = poly.hessian_matrix(x)
    assert np.max(np.abs(h - h.T)) <= 1e-12 * max(1.0, np.max(np.abs(h)))


@pytest.mark.parametrize("m,k", GRID)
def test_euclidean_laplacian_closed_form(m, k):
    # trace of the Hessian must be 8 (l - 2m - 1) |x|^2 everywhere
    poly = _poly(m, k)
    system = poly.system
    rng = default_rng(300 + m * 10 + k)
    for _ in range(10):
        x = rng.standard_normal(system.ambient_dim)
        lap = float(np.trace(poly.hessian_matrix(x)))
        want = 8.0 * (system.l - 2 * m - 1) * float(x @ x)
        assert rel_err(lap, want) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_sphere_derivatives_pointwise(m, k):
    poly = _poly(m, k)
    m1, m2 = poly.m1, poly.m2
    n = poly.ambient_dim
    rng = default_rng(400 + m * 10 + k)
    for _ in range(25):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        der = poly.sphere_derivatives(x)
        assert abs(float(der.gradient @ x)) <= 1e-12, "gradient not tangent"
        grad_sq = float(der.gradient @ der.gradient)
        assert abs(grad_sq - 16.0 * (1.0 - der.value ** 2)) <= 1e-10
        want_lap = 8.0 * (m2 - m1) - 4.0 * (2 * poly.system.l + 2) * der.value
        assert abs(der.laplacian - want_lap) <= 1e-10


def test_sphere_derivatives_on_focal_point():
    system = build_clifford_system(1, 3)
    poly = FkmPolynomial(system)
    der = poly.sphere_derivatives(deterministic_seed(system).x)
    assert abs(der.value - 1.0) <= 1e-15
    assert float(np.linalg.norm(der.gradient)) <= 1e-7
    # m1 = m2 = 1, so the linear term vanishes and lap = -4 (2l + 2) = -32
    assert abs(der.laplacian + 32.0) <= 1e-12


def test_sphere_derivatives_reject_off_sphere():
    poly = _poly(1, 3)
    with pytest.raises(ValueError):
        poly.sphere_derivatives(np.full(6, 0.8))


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2)])
def test_cartan_munzner_record(m, k):
    poly = _poly(m, k)
    rec = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert rec.passed
    assert rec.max_residual <= 1e-10
    assert rec.details["n_samples"] == 200
    again = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert again.max_residual == rec.max_residual, "seeded run must reproduce"


def test_cartan_munzner_detects_corruption():
    poly = FkmPolynomial(corrupt_system(2, 2))
    rec = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert not rec.passed
    assert rec.max_residual >= 1e-5


def test_polynomial_rejects_inadmissible_system():
    # a valid Clifford system with m2 = 0 admits the polynomial but no
    # focal manifold of the verified kind; the constructor refuses it
    gens = build_skew_generators(3)
    eye = np.eye(4)
    zero = np.zeros((4, 4))
    mats = [np.block([[eye, zero], [zero, -eye]]),
            np.block([[zero, eye], [eye, zero]])]
    for e in gens.matrices:
        mats.append(np.block([[zero, e], [-e, zero]]))
    system = CliffordSystem(m=3, l=4, matrices=tuple(mats))
    with pytest.raises(AdmissibilityError):
        FkmPolynomial(system)


# ---------------------------------------------------------------------------
# block evaluation and block-drawn samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,k", GRID)
def test_termwise_laplacian_is_the_hessian_trace(m, k):
    poly = _poly(m, k)
    rng = default_rng(100 + m)
    block = rng.standard_normal((20, poly.ambient_dim))
    lap = poly.laplacian(block)
    for x, value in zip(block, lap):
        want = float(np.trace(poly.hessian_matrix(x)))
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(poly.laplacian(x) - want) <= 1e-12 * max(1.0, abs(want))


def test_termwise_laplacian_keeps_the_trace_term():
    # trace(P_a) = 0 drops out only for a valid system; the corrupted one
    # must still match its own Hessian trace
    poly = FkmPolynomial(corrupt_system(2, 2))
    x = default_rng(101).standard_normal(8)
    assert abs(poly.laplacian(x) - np.trace(poly.hessian_matrix(x))) <= 1e-12


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_sphere_derivatives_block_matches_points(m, k):
    poly = _poly(m, k)
    points = sphere_samples(default_rng(102 + m), 9, poly.ambient_dim)
    block = poly.sphere_derivatives(points)
    assert block.value.shape == block.laplacian.shape == (9,)
    assert block.gradient.shape == points.shape
    for i, x in enumerate(points):
        one = poly.sphere_derivatives(x)
        assert isinstance(one.value, float)
        assert isinstance(one.laplacian, float)
        assert abs(block.value[i] - one.value) <= 1e-14
        assert abs(block.laplacian[i] - one.laplacian) <= 1e-12
        assert np.max(np.abs(block.gradient[i] - one.gradient)) <= 1e-13


def test_sphere_derivatives_block_rejects_off_sphere_row():
    poly = _poly(1, 3)
    points = sphere_samples(default_rng(103), 4, 6)
    points[2] *= 1.01
    with pytest.raises(ValueError, match="row 2"):
        poly.sphere_derivatives(points)


def _sequential_unit_draws(rng, count, dim):
    # the draw loop the samplers used before block draws
    out = []
    for _ in range(count):
        z = rng.standard_normal(dim)
        nz = float(np.linalg.norm(z))
        while nz < 1e-12:
            z = rng.standard_normal(dim)
            nz = float(np.linalg.norm(z))
        out.append(z / nz)
    return np.array(out)


@pytest.mark.parametrize("seed,count,dim", [(31, 1000, 8), (7, 100, 14),
                                            (2**63 + 5, 102, 3)])
def test_sphere_samples_equal_sequential_draws(seed, count, dim):
    block = sphere_samples(default_rng(seed), count, dim)
    seq = _sequential_unit_draws(default_rng(seed), count, dim)
    assert np.max(np.abs(block - seq)) <= 1e-15
    raw = default_rng(seed).standard_normal((count, dim))
    again = default_rng(seed)
    assert np.array_equal(raw, [again.standard_normal(dim)
                                for _ in range(count)])


def test_sphere_samples_redraw_degenerate_rows():
    class ZeroSecondRow:
        def __init__(self):
            self.rng = default_rng(104)

        def standard_normal(self, size):
            z = self.rng.standard_normal(size)
            if isinstance(size, tuple):
                z[1] = 0.0
            return z

    points = sphere_samples(ZeroSecondRow(), 3, 5)
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
    rng = default_rng(104)
    first = rng.standard_normal((3, 5))
    redraw = rng.standard_normal(5)
    assert np.allclose(points[0], first[0] / np.linalg.norm(first[0]))
    assert np.allclose(points[1], redraw / np.linalg.norm(redraw))


@pytest.mark.parametrize("m,k", [(1, 3), (4, 2)])
def test_cartan_munzner_matches_sequential_evaluation(m, k):
    poly = _poly(m, k)
    n = poly.ambient_dim
    rec = verify_cartan_munzner(poly, n_samples=300, seed=32)
    worst_grad = worst_lap = 0.0
    for x in _sequential_unit_draws(default_rng(32), 300, n):
        grad = poly.euclidean_gradient(x)
        grad_s = grad - float(grad @ x) * x
        value = poly.value(x)
        lap_s = float(np.trace(poly.hessian_matrix(x))) - 4.0 * (n + 2) * value
        worst_grad = max(worst_grad, abs(float(grad_s @ grad_s)
                                         - 16.0 * (1.0 - value * value)))
        worst_lap = max(worst_lap, abs(lap_s - 8.0 * (poly.m2 - poly.m1)
                                       + 4.0 * (n + 2) * value))
    assert abs(rec.details["max_gradient_residual"] - worst_grad) <= 1e-12
    assert abs(rec.details["max_laplacian_residual"] - worst_lap) <= 1e-12
