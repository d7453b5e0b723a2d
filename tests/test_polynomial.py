"""Quartic polynomial: values, derivatives vs finite differences, sphere PDEs."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (CliffordSystem, FkmPolynomial, build_clifford_system,
                          build_skew_generators, sample_focal_points,
                          verify_cartan_munzner)
from fkm_willmore.polynomial import sphere_samples

from conftest import (FD_RTOL, GRID, NON_FINITE, conjugated_system,
                      corrupt_system, fd_directional, fd_gradient,
                      nan_pair_matrices, rel_err)
from oracles import gradient, hessian, quartic


def _poly(m, k):
    return FkmPolynomial(build_clifford_system(m, k))


def test_value_at_origin_and_axis():
    poly = _poly(1, 3)
    assert quartic(poly.system, np.zeros(6)) == 0.0
    # e_1 lies in the +1 eigenspace of P_0: g_0 = 1, so F = 1 - 2 = -1
    e1 = np.eye(6)[:1]
    assert poly.sphere_derivatives(e1)[0][0] == -1.0
    assert quartic(poly.system, e1[0]) == -1.0


@pytest.mark.parametrize("m,k", GRID)
def test_value_one_on_focal_seed(m, k):
    system = build_clifford_system(m, k)
    poly = FkmPolynomial(system)
    x = sample_focal_points(system, 1, seed=0).x
    assert abs(poly.sphere_derivatives(x)[0][0] - 1.0) <= 1e-15


def test_degree_four_homogeneity():
    # scale factors spanning two decades; error budget grows with the
    # magnitude of t^4 F(x)
    poly = _poly(2, 2)
    rng = default_rng(5)
    for _ in range(40):
        x = rng.standard_normal(8)
        t = float(rng.uniform(0.1, 10.0))
        want = t ** 4 * quartic(poly.system, x)
        assert abs(quartic(poly.system, t * x) - want) <= \
            1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2)])
def test_gradient_matches_finite_differences(m, k):
    system = build_clifford_system(m, k)
    rng = default_rng(100 + m)
    for _ in range(34):
        x = rng.standard_normal(system.ambient_dim)
        grad = gradient(system, x)
        want = fd_gradient(lambda y: quartic(system, y), x)
        assert rel_err(grad, want) <= FD_RTOL, f"at |x|={np.linalg.norm(x):.2f}"


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2)])
def test_hessian_matches_finite_differences(m, k):
    system = build_clifford_system(m, k)
    n = system.ambient_dim
    rng = default_rng(200 + m)
    for _ in range(34):
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        hv = hessian(system, x) @ v
        assert rel_err(hv, fd_directional(lambda y: gradient(system, y),
                                          x, v)) <= FD_RTOL


def test_hessian_symmetric():
    poly = _poly(2, 2)
    rng = default_rng(17)
    x = rng.standard_normal(8)
    h = hessian(poly.system, x)
    assert np.max(np.abs(h - h.T)) <= 1e-12 * max(1.0, np.max(np.abs(h)))


@pytest.mark.parametrize("m,k", GRID)
def test_euclidean_laplacian_closed_form(m, k):
    # trace of the Hessian must be 8 (l - 2m - 1) |x|^2 everywhere
    poly = _poly(m, k)
    system = poly.system
    rng = default_rng(300 + m * 10 + k)
    for _ in range(10):
        x = rng.standard_normal(system.ambient_dim)
        lap = float(np.trace(hessian(system, x)))
        want = 8.0 * (system.l - 2 * m - 1) * float(x @ x)
        assert rel_err(lap, want) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_sphere_derivatives_pointwise(m, k):
    poly = _poly(m, k)
    system = poly.system
    rng = default_rng(400 + m * 10 + k)
    x = rng.standard_normal((25, system.ambient_dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    value, grad, lap = poly.sphere_derivatives(x)
    assert np.max(np.abs(np.sum(grad * x, axis=1))) <= 1e-12, \
        "gradient not tangent"
    grad_sq = np.sum(grad * grad, axis=1)
    assert np.max(np.abs(grad_sq - 16.0 * (1.0 - value ** 2))) <= 1e-10
    want_lap = 8.0 * (system.m2 - m) - 4.0 * (2 * system.l + 2) * value
    assert np.max(np.abs(lap - want_lap)) <= 1e-10


def test_sphere_derivatives_on_focal_point():
    system = build_clifford_system(1, 3)
    poly = FkmPolynomial(system)
    (value,), (grad,), (lap,) = poly.sphere_derivatives(
        sample_focal_points(system, 1, seed=0).x)
    assert abs(value - 1.0) <= 1e-15
    assert float(np.linalg.norm(grad)) <= 1e-7
    # m1 = m2 = 1, so the linear term vanishes and lap = -4 (2l + 2) = -32
    assert abs(lap + 32.0) <= 1e-12


def test_sphere_derivatives_reject_off_sphere():
    poly = _poly(1, 3)
    with pytest.raises(ValueError):
        poly.sphere_derivatives(np.full((1, 6), 0.8))


def test_sphere_derivatives_reject_a_single_point():
    # a point block has one point per row; a bare point is refused, unit
    # or not
    poly = _poly(1, 3)
    with pytest.raises(ValueError, match=r"point block shape \(6,\)"):
        poly.sphere_derivatives(np.eye(6)[0])


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2)])
def test_cartan_munzner_record(m, k):
    # the gradient and the Laplacian residual, as plain floats; the report
    # holds them to the pde tolerance
    poly = _poly(m, k)
    residuals = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert len(residuals) == 2
    assert all(type(r) is float for r in residuals)
    assert all(r <= 1e-10 for r in residuals)
    again = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert again == residuals, "seeded run must reproduce"


def test_cartan_munzner_detects_corruption():
    poly = FkmPolynomial(corrupt_system(2, 2))
    residuals = verify_cartan_munzner(poly, n_samples=200, seed=31)
    assert max(residuals) >= 1e-5


def test_cartan_munzner_fails_on_nan():
    # verify_cartan_munzner has no NaN branch because it cannot be handed a
    # non-finite system: CliffordSystem rejects one, and a built system's
    # matrices are read-only, so a polynomial's system stays finite
    for value in NON_FINITE:
        mats = nan_pair_matrices(2, 2, value)
        with pytest.raises(ValueError, match="NaN or infinite entry"):
            FkmPolynomial(CliffordSystem(m=2, l=mats.shape[1] // 2,
                                         matrices=mats))
        poly = _poly(2, 2)
        with pytest.raises(ValueError, match="read-only"):
            poly.system.matrices[1, 0, 1] = value
        residuals = verify_cartan_munzner(poly, n_samples=200, seed=31)
        assert all(np.isfinite(r) and r <= 1e-10 for r in residuals)


def test_pde_identities_hold_for_a_system_with_m2_zero():
    # a valid Clifford system with m2 = 0 carries no focal manifold of the
    # verified kind, but both PDE identities use only the Clifford
    # relations, so its polynomial satisfies them
    gens = build_skew_generators(3)
    eye = np.eye(4)
    zero = np.zeros((4, 4))
    mats = [np.block([[eye, zero], [zero, -eye]]),
            np.block([[zero, eye], [eye, zero]])]
    for e in gens:
        mats.append(np.block([[zero, e], [-e, zero]]))
    system = CliffordSystem(m=3, l=4, matrices=tuple(mats))
    assert system.m2 == 0
    residuals = verify_cartan_munzner(FkmPolynomial(system), n_samples=1000,
                                      seed=5)
    assert all(r <= 1e-12 for r in residuals), residuals


# ---------------------------------------------------------------------------
# block evaluation and block-drawn samples
# ---------------------------------------------------------------------------

def _ambient_laplacian(poly, x):
    """lap F at unit points, from sphere_derivatives: its term-by-term
    ambient Laplacian is lap_S f + 4 (2l + 2) F."""
    value, _, lap_s = poly.sphere_derivatives(x)
    return lap_s + 4.0 * (poly.system.ambient_dim + 2.0) * value


@pytest.mark.parametrize("m,k", GRID)
def test_termwise_laplacian_is_the_hessian_trace(m, k):
    poly = _poly(m, k)
    block = sphere_samples(default_rng(100 + m), 20, poly.system.ambient_dim)
    lap = _ambient_laplacian(poly, block)
    for x, value in zip(block, lap):
        want = float(np.trace(hessian(poly.system, x)))
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(_ambient_laplacian(poly, x[None])[0] - want) <= \
            1e-12 * max(1.0, abs(want))


def test_termwise_laplacian_keeps_the_trace_term():
    # trace(P_a) = 0 drops out only for a valid system; the corrupted one
    # must still match its own Hessian trace
    poly = FkmPolynomial(corrupt_system(2, 2))
    x = sphere_samples(default_rng(101), 1, 8)
    assert abs(_ambient_laplacian(poly, x)[0]
               - np.trace(hessian(poly.system, x[0]))) <= 1e-12


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_sphere_derivatives_block_matches_points(m, k):
    poly = _poly(m, k)
    points = sphere_samples(default_rng(102 + m), 9, poly.system.ambient_dim)
    values, grads, laps = poly.sphere_derivatives(points)
    assert values.shape == laps.shape == (9,)
    assert grads.shape == points.shape
    for i in range(len(points)):
        (value,), (grad,), (lap,) = poly.sphere_derivatives(points[i:i + 1])
        assert abs(values[i] - value) <= 1e-14
        assert abs(laps[i] - lap) <= 1e-12
        assert np.max(np.abs(grads[i] - grad)) <= 1e-13


def test_sphere_derivatives_block_rejects_off_sphere_row():
    poly = _poly(1, 3)
    points = sphere_samples(default_rng(103), 4, 6)
    points[2] *= 1.01
    with pytest.raises(ValueError, match="row 2"):
        poly.sphere_derivatives(points)


@pytest.mark.parametrize("factor,fails", [(1.0 + 2e-12, True),
                                          (1.0 + 5e-13, False),
                                          (1.0 - 2e-12, True)])
def test_unit_guard_reads_the_norm_to_1e_12(factor, fails):
    # the guard holds |x| to 1 within 1e-12, read off the |x|^2 that the
    # derivatives use, and names the first row outside it
    poly = _poly(2, 2)
    points = sphere_samples(default_rng(5), 3, 8)
    points[1] *= factor
    if fails:
        with pytest.raises(ValueError, match=r"\(row 1 is off the sphere\)"):
            poly.sphere_derivatives(points)
    else:
        poly.sphere_derivatives(points)


@pytest.mark.parametrize("seed,count,dim", [(17, 200, 16), (3, 1000, 8)])
def test_sphere_samples_are_the_norm_route_bit_for_bit(seed, count, dim):
    # the rows are divided in place by the root of their sums of squares,
    # which is np.linalg.norm's value for real rows
    z = default_rng(seed).standard_normal((count, dim))
    want = z / np.linalg.norm(z, axis=1)[:, None]
    assert (sphere_samples(default_rng(seed), count, dim).tobytes()
            == want.tobytes())


@pytest.mark.parametrize("system", [build_clifford_system(3, 2),
                                    conjugated_system(3, 2),
                                    build_clifford_system(6, 1)],
                         ids=["split", "conjugated", "6-1"])
def test_sphere_derivatives_are_the_expression_form_bit_for_bit(system):
    # the kernel forms the gradient in two reused buffers, in place; its
    # values are those of the plain expressions, bit for bit, and so are
    # the residuals that verify_cartan_munzner folds from them
    stack, n = system.matrices, system.ambient_dim
    x = sphere_samples(default_rng(17), 1000, n)
    px = x @ stack.transpose(0, 2, 1)
    g = np.einsum("akj,kj->ak", px, x)
    xx = np.einsum("kj,kj->k", x, x)
    grad = 4.0 * xx[:, None] * x - 8.0 * np.einsum("ak,akj->kj", g, px)
    grad_s = grad - np.einsum("kj,kj->k", grad, x)[:, None] * x
    value = xx * xx - 2.0 * np.einsum("ak,ak->k", g, g)
    lap = ((8.0 + 4.0 * n) * xx - 16.0 * np.einsum("akj,akj->k", px, px)
           - 8.0 * (np.trace(stack, axis1=1, axis2=2) @ g))
    lap_s = lap - 4.0 * (n + 2.0) * value
    got = FkmPolynomial(system).sphere_derivatives(x)
    for have, want in zip(got, (value, grad_s, lap_s)):
        assert have.tobytes() == want.tobytes()
    residuals = (
        float(np.max(np.abs(np.sum(grad_s * grad_s, axis=1)
                            - 16.0 * (1.0 - value * value)))),
        float(np.max(np.abs(lap_s - 8.0 * (system.m2 - system.m)
                            + 4.0 * (n + 2.0) * value))))
    assert verify_cartan_munzner(FkmPolynomial(system), 1000,
                                 17) == residuals


def _sequential_unit_draws(rng, count, dim):
    # the draw loop the samplers used before block draws
    out = []
    for _ in range(count):
        z = rng.standard_normal(dim)
        out.append(z / float(np.linalg.norm(z)))
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


@pytest.mark.parametrize("m,k", [(1, 3), (4, 2)])
def test_cartan_munzner_matches_sequential_evaluation(m, k):
    poly = _poly(m, k)
    system = poly.system
    n = system.ambient_dim
    grad_residual, lap_residual = verify_cartan_munzner(poly, n_samples=300,
                                                        seed=32)
    worst_grad = worst_lap = 0.0
    for x in _sequential_unit_draws(default_rng(32), 300, n):
        grad = gradient(system, x)
        grad_s = grad - float(grad @ x) * x
        value = quartic(system, x)
        lap_s = float(np.trace(hessian(system, x))) - 4.0 * (n + 2) * value
        worst_grad = max(worst_grad, abs(float(grad_s @ grad_s)
                                         - 16.0 * (1.0 - value * value)))
        worst_lap = max(worst_lap, abs(lap_s - 8.0 * (system.m2 - m)
                                       + 4.0 * (n + 2) * value))
    assert abs(grad_residual - worst_grad) <= 1e-12
    assert abs(lap_residual - worst_lap) <= 1e-12


@pytest.mark.parametrize("m,k", [(6, 1), (9, 1)])
def test_cartan_munzner_memory_is_one_normal_stack(m, k):
    # the PDE check holds one (m+1, K, 2l) array, P_a x of the K = 1000
    # samples, plus a few (K, 2l) rows: the samples and the gradient's
    # temporaries (traced: 1.48 MB at (6,1) and 3.68 MB at (9,1), about
    # 4.6 rows over P_a x).  Contractions that broadcast products of P_a x
    # hold several stacks (2.27 and 6.01 MB)
    import tracemalloc
    poly = _poly(m, k)
    samples, dim = 1000, poly.system.ambient_dim
    stack_bytes = 8 * (m + 1) * samples * dim
    verify_cartan_munzner(poly, samples, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify_cartan_munzner(poly, samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stack_bytes < peak <= stack_bytes + 6 * 8 * samples * dim
