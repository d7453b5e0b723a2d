"""Willmore identities: spectra, reflection, balances, probes, fault injection."""

import numpy as np
import pytest
from numpy.random import default_rng

from fkm_willmore import (AdaptedFrame, MultiplicityError, ShapeData,
                          SpectrumError, build_clifford_system, build_frame,
                          case_identities, certify_point, deterministic_seed,
                          einstein_probe, principal_decomposition,
                          projection_balance, reflection_check, ricci_balance,
                          ricci_quadratic, ricci_tensor, rotate_system,
                          sample_focal_points, shape_operators,
                          willmore_residual)

from conftest import GRID, corrupt_system


def _setup(m, k, extra_points=1, seed=21):
    system = build_clifford_system(m, k)
    points = [deterministic_seed(system)]
    if extra_points:
        points += sample_focal_points(system, extra_points, seed=seed)
    frames = [build_frame(system, p) for p in points]
    shapes = [shape_operators(system, f) for f in frames]
    return system, frames, shapes


def _unit(rng, dim):
    c = rng.standard_normal(dim)
    return c / np.linalg.norm(c)


@pytest.mark.parametrize("m,k,dims", [(1, 3, (1, 1, 1)), (2, 2, (2, 1, 1)),
                                      (5, 1, (5, 2, 2))])
def test_principal_multiplicities(m, k, dims):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(m)
    for frame, shape in zip(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(50)]
        for c in coeffs:
            dec = principal_decomposition(system, frame, c, shape=shape)
            got = (dec.t0.shape[1], dec.t1.shape[1], dec.tm1.shape[1])
            assert got == dims == (m, system.m2, system.m2)
            assert dec.spectrum_deviation <= 1e-12


def test_principal_bases_orthonormal_and_tangent():
    system, frames, shapes = _setup(3, 2, extra_points=0)
    frame, shape = frames[0], shapes[0]
    dec = principal_decomposition(system, frame, np.eye(4)[2], shape=shape)
    basis = np.hstack([dec.t0, dec.t1, dec.tm1])
    n = frame.tangent_dim
    assert basis.shape == (16, n)
    assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= 1e-12
    # every column is tangent: orthogonal to x and to all P_a x
    lead = np.hstack([frame.x[:, None], frame.normal])
    assert np.max(np.abs(lead.T @ basis)) <= 1e-12
    assert np.max(np.abs(dec.xi - frame.normal @ dec.xi_coeffs)) == 0.0


def test_spectrum_error_on_scaled_operators():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    bad = ShapeData(operators=1.5 * shapes[0].operators,
                    sff_norm_sq=shapes[0].sff_norm_sq,
                    trace_free_norm_sq=shapes[0].trace_free_norm_sq,
                    mean_curvature=shapes[0].mean_curvature,
                    ricci=shapes[0].ricci)
    with pytest.raises(SpectrumError):
        principal_decomposition(system, frames[0], np.eye(2)[0], shape=bad)


def test_multiplicity_error_on_forged_operators():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    n = frames[0].tangent_dim
    ops = np.array(shapes[0].operators)
    ops[0] = np.eye(n)                      # every eigenvalue lands at +1
    bad = ShapeData(operators=ops, sff_norm_sq=shapes[0].sff_norm_sq,
                    trace_free_norm_sq=shapes[0].trace_free_norm_sq,
                    mean_curvature=shapes[0].mean_curvature,
                    ricci=shapes[0].ricci)
    with pytest.raises(MultiplicityError):
        principal_decomposition(system, frames[0], np.eye(2)[0], shape=bad)


def test_principal_decomposition_validates_coefficients():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    with pytest.raises(ValueError):
        principal_decomposition(system, frames[0], np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        principal_decomposition(system, frames[0], np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("m,k", GRID)
def test_reflection_property(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(10 + m)
    for frame, shape in zip(frames, shapes):
        for c in list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]:
            dec = principal_decomposition(system, frame, c, shape=shape)
            assert reflection_check(system, frame, dec) <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_willmore_residual_small_on_grid(m, k):
    system, frames, shapes = _setup(m, k)
    for shape in shapes:
        assert willmore_residual(shape) < 1e-7


def test_willmore_residual_frame_independent():
    system, frames, shapes = _setup(4, 2, extra_points=0)
    frame, shape = frames[0], shapes[0]
    base = willmore_residual(shape)
    rng = default_rng(33)
    n = frame.tangent_dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    other = AdaptedFrame(point=frame.point, tangent=frame.tangent @ q,
                         normal=frame.normal)
    rotated = willmore_residual(shape_operators(system, other))
    assert abs(base - rotated) <= 1e-9
    assert base < 1e-7 and rotated < 1e-7


def test_willmore_residual_system_rotation_invariant():
    # replacing the system by an orthogonally mixed one keeps M+ and all
    # residuals at criterion level
    system, frames, shapes = _setup(3, 2, extra_points=0)
    rng = default_rng(44)
    mixed = rotate_system(system, _unit(rng, 4))
    frame = build_frame(mixed, frames[0].point)
    base = willmore_residual(shapes[0])
    rotated = willmore_residual(shape_operators(mixed, frame))
    assert abs(base - rotated) <= 1e-9
    assert base < 1e-7 and rotated < 1e-7


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_balance_and_bridge(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(20 + m)
    for frame, shape in zip(frames, shapes):
        for c in list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]:
            dec = principal_decomposition(system, frame, c, shape=shape)
            bal = ricci_balance(system, frame, dec, shape=shape)
            assert bal.balance < 1e-7
            assert bal.bridge_gap < 1e-8
            assert abs(bal.balance - abs(bal.signed_balance)) == 0.0


@pytest.mark.parametrize("m,k", GRID)
def test_projection_balance_and_chain(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(30 + m)
    for frame, shape in zip(frames, shapes):
        for c in list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]:
            dec = principal_decomposition(system, frame, c, shape=shape)
            proj = projection_balance(system, frame, dec)
            assert proj.pairwise_max < 1e-8
            assert proj.aggregate_gap < 1e-8
            assert proj.t0_pair_leak_max < 1e-12
            assert proj.n_ordered_pairs == m * (m + 1)
            # coarse bound: the aggregate cannot exceed pair count times
            # the worst single pair
            assert proj.aggregate_gap <= (proj.n_ordered_pairs
                                          * proj.pairwise_max + 1e-15)
            bal = ricci_balance(system, frame, dec, shape=shape)
            # the aggregate projection balance is the Ricci balance, term
            # by term, through the pair-vector expansion
            assert abs(bal.signed_balance - proj.signed_aggregate) < 1e-8


@pytest.mark.parametrize("m,k", GRID)
def test_case_identities(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(40 + m)
    for frame, shape in zip(frames, shapes):
        for c in list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(5)]:
            dec = principal_decomposition(system, frame, c, shape=shape)
            rec = case_identities(system, frame, dec)
            assert rec.passed, rec
            assert rec.details["trivially_balanced"] == (m == 1)
            if m == 1:
                assert rec.details["curved_pairs"] == 0
            else:
                assert rec.details["curved_pairs"] == m * (m - 1) // 2
            if m == 2:
                assert rec.details["p0u_max"] <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_certify_point_aggregates(m, k):
    system, frames, shapes = _setup(m, k, extra_points=0)
    rng = default_rng(50 + m)
    coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
    cert = certify_point(system, frames[0], shapes[0], coeffs)
    assert cert.passed
    assert cert.n_normals == m + 11
    assert cert.residual_reduced < 1e-7
    assert cert.residual_balance < 1e-7
    for value in (cert.bridge_max, cert.chain_gap_max, cert.reflection_max,
                  cert.case_max, cert.projection_pairwise_max,
                  cert.projection_aggregate_max, cert.t0_pair_leak_max,
                  cert.spectrum_deviation_max):
        assert value < 1e-8


def test_certify_point_doubled_generators():
    # m = 9 uses the doubled generator set; run the whole chain once on it
    system, frames, shapes = _setup(9, 1, extra_points=0)
    rng = default_rng(59)
    coeffs = list(np.eye(10)) + [_unit(rng, 10) for _ in range(3)]
    cert = certify_point(system, frames[0], shapes[0], coeffs)
    assert cert.passed
    assert cert.residual_reduced < 1e-7


def test_einstein_probe_smallest_case():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    probe = einstein_probe(system, frames[0], 100, seed=5, shape=shapes[0])
    # oracle: the Ricci tensor here has eigenvalues {0, 0, 2}
    eigs = np.sort(np.linalg.eigvalsh(ricci_tensor(system, frames[0])))
    assert np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0]))) <= 1e-10
    assert probe.status == "evidence"
    assert probe.dimension_condition and probe.dim_inequality
    assert abs(probe.spread - 2.0) <= 1e-8
    assert probe.spread_exceeds_threshold


def test_einstein_probe_evidence_and_inconclusive():
    for m, k, status in [(2, 2, "evidence"), (3, 2, "evidence"),
                         (4, 2, "inconclusive"), (5, 1, "inconclusive")]:
        system, frames, shapes = _setup(m, k, extra_points=0)
        probe = einstein_probe(system, frames[0], 50, seed=6, shape=shapes[0])
        assert probe.status == status, (m, k)
        if status == "evidence":
            assert probe.spread > 0.1 and probe.dim_inequality
        else:
            assert probe.dim_inequality is None
            assert probe.spread_exceeds_threshold is None


def test_einstein_probe_needs_directions():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    with pytest.raises(ValueError):
        einstein_probe(system, frames[0], 1, seed=5)


def test_fault_injection_detected():
    # nudging one matrix entry must surface as a wrong spectrum at the
    # deterministic point (the corrupted direction is tangent there)
    bad = corrupt_system(2, 2)
    point = deterministic_seed(bad)
    frame = build_frame(bad, point)
    shape = shape_operators(bad, frame)
    with pytest.raises((SpectrumError, MultiplicityError)):
        principal_decomposition(bad, frame, np.eye(3)[0], shape=shape)


# ---------------------------------------------------------------------------
# the batched chain
# ---------------------------------------------------------------------------

_CERT_FIELDS = ("residual_reduced", "residual_balance", "residual_projection",
                "projection_pairwise_max", "projection_aggregate_max",
                "bridge_max", "chain_gap_max", "reflection_max", "case_max",
                "spectrum_deviation_max", "t0_pair_leak_max")


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2), (6, 1)])
def test_certify_point_batch_equals_fold_of_singles(m, k):
    # the batch must not mix normals: every field is the max over the
    # one-normal certificates, and the order of the normals is irrelevant
    system, frames, shapes = _setup(m, k)
    rng = default_rng(90 + m)
    for frame, shape in zip(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(12)]
        batch = certify_point(system, frame, shape, coeffs)
        singles = [certify_point(system, frame, shape, [c]) for c in coeffs]
        shuffled = certify_point(system, frame, shape,
                                 [coeffs[i] for i in
                                  rng.permutation(len(coeffs))])
        assert batch.n_normals == shuffled.n_normals == len(coeffs)
        assert batch.passed and shuffled.passed
        assert all(s.n_normals == 1 and s.passed for s in singles)
        for name in _CERT_FIELDS:
            folded = max(getattr(s, name) for s in singles)
            assert abs(getattr(batch, name) - folded) <= 1e-14, name
            assert abs(getattr(shuffled, name) - folded) <= 1e-14, name


def test_per_normal_functions_match_the_batch():
    # the public per-normal functions are the batch code on one normal
    system, frames, shapes = _setup(4, 2, extra_points=0)
    frame, shape = frames[0], shapes[0]
    c = _unit(default_rng(91), 5)
    dec = principal_decomposition(system, frame, c, shape=shape)
    bal = ricci_balance(system, frame, dec, shape=shape)
    proj = projection_balance(system, frame, dec)
    case = case_identities(system, frame, dec)
    cert = certify_point(system, frame, shape, [c])
    assert cert.spectrum_deviation_max == dec.spectrum_deviation
    assert cert.reflection_max == reflection_check(system, frame, dec)
    assert cert.residual_balance == bal.balance
    assert cert.bridge_max == bal.bridge_gap
    assert cert.projection_pairwise_max == proj.pairwise_max
    assert cert.projection_aggregate_max == proj.aggregate_gap
    assert cert.t0_pair_leak_max == proj.t0_pair_leak_max
    assert cert.chain_gap_max == abs(bal.signed_balance
                                     - proj.signed_aggregate)
    assert cert.case_max == case.max_residual


def test_certify_point_without_normals():
    system, frames, shapes = _setup(2, 2, extra_points=0)
    cert = certify_point(system, frames[0], shapes[0], [])
    assert cert.n_normals == 0 and cert.passed
    assert cert.case_max == cert.spectrum_deviation_max == 0.0


def _forged_shape(shape, operators):
    return ShapeData(operators=operators, sff_norm_sq=shape.sff_norm_sq,
                     trace_free_norm_sq=shape.trace_free_norm_sq,
                     mean_curvature=shape.mean_curvature, ricci=shape.ricci)


def test_batched_spectrum_error_names_the_normal():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    bad = _forged_shape(shapes[0], 1.5 * shapes[0].operators)
    # scaling every operator by 1.5 moves the +-1 eigenvalues of every A_xi
    # to +-1.5, so the first normal of the batch is reported
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(SpectrumError, match="normal 0:"):
        certify_point(system, frames[0], bad, coeffs)
    # scaling only A_1 leaves the first two normals intact
    ops = np.array(shapes[0].operators)
    ops[1] *= 1.5
    bad = _forged_shape(shapes[0], ops)
    coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
              np.array([0.0, 1.0])]
    with pytest.raises(SpectrumError, match="normal 2:"):
        certify_point(system, frames[0], bad, coeffs)


def test_batched_multiplicity_error_names_the_normal():
    system, frames, shapes = _setup(1, 3, extra_points=0)
    n = frames[0].tangent_dim
    ops = np.array(shapes[0].operators)
    ops[1] = np.eye(n)                      # every eigenvalue lands at +1
    bad = _forged_shape(shapes[0], ops)
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(MultiplicityError, match="normal 1:"):
        certify_point(system, frames[0], bad, coeffs)


def test_batched_coefficient_validation_names_the_normal():
    system, frames, shapes = _setup(2, 2, extra_points=0)
    coeffs = list(np.eye(3)) + [np.array([1.0, 1.0, 0.0])]
    with pytest.raises(ValueError, match="normal 3:"):
        certify_point(system, frames[0], shapes[0], coeffs)
    with pytest.raises(ValueError):
        certify_point(system, frames[0], shapes[0], [np.ones(2)])


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2)])
def test_einstein_probe_matches_sequential_draws(m, k):
    # the probe's block draw gives the directions the per-direction draw
    # loop gave, so the extremes agree to rounding
    system, frames, shapes = _setup(m, k)
    for seed, (frame, shape) in enumerate(zip(frames, shapes)):
        probe = einstein_probe(system, frame, 60, seed=seed, shape=shape)
        rng = default_rng(seed)
        n = frame.tangent_dim
        values = []
        for _ in range(60):
            z = rng.standard_normal(n)
            z /= np.linalg.norm(z)
            values.append(ricci_quadratic(system, frame, frame.tangent @ z))
        vecs = np.linalg.eigh(shape.ricci)[1]
        for idx in (0, n - 1):
            values.append(ricci_quadratic(system, frame,
                                          frame.tangent @ vecs[:, idx]))
        assert abs(probe.ricci_min - min(values)) <= 1e-12
        assert abs(probe.ricci_max - max(values)) <= 1e-12
