"""Willmore identities: spectra, reflection, balances, probes, fault injection."""

from dataclasses import fields, replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (MultiplicityError, ShapeData,
                          SpectrumError, VerificationConfig,
                          build_clifford_system, build_frame, certify,
                          certify_point,
                          deterministic_seed, einstein_probe, evaluate_system,
                          principal_decomposition, ricci_quadratic,
                          rotate_system, sample_focal_points,
                          shape_operators, willmore_residual)
from fkm_willmore import willmore
from fkm_willmore.geometry import take

from conftest import GRID, corrupt_system

# certify_point's checks, in the key order of the lemma and willmore blocks
CHECK_NAMES = ("max_spectrum_deviation", "residual_max", "balance_max",
               "bridge_max", "chain_max", "projection_pairwise_max",
               "projection_aggregate_max", "t0_pair_leak_max",
               "reflection_max", "case_identity_max")


def _setup(m, k, extra_points=1, seed=21):
    """The system, and the frames and shapes of its points as one stack
    each."""
    system = build_clifford_system(m, k)
    points = [deterministic_seed(system)]
    if extra_points:
        points += sample_focal_points(system, extra_points, seed=seed)
    frames = build_frame(system, points)
    return system, frames, shape_operators(system, frames)


def _each(frames, shapes):
    """The frame and shape of every point, as one-point stacks."""
    return [(take(frames, [p]), take(shapes, [p]))
            for p in range(len(frames.x))]


def _unit(rng, dim):
    c = rng.standard_normal(dim)
    return c / np.linalg.norm(c)


def _residuals(system, frame, shape, coeffs):
    """certify_point's residuals at a one-point stack, by check name."""
    return {c.name: c.residual
            for c in certify_point(system, frame, shape, [coeffs])[0]}


@pytest.mark.parametrize("m,k,dims", [(1, 3, (1, 1, 1)), (2, 2, (2, 1, 1)),
                                      (5, 1, (5, 2, 2))])
def test_principal_multiplicities(m, k, dims):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(50)]
        for c in coeffs:
            dec = principal_decomposition(system, frame, [c], shape=shape)
            got = (dec.t0.shape[2], dec.t1.shape[2], dec.tm1.shape[2])
            assert got == dims == (m, system.m2, system.m2)
            assert dec.spectrum_deviation[0] <= 1e-12


def test_principal_bases_orthonormal_and_tangent():
    system, frame, shape = _setup(3, 2, extra_points=0)
    dec = principal_decomposition(system, frame, np.eye(4)[2:3], shape=shape)
    basis = np.hstack([dec.t0[0], dec.t1[0], dec.tm1[0]])
    n = frame.tangent.shape[2]
    assert basis.shape == (16, n)
    assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= 1e-12
    # every column is tangent: orthogonal to x and to all P_a x
    lead = np.hstack([frame.x[0][:, None], frame.normal[0]])
    assert np.max(np.abs(lead.T @ basis)) <= 1e-12
    xi = (frame.normal @ dec.xi_coeffs[..., None])[..., 0]
    assert np.max(np.abs(dec.xi - xi)) == 0.0


def test_spectrum_error_on_scaled_operators():
    system, frame, shape = _setup(1, 3, extra_points=0)
    bad = ShapeData(operators=1.5 * shape.operators,
                    sff_norm_sq=shape.sff_norm_sq,
                    trace_free_norm_sq=shape.trace_free_norm_sq,
                    mean_curvature=shape.mean_curvature,
                    ricci=shape.ricci)
    with pytest.raises(SpectrumError):
        principal_decomposition(system, frame, np.eye(2)[:1], shape=bad)


def test_multiplicity_error_on_forged_operators():
    system, frame, shape = _setup(1, 3, extra_points=0)
    n = frame.tangent.shape[2]
    ops = np.array(shape.operators)
    ops[0, 0] = np.eye(n)                   # every eigenvalue lands at +1
    bad = ShapeData(operators=ops, sff_norm_sq=shape.sff_norm_sq,
                    trace_free_norm_sq=shape.trace_free_norm_sq,
                    mean_curvature=shape.mean_curvature,
                    ricci=shape.ricci)
    with pytest.raises(MultiplicityError):
        principal_decomposition(system, frame, np.eye(2)[:1], shape=bad)


def test_principal_decomposition_validates_coefficients():
    system, frame, shape = _setup(1, 3, extra_points=0)
    with pytest.raises(ValueError):
        principal_decomposition(system, frame, np.array([[1.0, 1.0]]), shape)
    with pytest.raises(ValueError):
        principal_decomposition(system, frame, np.array([[1.0, 0.0, 0.0]]),
                                shape)


@pytest.mark.parametrize("m,k", GRID)
def test_reflection_property(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(10 + m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
        res = _residuals(system, frame, shape, coeffs)
        assert res["reflection_max"] <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_willmore_residual_small_on_grid(m, k):
    system, frames, shapes = _setup(m, k)
    for residual in willmore_residual(shapes):
        assert residual < 1e-7


def test_willmore_residual_frame_independent():
    system, frame, shape = _setup(4, 2, extra_points=0)
    base = willmore_residual(shape)[0]
    rng = default_rng(33)
    n = frame.tangent.shape[2]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    other = replace(frame, tangent=frame.tangent @ q)
    rotated = willmore_residual(shape_operators(system, other))[0]
    assert abs(base - rotated) <= 1e-9
    assert base < 1e-7 and rotated < 1e-7


def test_willmore_residual_system_rotation_invariant():
    # replacing the system by an orthogonally mixed one keeps M+ and all
    # residuals at criterion level
    system, frames, shapes = _setup(3, 2, extra_points=0)
    rng = default_rng(44)
    mixed = rotate_system(system, _unit(rng, 4))
    frame = build_frame(mixed, [deterministic_seed(system)])
    base = willmore_residual(shapes)[0]
    rotated = willmore_residual(shape_operators(mixed, frame))[0]
    assert abs(base - rotated) <= 1e-9
    assert base < 1e-7 and rotated < 1e-7


@pytest.mark.parametrize("m,k", GRID)
def test_ricci_balance_and_bridge(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(20 + m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
        res = _residuals(system, frame, shape, coeffs)
        assert res["balance_max"] < 1e-7
        assert res["bridge_max"] < 1e-8


@pytest.mark.parametrize("m,k", GRID)
def test_projection_balance_and_chain(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(30 + m)
    for frame, shape in _each(frames, shapes):
        for c in list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]:
            res = _residuals(system, frame, shape, [c])
            pairwise = res["projection_pairwise_max"]
            aggregate = res["projection_aggregate_max"]
            assert pairwise < 1e-8
            assert aggregate < 1e-8
            assert res["t0_pair_leak_max"] < 1e-12
            # coarse bound: the aggregate over the m (m + 1) ordered pairs
            # cannot exceed pair count times the worst single pair
            assert aggregate <= m * (m + 1) * pairwise + 1e-15
            # the aggregate projection balance is the Ricci balance, term
            # by term, through the pair-vector expansion
            assert res["chain_max"] < 1e-8


@pytest.mark.parametrize("m,k", GRID)
def test_case_identities(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(40 + m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(5)]
        res = _residuals(system, frame, shape, coeffs)
        assert res["case_identity_max"] <= 1e-8
        if m == 2:
            # P'_0 U = 0 is an identity here, and the other case
            # identities hold to rounding as well
            assert res["case_identity_max"] <= 1e-12


@pytest.mark.parametrize("m,k", GRID)
def test_certify_point_aggregates(m, k):
    system, frame, shape = _setup(m, k, extra_points=0)
    rng = default_rng(50 + m)
    coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
    checks = certify_point(system, frame, shape, [coeffs])[0]
    assert tuple(c.name for c in checks) == CHECK_NAMES
    assert all(c.passed for c in checks)
    res = {c.name: c.residual for c in checks}
    assert res["residual_max"] < 1e-7
    assert res["balance_max"] < 1e-7
    for name in CHECK_NAMES:
        if name not in ("residual_max", "balance_max"):
            assert res[name] < 1e-8, name


def test_certify_point_doubled_generators():
    # m = 9 uses the doubled generator set; run the whole chain once on it
    system, frame, shape = _setup(9, 1, extra_points=0)
    rng = default_rng(59)
    coeffs = list(np.eye(10)) + [_unit(rng, 10) for _ in range(3)]
    checks = certify_point(system, frame, shape, [coeffs])[0]
    assert all(c.passed for c in checks)
    assert checks[CHECK_NAMES.index("residual_max")].residual < 1e-7


def test_einstein_probe_smallest_case():
    system, frame, shape = _setup(1, 3, extra_points=0)
    probe = einstein_probe(system, frame, shape)
    # oracle: the Ricci tensor here has eigenvalues {0, 0, 2}
    eigs = np.sort(np.linalg.eigvalsh(shape.ricci[0]))
    assert np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0]))) <= 1e-10
    assert probe.status == "evidence"
    assert probe.dimension_condition and probe.dim_inequality
    assert abs(probe.spread[0] - 2.0) <= 1e-8
    assert probe.spread_exceeds_threshold


def test_einstein_probe_evidence_and_inconclusive():
    for m, k, status in [(2, 2, "evidence"), (3, 2, "evidence"),
                         (4, 2, "inconclusive"), (5, 1, "inconclusive")]:
        system, frame, shape = _setup(m, k, extra_points=0)
        probe = einstein_probe(system, frame, shape)
        assert probe.status == status, (m, k)
        if status == "evidence":
            assert probe.spread[0] > 0.1 and probe.dim_inequality
        else:
            assert probe.dim_inequality is None
            assert probe.spread_exceeds_threshold is None


def test_fault_injection_detected():
    # nudging one matrix entry must surface as a wrong spectrum at a point
    # where the corrupted direction e_1 is tangent: x = (e_3 + e_5) / sqrt(2)
    # lies on M+ of the intact (2, 2) system and has x_1 = 0, so the nudge
    # leaves every P_a x, and the certification, as they are
    bad = corrupt_system(2, 2)
    point = certify(bad, (np.eye(8)[2] + np.eye(8)[4]) / np.sqrt(2.0))
    frame = build_frame(bad, [point])
    shape = shape_operators(bad, frame)
    with pytest.raises((SpectrumError, MultiplicityError)):
        principal_decomposition(bad, frame, np.eye(3)[:1], shape=shape)


# ---------------------------------------------------------------------------
# the batched chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2), (6, 1)])
def test_certify_point_batch_equals_fold_of_singles(m, k):
    # the batch must not mix normals: every residual is the max over the
    # one-normal checks, and the order of the normals is irrelevant
    system, frames, shapes = _setup(m, k)
    rng = default_rng(90 + m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(12)]
        batch = certify_point(system, frame, shape, [coeffs])[0]
        singles = [certify_point(system, frame, shape, [[c]])[0]
                   for c in coeffs]
        shuffled = certify_point(system, frame, shape,
                                 [[coeffs[i] for i in
                                   rng.permutation(len(coeffs))]])[0]
        assert all(c.passed for c in batch + shuffled + sum(singles, ()))
        for i, check in enumerate(batch):
            assert shuffled[i].name == singles[0][i].name == check.name
            folded = max(s[i].residual for s in singles)
            assert abs(check.residual - folded) <= 1e-14, check.name
            assert abs(shuffled[i].residual - folded) <= 1e-14, check.name


def test_principal_decomposition_matches_the_batch():
    # the one public per-normal function is the batch code on one normal
    system, frame, shape = _setup(4, 2, extra_points=0)
    c = _unit(default_rng(91), 5)
    dec = principal_decomposition(system, frame, [c], shape=shape)
    res = _residuals(system, frame, shape, [c])
    assert res["max_spectrum_deviation"] == dec.spectrum_deviation[0]


def test_certify_point_without_normals():
    system, frame, shape = _setup(2, 2, extra_points=0)
    checks = certify_point(system, frame, shape, np.zeros((1, 0, 3)))[0]
    assert tuple(c.name for c in checks) == CHECK_NAMES
    assert all(c.passed for c in checks)
    res = {c.name: c.residual for c in checks}
    assert res["case_identity_max"] == res["max_spectrum_deviation"] == 0.0


def _forged_shape(shape, operators):
    return ShapeData(operators=operators, sff_norm_sq=shape.sff_norm_sq,
                     trace_free_norm_sq=shape.trace_free_norm_sq,
                     mean_curvature=shape.mean_curvature, ricci=shape.ricci)


def test_batched_spectrum_error_names_the_normal():
    system, frame, shape = _setup(1, 3, extra_points=0)
    bad = _forged_shape(shape, 1.5 * shape.operators)
    # scaling every operator by 1.5 moves the +-1 eigenvalues of every A_xi
    # to +-1.5, so the first normal of the batch is reported
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(SpectrumError, match="normal 0:"):
        certify_point(system, frame, bad, [coeffs])
    # scaling only A_1 leaves the first two normals intact
    ops = np.array(shape.operators)
    ops[0, 1] *= 1.5
    bad = _forged_shape(shape, ops)
    coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
              np.array([0.0, 1.0])]
    with pytest.raises(SpectrumError, match="normal 2:"):
        certify_point(system, frame, bad, [coeffs])


def test_batched_multiplicity_error_names_the_normal():
    system, frame, shape = _setup(1, 3, extra_points=0)
    n = frame.tangent.shape[2]
    ops = np.array(shape.operators)
    ops[0, 1] = np.eye(n)                   # every eigenvalue lands at +1
    bad = _forged_shape(shape, ops)
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(MultiplicityError, match="normal 1:"):
        certify_point(system, frame, bad, [coeffs])


def test_batched_coefficient_validation_names_the_normal():
    system, frame, shape = _setup(2, 2, extra_points=0)
    coeffs = list(np.eye(3)) + [np.array([1.0, 1.0, 0.0])]
    with pytest.raises(ValueError, match="normal 3:"):
        certify_point(system, frame, shape, [coeffs])
    with pytest.raises(ValueError):
        certify_point(system, frame, shape, [[np.ones(2)]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=st.sampled_from(GRID), point_seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_einstein_probe_extremes_bound_every_direction(config, point_seed,
                                                       data):
    # Ric(X) is a quadratic form on unit tangents, so its extremes are the
    # extreme eigenvalues of the Ricci tensor, attained at their
    # eigenvectors: no other direction can widen the spread the probe takes
    # from those two.  The closed form and the tensor differ by the points'
    # residuals: up to 6e-13 between the probe and the eigenvalues, and
    # 2e-14 above the probe's maximum, over 1000 points per configuration
    system = build_clifford_system(*config)
    frame = build_frame(system, sample_focal_points(system, 1, point_seed))
    shape = shape_operators(system, frame)
    probe = einstein_probe(system, frame, shape)
    eigs = np.linalg.eigvalsh(shape.ricci[0])
    assert abs(probe.ricci_min[0] - eigs[0]) <= 1e-12
    assert abs(probe.ricci_max[0] - eigs[-1]) <= 1e-12
    n = frame.tangent.shape[2]
    z = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(z) > 1e-3)
    x = frame.tangent[0] @ (z / np.linalg.norm(z))
    value = ricci_quadratic(system, frame, x[None, :, None])[0, 0]
    assert probe.ricci_min[0] - 1e-12 <= value <= probe.ricci_max[0] + 1e-12


# ---------------------------------------------------------------------------
# blocks of points against one point at a time
# ---------------------------------------------------------------------------

def _normals(m, count, rng):
    return list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(count)]


@pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (4, 2), (6, 1)])
def test_certify_point_blocks_equal_single_points(m, k, monkeypatch):
    system, frames, shapes = _setup(m, k, extra_points=6)
    rng = default_rng(60 + m)
    coeffs = [_normals(m, 3, rng) for _ in frames.x]
    singles = [certify_point(system, f, s, [c])[0]
               for (f, s), c in zip(_each(frames, shapes), coeffs)]
    # the byte size of one (point, normal) row, and of one point's rows:
    # half and prods, P'_0, the ambient bases, A_xi and its eigenvectors,
    # the normals and the pair vectors
    dim = system.ambient_dim
    n = frames.tangent.shape[2]
    row = 8 * (2 * (m + 1) ** 2 * dim + dim * dim + dim * n + 2 * n * n
               + (m + 1) * dim + (m + 1) * m // 2 * dim)
    point = row * (m + 4)
    # block boundaries anywhere: one point per block, budgets of 2 and 3
    # points (and one byte short of 3) that split the 7 points unevenly, and
    # all points in one block
    for budget, per_block in ((1, 1), (2 * point, 2), (3 * point - 1, 2),
                              (3 * point, 3), (10 ** 9, 7)):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        assert min(willmore._block_points(system, m + 4), 7) == per_block
        assert certify_point(system, frames, shapes, coeffs) == singles


@pytest.mark.parametrize("m,k,blocks", [(1, 3, 1), (6, 1, 20)])
def test_chain_blocks_of_a_default_configuration(m, k, blocks, monkeypatch):
    # 20 points x (50 + m + 1) normals: the small (1,3) runs as one block,
    # (6,1), about 1.15 MB of rows a point, as one point per block
    calls = []
    chain = willmore._chain

    def counted(system, frame, shape, coeffs, where):
        calls.append(coeffs.shape[:2])
        return chain(system, frame, shape, coeffs, where)

    monkeypatch.setattr(willmore, "_chain", counted)
    cfg = VerificationConfig(configurations=((m, k),), n_points=20,
                             n_normals=50)
    entry = evaluate_system(build_clifford_system(m, k), cfg, 0)
    assert entry["blocks"]["willmore"]["pass"]
    assert len(calls) == blocks
    assert sum(p for p, _ in calls) == 20
    assert {num for _, num in calls} == {50 + m + 1}


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_eigenbasis_blocks_are_orthonormal(m, k):
    # the chain maps eigh's eigenvector blocks to ambient coordinates
    # without re-orthonormalizing them; over 20 points x 50 random normals
    # (and the coordinate normals) the worst |V^T V - I| seen was 3.3e-15,
    # at (9,1)
    system, frames, shapes = _setup(m, k, extra_points=19)
    rng = default_rng(70 + m)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    n = frames.tangent.shape[2]
    # lifting through the identity returns the eigenvector blocks V
    eye = np.broadcast_to(np.eye(n), (len(frames.x), n, n))
    _, *bases = willmore._decompose(system, eye, shapes.operators, coeffs,
                                    lambda p, q: f"point {p}, normal {q}")
    for v in bases:
        gram = v.swapaxes(2, 3) @ v
        assert np.max(np.abs(gram - np.eye(v.shape[3])), initial=0.0) <= 1e-13


def test_certify_point_block_errors_name_the_point():
    system, frames, shapes = _setup(1, 3, extra_points=2)
    coeffs = [[np.array([1.0, 0.0]), np.array([0.0, 1.0])]] * 3
    ops = np.array(shapes.operators)
    ops[2] *= 1.5
    bad = _forged_shape(shapes, ops)
    with pytest.raises(SpectrumError, match="point 2, normal 0:"):
        certify_point(system, frames, bad, coeffs)
    with pytest.raises(ValueError):
        certify_point(system, frames, shapes, coeffs[:2])
    with pytest.raises(ValueError):
        certify_point(system, frames, shapes,
                      [coeffs[0], coeffs[1], coeffs[2][:1]])


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_einstein_probe_stack_equals_single_points(m, k):
    system, frames, shapes = _setup(m, k, extra_points=4)
    probe = einstein_probe(system, frames, shapes)
    singles = [einstein_probe(system, f, sh) for f, sh in _each(frames, shapes)]
    for name in ("ricci_min", "ricci_max", "spread"):
        assert np.array_equal(getattr(probe, name),
                              [getattr(one, name)[0] for one in singles])
    for name in ("dimension_condition", "dim_inequality", "status"):
        assert all(getattr(one, name) == getattr(probe, name)
                   for one in singles)
    assert probe.spread_exceeds_threshold == (
        None if probe.status == "inconclusive"
        else all(one.spread_exceeds_threshold for one in singles))
    again = einstein_probe(system, frames, shape_operators(system, frames))
    assert all(np.array_equal(getattr(again, f.name), getattr(probe, f.name))
               for f in fields(probe))
