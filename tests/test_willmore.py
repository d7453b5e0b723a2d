"""Willmore identities: spectra, reflection, balances, probes, fault injection."""

import tracemalloc
from dataclasses import fields, replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (CliffordSystem, MultiplicityError, ShapeData,
                          SpectrumError, VerificationConfig,
                          build_clifford_system, build_frame, certify_point,
                          einstein_probe, evaluate_system,
                          sample_focal_points, shape_operators)
from fkm_willmore import willmore
from fkm_willmore.focal import _certify
from fkm_willmore.geometry import pair_products, take

from conftest import GRID, conjugated_system, corrupt_system
from oracles import (dense_p0_tangent, p0_tangent_form, p0_u_sq,
                     rotate_system, rotated_pairs, rotated_tangency,
                     signed_balance)

# certify_point's checks, in the key order of the lemma and willmore blocks
CHECK_NAMES = ("max_spectrum_deviation", "residual_max", "balance_max",
               "bridge_max", "chain_max", "projection_pairwise_max",
               "projection_aggregate_max", "t0_pair_leak_max",
               "reflection_max", "case_identity_max")


def _setup(m, k, extra_points=1, seed=21):
    """The system, and the frames and shapes of its points as one stack
    each."""
    system = build_clifford_system(m, k)
    frames = build_frame(
        system, sample_focal_points(system, 1 + extra_points, seed=seed).x)
    return system, frames, shape_operators(frames)


def _each(frames, shapes):
    """The frame and shape of every point, as one-point stacks."""
    return [(take(frames, [p]), take(shapes, [p]))
            for p in range(len(frames.x))]


def _unit(rng, dim):
    c = rng.standard_normal(dim)
    return c / np.linalg.norm(c)


def _residuals(system, frame, shape, coeffs):
    """certify_point's residuals at a one-point stack, by check name."""
    return dict(zip(CHECK_NAMES,
                    certify_point(system, frame, shape, [coeffs])[0]))


def _passes(row):
    """Whether a row of certify_point residuals passes the default
    tolerances: 1e-7 for the reduced criterion and the balance, 1e-8 for
    the rest."""
    return all(value <= (1e-7 if name in ("residual_max", "balance_max")
                         else 1e-8)
               for name, value in zip(CHECK_NAMES, row))


def _projectors(system, shapes, coeffs):
    """The chain's deviations and projectors (Pi_0, Pi_{+1}, Pi_{-1}) for a
    (P, N, m+1) stack of coefficients."""
    deviation, _, *projectors = willmore._decompose(
        system, shapes.operators, np.asarray(coeffs), (0, 0))
    return deviation, *projectors


@pytest.mark.parametrize("m,k,dims", [(1, 3, (1, 1, 1)), (2, 2, (2, 1, 1)),
                                      (5, 1, (5, 2, 2))])
def test_principal_multiplicities(m, k, dims):
    # the eigenspace dimensions are the traces of the chain's projectors
    system, frames, shapes = _setup(m, k)
    rng = default_rng(m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(50)]
        deviation, *projectors = _projectors(system, shape, [coeffs])
        assert dims == (m, system.m2, system.m2)
        for proj, dim in zip(projectors, dims):
            traces = np.trace(proj, axis1=2, axis2=3)
            assert np.max(np.abs(traces - dim)) <= 1e-12
        assert np.max(deviation) <= 1e-12


def test_principal_bases_orthonormal_and_tangent():
    # the eigenspaces are held as projectors in tangent coordinates: they
    # sum to the identity, A_xi acts on the range of each as its
    # eigenvalue, and the ranges, mapped through T, are tangent
    system, frame, shape = _setup(3, 2, extra_points=0)
    _, pi0, plus, minus = _projectors(system, shape, [np.eye(4)[2:3]])
    a_xi = shape.operators[0, 2]
    n = frame.tangent.shape[2]
    assert np.max(np.abs(pi0 + plus + minus - np.eye(n))) <= 1e-15
    lead = np.hstack([frame.x[0][:, None], system.apply(frame.x)[0].T])
    for proj, value in ((pi0, 0.0), (plus, 1.0), (minus, -1.0)):
        proj = proj[0, 0]
        assert np.max(np.abs(a_xi @ proj - value * proj)) <= 1e-12
        ambient = frame.tangent[0] @ proj
        assert ambient.shape == (16, n)
        assert np.max(np.abs(lead.T @ ambient)) <= 1e-12


def test_spectrum_error_on_scaled_operators():
    system, frame, shape = _setup(1, 3, extra_points=0)
    bad = ShapeData(operators=1.5 * shape.operators,
                    sff_norm_sq=shape.sff_norm_sq,
                    trace_free_norm_sq=shape.trace_free_norm_sq,
                    mean_curvature=shape.mean_curvature,
                    ricci=shape.ricci)
    with pytest.raises(SpectrumError):
        certify_point(system, frame, bad, [np.eye(2)[:1]])


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
        certify_point(system, frame, bad, [np.eye(2)[:1]])


@pytest.mark.parametrize("m,k", GRID)
def test_reflection_property(m, k):
    system, frames, shapes = _setup(m, k)
    rng = default_rng(10 + m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
        res = _residuals(system, frame, shape, coeffs)
        assert res["reflection_max"] <= 1e-12


def willmore_residual(system, frames, shapes):
    """residual_max of certify_point at every point, the reduced Willmore
    criterion max_a |sum_ij R_ij h^a_ij|, read at the coordinate normals."""
    eye = np.broadcast_to(np.eye(system.m + 1),
                          (len(frames.x), system.m + 1, system.m + 1))
    return certify_point(system, frames, shapes,
                         eye)[:, CHECK_NAMES.index("residual_max")]


@pytest.mark.parametrize("m,k", GRID)
def test_willmore_residual_small_on_grid(m, k):
    system, frames, shapes = _setup(m, k)
    for residual in willmore_residual(system, frames, shapes):
        assert residual < 1e-7


def test_willmore_residual_frame_independent():
    system, frame, shape = _setup(4, 2, extra_points=0)
    base = willmore_residual(system, frame, shape)[0]
    rng = default_rng(33)
    n = frame.tangent.shape[2]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # another tangent basis T q, with its shape operators -(T q)^T P_a T q
    t = frame.tangent @ q
    other = replace(frame, tangent=t, operators=-t.swapaxes(1, 2)[:, None]
                    @ system.matrices @ t[:, None])
    rotated = willmore_residual(system, other, shape_operators(other))[0]
    assert abs(base - rotated) <= 1e-9
    assert base < 1e-7 and rotated < 1e-7


def test_willmore_residual_system_rotation_invariant():
    # replacing the system by an orthogonally mixed one keeps M+ and all
    # residuals at criterion level
    system, frames, shapes = _setup(3, 2, extra_points=0)
    rng = default_rng(44)
    mixed = rotate_system(system, _unit(rng, 4))
    frame = build_frame(mixed, frames.x)
    base = willmore_residual(system, frames, shapes)[0]
    rotated = willmore_residual(mixed, frame, shape_operators(frame))[0]
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
    assert willmore.CHECK_NAMES == CHECK_NAMES
    row = certify_point(system, frame, shape, [coeffs])[0]
    assert row.shape == (len(CHECK_NAMES),)
    res = dict(zip(CHECK_NAMES, row))
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
    row = certify_point(system, frame, shape, [coeffs])[0]
    assert _passes(row)
    assert row[CHECK_NAMES.index("residual_max")] < 1e-7


def test_einstein_probe_smallest_case():
    system, frame, shape = _setup(1, 3, extra_points=0)
    probe = einstein_probe(system, frame)
    # oracle: the Ricci tensor here has eigenvalues {0, 0, 2}
    eigs = np.sort(np.linalg.eigvalsh(shape.ricci[0]))
    assert np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0]))) <= 1e-10
    assert probe.status == "evidence"
    assert probe.dimension_condition
    assert abs(probe.spread[0] - 2.0) <= 1e-8
    assert probe.spread_exceeds_threshold


def test_einstein_probe_evidence_and_inconclusive():
    for m, k, status in [(2, 2, "evidence"), (3, 2, "evidence"),
                         (4, 2, "inconclusive"), (5, 1, "inconclusive")]:
        system, frame, _ = _setup(m, k, extra_points=0)
        probe = einstein_probe(system, frame)
        assert probe.status == status, (m, k)
        if status == "evidence":
            assert probe.spread[0] > 0.1 and probe.dimension_condition
        else:
            assert not probe.dimension_condition
            assert probe.spread_exceeds_threshold is None


def test_fault_injection_detected():
    # nudging one matrix entry must surface as a wrong spectrum at a point
    # where the corrupted direction e_1 is tangent: x = (e_3 + e_5) / sqrt(2)
    # lies on M+ of the intact (2, 2) system and has x_1 = 0, so the nudge
    # leaves every P_a x, and the certification, as they are
    bad = corrupt_system(2, 2)
    x = (np.eye(8)[2] + np.eye(8)[4]) / np.sqrt(2.0)
    assert _certify(bad, x[None])["passed"][0]
    frame = build_frame(bad, x)
    shape = shape_operators(frame)
    with pytest.raises((SpectrumError, MultiplicityError)):
        certify_point(bad, frame, shape, [np.eye(3)[:1]])


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
        singles = np.array([certify_point(system, frame, shape, [[c]])[0]
                            for c in coeffs])
        shuffled = certify_point(system, frame, shape,
                                 [[coeffs[i] for i in
                                   rng.permutation(len(coeffs))]])[0]
        assert all(_passes(row) for row in [batch, shuffled, *singles])
        folded = np.max(singles, axis=0)
        for i, name in enumerate(CHECK_NAMES):
            assert abs(batch[i] - folded[i]) <= 1e-14, name
            assert abs(shuffled[i] - folded[i]) <= 1e-14, name


def test_certify_point_without_normals():
    # with no normals the per-normal checks read 0, but the pair tangency
    # belongs to the point, so case_identity_max still reports it
    system, frame, shape = _setup(2, 2, extra_points=0)
    row = certify_point(system, frame, shape, np.zeros((1, 0, 3)))[0]
    assert row.shape == (len(CHECK_NAMES),)
    assert _passes(row)
    res = dict(zip(CHECK_NAMES, row))
    assert res["max_spectrum_deviation"] == 0.0
    tangency = willmore._pair_tangency(system, frame)[0]
    assert tangency > 0.0
    assert res["case_identity_max"] == tangency


def _forged_shape(shape, operators):
    return ShapeData(operators=operators, sff_norm_sq=shape.sff_norm_sq,
                     trace_free_norm_sq=shape.trace_free_norm_sq,
                     mean_curvature=shape.mean_curvature, ricci=shape.ricci)


def test_batched_spectrum_error_names_the_normal(monkeypatch):
    system, frame, shape = _setup(1, 3, extra_points=0)
    # with the budget at 1 byte every normal runs in a block of its own, and
    # the error still names it by its index in the input
    for budget in (willmore._BLOCK_BYTES, 1):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        bad = _forged_shape(shape, 1.5 * shape.operators)
        # scaling every operator by 1.5 moves the +-1 eigenvalues of every
        # A_xi to +-1.5, so the first normal of the batch is reported
        coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(SpectrumError, match="point 0, normal 0:"):
            certify_point(system, frame, bad, [coeffs])
        # scaling only A_1 leaves the first two normals intact
        ops = np.array(shape.operators)
        ops[0, 1] *= 1.5
        bad = _forged_shape(shape, ops)
        coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                  np.array([0.0, 1.0])]
        with pytest.raises(SpectrumError, match="point 0, normal 2:"):
            certify_point(system, frame, bad, [coeffs])


def test_batched_multiplicity_error_names_the_normal(monkeypatch):
    system, frame, shape = _setup(1, 3, extra_points=0)
    n = frame.tangent.shape[2]
    ops = np.array(shape.operators)
    ops[0, 1] = np.eye(n)                   # every eigenvalue lands at +1
    bad = _forged_shape(shape, ops)
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for budget in (willmore._BLOCK_BYTES, 1):   # 1: a block per normal
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        with pytest.raises(MultiplicityError, match="point 0, normal 1:"):
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
    # extreme eigenvalues of its matrix: no direction can widen the spread
    # the probe reads off the closed-form matrix.  The closed form and the
    # tensor from the shape operators differ by the points' residuals, which
    # the cross-check bounds (at most 1.2e-14 in the reports of the default
    # grid, --points 100 and --grid 7:2,8:2,9:1 at seeds 42 and 7)
    system = build_clifford_system(*config)
    frame = build_frame(system,
                        sample_focal_points(system, 2, point_seed).x[1:])
    shape = shape_operators(frame)
    probe = einstein_probe(system, frame)
    eigs = np.linalg.eigvalsh(shape.ricci[0])
    assert abs(probe.ricci_min[0] - eigs[0]) <= 1e-12
    assert abs(probe.ricci_max[0] - eigs[-1]) <= 1e-12
    n = frame.tangent.shape[2]
    z = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(z) > 1e-3)
    z /= np.linalg.norm(z)
    for matrix in (frame.closed_ricci[0], shape.ricci[0]):
        value = float(z @ matrix @ z)
        assert (probe.ricci_min[0] - 1e-12 <= value
                <= probe.ricci_max[0] + 1e-12)


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
    singles = np.array([certify_point(system, f, s, [c])[0]
                        for (f, s), c in zip(_each(frames, shapes), coeffs)])
    # the byte size of one (point, normal) row: A_xi, the projectors and
    # the purification, the completion, the pair vectors, and the larger of
    # the rotated products and P'_0 T with its temporaries; and of one
    # point: P_a T, and with its m + 4 rows
    m1, dim = m + 1, system.ambient_dim
    n = frames.tangent.shape[2]
    row = 8 * (5 * n * n + m1 * m1
               + (m1 * m // 2 + max(2 * m1 * m1, 3 * dim)) * n)
    fixed = 8 * m1 * dim * n
    point = row * (m + 4) + fixed
    # block boundaries anywhere: one point per block, budgets of 2 and 3
    # points (and one byte short of 3) that split the 7 points unevenly, and
    # all points in one block
    for budget, shape in ((point, (1, m + 4)), (2 * point, (2, m + 4)),
                          (3 * point - 1, (2, m + 4)),
                          (3 * point, (3, m + 4)), (10 ** 9, (7, m + 4))):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        points, normals = willmore._block_points(system, m + 4)
        assert (min(points, 7), normals) == shape
        assert np.array_equal(certify_point(system, frames, shapes, coeffs),
                              singles)
    # a point's normals split evenly over the fewest blocks that fit: one
    # normal per block, at most 3, and one byte short of all m + 4 (two
    # halves).  A block of one normal takes numpy's matrix-vector products
    # where longer blocks take matrix products, so the rows agree to
    # rounding (worst seen 2.2e-15, at (4, 2)), not bit for bit; residual_max,
    # balance_max and bridge_max are read before any block, bit for bit
    for budget, normals in ((1, 1), (fixed + 3 * row, 3),
                            (point - 1, (m + 5) // 2)):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        assert willmore._block_points(system, m + 4) == (1, normals)
        rows = certify_point(system, frames, shapes, coeffs)
        assert np.allclose(rows, singles, rtol=0.0, atol=1e-13)
        assert np.array_equal(rows[:, 1:4], singles[:, 1:4])


@pytest.mark.parametrize("m,k,blocks", [(1, 3, 1), (6, 1, 20)])
def test_chain_blocks_of_a_default_configuration(m, k, blocks, monkeypatch):
    # 20 points x (50 + m + 1) normals: the small (1,3) runs as one block,
    # (6,1), about 0.61 MB a point, as one point per block
    calls = []
    chain = willmore._chain

    def counted(system, coeffs, *rest):
        calls.append(coeffs.shape[:2])
        return chain(system, coeffs, *rest)

    monkeypatch.setattr(willmore, "_chain", counted)
    cfg = VerificationConfig(configurations=((m, k),), n_points=20,
                             n_normals=50)
    entry = evaluate_system(build_clifford_system(m, k), cfg, 0)
    assert entry["blocks"]["willmore"]["pass"]
    assert len(calls) == blocks
    assert sum(p for p, _ in calls) == 20
    assert {num for _, num in calls} == {50 + m + 1}


@pytest.mark.parametrize("m,k,extra", [(3, 2, 50), (6, 1, 50), (6, 1, 0),
                                       (9, 1, 50)])
def test_chain_block_peak_fits_the_budget(m, k, extra):
    # the row model against measured memory: the traced peak of one chain
    # block, the P_a T of the points that _block_points allows for the
    # coordinate normals and `extra` random ones a point, and one chunk of
    # their normals through the chain, stays within _BLOCK_BYTES (peaks
    # seen: 964, 587, 1094 and 901 KB).  The rows of a (9, 1) point with 60
    # normals exceed it, so its block is one point with 15 of them
    system = build_clifford_system(m, k)
    count, num = willmore._block_points(system, m + 1 + extra)
    frames = build_frame(system,
                         sample_focal_points(system, count, seed=21).x)
    shapes = shape_operators(frames)
    rng = default_rng(90 + m)
    coeffs = np.array([_normals(m, extra, rng) for _ in frames.x])[:, :num]
    point = (shapes.operators, frames.pair_coords[..., m + 2:],
             frames.tangent)
    balance = willmore._contractions(frames.closed_ricci, shapes.operators)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pt = system.matrices @ frames.tangent[:, None]
        willmore._chain(system, coeffs, (0, 0), *point, pt, balance)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= willmore._BLOCK_BYTES


@pytest.mark.parametrize("m,k", [(2, 2), (9, 1)])
def test_only_the_reflection_reads_ambient_arrays(m, k):
    # every check but the reflection reads the frame in tangent
    # coordinates: with every entry of T and of the system's matrices NaN,
    # the other rows are the clean ones bit for bit, and the reflection,
    # the one route to the operators' sign, reads NaN.  (9, 1) runs each
    # point's 60 normals in chunks
    system, frames, shapes = _setup(m, k, extra_points=2)
    rng = default_rng(97)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    blind = CliffordSystem(m=m, l=system.l,
                           matrices=np.full_like(system.matrices, np.nan))
    unseen = replace(frames, tangent=np.full_like(frames.tangent, np.nan))
    rows = certify_point(blind, unseen, shapes, coeffs)
    clean = certify_point(system, frames, shapes, coeffs)
    column = CHECK_NAMES.index("reflection_max")
    assert np.all(np.isnan(rows[:, column]))
    assert np.array_equal(np.delete(rows, column, axis=1),
                          np.delete(clean, column, axis=1))


def test_per_point_reads_run_once_per_call(monkeypatch):
    # what the normal does not change is read once per certify_point call,
    # whatever the block layout: under a budget that splits each (9, 1)
    # point's 60 normals into 4 chunks of 15, the two contractions run once
    # for all 3 points, and each block of points forms one P_a T, which
    # every chunk of its normals shares
    system, frames, shapes = _setup(9, 1, extra_points=2)
    monkeypatch.setattr(willmore, "_BLOCK_BYTES", 1_000_000)
    assert willmore._block_points(system, 60) == (1, 15)
    rng = default_rng(95)
    coeffs = np.array([_normals(9, 50, rng) for _ in frames.x])
    contractions, chunks = [], []
    contract, chain = willmore._contractions, willmore._chain

    def counted_contractions(*args):
        contractions.append(args)
        return contract(*args)

    def counted_chain(system, coeffs, first, ops, pairs, t, pt, balance):
        chunks.append((first, pt))
        return chain(system, coeffs, first, ops, pairs, t, pt, balance)

    monkeypatch.setattr(willmore, "_contractions", counted_contractions)
    monkeypatch.setattr(willmore, "_chain", counted_chain)
    rows = certify_point(system, frames, shapes, coeffs)
    assert all(_passes(row) for row in rows)
    assert len(contractions) == 2
    assert [first for first, _ in chunks] == [
        (p, k) for p in range(3) for k in (0, 15, 30, 45)]
    # the chunks hold their P_a T alive, so distinct arrays are distinct
    # formations: one per point, shared by its 4 chunks
    assert len({id(pt) for _, pt in chunks}) == 3
    for p in range(3):
        assert len({id(pt) for first, pt in chunks if first[0] == p}) == 1
        assert np.array_equal(chunks[4 * p][1],
                              system.matrices @ frames.tangent[p:p + 1, None])


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_eigenbasis_blocks_are_orthonormal(m, k):
    # the chain holds each eigenspace as its projector Pi = V V^T instead of
    # an orthonormal eigenbasis V; V is orthonormal exactly when Pi is a
    # symmetric idempotent, and the three eigenspaces are orthogonal when
    # the projectors annihilate each other.  Over 20 points x 50 random
    # normals (and the coordinate normals) the worst deviation seen was
    # 7.8e-16, at (4,2)
    system, frames, shapes = _setup(m, k, extra_points=19)
    rng = default_rng(70 + m)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    _, *projectors = _projectors(system, shapes, coeffs)
    for i, pi in enumerate(projectors):
        assert np.max(np.abs(pi - pi.swapaxes(2, 3))) <= 1e-13
        assert np.max(np.abs(pi @ pi - pi)) <= 1e-13
        for other in projectors[i + 1:]:
            assert np.max(np.abs(pi @ other)) <= 1e-13


@pytest.mark.parametrize("m,k,conjugated", [(m, k, False) for m, k in GRID]
                         + [(7, 2, False), (9, 1, False), (3, 2, True)])
def test_per_point_reads_equal_the_per_normal_routes(m, k, conjugated):
    # what the chain reads once per point, or in tangent coordinates,
    # against the per-normal routes of the oracles: the balance is linear in
    # the normal, the rotated pairs and normals are orthonormal images of
    # the frame's own, P'_0 T is linear in c, the rotation commutes with
    # the projection on T, T^T P'_0 T = -A_xi and |P'_0 U| = |U|.  At 5
    # points x 8 normals the worst gaps seen were 5.2e-14, 8.7e-16,
    # 3.3e-16, 6.7e-16, 5.6e-16 and 1.1e-15
    system = (conjugated_system(m, k, seed=5) if conjugated
              else build_clifford_system(m, k))
    frames = build_frame(system, sample_focal_points(system, 5, seed=23).x)
    shapes = shape_operators(frames)
    rng = default_rng(80 + m)
    coeffs = np.array([[_unit(rng, m + 1) for _ in range(8)]
                       for _ in frames.x])
    balance = willmore._contractions(frames.closed_ricci, shapes.operators)
    per_normal = signed_balance(system, frames, shapes, coeffs)
    assert np.max(np.abs(per_normal - (coeffs @ balance[:, :, None])[..., 0])
                  ) <= 1e-12
    assert np.max(rotated_tangency(system, frames, coeffs)) <= 1e-14
    assert np.max(willmore._pair_tangency(system, frames)) <= 1e-14
    # push the pair (0, 1) off the tangent space, along x or the normals,
    # in R^{2l} for the oracle and in the x or normal columns of the frame's
    # pair coordinates for the chain: the rotated entries are orthonormal
    # images of the read ones, so each maximum bounds the other within
    # sqrt(m (m+1) (m+2) / 2)
    factor = np.sqrt(m * (m + 1) * (m + 2) / 2) * (1 + 1e-12)
    ambient = pair_products(system, system.apply(frames.x))
    for push, columns in ((frames.x, slice(0, 1)),
                          (np.sum(system.apply(frames.x), axis=1),
                           slice(1, m + 2))):
        pairs = np.array(ambient)
        pairs[:, 0, 1] += 1e-3 * push
        pairs[:, 1, 0] -= 1e-3 * push
        coords = np.array(frames.pair_coords)
        coords[:, 0, 1, columns] += 1e-3
        coords[:, 1, 0, columns] -= 1e-3
        forged = replace(frames, pair_coords=coords)
        rotated = rotated_tangency(system, frames, coeffs, pairs)
        read = willmore._pair_tangency(system, forged)[:, None]
        assert np.all(read >= 1e-4)
        assert np.all(rotated <= factor * read)
        assert np.all(read <= factor * rotated)
    t = frames.tangent[:, None]
    assert np.max(np.abs(willmore._at_normals(coeffs, system.matrices @ t)
                         - dense_p0_tangent(system, frames, coeffs))) <= 1e-14
    y_t = willmore._rotated(frames.pair_coords[..., m + 2:], coeffs)
    assert np.max(np.abs(y_t - rotated_pairs(system, frames, coeffs) @ t)
                  ) <= 1e-14
    _, a_xi, pi0, _, _ = willmore._decompose(system, shapes.operators,
                                             coeffs, (0, 0))
    assert np.max(np.abs(a_xi + p0_tangent_form(system, frames, coeffs))
                  ) <= 1e-14
    u = y_t[:, :, m:] @ pi0             # no pairs a, b >= 1 when m = 1
    assert np.max(np.abs(np.sum(u * u, axis=3)
                         - p0_u_sq(system, frames, coeffs, pi0)),
                  initial=0.0) <= 1e-14


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
    probe = einstein_probe(system, frames)
    singles = [einstein_probe(system, f) for f, _ in _each(frames, shapes)]
    for name in ("ricci_min", "ricci_max", "spread"):
        assert np.array_equal(getattr(probe, name),
                              [getattr(one, name)[0] for one in singles])
    for name in ("dimension_condition", "status"):
        assert all(getattr(one, name) == getattr(probe, name)
                   for one in singles)
    assert probe.spread_exceeds_threshold == (
        None if probe.status == "inconclusive"
        else all(one.spread_exceeds_threshold for one in singles))
    again = einstein_probe(system, build_frame(
        system, sample_focal_points(system, 5, seed=21).x))
    assert all(np.array_equal(getattr(again, f.name), getattr(probe, f.name))
               for f in fields(probe))
