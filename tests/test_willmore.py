"""Willmore identities: spectra, reflection, balances, probes, fault injection."""

import tracemalloc
from copy import copy
from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (CliffordSystem, VerificationConfig,
                          build_clifford_system, build_frame, certify_point,
                          einstein_probe, evaluate_system, fold,
                          point_residuals, sample_focal_points,
                          shape_operators)
from fkm_willmore import report, willmore
from fkm_willmore.geometry import pair_products
from fkm_willmore.report import (CHECKED_FIELDS, DEFAULT_GRID,
                                 DEFAULT_TOLERANCES)

from conftest import (GRID, conjugated_system, corrupt_system,
                      geometry_fields, judged_points)
from oracles import (ambient_reflection, chain_per_normal, extended_frame,
                     gradient, hessian, norm_bookkeeping, p0_tangent_form,
                     p0_u_sq, projectors, quartic, rotate_system,
                     rotated_normals, rotated_pairs, rotated_tangent_pairs,
                     rotated_tangency, signed_balance, take)


def _setup(m, k, extra_points=1, seed=21):
    """The system, and the frames and shapes of its points as one stack
    each."""
    system = build_clifford_system(m, k)
    frames = build_frame(
        system, sample_focal_points(system, 1 + extra_points, seed=seed))
    return system, frames, shape_operators(frames)


def _each(frames, shapes):
    """The frame and shape of every point, as one-point stacks."""
    return [(take(frames, [p]), take(shapes, [p]))
            for p in range(len(frames.x))]


def _unit(rng, dim):
    c = rng.standard_normal(dim)
    return c / np.linalg.norm(c)


def _named(system, result):
    """The report's lemma deviation at each point of a certify_point
    result, and what its error names there: the worst normal, the first
    normal whose multiplicities are not M+'s (-1 if none), and those
    multiplicities (M+'s if none)."""
    rows = result[2].tolist()
    expected = report._m_plus(system)["multiplicities"]
    wrong = [next((k for k, r in enumerate(row) if r != expected), -1)
             for row in rows]
    counts = [row[k] if k >= 0 else expected for row, k in zip(rows, wrong)]
    return (_checked(system, result)["max_spectrum_deviation"],
            result[1].argmax(axis=1).tolist(), wrong, counts)


def _checked(system, result):
    """The report's checked lemma and willmore fields, (P,) arrays in its
    order, formed from a certify_point result at M+ of `system`."""
    residuals, deviation, read = result
    fields = {**report._lemma_fields(
        deviation, read, report._m_plus(system)["multiplicities"])[0],
        **report._willmore_fields(residuals)[0]}
    return {key: v for key, v in fields.items() if key in _DEFAULT_TOL}


def _residuals(system, frame, shape, coeffs):
    """The checked fields at a one-point stack, by name."""
    return {name: values[0] for name, values in _checked(
        system, certify_point(system, frame, shape, [coeffs])).items()}


# the default tolerance of each checked field of the lemma and willmore
# rows of the report's table
_DEFAULT_TOL = {name: DEFAULT_TOLERANCES[held]
                for block in ("lemma", "willmore")
                for name, held in CHECKED_FIELDS[block].items()}


def _equal(got, want):
    """Whether two dicts of arrays have the same keys, in the same order,
    and equal arrays under each."""
    return list(got) == list(want) and all(
        np.array_equal(got[name], want[name]) for name in got)


def _passes(checked):
    """Whether every point's checked fields (_checked, or _residuals at
    one point) pass their default tolerances."""
    return all(np.all(values <= _DEFAULT_TOL[name])
               for name, values in checked.items())


def _projectors(system, shapes, coeffs):
    """The lemma's deviations and the per-normal chain's purified
    projectors (Pi_0, Pi_{+1}, Pi_{-1}) for a (P, N, m+1) stack of
    coefficients, with Pi_0 the complement I - Pi_{+1} - Pi_{-1}."""
    coeffs = np.asarray(coeffs, dtype=float)
    deviation = willmore._lemma(shapes.operators, coeffs)[0]
    return (deviation, *projectors(shapes.operators, coeffs)[1:])


@pytest.mark.parametrize("m,k,dims", [(1, 3, (1, 1, 1)), (2, 2, (2, 1, 1)),
                                      (5, 1, (5, 2, 2))])
def test_principal_multiplicities(m, k, dims):
    # the eigenspace dimensions are the traces of the spectral projectors
    system, frames, shapes = _setup(m, k)
    rng = default_rng(m)
    for frame, shape in _each(frames, shapes):
        coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(50)]
        deviation, *spectral = _projectors(system, shape, [coeffs])
        assert list(dims) == report._m_plus(system)["multiplicities"]
        for proj, dim in zip(spectral, dims):
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
    # scaled by 1.5 the eigenvalues +-1 move to +-1.5: the deviation leaves
    # the cluster radius, so the multiplicities are not read, (0, 0, 0)
    system, frame, shape = _setup(1, 3, extra_points=0)
    bad = replace(shape, operators=1.5 * shape.operators)
    result = certify_point(system, frame, bad, [np.eye(2)[:1]])
    spectrum, worst, wrong, counts = _named(system, result)
    assert spectrum[0] == pytest.approx(1.5 ** 3 - 1.5, rel=1e-12)
    assert (worst, wrong) == ([0], [0])
    assert counts == [[0, 0, 0]]


def test_multiplicity_error_on_forged_operators():
    # A = I has A^3 = A, so the deviation is 0 and the traces are read:
    # every eigenvalue at +1, (0, n, 0) against (m, m2, m2) = (1, 1, 1)
    system, frame, shape = _setup(1, 3, extra_points=0)
    n = frame.tangent.shape[2]
    ops = np.array(shape.operators)
    ops[0, 0] = np.eye(n)                   # every eigenvalue lands at +1
    bad = replace(shape, operators=ops)
    result = certify_point(system, frame, bad, [np.eye(2)[:1]])
    spectrum, _, wrong, counts = _named(system, result)
    assert spectrum[0] == 0.0
    assert wrong == [0]
    assert counts == [[0, n, 0]] and n == 3


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
    return certify_point(system, frames, shapes, eye)[0]["residual_max"]


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
            # the aggregate 2 tr(A_a Q^T Q) is the sum of the m (m + 1) / 2
            # diagonal entries 2 K^a_{cd,cd} of the pairwise tensor, so it
            # cannot exceed pair count times the worst entry
            assert aggregate <= m * (m + 1) / 2 * pairwise + 1e-15
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


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2)])
def test_case_identity_is_the_tangency_and_u_at_m2(m, k):
    # with the (1, 2) pair pushed by 1e-3 along the first tangent column,
    # the pair keeps its tangency, and for m = 2 its T_0 component
    # U = T Pi_0 z no longer vanishes: case_identity_max is the tangency,
    # and for m = 2 the larger worst coefficient of the cubic
    # (|xi|^2 I - A_xi^2) Z(*xi), which bounds |U| at every normal within
    # 3^(3/2) (held against the per-normal chain's |U| at 6 random normals)
    system, frames, shapes = _setup(m, k, extra_points=2)
    coeffs = np.array([_normals(m, 6, default_rng(55 + m))
                       for _ in frames.x])
    coords = np.array(frames.pair_coords)
    coords[:, 1, 2, m + 2] += 1e-3
    coords[:, 2, 1, m + 2] -= 1e-3
    forged = replace(frames, pair_coords=coords)
    case = certify_point(system, forged, shapes,
                         coeffs)[0]["case_identity_max"]
    tangency = willmore._pair_tangency(system, forged)
    assert np.array_equal(tangency, willmore._pair_tangency(system, frames))
    u = willmore._pair_tensors(system, shapes.operators, coords[..., m + 2:],
                               willmore._pair_tables(m + 1))[3]
    if m == 2:
        sampled = np.max(chain_per_normal(system, forged, shapes.operators,
                                          coeffs)[3], axis=1)
        assert np.all(sampled > 1e-5) and np.all(u > tangency)
        assert np.all(sampled <= 3.0 ** 1.5 * u)
        assert np.array_equal(case, u)
    else:
        assert np.array_equal(u, np.zeros(len(u)))
        assert np.array_equal(case, tangency)


@pytest.mark.parametrize("m,k", GRID)
def test_certify_point_aggregates(m, k):
    system, frame, shape = _setup(m, k, extra_points=0)
    rng = default_rng(50 + m)
    coeffs = list(np.eye(m + 1)) + [_unit(rng, m + 1) for _ in range(10)]
    res = _residuals(system, frame, shape, coeffs)
    assert list(res) == list(_DEFAULT_TOL)
    for name, value in res.items():
        assert value < _DEFAULT_TOL[name], name


def test_residuals_are_the_willmore_fields_in_order():
    # the report spreads the residuals into its willmore block: a renamed,
    # missing, extra or reordered key fails here, and so does a key that
    # holds another check's values (each is held to the route that forms
    # it, at two points that run as one block)
    m, k = DEFAULT_GRID[3]
    system, frames, shapes = _setup(m, k)
    coeffs = np.broadcast_to(np.eye(m + 1), (2, m + 1, m + 1))
    residuals = certify_point(system, frames, shapes, coeffs)[0]
    assert list(residuals) == list(CHECKED_FIELDS["willmore"])
    ops = shapes.operators
    reduced = willmore._contractions(shapes.ricci, ops)
    balance = willmore._contractions(frames.closed_ricci, ops)
    aggregate, pairwise, leak, u = willmore._pair_tensors(
        system, ops, frames.pair_coords[..., m + 2:],
        willmore._pair_tables(m + 1))
    routes = {name: fold(np.abs(r), axis=1) for name, r in (
        ("residual_max", reduced), ("balance_max", balance),
        ("bridge_max", reduced - balance), ("chain_max", balance - aggregate),
        ("projection_aggregate_max", aggregate))}
    routes |= {"projection_pairwise_max": pairwise, "t0_pair_leak_max": leak,
               "reflection_max": willmore._sign_gap(system, frames, ops),
               "case_identity_max": np.maximum(
                   u, willmore._pair_tangency(system, frames))}
    for name, values in residuals.items():
        assert values.shape == (2,), name
        assert np.array_equal(values, routes[name]), name
    # no two routes agree at both points, so values swapped between two
    # keys fail too
    seen = list(routes.values())
    assert not any(np.array_equal(a, b)
                   for i, a in enumerate(seen) for b in seen[i + 1:])


def test_certify_point_doubled_generators():
    # m = 9 uses the doubled generator set; run the whole chain once on it
    system, frame, shape = _setup(9, 1, extra_points=0)
    rng = default_rng(59)
    coeffs = list(np.eye(10)) + [_unit(rng, 10) for _ in range(3)]
    res = _residuals(system, frame, shape, coeffs)
    assert _passes(res)
    assert res["residual_max"] < 1e-7


def _einstein_block(system, frame):
    """The einstein block that the report makes of the probe at `frame`."""
    fields = report._einstein_fields(*einstein_probe(frame),
                                     report._m_plus(system)["gated"])
    return report._block("einstein", DEFAULT_TOLERANCES, *fields)


def test_einstein_probe_smallest_case():
    system, frame, shape = _setup(1, 3, extra_points=0)
    # oracle: the Ricci tensor here has eigenvalues {0, 0, 2}, and the
    # block's spread is the probe's at the one point
    eigs = np.sort(np.linalg.eigvalsh(shape.ricci[0]))
    assert np.max(np.abs(eigs - np.array([0.0, 0.0, 2.0]))) <= 1e-10
    block = _einstein_block(system, frame)
    assert block["status"] == "evidence"
    assert block["dimension_condition"]
    assert abs(block["spread"] - 2.0) <= 1e-8
    assert block["spread_exceeds_threshold"] and block["pass"]


def test_einstein_probe_evidence_and_inconclusive():
    # the probe measures and the einstein block applies the gate
    for m, k, status in [(2, 2, "evidence"), (3, 2, "evidence"),
                         (4, 2, "inconclusive"), (5, 1, "inconclusive")]:
        system, frame, _ = _setup(m, k, extra_points=0)
        # the extremes at the one point, and no verdict
        assert [e.shape for e in einstein_probe(frame)] == [(1,), (1,)]
        block = _einstein_block(system, frame)
        assert block["status"] == status, (m, k)
        assert block["pass"]
        if status == "evidence":
            assert block["spread"] > 0.1 and block["dimension_condition"]
            assert block["spread_exceeds_threshold"] is True
        else:
            assert not block["dimension_condition"]
            assert block["spread_exceeds_threshold"] is None


def test_fault_injection_detected():
    # nudging one matrix entry must surface as a wrong spectrum at a point
    # where the corrupted direction e_1 is tangent: x = (e_3 + e_5) / sqrt(2)
    # lies on M+ of the intact (2, 2) system and has x_1 = 0, so the nudge
    # leaves every P_a x, and the points block's verdict, as they are
    bad = corrupt_system(2, 2)
    x = (np.eye(8)[2] + np.eye(8)[4]) / np.sqrt(2.0)
    assert judged_points(bad, x)[1]["pass"]
    frame = build_frame(bad, x)
    shape = shape_operators(frame)
    result = certify_point(bad, frame, shape, [np.eye(3)[:1]])
    spectrum, _, wrong, counts = _named(bad, result)
    assert spectrum[0] > DEFAULT_TOLERANCES["geom"]
    assert wrong == [0] and counts != [[2, 1, 1]]


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
        batch = _residuals(system, frame, shape, coeffs)
        singles = [_residuals(system, frame, shape, [c]) for c in coeffs]
        shuffled = _residuals(system, frame, shape,
                              [coeffs[i] for i in
                               rng.permutation(len(coeffs))])
        assert all(_passes(res) for res in [batch, shuffled, *singles])
        for name in _DEFAULT_TOL:
            folded = max(single[name] for single in singles)
            assert abs(batch[name] - folded) <= 1e-14, name
            assert abs(shuffled[name] - folded) <= 1e-14, name


def test_certify_point_without_normals():
    # with no normals the lemma's tables have no column (which the fold
    # reads as 0); every other check is read once per point, for every
    # normal at once, so it reads what it reads with normals, and
    # case_identity_max still holds the tangency and, at m = 2, |U|.  The
    # points are the seed and one sampled point: the seed's tangency sums
    # products of (+-e_j +- e_k) / sqrt(2) with integer matrices, and
    # whether a rounding error survives there depends on the BLAS kernel's
    # summation order (it reads exactly 0 under OpenBLAS's Sandybridge,
    # Nehalem and Prescott kernels), so a nonzero tangency is asserted at
    # the sampled point only
    system, frame, shape = _setup(2, 2)
    residuals, deviation, read = certify_point(system, frame, shape,
                                               np.zeros((2, 0, 3)))
    assert deviation.shape == (2, 0) and read.shape == (2, 0, 3)
    assert list(residuals) == list(CHECKED_FIELDS["willmore"])
    assert all(values.shape == (2,) for values in residuals.values())
    assert _passes(residuals)
    with_normals = certify_point(system, frame, shape, [np.eye(3)] * 2)
    assert np.all(np.max(with_normals[1], axis=1) > 0.0)
    assert _equal(residuals, with_normals[0])
    tangency = willmore._pair_tangency(system, frame)
    assert tangency[1] > 0.0
    assert np.all(residuals["case_identity_max"] >= tangency)


def test_batched_spectrum_error_names_the_normal(monkeypatch):
    system, frame, shape = _setup(1, 3, extra_points=0)
    # with the budget at 1 byte every normal runs in a block of its own, and
    # the normals are still named by their index in the input
    for budget in (willmore._BLOCK_BYTES, 1):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        bad = replace(shape, operators=1.5 * shape.operators)
        # scaling every operator by 1.5 moves the +-1 eigenvalues of every
        # A_xi to +-1.5, so the first normal of the batch is the first
        # above the cluster radius
        coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        result = certify_point(system, frame, bad, [coeffs])
        spectrum, _, wrong, counts = _named(system, result)
        assert spectrum[0] > willmore.CLUSTER_RADIUS
        assert wrong == [0] and counts == [[0, 0, 0]]
        # scaling only A_1 leaves the first two normals intact, and the
        # third is the worst
        ops = np.array(shape.operators)
        ops[0, 1] *= 1.5
        bad = replace(shape, operators=ops)
        coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                  np.array([0.0, 1.0])]
        _, worst, wrong, _ = _named(
            system, certify_point(system, frame, bad, [coeffs]))
        assert (worst, wrong) == ([2], [2])


def test_batched_multiplicity_error_names_the_normal(monkeypatch):
    system, frame, shape = _setup(1, 3, extra_points=0)
    n = frame.tangent.shape[2]
    ops = np.array(shape.operators)
    ops[0, 1] = np.eye(n)                   # every eigenvalue lands at +1
    bad = replace(shape, operators=ops)
    coeffs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for budget in (willmore._BLOCK_BYTES, 1):   # 1: a block per normal
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        result = certify_point(system, frame, bad, [coeffs])
        spectrum, _, wrong, counts = _named(system, result)
        assert spectrum[0] <= 1e-15
        assert wrong == [1] and counts == [[0, n, 0]]


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
                        sample_focal_points(system, 2, point_seed)[1:])
    shape = shape_operators(frame)
    lowest, highest = einstein_probe(frame)
    eigs = np.linalg.eigvalsh(shape.ricci[0])
    assert abs(lowest[0] - eigs[0]) <= 1e-12
    assert abs(highest[0] - eigs[-1]) <= 1e-12
    n = frame.tangent.shape[2]
    z = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(z) > 1e-3)
    z /= np.linalg.norm(z)
    for matrix in (frame.closed_ricci[0], shape.ricci[0]):
        value = float(z @ matrix @ z)
        assert lowest[0] - 1e-12 <= value <= highest[0] + 1e-12


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
    singles = [certify_point(system, f, s, [c])
               for (f, s), c in zip(_each(frames, shapes), coeffs)]
    residuals, *tables = zip(*singles)
    singles = ({name: np.concatenate([r[name] for r in residuals])
                for name in residuals[0]},
               *(np.concatenate(table) for table in tables))
    # the byte size of one (point, normal) row of the lemma: A_xi, its
    # square and cube, and the deviation in the cube's place; and of one
    # point, the larger of its m + 4 rows and its pair tensors: the
    # products Z_cd^T A_g and their leak sums, the pair slices, K and two
    # gathers of it, a copy of the operators, and at m = 2 the cubic of |U|
    m1, n, p = m + 1, frames.tangent.shape[2], m * (m + 1) // 2
    row = 8 * 4 * n * n
    tensors = 8 * m1 * (2 * m1 * m1 * n + p * n + 2 * p * p + n * n)
    tensors += 8 * 5 * 27 * n if m == 2 else 0
    point = max(tensors, row * (m + 4))
    # block boundaries anywhere: one point per block, budgets of 2 and 3
    # points (and one byte short of 3) that split the 7 points unevenly, and
    # all points in one block
    for budget, shape in ((point, (1, m + 4)), (2 * point, (2, m + 4)),
                          (3 * point - 1, (2, m + 4)),
                          (3 * point, (3, m + 4)), (10 ** 9, (7, m + 4))):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        points, normals = willmore._block_points(system, m + 4)
        assert (min(points, 7), normals) == shape
        got = certify_point(system, frames, shapes, coeffs)
        assert _equal(got[0], singles[0])
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], singles[1:]))
    # a point's normals split evenly over the fewest blocks that fit: one
    # normal per block, at most 3, and one byte short of all m + 4 rows
    # (two halves).  A block of one normal takes numpy's matrix-vector
    # products where longer blocks take matrix products, so the lemma's
    # deviations agree to rounding, not bit for bit, and its multiplicities
    # and the normals it names exactly; every other check is read per
    # point, bit for bit
    for budget, normals in ((1, 1), (3 * row, 3),
                            (row * (m + 4) - 1, (m + 5) // 2)):
        monkeypatch.setattr(willmore, "_BLOCK_BYTES", budget)
        assert willmore._block_points(system, m + 4) == (1, normals)
        residuals, deviation, read = certify_point(system, frames, shapes,
                                                   coeffs)
        assert np.allclose(fold(deviation, axis=1), fold(singles[1], axis=1),
                           rtol=0.0, atol=1e-13)
        assert _equal(residuals, singles[0])
        assert np.allclose(deviation, singles[1], rtol=0.0, atol=1e-13)
        assert np.array_equal(read, singles[2])
        assert (_named(system, (residuals, deviation, read))[2:]
                == _named(system, singles)[2:])


def _count_calls(monkeypatch, name, calls):
    """Wrap willmore.`name` so that each call appends its arguments."""
    original = getattr(willmore, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(willmore, name, counted)


@pytest.mark.parametrize("m,k,blocks", [(1, 3, 1), (6, 1, 2)])
def test_chain_blocks_of_a_default_configuration(m, k, blocks, monkeypatch):
    # 20 points x (50 + m + 1) normals: the small (1,3) runs as one block,
    # (6,1), 117 KB a point (57 lemma rows of 2 KB above its 106 KB of
    # pair tensors), as two blocks of 10 points; a block reads the lemma of
    # all its points' normals in one call and the tensors of its points in
    # another
    lemmas, tensors = [], []
    _count_calls(monkeypatch, "_lemma", lemmas)
    _count_calls(monkeypatch, "_pair_tensors", tensors)
    cfg = VerificationConfig(configurations=((m, k),), n_points=20,
                             n_normals=50)
    entry = evaluate_system(build_clifford_system(m, k), cfg, 0)
    assert entry["blocks"]["willmore"]["pass"]
    assert [args[1].shape[:2] for args in lemmas] == (
        [(20 // blocks, 50 + m + 1)] * blocks)
    assert [len(args[1]) for args in tensors] == [20 // blocks] * blocks


@pytest.mark.parametrize("m,k,extra", [(3, 2, 50), (6, 1, 50), (6, 1, 0),
                                       (9, 1, 50)])
def test_chain_block_peak_fits_the_budget(m, k, extra):
    # the block model against measured memory: the traced peak of one
    # chain block, the points that _block_points allows for the coordinate
    # normals and `extra` random ones a point, with one chunk of their
    # normals, through the lemma and then the pair tensors, stays within
    # _BLOCK_BYTES (peaks seen: 807, 920, 802 and 642 KB).  The 60 lemma
    # rows of a (9, 1) point, 14 KB each, fit, so its block is one point
    # with all of its normals
    system = build_clifford_system(m, k)
    count, num = willmore._block_points(system, m + 1 + extra)
    frames = build_frame(system,
                         sample_focal_points(system, count, seed=21))
    shapes = shape_operators(frames)
    rng = default_rng(90 + m)
    coeffs = np.array([_normals(m, extra, rng) for _ in frames.x])[:, :num]
    pairs = frames.pair_coords[..., m + 2:]
    tables = willmore._pair_tables(m + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        willmore._lemma(shapes.operators, coeffs)
        willmore._pair_tensors(system, shapes.operators, pairs, tables)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= willmore._BLOCK_BYTES


@pytest.mark.parametrize("m,k", [(2, 2), (9, 1)])
def test_only_the_reflection_reads_ambient_arrays(m, k):
    # every check but the reflection reads the frame in tangent
    # coordinates: with every entry of T and of the system's matrices NaN,
    # the other checks read the clean values bit for bit, and the reflection,
    # the one route to the operators' sign, reads NaN.  (9, 1) runs each
    # point's 60 normals in chunks
    system, frames, shapes = _setup(m, k, extra_points=2)
    rng = default_rng(97)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    # a system is finite by construction, so the NaN matrices are set on
    # a copy of a built one
    blind = copy(system)
    object.__setattr__(blind, "matrices",
                       np.full_like(system.matrices, np.nan))
    unseen = replace(frames, tangent=np.full_like(frames.tangent, np.nan))
    seen = _checked(system, certify_point(blind, unseen, shapes, coeffs))
    clean = _checked(system, certify_point(system, frames, shapes, coeffs))
    assert np.all(np.isnan(seen.pop("reflection_max")))
    del clean["reflection_max"]
    assert _equal(seen, clean)


def test_per_point_reads_run_once_per_call(monkeypatch):
    # what the normal does not change is read once per certify_point call
    # or once per point, whatever the block layout: under a budget that
    # splits each (9, 1) point's 60 normals into 4 chunks of 15, the two
    # contractions and the sign gap run once for all 3 points, the pair
    # tensors once per point, and every lemma chunk and tensor call reads
    # slices of the operators under test and of the frame's pair
    # coordinates
    system, frames, shapes = _setup(9, 1, extra_points=2)
    monkeypatch.setattr(willmore, "_BLOCK_BYTES", 250_000)
    assert willmore._block_points(system, 60) == (1, 15)
    rng = default_rng(95)
    coeffs = np.array([_normals(9, 50, rng) for _ in frames.x])
    contractions, gaps, lemmas, tensors = [], [], [], []
    for name, calls in (("_contractions", contractions), ("_sign_gap", gaps),
                        ("_lemma", lemmas), ("_pair_tensors", tensors)):
        _count_calls(monkeypatch, name, calls)
    assert _passes(_checked(
        system, certify_point(system, frames, shapes, coeffs)))
    assert len(contractions) == 2 and len(gaps) == 1
    chunks = [(p, k) for p in range(3) for k in (0, 15, 30, 45)]
    assert len(lemmas) == len(chunks)
    for args, (p, k) in zip(lemmas, chunks):
        assert np.array_equal(args[1], coeffs[p:p + 1, k:k + 15])
    assert len(tensors) == 3
    for args in lemmas:
        assert np.shares_memory(args[0], shapes.operators)
    for args in tensors:
        assert np.shares_memory(args[1], shapes.operators)
    for args in tensors:
        assert np.shares_memory(args[2], frames.pair_coords)


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_eigenbasis_blocks_are_orthonormal(m, k):
    # the per-normal chain holds each eigenspace as its projector Pi = V V^T
    # instead of an orthonormal eigenbasis V, and the lemma reads their
    # traces; V is orthonormal exactly when Pi is a
    # symmetric idempotent, and the three eigenspaces are orthogonal when
    # the projectors annihilate each other.  Over 20 points x 50 random
    # normals (and the coordinate normals) the worst deviation seen was
    # 7.8e-16, at (4,2)
    system, frames, shapes = _setup(m, k, extra_points=19)
    rng = default_rng(70 + m)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    _, *spectral = _projectors(system, shapes, coeffs)
    for i, pi in enumerate(spectral):
        assert np.max(np.abs(pi - pi.swapaxes(2, 3))) <= 1e-13
        assert np.max(np.abs(pi @ pi - pi)) <= 1e-13
        for other in spectral[i + 1:]:
            assert np.max(np.abs(pi @ other)) <= 1e-13


@pytest.mark.parametrize("m,k,conjugated", [(m, k, False) for m, k in GRID]
                         + [(7, 2, False), (9, 1, False), (3, 2, True)])
def test_per_point_reads_equal_the_per_normal_routes(m, k, conjugated):
    # what the chain reads once per point, or in tangent coordinates,
    # against the per-normal routes of the oracles: the balance is linear in
    # the normal, the rotated pairs and normals are orthonormal images of
    # the frame's own, the rotation (of the per-normal chain's
    # rotated_tangent_pairs) commutes with the projection on T,
    # T^T P'_0 T = -A_xi and |P'_0 U| = |U|.  At 5 points x 8 normals the
    # worst gaps seen were 5.2e-14, 8.7e-16, 6.7e-16, 5.6e-16 and 1.1e-15
    system = (conjugated_system(m, k, seed=5) if conjugated
              else build_clifford_system(m, k))
    frames = build_frame(system, sample_focal_points(system, 5, seed=23))
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
    y_t = rotated_tangent_pairs(frames.pair_coords[..., m + 2:], coeffs)
    assert np.max(np.abs(y_t - rotated_pairs(system, frames, coeffs) @ t)
                  ) <= 1e-14
    _, pi0, _, _ = _projectors(system, shapes, coeffs)
    a_xi = willmore._at_normals(coeffs, shapes.operators)
    assert np.max(np.abs(a_xi + p0_tangent_form(system, frames, coeffs))
                  ) <= 1e-14
    u = y_t[:, :, m:] @ pi0             # no pairs a, b >= 1 when m = 1
    assert np.max(np.abs(np.sum(u * u, axis=3)
                         - p0_u_sq(system, frames, coeffs, pi0)),
                  initial=0.0) <= 1e-14


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_ambient_reflection_splits_into_what_the_chain_reads(m, k):
    # the ambient route of the reflection, (P'_0 +- I) T Pi_{+-1}, in the
    # orthonormal basis [x | P'_0 x .. P'_m x | T]: nothing along x or
    # P'_0 x, the curved components Pi_{+-1} z of the (0, b) pair vectors
    # z = T^T P'_0 P'_b x (the leaks) along P'_b x, and along T
    # +-(I -+ S_xi) Pi_{+-1}, with the system's own S_xi = -T^T P'_0 T.
    # As A_xi Pi_{+-1} = +-Pi_{+-1}, that tangent part is
    # (A_xi - S_xi) Pi_{+-1}: the gap G_xi = sum_a c_a G_a,
    # G_a = A_a + T^T P_a T, through a projector, whose entries are at most
    # sqrt((m + 1) n) max_a |G_a|, what certify_point reads once per point.
    # With point 0's operators negated the tangent part reads 2 Pi_{+-1}
    # there (at most 0.41 of the bound), and the split still holds.  The
    # worst gaps seen were 3.6e-16, 3.4e-16, 3.8e-16, 6.7e-16 and 6.2e-16
    system = build_clifford_system(m, k)
    frames = build_frame(system, sample_focal_points(system, 5, seed=23))
    shapes = shape_operators(frames)
    rng = default_rng(85 + m)
    coeffs = np.array([[_unit(rng, m + 1) for _ in range(8)]
                       for _ in frames.x])
    t = frames.tangent
    tt = t.swapaxes(1, 2)[:, None]
    s_xi = willmore._at_normals(coeffs, -tt @ (system.matrices @ t[:, None]))
    pairs = rotated_tangent_pairs(frames.pair_coords[..., m + 2:], coeffs)
    normals = rotated_normals(system, frames, coeffs)
    eye = np.eye(t.shape[2])
    bound = np.sqrt((m + 1) * t.shape[2]) * (1 + 1e-12)
    flipped = np.array(shapes.operators)
    flipped[0] *= -1.0
    for ops in (shapes.operators, flipped):
        shape = replace(shapes, operators=ops)
        _, _, plus, minus = _projectors(system, shape, coeffs)
        a_xi = willmore._at_normals(coeffs, ops)
        gap = certify_point(system, frames, shape,
                            coeffs)[0]["reflection_max"]
        ambient_plus, ambient_minus = ambient_reflection(system, frames,
                                                         coeffs, plus, minus)
        for sign, pi, ambient in ((1.0, plus, ambient_plus),
                                  (-1.0, minus, ambient_minus)):
            along_normals = normals @ ambient
            along_t = tt @ ambient
            assert np.max(np.abs(frames.x[:, None, None] @ ambient)) <= 1e-14
            assert np.max(np.abs(along_normals[:, :, 0])) <= 1e-14
            assert np.max(np.abs(along_normals[:, :, 1:]
                                 - pairs[:, :, :m] @ pi)) <= 1e-14
            assert np.max(np.abs(along_t - sign * (eye - sign * s_xi) @ pi)
                          ) <= 1e-14
            assert np.max(np.abs(along_t - (a_xi - s_xi) @ pi)) <= 1e-14
            assert np.all(np.max(np.abs(along_t), axis=(1, 2, 3))
                          <= bound * gap + 1e-14)
    assert gap[0] >= 1.0 and np.all(gap[1:] == 0.0)


@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_norm_bookkeeping_is_the_tangency_and_the_pairwise_term(m, k):
    # the m > 2 case's norm bookkeeping, 2 = 2 |U|^2 + 4 |W|^2 and the same
    # with |V|^2 for a curved pair, which the chain no longer reads, is
    # 2 (1 - |z|^2) +- 2 (|V|^2 - |W|^2) with z = T^T y: the unit norm of
    # the pair vector, which the tangency reads, and the pairwise term.
    # Also with the pairs scaled by 1.001, where the unit term reads 4e-3.
    # The worst gaps seen were 1.3e-15 and 1.4e-15
    system, frames, shapes = _setup(m, k, extra_points=4, seed=23)
    rng = default_rng(75 + m)
    coeffs = np.array([[_unit(rng, m + 1) for _ in range(8)]
                       for _ in frames.x])
    _, pi0, plus, minus = _projectors(system, shapes, coeffs)
    for scale in (1.0, 1.001):
        y_t = rotated_tangent_pairs(scale * frames.pair_coords[..., m + 2:],
                                    coeffs)
        p_plus, p_minus = (np.sum((y_t @ pi) ** 2, axis=3)
                           for pi in (plus, minus))
        with_w, with_v = norm_bookkeeping(m, y_t, pi0, p_plus, p_minus)
        unit = 2.0 * (1.0 - np.sum(y_t[:, :, m:] ** 2, axis=3))
        pairwise = 2.0 * (p_plus - p_minus)[..., m:]
        assert np.max(np.abs(with_w - (unit + pairwise)), initial=0.0
                      ) <= 1e-14
        assert np.max(np.abs(with_v - (unit - pairwise)), initial=0.0
                      ) <= 1e-14


@pytest.mark.parametrize("m,k,conjugated",
                         [(m, k, c) for c in (False, True) for m, k in GRID])
def test_pair_tensors_bound_the_per_normal_chain(m, k, conjugated):
    # the per-point tensors against the per-normal chain they replace
    # (oracles.chain_per_normal: the rotation to each normal and its
    # purified projectors), at the coordinate normals and 50 random ones,
    # within the factors of docs/derivations.md section 9: a pair's
    # |V|^2 - |W|^2 is at most m (m+1)^(3/2) / 2 times the worst pairwise
    # entry, a leak |Pi_{+-1} z| at most (m+1)^(3/2) / 2 times the worst
    # leak norm, |U| at most 3^(3/2) times the worst cubic coefficient, and
    # the signed aggregate is c . aggregate.  Clean, where the tensors read
    # rounding (worst seen 4.1e-15; the Lambda^4 part of K, which a
    # mis-indexed swap would read, is 1.0 at (4, 2)), and with the pair
    # (0, 1) pushed by 1e-3 along the first tangent column, where both
    # routes read the push (the tensors about twice the sampled maxima)
    system = (conjugated_system(m, k, seed=5) if conjugated
              else build_clifford_system(m, k))
    frames = build_frame(system, sample_focal_points(system, 5, seed=23))
    ops = shape_operators(frames).operators
    rng = default_rng(65 + m)
    coeffs = np.array([_normals(m, 50, rng) for _ in frames.x])
    factors = (m * (m + 1) ** 1.5 / 2, (m + 1) ** 1.5 / 2, 3.0 ** 1.5)
    pushed = np.array(frames.pair_coords)
    pushed[:, 0, 1, m + 2] += 1e-3
    pushed[:, 1, 0, m + 2] -= 1e-3
    for coords in (frames.pair_coords, pushed):
        aggregate, *tensors = willmore._pair_tensors(
            system, ops, coords[..., m + 2:], willmore._pair_tables(m + 1))
        pairwise, signed, leak, u = chain_per_normal(
            system, replace(frames, pair_coords=coords), ops, coeffs)
        assert np.max(np.abs(signed - (coeffs @ aggregate[:, :, None])[..., 0])
                      ) <= 1e-13
        for sampled, tensor, factor in zip((pairwise, leak, u), tensors,
                                           factors):
            assert np.all(sampled <= factor * tensor[:, None] + 1e-14)
        if coords is frames.pair_coords:
            assert np.max(tensors) <= 1e-14
    # the pairwise terms of the push are of order 1e-3, and of order 1e-6
    # at m = 1, whose one pair lies in T_0 to first order
    assert np.max(tensors[0]) > 5e-7 and np.max(pairwise) > 5e-7
    assert np.max(tensors[1]) > 1e-4 and np.max(leak) > 1e-4


@pytest.mark.parametrize("m1", range(2, 11))
def test_pairwise_tensor_reads_exactly_the_decomposable_part(m1):
    # |V|^2 - |W|^2 vanishes for every pair of every rotation exactly when
    # K^g vanishes on decomposable bivectors, that is when K^g, a symmetric
    # form on the pairs, is totally antisymmetric in its four indices (a
    # 4-form, which w ^ w contracts to 0).  The read
    # K_{cd,ef} + K_{ed,cf} over c < d, e < f is a linear map of K whose
    # kernel is exactly the 4-forms: its rank is the dimension of the rest,
    # m1^2 (m1^2 - 1) / 12, and a random 4-form reads rounding
    cols, direct, swapped, sign = willmore._pair_tables(m1)
    ia, ib = np.triu_indices(m1, k=1)
    p = len(cols)

    def read(form):                     # the read of one (p, p) form
        k = np.broadcast_to(form[:, None], (p, m1, p)).reshape(-1)
        return k[direct] + sign * k[swapped]

    basis = []
    for i, j in zip(*np.triu_indices(p)):
        form = np.zeros((p, p))
        form[i, j] = form[j, i] = 1.0
        basis.append(read(form))
    assert (np.linalg.matrix_rank(np.array(basis))
            == m1 ** 2 * (m1 ** 2 - 1) // 12)
    rng = default_rng(m1)
    draw = rng.standard_normal((m1,) * 4)
    omega = sum(sign4 * np.transpose(draw, perm)
                for perm, sign4 in _signed_permutations(4))
    form = omega[ia[:, None], ib[:, None], ia[None], ib[None]]
    assert np.max(np.abs(read(form)), initial=0.0) <= 1e-12 * np.max(
        np.abs(omega), initial=1.0)


def _signed_permutations(count):
    """Every permutation of range(count) with its sign."""
    for perm in permutations(range(count)):
        inversions = sum(a > b for i, a in enumerate(perm)
                         for b in perm[i + 1:])
        yield perm, (-1.0) ** inversions


def test_cluster_radius_is_the_spectrum_threshold():
    # scaling point 1's operators by s = 1 + e moves A_xi^3 - A_xi to
    # (s^3 - s) A_xi, so at the coordinate normals the lemma's deviation is
    # (s^3 - s) max_a |A_a|: sized 0.1% below CLUSTER_RADIUS the point's
    # multiplicities are read, and right (it fails only the tolerance of
    # its deviation), 0.1% above it they are not read, (0, 0, 0) at the
    # first normal above the radius
    system, frames, shapes = _setup(3, 2, extra_points=2)
    coeffs = np.broadcast_to(np.eye(4), (3, 4, 4))
    top = np.max(np.abs(shapes.operators[1]))
    for factor in (0.999, 1.001):
        target = factor * willmore.CLUSTER_RADIUS
        ops = np.array(shapes.operators)
        ops[1] *= 1.0 + target / (2.0 * top)     # s^3 - s = 2 e (1 + 3 e / 2)
        bad = replace(shapes, operators=ops)
        result = certify_point(system, frames, bad, coeffs)
        spectrum, worst, wrong, counts = _named(system, result)
        assert abs(spectrum[1] / target - 1.0) <= 1e-4
        deviation = willmore._lemma(bad.operators, coeffs)[0]
        assert worst[1] == np.argmax(deviation[1])
        if factor < 1.0:
            assert wrong == [-1, -1, -1]
            assert counts == [[3, 4, 4]] * 3
        else:
            first = np.argmax(deviation[1] > willmore.CLUSTER_RADIUS)
            assert wrong == [-1, first, -1]
            assert counts == [[3, 4, 4], [0, 0, 0], [3, 4, 4]]


def test_certify_point_block_errors_name_the_point():
    system, frames, shapes = _setup(1, 3, extra_points=2)
    coeffs = [[np.array([1.0, 0.0]), np.array([0.0, 1.0])]] * 3
    ops = np.array(shapes.operators)
    ops[2] *= 1.5
    bad = replace(shapes, operators=ops)
    result = certify_point(system, frames, bad, coeffs)
    spectrum, _, wrong, counts = _named(system, result)
    assert np.all(spectrum[:2] <= 1e-15)
    assert spectrum[2] > willmore.CLUSTER_RADIUS
    assert wrong == [-1, -1, 0]
    assert counts == [[1, 1, 1], [1, 1, 1], [0, 0, 0]]
    with pytest.raises(ValueError):
        certify_point(system, frames, shapes, coeffs[:2])
    with pytest.raises(ValueError, match="3 frames and 2 shapes"):
        certify_point(system, frames, take(shapes, slice(2)), coeffs)
    with pytest.raises(ValueError):
        certify_point(system, frames, shapes,
                      [coeffs[0], coeffs[1], coeffs[2][:1]])


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_einstein_probe_stack_equals_single_points(m, k):
    system, frames, shapes = _setup(m, k, extra_points=4)
    probe = einstein_probe(frames)
    singles = [einstein_probe(f) for f, _ in _each(frames, shapes)]
    for i, extreme in enumerate(probe):
        assert np.array_equal(extreme, [one[i][0] for one in singles])
    again = einstein_probe(build_frame(
        system, sample_focal_points(system, 5, seed=21)))
    assert all(np.array_equal(a, b) for a, b in zip(again, probe))


# -sum_j m_j cot^3(theta0 + j pi/4), the criterion tr(Ric A) = -tr A^3 of
# each default family's minimal isoparametric hypersurface (9 digits)
TUBE_CRITERION = {(1, 3): 0.0, (1, 4): -16.970562748, (2, 2): 16.970562748,
                  (3, 2): -16.165807537, (4, 2): 16.165807537,
                  (5, 1): 53.126264691, (6, 1): 114.309521330}


def _minimal_tube(system, x):
    """The family's minimal isoparametric hypersurface through the points
    y = cos(theta0) x + sin(theta0) P_0 x of the tube around M+, with
    theta0 = arctan(sqrt(m1 / m2)) / 2: its closed-form criterion
    -sum_j m_j cot^3(theta0 + j pi/4), multiplicities (m1, m2, m1, m2),
    and its shape operators A = -T^T (D^2F - 4F I) T / |grad_S f| as a
    (P, 1, n, n) stack, T an orthonormal basis of {y, grad_S f(y)}^perp,
    from F alone."""
    m1, m2 = system.m, system.m2
    theta0 = np.arctan(np.sqrt(m1 / m2)) / 2
    criterion = -sum(mult / np.tan(theta0 + j * np.pi / 4) ** 3
                     for j, mult in enumerate((m1, m2, m1, m2)))
    ops = []
    for row in x:
        y = np.cos(theta0) * row + np.sin(theta0) * (system.matrices[0] @ row)
        f = quartic(system, y)
        grad = gradient(system, y) - 4.0 * f * y
        basis = np.linalg.qr(np.column_stack([y, grad]), mode="complete")[0]
        t = basis[:, 2:]
        hess = t.T @ (hessian(system, y) - 4.0 * f * np.eye(len(y))) @ t
        ops.append(-hess / np.linalg.norm(grad))
    return criterion, np.array(ops)[:, None]


@pytest.mark.parametrize("m,k", GRID)
def test_the_criterion_says_no_on_the_minimal_tube(m, k):
    # a negative control from the same Clifford data: the minimal
    # isoparametric hypersurface of each family has H = 0 and S = 3n, and
    # is Willmore only when m1 = m2, which on the grid is (1, 3).  Its
    # operators go through the product's shape_operators and contraction.
    system = build_clifford_system(m, k)
    criterion, ops = _minimal_tube(
        system, sample_focal_points(system, 20, seed=5))
    n = 2 * system.l - 2
    assert ops.shape == (20, 1, n, n)
    assert criterion == pytest.approx(TUBE_CRITERION[m, k], abs=1e-9)
    # a stand-in frame: shape_operators reads only its operators
    shapes = shape_operators(SimpleNamespace(operators=ops))
    assert np.all(np.abs(shapes.mean_curvature) <= 1e-13)
    assert np.all(np.abs(shapes.sff_norm_sq - 3 * n) <= 1e-12)
    read = willmore._contractions(shapes.ricci, ops)[:, 0]
    assert np.all(np.abs(read - criterion) <= 1e-9)


def test_a_constant_ricci_fails_the_minimal_tube():
    # shape_operators returning c I as the tensor Ricci: the criterion then
    # reads c tr A, which is 0 at any minimal point, so on M+ at (4, 2)
    # every block of the report passes with c = 6; the control reads that
    # 0 against 16.17 and fails at every point
    system = build_clifford_system(4, 2)
    criterion, ops = _minimal_tube(
        system, sample_focal_points(system, 20, seed=5))
    shapes = shape_operators(SimpleNamespace(operators=ops))
    faulty = replace(shapes, ricci=np.broadcast_to(
        6.0 * np.eye(ops.shape[-1]), shapes.ricci.shape))
    read = willmore._contractions(faulty.ricci, ops)[:, 0]
    assert np.all(np.abs(read) <= 1e-12)
    assert np.all(np.abs(read - criterion) > 16.0)


# ---------------------------------------------------------------------------
# precision scaling: rounding shrinks in a wider float, a defect does not
# ---------------------------------------------------------------------------

needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= 52,
    reason="np.longdouble is float64 on this platform: no wider chain")


def _precision_chain(system, tangent=None, fault=False):
    """The fields that the precision-scaling rule holds, each folded over
    20 sampled points of `system` with m + 1 + 10 normals a point, all
    formed in the system's dtype: the points residuals, the Gram deviation
    and the report's own checked fields of geometry (but the float64
    cross-check), lemma and willmore; and the lemma's multiplicities and
    the frames' tangent bases.

    The frames are build_frame's for a float64 system, and
    oracles.extended_frame's from the float64 bases `tangent` for a wider
    one.  The coefficient rows are normalized in the system's dtype: rows
    normalized in float64 carry |c| - 1 of about 1e-16 into A_xi.  With
    `fault`, point 3's operators are scaled by 1 + 1e-12 after
    shape_operators."""
    m, dtype = system.m, system.matrices.dtype
    x = sample_focal_points(system, 20, seed=7)
    residuals, gram = point_residuals(system, x)
    frame = (build_frame(system, x) if tangent is None
             else extended_frame(system, x, tangent))
    shape = shape_operators(frame)
    if fault:
        ops = np.array(shape.operators)
        ops[3] *= 1.0 + 1e-12
        shape = replace(shape, operators=ops)
    c = default_rng(3).standard_normal((20, 10, m + 1)).astype(dtype)
    c /= np.sqrt(np.add.reduce(c * c, axis=2))[..., None]
    coeffs = np.concatenate(
        [np.broadcast_to(np.eye(m + 1, dtype=dtype), (20, m + 1, m + 1)), c],
        axis=1)
    result = certify_point(system, frame, shape, coeffs)
    fields = {**residuals, "gram_deviation": gram,
              **geometry_fields(system, shape), **_checked(system, result)}
    assert {v.dtype for v in fields.values()} == {dtype}
    return ({key: fold(v) for key, v in fields.items()}, result[2],
            frame.tangent)


def _wide(system):
    """The same system with its matrices in np.longdouble."""
    wide = CliffordSystem(m=system.m, l=system.l,
                          matrices=system.matrices.astype(np.longdouble))
    assert wide.matrices.dtype == np.longdouble
    return wide


@needs_extended
@pytest.mark.parametrize("m,k", GRID + [(9, 1)])
def test_residuals_are_rounding_by_precision_scaling(m, k):
    # in x87 extended precision the unit roundoff is 2^11 times smaller,
    # so every field that is rounding in float64 shrinks by about 2^11
    # (the least seen is 819); 2^6 leaves over a decade of margin.  The
    # reflection gap compares the operators with the same product, so it
    # is exactly 0 in both
    system = build_clifford_system(m, k)
    narrow, _, tangent = _precision_chain(system)
    wide, _, _ = _precision_chain(_wide(system), tangent)
    assert narrow["reflection_max"] == wide["reflection_max"] == 0.0
    assert any(value > 0.0 for value in narrow.values())
    flat = {key: (narrow[key], wide[key]) for key in narrow
            if narrow[key] > 0.0 and not narrow[key] >= 64.0 * wide[key]}
    assert not flat, flat


@needs_extended
def test_a_defect_does_not_shrink_with_precision():
    # point 3's operators scaled by 1 + 1e-12 at (3, 2): far inside the
    # tolerances, so every float64 block that reads the operators passes
    # (the others never see them), and a real residual, not rounding, so
    # the reflection gap and the lemma read it in both precisions alike
    system = build_clifford_system(3, 2)
    narrow, read, tangent = _precision_chain(system, fault=True)
    checked = {key: DEFAULT_TOLERANCES.get(held, held)
               for block in ("points", "geometry", "lemma", "willmore")
               for key, held in CHECKED_FIELDS[block].items()}
    assert set(checked) - set(narrow) == {"ricci_crosscheck_max"}
    assert all(narrow[key] <= tol for key, tol in checked.items()
               if key in narrow), narrow
    assert np.all(read == [3, 4, 4])
    wide, _, _ = _precision_chain(_wide(system), tangent, fault=True)
    for key in ("reflection_max", "max_spectrum_deviation"):
        assert 1e-13 < narrow[key] < 2.0 * wide[key], key
