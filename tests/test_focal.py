"""Focal points: deterministic seed, certification, sampling."""

import re

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from fkm_willmore import (DEFAULT_TOLERANCES, SPHERE_TOL, CliffordSystem,
                          build_clifford_system, VerificationConfig,
                          evaluate_system, point_residuals, run_suite,
                          sample_focal_points)
from fkm_willmore import focal, report
from fkm_willmore.report import CHECKED_FIELDS

from conftest import GRID, conjugated_system, judged_points
from oracles import jacobian_rank, quartic

FIELDS = ("x", "max_constraint_residual", "max_sphere_residual",
          "max_value_gap", "gram_deviation")


def _with_rows(system, x):
    """The rows of x and their measurements by point_residuals, by field."""
    return {"x": np.atleast_2d(x), **judged_points(system, x)[0]}


def _sampled(system, n, seed):
    """The sampler's n rows and their measurements, by field."""
    return _with_rows(system, sample_focal_points(system, n, seed=seed))


def _row(points, i):
    """Row i of every field."""
    return {name: points[name][i] for name in FIELDS}


def measure(system, x):
    """One row through the measuring pass, by field."""
    return _row(_with_rows(system, x), 0)


def _seed(system):
    return sample_focal_points(system, 1, seed=0)[0]


def test_seed_coordinates_smallest_case():
    # u = e_1, the +1 part of e_1; P_1 u = e_4, so e_4 reduces to 0 and
    # w = e_5
    system = build_clifford_system(1, 3)
    r = 1.0 / np.sqrt(2.0)
    assert np.array_equal(_seed(system), np.array([r, 0.0, 0.0, 0.0, r, 0.0]))


@pytest.mark.parametrize("m,k", GRID)
def test_seed_certifies_exactly(m, k):
    point = _row(_sampled(build_clifford_system(m, k), 1, seed=0), 0)
    # construction is by signed basis vectors, residuals are exact zeros
    assert point["max_constraint_residual"] <= 1e-15
    assert point["max_sphere_residual"] <= 1e-15
    assert point["max_value_gap"] <= 1e-15
    assert point["gram_deviation"] <= 1e-15


def test_sampling_deterministic_and_seed_sensitive():
    system = build_clifford_system(2, 2)
    first = _sampled(system, 5, seed=9)
    second = _sampled(system, 5, seed=9)
    other = _sampled(system, 5, seed=10)
    for name in FIELDS:
        assert np.array_equal(first[name], second[name])
    # row 0 is the seed point whatever the seed; the sampled rows move
    assert np.array_equal(first["x"][0], other["x"][0])
    assert all(not np.array_equal(a, b) for a, b in zip(first["x"][1:],
                                                         other["x"][1:]))


def test_sampling_certifies_hundred_points():
    system = build_clifford_system(2, 2)
    points = _sampled(system, 100, seed=1234)
    assert points["x"].shape == (100, system.ambient_dim)
    assert np.all(points["max_constraint_residual"]
                  <= DEFAULT_TOLERANCES["cert"])
    assert np.all(points["max_sphere_residual"] <= SPHERE_TOL)
    assert np.all(points["gram_deviation"] <= 1e-14)
    assert judged_points(system, points["x"])[1]["jacobian_ranks"] == [4]
    # the sampler should not collapse onto few points
    assert np.min(np.ptp(points["x"], axis=0)) > 0.1


def test_sampling_rejects_nonpositive_count():
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        sample_focal_points(system, 0, seed=1)


def test_certify_rejects_off_manifold():
    # e_0 lies in E+ of (1, 3), so g_0 = 1 there; the points block names
    # the point and its first failing field
    system = build_clifford_system(1, 3)
    point, block = judged_points(system, np.eye(6)[0])
    # and P_0 e_0 = e_0, so the Gram matrix has an off-diagonal 1: rank 0
    assert point["max_constraint_residual"].tolist() == [1.0]
    assert point["gram_deviation"].tolist() == [1.0]
    assert block["jacobian_ranks"] == [0]
    assert block["error"] == ("point 0 failed certification: "
                              "max_constraint_residual 1.0e+00 (tol 1e-10)")
    assert list(block)[-2:] == ["error", "pass"] and not block["pass"]


def test_certify_rejects_nan():
    # a NaN row, which no sampled row is, makes every product NaN: NaN
    # residuals and Gram deviation, which the points block reads as rank 0
    system = build_clifford_system(1, 3)
    point, block = judged_points(system, np.full(system.ambient_dim, np.nan))
    for name in FIELDS[1:]:
        assert np.isnan(point[name]).all(), name
    assert block["jacobian_ranks"] == [0]
    assert block["error"].startswith(
        "point 0 failed certification: max_constraint_residual nan ")


@pytest.mark.parametrize("m,k", GRID)
def test_certify_rejects_a_broken_gram_identity(m, k):
    # with every P_a scaled by 1.01 the points of the intact system still
    # have g_a = 0, |x| = 1 and F(x) = 1 to rounding, but |P_a x|^2 = 1.0201,
    # so only the Gram identity J J^T = 4 I sees it: every row deviates
    # by 0.0201 and gets rank 0, and the points block fails on the rank
    # alone
    system = build_clifford_system(m, k)
    scaled = CliffordSystem(m=m, l=system.l,
                            matrices=tuple(1.01 * p for p in system.matrices))
    x = sample_focal_points(system, 5, 5)
    points, block = judged_points(scaled, x)
    assert np.max(np.abs(points["gram_deviation"] - 0.0201)) <= 1e-14
    assert block["jacobian_ranks"] == [0]
    for key in ("max_constraint_residual", "max_sphere_residual",
                "max_value_gap"):
        assert block[key] <= 1e-14, key
    assert block["error"] == ("point 0 failed certification: "
                              f"jacobian_rank 0 (expected {m + 2})")


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_gram_guard_is_the_rank_threshold(m, k):
    # scaling every P_a by s moves the Gram matrix's diagonal |P_a x|^2 to
    # s^2 |x|^2 and nothing else past rounding, so its deviation is s^2 - 1:
    # sized 0.1% below the points block's 1e-6 every row has rank m + 2
    # and the block passes, 0.1% above it every row has rank 0 and the
    # block fails, naming the first point, on the rank alone
    system = build_clifford_system(m, k)
    x = sample_focal_points(system, 4, seed=6)
    for factor in (0.999, 1.001):
        s = np.sqrt(1.0 + factor * 1e-6)
        scaled = CliffordSystem(m=m, l=system.l, matrices=tuple(
            s * p for p in system.matrices))
        points, block = judged_points(scaled, x)
        assert np.max(np.abs(points["gram_deviation"]
                             - factor * 1e-6)) <= 1e-14
        if factor < 1.0:
            assert block["jacobian_ranks"] == [m + 2]
            assert block["pass"] and "error" not in block
        else:
            assert block["jacobian_ranks"] == [0]
            assert block["error"] == ("point 0 failed certification: "
                                      f"jacobian_rank 0 (expected {m + 2})")


def test_gram_deviation_at_the_threshold_is_full_rank():
    # the points block gives rank m + 2 to a deviation of exactly 1e-6 and
    # rank 0 to one ulp above it, and names that row
    system = build_clifford_system(2, 2)
    x = sample_focal_points(system, 3, seed=1)
    residuals, _ = point_residuals(system, x)
    block = report._block("points", DEFAULT_TOLERANCES, *report._points_fields(
        x, residuals, np.array([1e-6, np.nextafter(1e-6, 1.0), 0.0]), 4))
    assert block["jacobian_ranks"] == [0, 4]
    assert block["error"] == ("point 1 failed certification: "
                              "jacobian_rank 0 (expected 4)")


@pytest.mark.parametrize("m,k", GRID)
def test_value_gap_is_the_quartic_gap_off_the_manifold(m, k, monkeypatch):
    # with the map onto M+ switched off the sampler returns raw Gaussian
    # rows, where |g|^2 is of order one: each value gap is |F(x) - 1| of
    # the one-point quartic to rounding
    monkeypatch.setattr(focal, "_onto_focal", lambda system, z: z)
    system = build_clifford_system(m, k)
    x = sample_focal_points(system, 50, seed=13)
    gap = point_residuals(system, x)[0]["max_value_gap"]
    want = np.array([abs(quartic(system, row) - 1.0) for row in x[1:]])
    scale = np.sum(x[1:] ** 2, axis=1) ** 2 + 1.0
    assert np.min(want) > 1e-3
    assert np.max(np.abs(gap[1:] - want) / scale) <= 1e-14


@pytest.mark.parametrize("m,k,conjugated",
                         [(m, k, False) for m, k in GRID + [(7, 2), (9, 1)]]
                         + [(2, 2, True), (6, 1, True)])
def test_map_puts_rows_on_the_focal_manifold(m, k, conjugated):
    # 2000 Gaussian rows mapped through the eigenspaces of P_0 land on M+
    # to rounding, also for a system with no split block form
    system = (conjugated_system(m, k) if conjugated
              else build_clifford_system(m, k))
    z = default_rng(11).standard_normal((2000, system.ambient_dim))
    cert, _ = point_residuals(system, focal._onto_focal(system, z))
    assert np.max(cert["max_constraint_residual"]) <= 1e-14
    assert np.max(cert["max_sphere_residual"]) <= 1e-14


@pytest.mark.parametrize("seed", [42, 7])
def test_cli_workloads_sample_every_point_on_the_manifold(monkeypatch, seed):
    # fkm-verify and fkm-verify --points 100 --normals 0 sample 7 x 19 and
    # 7 x 99 points (row 0 is the seed); the PDE samples and the normals
    # come from other streams, so fewer of them leave the points as they
    # are.  Every call samples all its rows from one generator, built
    # from the sub-seed named (0,).
    from fkm_willmore import report
    sample = report.sample_focal_points
    counts = []
    made = []
    keys = []

    def generator(seed_seq):
        made.append(seed_seq.spawn_key)
        return default_rng(seed_seq)

    def recording(system, n, seed):
        before = len(made)
        points = sample(system, n, seed=seed)
        counts.append(len(points))
        keys.append(made[before:])
        return points

    monkeypatch.setattr(focal, "default_rng", generator)
    monkeypatch.setattr(report, "sample_focal_points", recording)
    for n_points in (20, 100):
        run_suite(VerificationConfig(n_points=n_points, n_normals=0,
                                     seed=seed))
    assert counts == [20] * 7 + [100] * 7
    assert keys == [[(0,)]] * 14


@pytest.mark.parametrize("m,k,rank", [(1, 3, 3), (2, 2, 4), (5, 1, 7)])
def test_jacobian_rank(m, k, rank):
    # the points block reads the ranks off the Gram deviations of the
    # measuring pass, and each row measured alone gets the same rank
    system = build_clifford_system(m, k)
    points = sample_focal_points(system, 4, seed=2)
    assert judged_points(system, points)[1]["jacobian_ranks"] == [rank]
    for x in points:
        assert judged_points(system, x)[1]["jacobian_ranks"] == [rank]
    assert rank == report._m_plus(system)["rank"]


@pytest.mark.parametrize("m,k,conjugated",
                         [(m, k, False) for m, k in GRID] + [(3, 2, True)])
def test_jacobian_rank_equals_the_svd_rank(m, k, conjugated):
    # the SVD of the rows x, P_0 x, ..., P_m x, counting singular values
    # above 1e-8, gives rank m + 2 exactly where the Gram deviation is at
    # most 1e-6: at every sampled point, and at no unit row of E+ (where
    # P_0 u = u), whose deviation is at least 1
    system = (conjugated_system(m, k, seed=4) if conjugated
              else build_clifford_system(m, k))
    x = sample_focal_points(system, 20, seed=8)
    plus = x + x @ system.matrices[0]
    x = np.concatenate([x, plus / np.linalg.norm(plus, axis=1)[:, None]])
    points, block = judged_points(system, x)
    full = jacobian_rank(system, x) == m + 2
    assert np.array_equal(full, points["gram_deviation"] <= 1e-6)
    assert full.tolist() == [True] * 20 + [False] * 20
    assert block["jacobian_ranks"] == [0, m + 2]


def test_sampled_points_are_a_read_only_array():
    # the sampler returns the points and nothing else: one (n, 2l) array
    # that no caller can write
    x = sample_focal_points(build_clifford_system(2, 2), 3, seed=0)
    assert type(x) is np.ndarray and x.shape == (3, 8)
    assert not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = 0.0


@pytest.mark.parametrize("m,k", [(1, 3), (3, 2), (6, 1)])
def test_point_residuals_are_the_points_fields_in_order(m, k):
    # the residuals are keyed by the points block's checked fields, in its
    # order, and each is the one-point route that defines it; the rows are
    # pushed off M+ along P_1 x and scaled, so that no two routes read
    # the same values and values swapped between two keys, or with the
    # Gram deviation, fail
    system = build_clifford_system(m, k)
    x = sample_focal_points(system, 6, seed=4)
    moved = ((1.0 + 0.01 * np.arange(6))[:, None]
             * (x + 0.02 * system.apply(x)[:, 1]))
    residuals, gram = point_residuals(system, moved)
    assert list(residuals) == list(CHECKED_FIELDS["points"])
    routes = {
        "max_constraint_residual": [max(abs(row @ p @ row)
                                        for p in system.matrices)
                                    for row in moved],
        "max_sphere_residual": [abs(row @ row - 1.0) for row in moved],
        "max_value_gap": [abs(quartic(system, row) - 1.0) for row in moved]}
    for key, want in routes.items():
        assert residuals[key].shape == (6,)
        assert np.max(np.abs(residuals[key] - want)) <= 1e-14, key
    jacobians = [np.vstack([row, *(p @ row for p in system.matrices)])
                 for row in moved]
    routes["gram"] = [np.max(np.abs(j @ j.T - np.eye(m + 2)))
                      for j in jacobians]
    assert np.max(np.abs(gram - routes["gram"])) <= 1e-14
    values = list(routes.values())
    assert all(np.max(np.abs(np.subtract(a, b))) > 1e-4
               for i, a in enumerate(values) for b in values[i + 1:])
    # the dict and its arrays are the caller's, built by this call
    residuals["max_sphere_residual"][0] = -1.0
    assert point_residuals(system, moved)[0]["max_sphere_residual"][0] > 0.0


@pytest.mark.parametrize("shape", [(6,), (2, 4)], ids=["2l", "2x(2l-2)"])
def test_point_residuals_reject_a_stack_of_the_wrong_shape(shape):
    # a bare point, or a stack of rows of the wrong width, is refused by
    # name; a non-finite row is measured (test_certify_rejects_nan)
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError, match=re.escape(
            f"point stack shape {shape} is not (K, 6)")):
        point_residuals(system, np.ones(shape))


# ---------------------------------------------------------------------------
# the stacked sampler against one-point maps and certification
# ---------------------------------------------------------------------------

def _raw(system, seed, i, n):
    # row i of the (n, 2l) Gaussian block
    rng = default_rng(SeedSequence(seed, spawn_key=(0,)))
    return rng.standard_normal((n, system.ambient_dim))[i]


def _reference_start(system, z):
    """The sampler's map of one row onto M+ with 1-D arrays, the one-point
    code the stacked map replaces: two passes of u = unit (I + P_0) z / 2,
    w = unit of (I - P_0) z / 2 reduced against P_1 u, ..., P_m u, and
    x = (u + w) / sqrt(2); a row without an image is kept."""
    x = np.array(z, dtype=float)
    for _ in range(2):
        p0x = system.matrices[0] @ x
        plus, minus = 0.5 * (x + p0x), 0.5 * (x - p0x)
        floor = 1e-12 * np.sqrt(x @ x)
        if not np.sqrt(plus @ plus) > floor:
            return x
        u = plus / np.sqrt(plus @ plus)
        pu = system.matrices[1:] @ u
        w = minus - (pu @ minus) @ pu
        if not np.sqrt(w @ w) > floor:
            return x
        x = (u + w / np.sqrt(w @ w)) / np.sqrt(2.0)
    return x


def _start(system, seed, i, n):
    # the start of sampled point i: its Gaussian row mapped onto M+
    return _reference_start(system, _raw(system, seed, i, n))


def _same_point(a, b):
    for name in FIELDS:
        assert np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize("m,k", GRID + [(7, 2), (9, 1)])
def test_sampling_sweep_equals_single_projections(m, k):
    # one stacked pass over the seed and all sampled rows gives each point
    # its one-point map and its own certification, bit for bit; sampled
    # point i is row i + 1
    system = build_clifford_system(m, k)
    points = _sampled(system, 41, seed=77)
    _same_point(_row(points, 0), measure(system, focal._seed_row(system)))
    for i in range(40):
        _same_point(_row(points, i + 1),
                    measure(system, _start(system, 77, i, 40)))


def _replacing_row(point, row):
    """The sampler's generator with the Gaussian row of sampled point
    `point` (row point + 1 of the points) replaced by `row`."""
    class Generator:
        def __init__(self, seed_seq):
            self.rng = default_rng(seed_seq)

        def standard_normal(self, size):
            block = self.rng.standard_normal(size)
            block[point] = row
            return block
    return Generator


@pytest.mark.parametrize("axis", [0, 3], ids=["plus", "minus"])
def test_degenerate_row_is_kept_raw_and_rejected(monkeypatch, axis):
    # for (1, 3), e_1 lies in E+ and has no E- part to build w from; e_4
    # lies in E- and has no E+ part to build u from.  Either row is kept as
    # it is, and the points block names its point and skips every later
    # block
    system = build_clifford_system(1, 3)
    row = np.eye(6)[axis]
    assert np.array_equal(focal._onto_focal(system, row[None])[0], row)
    assert np.array_equal(_reference_start(system, row), row)
    assert not judged_points(system, row)[1]["pass"]

    monkeypatch.setattr(focal, "default_rng", _replacing_row(4, row))
    points = _sampled(system, 7, seed=3)
    assert np.array_equal(points["x"][5], row)
    full_rank = (points["gram_deviation"] <= 1e-6).tolist()
    assert full_rank == [True] * 5 + [False, True]
    cfg = VerificationConfig(configurations=((1, 3),), n_points=7,
                             n_normals=0)
    blocks = evaluate_system(system, cfg, 0)["blocks"]
    assert list(blocks) == ["clifford", "cartan_munzner", "points"]
    assert blocks["points"]["count"] == 7
    assert blocks["points"]["jacobian_ranks"] == [0, 3]
    assert blocks["points"]["error"] == (
        "point 5 failed certification: max_constraint_residual 1.0e+00 "
        "(tol 1e-10)")


def test_cert_tolerance_governs_the_points(monkeypatch):
    # point 5 pushed off M+ by d along its normal P_1 x reads
    # g_1 = 2 d + d^2 g_1(P_1 x), about 1e-9, and sphere and value gaps of
    # order d^2: the points block fails at the default cert, naming the
    # point, and passes with cert 1e-8, so that the later blocks run
    onto = focal._onto_focal

    def pushed(system, z):
        x = onto(system, z)
        x[4] += 5e-10 * (system.matrices[1] @ x[4])
        return x

    monkeypatch.setattr(focal, "_onto_focal", pushed)
    system = build_clifford_system(2, 2)
    for cert, error in [(None, "point 5 failed certification: "
                               "max_constraint_residual 1.0e-09 (tol 1e-10)"),
                        (1e-8, None)]:
        cfg = VerificationConfig(
            configurations=((2, 2),), n_points=7, n_normals=0,
            tolerances={} if cert is None else {"cert": cert})
        blocks = evaluate_system(system, cfg, 0)["blocks"]
        assert blocks["points"].get("error") == error
        assert blocks["points"]["pass"] == (error is None)
        assert ("geometry" in blocks) == (error is None)


def test_sampling_starts_do_not_depend_on_the_point_count():
    # sampled point i's start is row i of a row-major block, so the first
    # five rows (the seed and four sampled points) come out bit for bit the
    # same when twenty are drawn
    system = build_clifford_system(2, 2)
    five = _sampled(system, 5, seed=31)
    twenty = _sampled(system, 20, seed=31)
    for i in range(5):
        _same_point(_row(five, i), _row(twenty, i))
