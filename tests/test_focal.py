"""Focal points: deterministic seed, certification, sampling."""

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from fkm_willmore import (CONSTRAINT_TOL, SPHERE_TOL, CliffordSystem,
                          build_clifford_system, CertificationError,
                          VerificationConfig, run_suite, sample_focal_points)
from fkm_willmore import focal

from conftest import GRID, conjugated_system
from oracles import jacobian_rank

FIELDS = ("x", "residual_constraints", "residual_sphere", "value_gap",
          "jacobian_rank")


def certify(system, x):
    """One row through the sampler's certification: its record fields, or
    the CertificationError that rejects it."""
    x = np.asarray(x, dtype=float)[None]
    cert = focal._certify(system, x)
    if not cert["passed"][0]:
        raise focal._rejection(cert, 0)
    return {"x": x[0], **{name: cert[name][0] for name in FIELDS[1:]}}


def _row(points, i):
    """Row i of a FocalPoints record, by field."""
    return {name: getattr(points, name)[i] for name in FIELDS}


def _seed(system):
    return sample_focal_points(system, 1, seed=0).x[0]


def test_seed_coordinates_smallest_case():
    # u = e_1, the +1 part of e_1; P_1 u = e_4, so e_4 reduces to 0 and
    # w = e_5
    system = build_clifford_system(1, 3)
    r = 1.0 / np.sqrt(2.0)
    assert np.array_equal(_seed(system), np.array([r, 0.0, 0.0, 0.0, r, 0.0]))


@pytest.mark.parametrize("m,k", GRID)
def test_seed_certifies_exactly(m, k):
    point = _row(sample_focal_points(build_clifford_system(m, k), 1, seed=0),
                 0)
    # construction is by signed basis vectors, residuals are exact zeros
    assert point["residual_constraints"] <= 1e-15
    assert point["residual_sphere"] <= 1e-15
    assert point["value_gap"] <= 1e-15
    assert point["jacobian_rank"] == m + 2


def test_sampling_deterministic_and_seed_sensitive():
    system = build_clifford_system(2, 2)
    first = sample_focal_points(system, 5, seed=9)
    second = sample_focal_points(system, 5, seed=9)
    other = sample_focal_points(system, 5, seed=10)
    for name in FIELDS:
        assert np.array_equal(getattr(first, name), getattr(second, name))
    # row 0 is the seed point whatever the seed; the sampled rows move
    assert np.array_equal(first.x[0], other.x[0])
    assert all(not np.array_equal(a, b) for a, b in zip(first.x[1:],
                                                         other.x[1:]))


def test_sampling_certifies_hundred_points():
    system = build_clifford_system(2, 2)
    points = sample_focal_points(system, 100, seed=1234)
    assert points.x.shape == (100, system.ambient_dim)
    assert np.all(points.residual_constraints <= CONSTRAINT_TOL)
    assert np.all(points.residual_sphere <= SPHERE_TOL)
    assert points.jacobian_rank.tolist() == [4] * 100
    # the sampler should not collapse onto few points
    assert np.min(np.ptp(points.x, axis=0)) > 0.1


def test_sampling_rejects_nonpositive_count():
    system = build_clifford_system(1, 3)
    with pytest.raises(ValueError):
        sample_focal_points(system, 0, seed=1)


def test_certify_rejects_off_manifold():
    system = build_clifford_system(1, 3)
    with pytest.raises(CertificationError, match="point 0 failed"):
        certify(system, np.eye(6)[0])


def test_certify_rejects_nan():
    system = build_clifford_system(1, 3)
    with pytest.raises(CertificationError, match="non-finite coordinates"):
        certify(system, np.full(system.ambient_dim, np.nan))


@pytest.mark.parametrize("m,k", GRID)
def test_certify_rejects_a_broken_gram_identity(m, k):
    # with every P_a scaled by 1.01 the seed point of the intact system still
    # has g_a = 0, |x| = 1 and F(x) = 1 to rounding, but |P_a x|^2 = 1.0201,
    # so only the Gram guard J J^T = 4 I rejects it; the sampler's stacked
    # pass applies the same rule to its rows
    system = build_clifford_system(m, k)
    scaled = CliffordSystem(m=m, l=system.l,
                            matrices=tuple(1.01 * p for p in system.matrices))
    x = sample_focal_points(system, 5, 5).x
    with pytest.raises(CertificationError,
                       match=r"deviates from J J\^T = 4I by 2\.010e-02"):
        certify(scaled, x[0])
    cert = focal._certify(scaled, x)
    assert not cert["passed"].any()
    for i in range(len(x)):
        assert "Gram matrix" in str(focal._rejection(cert, i))


@pytest.mark.parametrize("m,k,conjugated",
                         [(m, k, False) for m, k in GRID + [(7, 2), (9, 1)]]
                         + [(2, 2, True), (6, 1, True)])
def test_map_puts_rows_on_the_focal_manifold(m, k, conjugated):
    # 2000 Gaussian rows mapped through the eigenspaces of P_0 land on M+
    # to rounding, also for a system with no split block form
    system = (conjugated_system(m, k) if conjugated
              else build_clifford_system(m, k))
    z = default_rng(11).standard_normal((2000, system.ambient_dim))
    cert = focal._certify(system, focal._onto_focal(system, z))
    assert np.max(cert["residual_constraints"]) <= 1e-14
    assert np.max(cert["residual_sphere"]) <= 1e-14


@pytest.mark.parametrize("seed", [42, 7])
def test_cli_workloads_sample_every_point_on_the_manifold(monkeypatch, seed):
    # fkm-verify and fkm-verify --points 100 --normals 0 sample 7 x 19 and
    # 7 x 99 points (row 0 is the seed); the PDE samples and the normals
    # come from other streams, so fewer of them leave the points as they
    # are.  Every call certifies all its rows from one generator, built
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
        counts.append(len(points.x))
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
    # the record's ranks come from the certification pass, one stacked
    # eigvalsh of the guard's Gram matrices, and equal the rank of each row
    # certified alone
    system = build_clifford_system(m, k)
    points = sample_focal_points(system, 4, seed=2)
    assert points.jacobian_rank.tolist() == [rank] * 4
    for x in points.x:
        assert certify(system, x)["jacobian_rank"] == rank == m + 2


@pytest.mark.parametrize("m,k,conjugated",
                         [(m, k, False) for m, k in GRID] + [(3, 2, True)])
def test_jacobian_rank_equals_the_svd_rank(m, k, conjugated):
    # the Gram eigenvalues above 1e-16 count the singular values of the rows
    # above 1e-8, as the SVD of the rows does
    system = (conjugated_system(m, k, seed=4) if conjugated
              else build_clifford_system(m, k))
    points = sample_focal_points(system, 20, seed=8)
    assert np.array_equal(points.jacobian_rank,
                          jacobian_rank(system, points.x))
    assert np.all(points.jacobian_rank == system.m + 2)


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
    # point i is row i + 1 of the record
    system = build_clifford_system(m, k)
    points = sample_focal_points(system, 41, seed=77)
    _same_point(_row(points, 0), certify(system, focal._seed_row(system)))
    for i in range(40):
        _same_point(_row(points, i + 1),
                    certify(system, _start(system, 77, i, 40)))


@pytest.mark.parametrize("axis", [0, 3], ids=["plus", "minus"])
def test_degenerate_row_is_kept_raw_and_rejected(monkeypatch, axis):
    # for (1, 3), e_1 lies in E+ and has no E- part to build w from; e_4
    # lies in E- and has no E+ part to build u from.  Either row is kept as
    # it is, fails certification, and the sampler names its point.
    system = build_clifford_system(1, 3)
    row = np.eye(6)[axis]
    assert np.array_equal(focal._onto_focal(system, row[None])[0], row)
    assert np.array_equal(_reference_start(system, row), row)
    with pytest.raises(CertificationError):
        certify(system, row)

    class Degenerate:
        # the sampler's generator with sampled point 4's row replaced
        def __init__(self, seed_seq):
            self.rng = default_rng(seed_seq)

        def standard_normal(self, size):
            block = self.rng.standard_normal(size)
            block[4] = row
            return block

    monkeypatch.setattr(focal, "default_rng", Degenerate)
    with pytest.raises(CertificationError,
                       match=r"^point 5 failed certification: constraints"):
        sample_focal_points(system, 7, seed=3)


def test_sampling_starts_do_not_depend_on_the_point_count():
    # sampled point i's start is row i of a row-major block, so the first
    # five rows (the seed and four sampled points) come out bit for bit the
    # same when twenty are drawn
    system = build_clifford_system(2, 2)
    five = sample_focal_points(system, 5, seed=31)
    twenty = sample_focal_points(system, 20, seed=31)
    for i in range(5):
        _same_point(_row(five, i), _row(twenty, i))
