"""Shared fixtures: session suite report, FD oracles, acceptance recorder."""

import numpy as np
import pytest

from fkm_willmore import (CliffordSystem, VerificationConfig,
                          build_clifford_system, point_residuals, report,
                          run_suite)

# Every admissible configuration with ambient dimension <= 16.
GRID = [(1, 3), (1, 4), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1)]

FD_STEP = 1e-5
FD_RTOL = 1e-6


@pytest.fixture(scope="session")
def suite_report():
    """One full default-parameter suite run shared across the session."""
    return run_suite(VerificationConfig())


def corrupt_system(m: int, k: int, eps: float = 1e-3) -> CliffordSystem:
    """A system whose first matrix has one diagonal entry nudged by eps.

    The diagonal keeps the matrix symmetric, so only the square/anticommute
    relations (and everything downstream) break.
    """
    base = build_clifford_system(m, k)
    mats = [np.array(p, dtype=float) for p in base.matrices]
    mats[0][0, 0] += eps
    return CliffordSystem(m=base.m, l=base.l, matrices=tuple(mats))


# the values nan_pair_matrices is tested with
NON_FINITE = [np.nan, np.inf, -np.inf]


def nan_pair_matrices(m: int, k: int, value: float = np.nan) -> np.ndarray:
    """The built (m, k) system's matrices as one writable array, with one
    symmetric pair of off-diagonal entries of the second matrix set to
    `value`, NaN by default or an infinity.

    The matrix stays symmetric and traceless, and the bad entry sits in
    neither the first matrix nor the first entry.  CliffordSystem rejects
    these matrices, so no stage can be handed them.
    """
    mats = np.array(build_clifford_system(m, k).matrices)
    mats[1, 0, 1] = mats[1, 1, 0] = value
    return mats


def conjugator(dim: int, seed: int = 0) -> np.ndarray:
    """A random orthogonal dim x dim matrix Q, fixed by the seed."""
    z = np.random.default_rng(seed).standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


def conjugated_system(m: int, k: int, seed: int = 0) -> CliffordSystem:
    """The (m, k) system conjugated by a random orthogonal Q, Q P_a Q^T,
    with Q = conjugator(2l, seed).

    It is a Clifford system again, with float entries and no split block
    form, so only representation-free code handles it.
    """
    base = build_clifford_system(m, k)
    q = conjugator(base.ambient_dim, seed)
    return CliffordSystem(m=m, l=base.l,
                          matrices=tuple(q @ p @ q.T for p in base.matrices))


def judged_points(system: CliffordSystem, x, **tolerances):
    """The rows of `x` measured by point_residuals, as one dict of its
    residuals and its gram_deviation, and the points block that the report
    makes of them, with the default tolerances overridden by
    `tolerances`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    residuals, gram = point_residuals(system, x)
    tol = VerificationConfig(tolerances=tolerances).tolerances
    return ({**residuals, "gram_deviation": gram},
            report._points_block(x, residuals, gram, tol, system.m + 2))


def fd_gradient(f, x, h=FD_STEP):
    """Central-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def fd_directional(grad, x, v, h=FD_STEP):
    """Central difference of a vector field along v: approximates H(x) v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (grad(x + h * v) - grad(x - h * v)) / (2.0 * h)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


# ---------------------------------------------------------------------------
# acceptance bookkeeping: one recorded line per criterion
# ---------------------------------------------------------------------------

ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance():
    def record(criterion: int, label: str, passed: bool, detail: str = ""):
        ACCEPTANCE_RESULTS.append((criterion, label, bool(passed), detail))
        assert passed, f"acceptance criterion {criterion} ({label}): {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for crit, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        tag = "PASS" if passed else "FAIL"
        line = f"[{tag}] criterion {crit}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
