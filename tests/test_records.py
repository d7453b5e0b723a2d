"""The one result record and its fold: the pass rule, NaN and the boundary."""

import math

import numpy as np
import pytest

from fkm_willmore import (Check, FkmPolynomial, FocalPoint, FrameError,
                          build_clifford_system, build_frame, certify_point,
                          deterministic_seed, fold, ricci_quadratic,
                          rotate_system, sectional_curvature, shape_operators)


def test_fold_is_the_max_and_zero_for_nothing():
    assert fold([]) == 0.0
    assert fold(np.zeros((0, 3))) == 0.0
    assert fold([1e-14, 3e-13, 2e-13]) == 3e-13
    assert isinstance(fold(np.array([0.5])), float)
    # along an axis: one worst value per row, 0.0 for an empty row
    assert fold(np.array([[1.0, 3.0], [2.0, 0.0]]), axis=1).tolist() == [3.0,
                                                                        2.0]
    assert fold(np.zeros((2, 0)), axis=1).tolist() == [0.0, 0.0]


def test_fold_propagates_nan():
    # Python's max(0.0, nan) is 0.0; the fold must not hide a NaN in any
    # position
    assert math.isnan(fold([0.0, math.nan]))
    assert math.isnan(fold([math.nan, 0.0]))
    assert math.isnan(fold(np.array([[1.0, math.nan], [2.0, 3.0]])))
    assert np.isnan(fold(np.array([[1.0, math.nan], [2.0, 3.0]]),
                         axis=1)).tolist() == [True, False]
    assert not Check("max_deviation", fold([0.0, math.nan]), 1.0).passed


def test_check_passes_at_its_tolerance():
    assert Check("residual_max", 1e-7, 1e-7).passed
    assert Check("max_deviation", 0.0, 0.0).passed
    assert not Check("residual_max", np.nextafter(1e-7, 1.0), 1e-7).passed
    assert not Check("residual_max", math.inf, 1e-7).passed
    assert "FAIL" in repr(Check("residual_max", math.nan, 1e-7))


# ---------------------------------------------------------------------------
# input guards use the same rule: a NaN gap never passes
# ---------------------------------------------------------------------------

def _one_frame():
    system = build_clifford_system(2, 2)
    return system, build_frame(system, [deterministic_seed(system)])


def _nan_frame_point():
    system = build_clifford_system(1, 3)
    point = FocalPoint(x=np.full(system.ambient_dim, math.nan),
                       residual_constraints=0.0, residual_sphere=0.0)
    build_frame(system, [point])


def _nan_ricci_column():
    system, frame = _one_frame()
    block = np.array(frame.tangent[:, :, :2])
    block[0, :, 1] = math.nan
    ricci_quadratic(system, frame, block)


def _nan_coefficient_row():
    system, frame = _one_frame()
    coeffs = np.eye(3)[None].copy()
    coeffs[0, 1] = math.nan
    certify_point(system, frame, shape_operators(system, frame), coeffs)


def _nan_sphere_row():
    poly = FkmPolynomial(build_clifford_system(2, 2))
    x = np.zeros((2, poly.ambient_dim))
    x[0, 0] = 1.0
    x[1] = math.nan
    poly.sphere_derivatives(x)


def _nan_rotation():
    rotate_system(build_clifford_system(2, 2), np.full(3, math.nan))


def _nan_sectional_pair():
    system, frame = _one_frame()
    x = np.array(frame.tangent[:, :, 0])
    x[0, 0] = math.nan
    sectional_curvature(system, frame, x, frame.tangent[:, :, 1])


@pytest.mark.parametrize("call,error", [
    (_nan_frame_point, FrameError),
    (_nan_ricci_column, ValueError),
    (_nan_coefficient_row, ValueError),
    (_nan_sphere_row, ValueError),
    (_nan_rotation, ValueError),
    (_nan_sectional_pair, ValueError),
], ids=["build_frame", "ricci_quadratic", "certify_point",
        "sphere_derivatives", "rotate_system", "sectional_curvature"])
def test_input_guards_reject_nan(call, error):
    # each guard is `not (gap <= tol)`, which a NaN gap fails; `gap > tol`
    # let it through to a NaN result or to an unrelated numpy error (the
    # exact type is asserted: numpy's LinAlgError is a ValueError too)
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error, repr(info.value)
