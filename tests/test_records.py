"""The one result record and its fold: the pass rule, NaN and the boundary."""

import math

import numpy as np

from fkm_willmore import Check, fold


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
