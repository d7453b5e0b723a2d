"""The one result record and its fold: the pass rule, NaN and the boundary."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fkm_willmore import (Check, CertificationError, FkmPolynomial,
                          FrameError, SpectrumError, build_clifford_system,
                          build_frame, certify_point, fold,
                          sample_focal_points, shape_operators)
from fkm_willmore import einstein_probe, focal
from fkm_willmore.records import freeze

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
# records take over the arrays they are built from
# ---------------------------------------------------------------------------

def test_freeze_takes_over_an_owned_array():
    owned = np.arange(6.0)
    out = freeze(owned)
    assert out is owned
    assert not owned.flags.writeable


def test_freeze_copies_a_view():
    # a view's base may still be written, so only a copy is safe to hold
    base = np.arange(6.0)
    view = base[1:4]
    out = freeze(view)
    assert out is not view and out.base is None
    assert not out.flags.writeable and view.flags.writeable
    base[1] = 99.0
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_records_take_over_their_arrays():
    system, frame = _one_frame()
    # every field of the frame is held once, read-only, and the shapes
    # share the frame's operators
    for name in ("x", "tangent", "operators", "pair_coords", "closed_ricci"):
        value = getattr(frame, name)
        assert value.base is None and not value.flags.writeable, name
    shape = shape_operators(frame)
    assert shape.operators is frame.operators
    ops = 2.0 * shape.operators
    assert replace(shape, operators=ops).operators is ops
    assert not ops.flags.writeable
    # fields that are not arrays pass through
    probe = einstein_probe(system, frame)
    assert type(probe.dimension_condition) is bool
    assert type(probe.status) is str
    assert not probe.spread.flags.writeable


# ---------------------------------------------------------------------------
# input guards use the same rule: a NaN gap never passes, and a non-finite
# input is caught before any product
# ---------------------------------------------------------------------------

def _one_frame():
    system = build_clifford_system(2, 2)
    return system, build_frame(system, sample_focal_points(system, 1, 0).x)


def _bad_frame_point(value):
    system = build_clifford_system(1, 3)
    x = np.array(sample_focal_points(system, 1, 0).x)
    x[0, 0] = value
    build_frame(system, x)


def _bad_coefficient_row(value):
    system, frame = _one_frame()
    coeffs = np.eye(3)[None].copy()
    coeffs[0, 1, 1] = value
    certify_point(system, frame, shape_operators(frame), coeffs)


def _bad_shape_operator(value):
    # the entry sits in A_1, whose coefficient is 0 for the one normal
    # e_0: a product 0 * inf would hide it as NaN, with a warning
    system, frame = _one_frame()
    shape = shape_operators(frame)
    ops = np.array(shape.operators)
    ops[0, 1, 0, 0] = value
    certify_point(system, frame, replace(shape, operators=ops),
                  np.eye(3)[None, :1])


def _bad_sphere_row(value):
    poly = FkmPolynomial(build_clifford_system(2, 2))
    x = np.zeros((2, poly.system.ambient_dim))
    x[0, 0] = 1.0
    x[1] = value
    poly.sphere_derivatives(x)


def _bad_certification_row(value):
    system = build_clifford_system(2, 2)
    x = np.array(sample_focal_points(system, 3, 0).x)
    x[1, 2] = value
    cert = focal._certify(system, x)
    assert cert["passed"].tolist() == [True, False, True]
    raise focal._rejection(cert, 1)


GUARDS = [
    ("build_frame", _bad_frame_point, FrameError, "point 0: non-finite"),
    ("certify_point", _bad_coefficient_row, ValueError, "point 0, normal 1:"),
    ("shape_operator", _bad_shape_operator, SpectrumError,
     "point 0: shape operators have non-finite"),
    ("sphere_derivatives", _bad_sphere_row, ValueError, "row 1 "),
    ("certification", _bad_certification_row, CertificationError,
     "point 1 failed certification: non-finite"),
]


@pytest.mark.parametrize("call,value,error,names", [
    (call, value, error, names) for _, call, error, names in GUARDS
    for value in (math.nan, math.inf, -math.inf)],
    ids=[f"{name}{suffix}" for name, *_ in GUARDS
         for suffix in ("", "-inf", "-neginf")])
def test_input_guards_reject_nan(call, value, error, names):
    # each guard is `not (gap <= tol)`, which a NaN gap fails; `gap > tol`
    # let it through to a NaN result or to an unrelated numpy error (the
    # exact type is asserted: numpy's LinAlgError is a ValueError too).  An
    # infinite input must not reach a product either: inf * 0 is NaN with a
    # RuntimeWarning, which fails the test on its own
    with pytest.raises(error, match=names) as info:
        call(value)
    assert type(info.value) is error, repr(info.value)
