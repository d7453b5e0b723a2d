"""The records and the fold, and the pass rule that the report applies to
what they hold (report._block): NaN and the boundary."""

import math
import re
from dataclasses import make_dataclass, replace

import numpy as np
import pytest

from fkm_willmore import (FkmPolynomial, build_clifford_system, build_frame,
                          certify_point, fold, sample_focal_points,
                          shape_operators)
from fkm_willmore import report
from fkm_willmore.records import Record, freeze
from fkm_willmore.report import CHECKED_FIELDS


def test_fold_is_the_max_and_zero_for_nothing():
    assert fold([]) == 0.0
    assert fold(np.zeros((0, 3))) == 0.0
    assert fold([1e-14, 3e-13, 2e-13]) == 3e-13
    assert isinstance(fold(np.array([0.5])), float)
    # along an axis: one worst value per row, 0.0 for an empty row
    assert fold(np.array([[1.0, 3.0], [2.0, 0.0]]), axis=1).tolist() == [3.0,
                                                                        2.0]
    assert fold(np.zeros((2, 0)), axis=1).tolist() == [0.0, 0.0]


def test_fold_is_the_maximum_reduce_of_any_input():
    # fold is np.maximum.reduce with initial 0.0: lists of floats, of
    # numpy scalars and of arrays, tuple axes and empty axes included
    assert type(fold([np.float64(2.0), 1.0])) is float
    assert fold([np.float64(2.0), 1.0]) == 2.0
    assert fold([-1.0, -2.0]) == 0.0             # nothing below 0.0
    assert fold([]) == 0.0 and type(fold([])) is float
    assert fold([1.0, math.inf]) == math.inf
    stack = [np.array([1.0, 5.0]), np.array([4.0, 2.0])]
    assert fold(stack, axis=0).tolist() == [4.0, 5.0]
    cube = np.arange(24.0).reshape(2, 3, 4)
    assert fold(cube, axis=(1, 2)).tolist() == [11.0, 23.0]
    assert fold(np.zeros((2, 0, 3)), axis=(1, 2)).tolist() == [0.0, 0.0]
    cube[1, 2, 0] = math.nan
    assert np.isnan(fold(cube, axis=(1, 2))).tolist() == [False, True]
    assert math.isnan(fold([[0.0, 1.0], [math.nan, 2.0]]))
    for values in ([0.3, 0.1], [[0.1, 0.7], [0.2, 0.0]], cube[0]):
        assert fold(values) == float(np.max(values, initial=0.0))


def test_fold_propagates_nan():
    # Python's max(0.0, nan) is 0.0; the fold must not hide a NaN in any
    # position
    assert math.isnan(fold([0.0, math.nan]))
    assert math.isnan(fold([math.nan, 0.0]))
    assert math.isnan(fold(np.array([[1.0, math.nan], [2.0, 3.0]])))
    assert np.isnan(fold(np.array([[1.0, math.nan], [2.0, 3.0]]),
                         axis=1)).tolist() == [True, False]
    assert not _passes(fold([0.0, math.nan]), 1.0)


# ---------------------------------------------------------------------------
# the pass rule: value <= tol, in the block's fold and in its error search
# ---------------------------------------------------------------------------

def _passes(value, tol) -> bool:
    """The cartan_munzner block's verdict on two equal residuals held to
    the `pde` tolerance `tol`."""
    return report._block("cartan_munzner", {"pde": tol}, dict.fromkeys(
        ("max_gradient_residual", "max_laplacian_residual"), value))["pass"]


def test_block_passes_at_its_tolerance():
    assert _passes(1e-7, 1e-7)
    assert _passes(0.0, 0.0)
    assert not _passes(np.nextafter(1e-7, 1.0), 1e-7)
    assert not _passes(math.inf, 1e-7)
    assert not _passes(math.nan, 1e-7)


def _geometry_block(**columns):
    """The geometry block of three points, every checked field 0 but
    `columns`, with its error named by point."""
    fields = dict.fromkeys(CHECKED_FIELDS["geometry"], np.zeros(3))
    return report._block("geometry", {"geom": 1e-8, "cert": 1e-10},
                         fields | {key: np.array(values)
                                   for key, values in columns.items()},
                         where=lambda i, _: f"point {i}: ")


@pytest.mark.parametrize("bad,text", [
    (float(np.nextafter(1e-8, 1.0)), "1.0e-08"), (math.inf, "inf"),
    (math.nan, "nan")], ids=["ulp", "inf", "nan"])
def test_block_error_applies_the_rule_at_every_point(bad, text):
    # a value at its tolerance passes where the error is searched too, so
    # the search goes on to the value that fails: one ulp above, an
    # infinity or a NaN
    block = _geometry_block(S_max_gap=[1e-8, 0.0, 0.0],
                            ricci_crosscheck_max=[0.0, 0.0, bad])
    assert not block["pass"]
    assert block["error"] == (f"point 2: ricci_crosscheck_max {text} "
                              "(tol 1e-08)")


def test_block_error_names_the_first_failing_field():
    # the search is field-major: the first failing field in CHECKED_FIELDS
    # order, at its first failing point, even where a later field fails
    # at an earlier point (S - min S reads the excess of one low point at
    # every other point); a condition comes after every checked field
    block = _geometry_block(S_max_gap=[0.0, 0.0, 1e-6],
                            S_spread=[1e-6, 1e-6, 0.0])
    assert block["error"] == "point 2: S_max_gap 1.0e-06 (tol 1e-08)"
    block = report._block(
        "lemma", {"geom": 1e-8},
        {"max_spectrum_deviation": np.array([0.0, 1.0])},
        {"multiplicities": ([[0, 3, 0], [1, 1, 1]], [1, 1, 1])},
        lambda i, _: f"point {i}: ")
    assert block["error"] == ("point 1: max_spectrum_deviation 1.0e+00 "
                              "(tol 1e-08)")


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
    _, frame = _one_frame()
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
    tagged = make_dataclass("Tagged", [("values", np.ndarray), ("tag", str)],
                            bases=(Record,), frozen=True)(np.ones(2), "x")
    assert tagged.tag == "x" and not tagged.values.flags.writeable


# ---------------------------------------------------------------------------
# input guards use the same rule: a NaN gap never passes, and a non-finite
# input is caught before any product
# ---------------------------------------------------------------------------

def _one_frame():
    system = build_clifford_system(2, 2)
    return system, build_frame(system, sample_focal_points(system, 1, 0))


def _bad_frame_point(value):
    system = build_clifford_system(1, 3)
    x = np.array(sample_focal_points(system, 1, 0))
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


GUARDS = [
    ("build_frame", _bad_frame_point, ValueError, "point 0: non-finite"),
    ("certify_point", _bad_coefficient_row, ValueError, "point 0, normal 1:"),
    ("shape_operator", _bad_shape_operator, ValueError,
     "point 0: shape operators have non-finite"),
    ("sphere_derivatives", _bad_sphere_row, ValueError, "row 1 "),
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


@pytest.mark.parametrize("shape", [(4, 6), (2, 12), (24,), (3, 1, 8)],
                         ids=["4x6", "2x12", "24", "3x1x8"])
def test_build_frame_rejects_a_stack_of_the_wrong_width(shape):
    # three sampled (2, 2) points (2l = 8) cut to another shape: read as
    # rows of 8 they would be points again, made of coordinates of
    # different points, so build_frame names the shape instead
    system = build_clifford_system(2, 2)
    x = sample_focal_points(system, 3, 0).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(
            f"point shape {shape} is not (8,) or (P, 8)")):
        build_frame(system, x)
