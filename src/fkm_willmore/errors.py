"""The one exception type of the verification pipeline.

AdmissibilityError signals that the requested configuration is
impossible.  Nothing raises on measured data: an identity that comes out
false, a point that fails certification or a system with a non-finite
entry leaves residuals that fail their block of the report.  Inputs that
a library caller hands to a stage in a form it cannot read (a non-finite
row or operator) raise ValueError.
"""

from __future__ import annotations

__all__ = ["AdmissibilityError"]


class AdmissibilityError(ValueError):
    """The requested pair (m, k) leaves no room for a focal manifold.

    Carries the computed second multiplicity m2 = l - m - 1, which must be
    at least 1 for the construction to make sense.
    """

    def __init__(self, message: str, m2: int | None = None):
        super().__init__(message)
        self.m2 = m2
