"""Exception types raised by the verification pipeline.

Everything here signals a *detected* problem: the requested
configuration is impossible, no point of M+ can be built, or no
orthonormal frame can be built at a point.  Identity checks that merely
come out false never raise: their residuals fail a records.Check in the
report, and wrong multiplicities or ranks fail their block.
"""

from __future__ import annotations

__all__ = [
    "AdmissibilityError",
    "CertificationError",
    "FrameError",
]


class AdmissibilityError(ValueError):
    """The requested pair (m, k) leaves no room for a focal manifold.

    Carries the computed second multiplicity m2 = l - m - 1, which must be
    at least 1 for the construction to make sense.
    """

    def __init__(self, message: str, m2: int | None = None):
        super().__init__(message)
        self.m2 = m2


class CertificationError(RuntimeError):
    """No point of M+ can be built from the system: it has a non-finite
    entry, or no seed point.  A point that is built but fails the
    certification rule raises nothing; the points block of the report
    fails and names it."""


class FrameError(RuntimeError):
    """An assembled frame failed its orthonormality check."""

