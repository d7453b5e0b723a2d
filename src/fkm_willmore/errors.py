"""Exception types raised by the verification pipeline.

Everything here signals a *detected* problem: either the requested
configuration is impossible, or a numerical routine left its guaranteed
regime.  Identity checks that merely come out false never raise; they are
returned as failing records.Check values and reported by the report module.
"""

from __future__ import annotations

__all__ = [
    "AdmissibilityError",
    "CertificationError",
    "FrameError",
    "MultiplicityError",
    "SpectrumError",
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
    """A candidate point failed certification; the message names the point
    and the residuals that failed."""


class FrameError(RuntimeError):
    """An assembled frame failed its orthonormality check."""


class SpectrumError(RuntimeError):
    """A shape-operator eigenvalue landed outside every expected cluster."""


class MultiplicityError(RuntimeError):
    """Eigenvalue clusters have the wrong sizes."""
