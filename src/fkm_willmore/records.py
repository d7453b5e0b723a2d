"""The one result record of the verifier, the fold that aggregates it, and
the freeze that makes the arrays of every record read-only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Check", "fold", "freeze"]


def freeze(value, dtype=None) -> np.ndarray:
    """A read-only copy of `value` as an array (of `dtype` if given)."""
    out = np.array(value, dtype=dtype)
    out.setflags(write=False)
    return out


def fold(values, axis: int | None = None):
    """The worst of `values`: their maximum, NaN if any of them is NaN,
    0.0 for none.  With `axis`, the worst along that axis, as an array."""
    worst = np.max(values, axis=axis, initial=0.0)
    return float(worst) if axis is None else worst


@dataclass(frozen=True)
class Check:
    """One residual held against its tolerance.

    `name` is the key the residual is reported under.  The check passes
    when residual <= tol, so a NaN residual never passes.
    """

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: residual {self.residual:.3e} "
                f"(tol {self.tol:.1e})")
