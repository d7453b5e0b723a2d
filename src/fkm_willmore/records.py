"""The fold that aggregates the residuals, and the base of the stage
records, which take over their arrays read-only.  Holding a residual to
its tolerance is the report's business (report._block)."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["fold", "freeze"]


def freeze(value) -> np.ndarray:
    """`value` as a read-only array.

    An array that owns its data is taken over: it is set read-only in place
    and returned as is.  A view is copied first, since its base may still
    be written; anything else becomes a new array.
    """
    out = np.asarray(value)
    if out.base is not None:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Record:
    """Base of the per-stage records: each array field is frozen (freeze),
    so a record takes over the arrays it is built from; other fields pass
    through unchanged."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, f.name, freeze(value))


def fold(values, axis: int | None = None):
    """The worst of `values`: their maximum, NaN if any of them is NaN,
    0.0 for none.  With `axis`, the worst along that axis, as an array.
    The ufunc's own reduce: np.max is the same reduce behind a wrapper."""
    worst = np.maximum.reduce(values, axis=axis, initial=0.0)
    return float(worst) if axis is None else worst
