"""Shared domain types: bounded search boxes, and the one integer setting check.

Every count and size (dimension, population, iteration, trial or Sobol count,
schedule length, seed) goes through :func:`checked_int` where it enters, so a
fraction such as ``3.0`` or a value below the minimum fails naming the setting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box constraining the decision variables.

    ``lower`` and ``upper`` are per-dimension arrays with
    ``lower[k] < upper[k]`` for every ``k``, both finite, and a finite
    width ``upper[k] - lower[k]``.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ValueError("search box needs at least one dimension")
        # a non-finite bound gives a non-finite width, and so do finite
        # bounds too far apart: the engine scales uniforms by the width
        with np.errstate(over="ignore", invalid="ignore"):
            width = upper - lower
        if not np.all(np.isfinite(width)):
            bad = int(np.argmin(np.isfinite(width)))
            raise ValueError(
                f"search box bounds and width must be finite, got {upper[bad]} - ({lower[bad]}) "
                f"at index {bad}"
            )
        if not np.all(lower < upper):
            bad = int(np.argmin(width))
            raise ValueError(
                f"lower[{bad}]={lower[bad]} must be < upper[{bad}]={upper[bad]}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchBox":
        """Box with identical bounds in every dimension."""
        dim = checked_int("dim", dim, 1)
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))

    @classmethod
    def unit(cls, dim: int) -> "SearchBox":
        return cls.cube(dim, 0.0, 1.0)


def as_search_box(bounds) -> SearchBox:
    """Coerce a SearchBox or an (N, 2) array of (lower, upper) rows."""
    if isinstance(bounds, SearchBox):
        return bounds
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            "bounds must be a SearchBox(lower, upper) or an (N, 2) array of (lower, upper) "
            f"rows, got shape {arr.shape}"
        )
    return SearchBox(arr[:, 0], arr[:, 1])


def checked_int(name: str, value, minimum: int | None = None) -> int:
    """``operator.index(value)``, at least ``minimum``; anything else raises a ``ValueError`` naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number
