"""Shared domain types: the search box, and the integer and number setting checks.

A box is ``SearchBox(lower, upper)`` of two 1-D arrays, or ``SearchBox.cube``.
Every count and size (dimension, population, iteration, trial or Sobol count,
schedule length, seed) goes through :func:`checked_int` where it enters, and every
float hyperparameter through :func:`checked_real`, so a fraction such as ``3.0``, a
``bool``, a string or a value below the minimum fails naming the setting.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box constraining the decision variables.

    ``lower`` and ``upper`` are 1-D arrays of equal, nonzero length,
    with ``lower[k] < upper[k]`` for every ``k``, both finite, and a
    finite width ``upper[k] - lower[k]``; a scalar bound, or one of other
    than integers or floats (strings, objects, booleans), is rejected.
    :meth:`cube` gives the same bounds in every dimension.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper"):
            dtype = np.asarray(getattr(self, name)).dtype
            if dtype.kind not in "iuf":
                raise ValueError(f"{name} must hold integers or floats, got dtype {dtype}")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
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
        lower, upper = checked_real("lower", lower), checked_real("upper", upper)
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))


def checked_int(name: str, value, minimum: int | None = None) -> int:
    """``operator.index(value)``, at least ``minimum``; anything else, a ``bool`` too, raises a ``ValueError`` naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def checked_real(name: str, value):
    """``value`` if it is a real number other than a ``bool``; anything else raises a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value
