"""Shared domain types: bounded search boxes and evaluated candidates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box constraining the decision variables.

    ``lower`` and ``upper`` are per-dimension arrays with
    ``lower[k] < upper[k]`` for every ``k``.
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
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ValueError("search box bounds must be finite")
        if not np.all(lower < upper):
            bad = int(np.argmin(upper - lower))
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
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))

    @classmethod
    def unit(cls, dim: int) -> "SearchBox":
        return cls.cube(dim, 0.0, 1.0)


def as_search_box(bounds) -> SearchBox:
    """Coerce a SearchBox, an (N, 2) pair list or a (lower, upper) pair."""
    if isinstance(bounds, SearchBox):
        return bounds
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return SearchBox(arr[:, 0], arr[:, 1])
    if arr.ndim == 2 and arr.shape[0] == 2:
        return SearchBox(arr[0], arr[1])
    raise ValueError(
        "bounds must be a SearchBox, an (N, 2) array of (lower, upper) rows, "
        "or a (lower_vector, upper_vector) pair"
    )


@dataclass
class Candidate:
    """One nest: a position inside the box and its cached objective value."""

    position: np.ndarray
    fitness: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.fitness = float(self.fitness)
