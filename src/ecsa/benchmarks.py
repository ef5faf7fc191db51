"""Classic global-optimization test suite (13 functions, F1-F13).

Seven unimodal functions (Sphere, Schwefel 2.22, Schwefel 1.20,
Schwefel 2.21, Rosenbrock, Step, Quartic Noise) and six multimodal ones
(Rastrigin, Ackley, Griewank, Schwefel, Generalized Penalized 1 and 2)
with their standard search boxes.  Default dimension is 15.

Evaluation is strict: a point outside the declared box or with the
wrong dimension raises, which surfaces optimizer bound bugs instead of
silently scoring infeasible points.  Only F7 consumes randomness (one
additive uniform [0, 1) noise draw per evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SearchBox, checked_int
from .rng import RandomSource

DEFAULT_DIM = 15

SCHWEFEL_ARGMIN = 420.9687
SCHWEFEL_OPTIMUM_PER_DIM = -418.9829


@dataclass(frozen=True)
class ObjectiveSpec:
    """One benchmark function: identity, box and known optimum metadata."""

    id: str
    name: str
    dim: int
    box: SearchBox
    known_optimum_value: float
    known_optimizer: np.ndarray
    stochastic: bool = False


def _f1(X):
    return (X**2).sum(axis=1)


def _f2(X):
    a = np.abs(X)
    return a.sum(axis=1) + a.prod(axis=1)


def _f3(X):
    return (np.cumsum(X, axis=1) ** 2).sum(axis=1)


def _f4(X):
    return np.abs(X).max(axis=1)


def _f5(X):
    return (100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (X[:, :-1] - 1.0) ** 2).sum(axis=1)


def _f6(X):
    return (np.floor(X + 0.5) ** 2).sum(axis=1)


def _f7(X, noise):
    weights = np.arange(1, X.shape[1] + 1)
    return (weights * X**4).sum(axis=1) + noise


def _f8(X):
    return (X**2 - 10.0 * np.cos(2.0 * np.pi * X) + 10.0).sum(axis=1)


def _f9(X):
    d = X.shape[1]
    radial = -20.0 * np.exp(-0.2 * np.sqrt((X**2).sum(axis=1) / d))
    cosine = -np.exp(np.cos(2.0 * np.pi * X).sum(axis=1) / d)
    return 20.0 + np.e + radial + cosine


def _f10(X):
    denominators = np.sqrt(np.arange(1, X.shape[1] + 1))
    return (X**2).sum(axis=1) / 4000.0 - np.cos(X / denominators).prod(axis=1) + 1.0


def _f11(X):
    return -(X * np.sin(np.sqrt(np.abs(X)))).sum(axis=1)


def _penalty(X):
    """The penalized functions' boundary term: the sum of ``100 (|x| - 5)**4`` over ``|x| > 5``."""
    over = X > 5.0
    under = X < -5.0
    out = np.zeros_like(X)
    out[over] = 100.0 * (X[over] - 5.0) ** 4
    out[under] = 100.0 * (-X[under] - 5.0) ** 4
    return out.sum(axis=1)


def _f12(X):
    d = X.shape[1]
    y = 1.0 + (X + 1.0) / 4.0
    total = 10.0 * np.sin(np.pi * y[:, 0]) ** 2
    total += ((y[:, :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[:, 1:]) ** 2)).sum(axis=1)
    total += (y[:, -1] - 1.0) ** 2
    return np.pi / d * total + _penalty(X)


def _f13(X):
    total = np.sin(3.0 * np.pi * X[:, 0]) ** 2
    total += ((X[:, :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * X[:, 1:]) ** 2)).sum(axis=1)
    total += (X[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * X[:, -1]) ** 2)
    return 0.1 * total + _penalty(X)


# id: (name, box half-width, kernel, optimizer coordinate, optimum per dimension, group)
_DEFINITIONS = {
    "F1": ("Sphere", 100.0, _f1, 0.0, 0.0, "unimodal"),
    "F2": ("Schwefel 2.22", 10.0, _f2, 0.0, 0.0, "unimodal"),
    "F3": ("Schwefel 1.20", 100.0, _f3, 0.0, 0.0, "unimodal"),
    "F4": ("Schwefel 2.21", 100.0, _f4, 0.0, 0.0, "unimodal"),
    "F5": ("Rosenbrock", 30.0, _f5, 1.0, 0.0, "unimodal"),
    "F6": ("Step", 100.0, _f6, 0.0, 0.0, "unimodal"),
    "F7": ("Quartic Noise", 1.28, _f7, 0.0, 0.0, "unimodal"),
    "F8": ("Rastrigin", 5.12, _f8, 0.0, 0.0, "multimodal"),
    "F9": ("Ackley", 32.0, _f9, 0.0, 0.0, "multimodal"),
    "F10": ("Griewank", 600.0, _f10, 0.0, 0.0, "multimodal"),
    "F11": ("Schwefel", 500.0, _f11, SCHWEFEL_ARGMIN, SCHWEFEL_OPTIMUM_PER_DIM, "multimodal"),
    "F12": ("Generalized Penalized 1", 50.0, _f12, -1.0, 0.0, "multimodal"),
    "F13": ("Generalized Penalized 2", 50.0, _f13, 1.0, 0.0, "multimodal"),
}

FUNCTION_IDS = tuple(_DEFINITIONS)
UNIMODAL_IDS, MULTIMODAL_IDS = (tuple(fid for fid, row in _DEFINITIONS.items() if row[5] == group)
                                for group in ("unimodal", "multimodal"))


def check_suite_dim(dim: int) -> None:
    """Raise ``ValueError`` unless ``dim`` is an integer >= 2, without building any array.

    One rule for every function: at 1-D Rosenbrock has no terms and is always 0.
    """
    if checked_int("dim", dim) < 2:
        raise ValueError(f"benchmark functions require dim >= 2, got {dim}")


def suite(dim: int = DEFAULT_DIM) -> list[ObjectiveSpec]:
    """All 13 specs in F1..F13 order at the given dimension."""
    return [get_spec(fid, dim) for fid in FUNCTION_IDS]


def get_spec(function_id: str, dim: int = DEFAULT_DIM) -> ObjectiveSpec:
    if function_id not in _DEFINITIONS:
        raise ValueError(f"unknown benchmark function {function_id!r}")
    check_suite_dim(dim)
    name, half_width, _, coordinate, optimum_per_dim, _ = _DEFINITIONS[function_id]
    return ObjectiveSpec(
        id=function_id,
        name=name,
        dim=dim,
        box=SearchBox.cube(dim, -half_width, half_width),
        known_optimum_value=optimum_per_dim * dim,
        known_optimizer=np.full(dim, coordinate),
        stochastic=function_id == "F7",
    )


def evaluate_many(spec: ObjectiveSpec, X, rng: RandomSource | None = None) -> np.ndarray:
    """Row-wise evaluation of a ``(n, dim)`` batch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dim:
        raise ValueError(f"{spec.id} expects shape (n, {spec.dim}), got {X.shape}")
    if (X < spec.box.lower).any() or (X > spec.box.upper).any():
        raise ValueError(f"{spec.id}: point outside the search box")
    kernel = _DEFINITIONS[spec.id][2]
    if spec.stochastic:
        if rng is None:
            raise ValueError(f"{spec.id} is stochastic and needs a RandomSource")
        return kernel(X, rng.random(X.shape[0]))
    return kernel(X)


class BenchmarkObjective:
    """A spec bound to a run's random source, ready for an optimizer.

    Exposes both the single-point call and ``evaluate_many`` so the
    optimizer can evaluate whole populations in one shot; F7's noise is
    drawn from the bound source, one value per evaluated row, in row
    order.
    """

    def __init__(self, spec: ObjectiveSpec, rng: RandomSource | None = None):
        self.spec = spec
        self.rng = rng

    def __call__(self, x) -> float:
        """Evaluate one point (strict dimension and bounds checks)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"{self.spec.id} expects a 1-D point, got shape {x.shape}")
        return float(evaluate_many(self.spec, x[None, :], self.rng)[0])

    def evaluate_many(self, X) -> np.ndarray:
        return evaluate_many(self.spec, X, self.rng)
