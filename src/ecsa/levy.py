"""Heavy-tailed Levy-flight step sampler (Mantegna's construction).

A step coordinate is ``u / |v|**(1/beta)`` with ``u ~ N(0, sigma_u**2)``
and ``v ~ N(0, 1)``, where ``sigma_u`` is Mantegna's closed form.  All
normals come from the pinned Box-Muller transform
(:func:`ecsa.rng.box_muller`), drawn as one ``u`` block followed by one
``v`` block (row-major for matrices), so streams are reproducible and
scale-coherent: doubling ``sigma_u`` exactly doubles every ``u``
component under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def mantegna_sigma(beta: float) -> float:
    """Mantegna scale for stability index ``beta`` in (0, 2].

    ``sigma = [Gamma(1+b) sin(pi b/2) / (Gamma((1+b)/2) b 2**((b-1)/2))]**(1/b)``
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (0, 2], got {beta}")
    numerator = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    denominator = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (numerator / denominator) ** (1.0 / beta)


@dataclass(frozen=True)
class LevyParams:
    """Stability index and its derived Mantegna scale.

    ``sigma_u`` defaults to the closed form for ``beta``; passing it
    explicitly rescales the ``u`` normals (used by scale-coherence
    tests), not the tail exponent.
    """

    beta: float = 1.5
    sigma_u: float = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.beta <= 2.0:
            raise ValueError(f"beta must be in (0, 2], got {self.beta}")
        if self.sigma_u is None:
            object.__setattr__(self, "sigma_u", mantegna_sigma(self.beta))
        elif self.sigma_u <= 0.0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")


def levy_steps(params: LevyParams, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mantegna steps ``sigma_u * u / |v| ** (1 / beta)`` from standard normals.

    Elementwise, so ``u`` and ``v`` may have any (equal) shape: the engine
    passes one row of normals per trial, drawn as the ``u`` block and then
    the ``v`` block.
    """
    scale = np.abs(v)
    np.power(scale, 1.0 / params.beta, out=scale)
    return np.divide(params.sigma_u * u, scale, out=scale)
