"""Heavy-tailed Levy-flight step sampler (Mantegna's construction).

A step coordinate is ``u / |v|**(1/beta)`` with ``u ~ N(0, sigma_u**2)``
and ``v ~ N(0, 1)``, where ``sigma_u`` is Mantegna's closed form of the
stability index ``beta``.  As in Mantegna (1994) and Yang & Deb (2009),
``beta`` is fixed at :data:`LEVY_BETA` = 1.5, so ``sigma_u`` is worked out
once, here.  All normals come from the pinned Box-Muller transform
(:func:`ecsa.rng.box_muller`), drawn as one ``u`` block followed by one
``v`` block (row-major for matrices), so streams are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

LEVY_BETA = 1.5


def mantegna_sigma(beta: float) -> float:
    """Mantegna scale for stability index ``beta`` in (0, 2].

    ``sigma = [Gamma(1+b) sin(pi b/2) / (Gamma((1+b)/2) b 2**((b-1)/2))]**(1/b)``
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (0, 2], got {beta}")
    numerator = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    denominator = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (numerator / denominator) ** (1.0 / beta)


_SIGMA_U = mantegna_sigma(LEVY_BETA)


def levy_steps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mantegna steps ``sigma_u * u / |v| ** (1 / LEVY_BETA)`` from standard normals, in place.

    Elementwise, so ``u`` and ``v`` may have any (equal) shape: the engine
    passes one row of normals per trial, drawn as the ``u`` block and then
    the ``v`` block.  The steps are written over ``u``, which is returned,
    and the scale ``|v| ** (1 / LEVY_BETA)`` over ``v``.
    """
    np.abs(v, out=v)
    np.power(v, 1.0 / LEVY_BETA, out=v)
    np.multiply(u, _SIGMA_U, out=u)
    return np.divide(u, v, out=u)
