"""Heavy-tailed Levy-flight step sampler (Mantegna's construction).

A step coordinate is ``u / |v|**(1/beta)`` with ``u ~ N(0, sigma_u**2)``
and ``v ~ N(0, 1)``, where ``sigma_u`` is Mantegna's closed form of the
stability index ``beta``.  :func:`levy_steps` takes ``beta`` itself, a
float, and derives ``sigma_u`` from it.  All normals come from the pinned
Box-Muller transform (:func:`ecsa.rng.box_muller`), drawn as one ``u``
block followed by one ``v`` block (row-major for matrices), so streams are
reproducible.
"""

from __future__ import annotations

import math

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


def levy_steps(beta: float, u: np.ndarray, v: np.ndarray, out=None, work=None) -> np.ndarray:
    """Mantegna steps ``sigma_u * u / |v| ** (1 / beta)`` from standard normals.

    ``sigma_u`` is :func:`mantegna_sigma` of ``beta``, which raises on a
    ``beta`` outside (0, 2] before any array is written.  Elementwise, so
    ``u`` and ``v`` may have any (equal) shape: the engine passes one row
    of normals per trial, drawn as the ``u`` block and then the ``v``
    block.  ``out`` receives the steps and ``work`` the scale
    ``|v| ** (1 / beta)``; each may be its own input array (the engine
    passes ``out=u, work=v``), and a missing one is allocated.
    """
    sigma_u = mantegna_sigma(beta)
    scale = np.abs(v, out=work)
    np.power(scale, 1.0 / beta, out=scale)
    steps = np.multiply(u, sigma_u, out=out)
    return np.divide(steps, scale, out=steps)
