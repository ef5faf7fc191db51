"""Heavy-tailed Levy-flight step sampler (Mantegna's construction).

A step coordinate is ``sigma_u * u / |v|**(1/beta)`` with ``u`` and ``v``
standard normals, where ``sigma_u`` is Mantegna's closed form of the
stability index ``beta``.  As in Mantegna (1994) and Yang & Deb (2009),
``beta`` is fixed at :data:`LEVY_BETA` = 1.5, so ``sigma_u`` is a
constant, about 0.6966.  :func:`levy_steps` is the one kernel: it turns a
``u`` block and a ``v`` block of uniforms, drawn in that order, into
normals by a Box-Muller transform of consecutive pairs, then into steps.

The normals deliberately avoid the bit generator's native ziggurat
sampler: the Box-Muller transform is fixed here once and cannot drift
between library versions, which keeps pinned regression values valid.
"""

from __future__ import annotations

import math

import numpy as np

LEVY_BETA = 1.5

# Mantegna's sigma_u = [G(1+b) sin(pi b/2) / (G((1+b)/2) b 2**((b-1)/2))]**(1/b) at b = LEVY_BETA
_SIGMA_U = (
    math.gamma(1.0 + LEVY_BETA) * math.sin(math.pi * LEVY_BETA / 2.0)
    / (math.gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


def _box_muller(u: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs along the last axis of ``u``, in place.

    Each pair ``(u1, u2)`` of consecutive values becomes
    ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``,
    ``z1 = r sin(2 pi u2)`` in the same two places of ``u``, which is
    returned; ``radius`` holds ``r``.
    """
    first, angle = u[..., 0::2], u[..., 1::2]
    np.negative(first, out=radius)
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    np.cos(angle, out=first)
    np.multiply(radius, first, out=first)
    np.sin(angle, out=angle)
    np.multiply(radius, angle, out=angle)
    return u


def levy_steps(u: np.ndarray, v: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Mantegna steps from the uniform blocks ``u`` and ``v``, in place.

    Box-Muller turns each block into standard normals, pairs of
    consecutive values along the last axis, so that axis has even length.
    The steps ``sigma_u * u / |v| ** (1 / LEVY_BETA)`` are then written
    over ``u``, which is returned, and the scale ``|v| ** (1 / LEVY_BETA)``
    over ``v``.  ``radius`` is a contiguous
    ``(*u.shape[:-1], u.shape[-1] // 2)`` work array (the engine passes
    one allocated once per stack).  Every kernel is elementwise, so one
    row per trial of a stacked block gives the bits of that trial's
    uniforms transformed alone.
    """
    _box_muller(u, radius)
    _box_muller(v, radius)
    np.abs(v, out=v)
    np.power(v, 1.0 / LEVY_BETA, out=v)
    np.multiply(u, _SIGMA_U, out=u)
    return np.divide(u, v, out=u)
