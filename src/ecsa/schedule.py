"""Cosine annealing with warm restarts for the discovery rate and step size.

Within a cycle of length ``t_i`` the emitted value decays along a half
cosine from ``eta_max`` (cycle start) to ``eta_min``; when the position
counter reaches the cycle length the schedule restarts at ``eta_max``
and the next cycle is ``ceil(t_i * t_mult)`` iterations long.  A cycle
therefore emits values at positions ``0 .. t_i - 1``: the ``eta_min``
endpoint is approached but the restart fires before it is emitted, so
with ``t_i = 100`` the values at iterations 0, 100, 300 (with
``t_mult = 2``) are all exactly ``eta_max``.

The standard algorithm uses constant arrays; a degenerate schedule
(``eta_min == eta_max``) emits exactly that constant, which makes the
enhanced variant with constant schedules bit-identical to the standard
one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import checked_int


def cosine_schedule(eta_min: float, eta_max: float, t0: int, t_mult: float, n: int) -> np.ndarray:
    """The first ``n`` values ``eta_min + (eta_max - eta_min)(1 + cos(pi t_cur / t_i)) / 2``.

    ``t_cur`` counts up from 0 within a cycle; the first cycle has
    ``t_i = t0`` and each restart multiplies it by ``t_mult`` (rounded up).
    A restart whose cycle length overflows to infinity raises; restarts
    are computed only when a value after them is emitted.
    Values are computed with the scalar ``math.cos`` so they do not depend
    on numpy's vectorized kernels.
    """
    if eta_min > eta_max:
        raise ValueError(f"eta_min={eta_min} must be <= eta_max={eta_max}")
    t0 = checked_int("t0", t0, 1)
    if not t_mult >= 1.0:
        raise ValueError(f"t_mult must be >= 1, got {t_mult}")
    span = eta_max - eta_min
    values = np.empty(checked_int("n", n, 0))
    t_i, t_cur = t0, 0
    for k in range(n):
        if t_cur == t_i:
            length = t_i * t_mult
            if not math.isfinite(length):
                raise ValueError(
                    f"t_mult={t_mult} is too large: the restart after a cycle of {t_i} "
                    f"iterations would last {length} iterations"
                )
            t_i, t_cur = int(math.ceil(length)), 0
        values[k] = eta_min + 0.5 * span * (1.0 + math.cos(math.pi * t_cur / t_i))
        t_cur += 1
    return values
