"""Deterministic random source used by every stochastic component.

All randomness flows through :class:`RandomSource` so that an optimization
run is reproducible from a single 64-bit seed.  Two pinned, documented
forms of the stream are used:

* ``random(...)``       -> the raw [0, 1) doubles of a PCG64 bit generator
* ``box_muller(u)``     -> standard normals from consecutive uniform pairs

Normal variates deliberately avoid the bit generator's native ziggurat
sampler: the Box-Muller transform is fixed here once and cannot drift
between library versions, which keeps pinned regression values valid.
"""

from __future__ import annotations

import numpy as np

from .core import checked_int

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


class RandomSource:
    """Seeded random stream with value semantics suitable for one trial.

    Parameters
    ----------
    seed : int
        64-bit seed.  Values outside ``[0, 2**64)`` are reduced modulo
        ``2**64``.  Same seed, same stream, bit for bit.

    The PCG64 generator is made at the first draw, so a worker pool's
    parent, which only builds and pickles sources, never imports
    ``numpy.random``.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _UINT64_MASK
        self._gen = None

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def random(self, size=None, out=None):
        """Raw [0, 1) doubles; a float when ``size`` and ``out`` are None.

        ``out``, a C-contiguous float64 array, receives the values in place
        of a new array (the same values a ``size`` of its shape gives).
        """
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen.random(size, out=out)


def box_muller(u: np.ndarray, out=None, work=None) -> np.ndarray:
    """Standard normals from uniform pairs along the last axis of ``u``.

    Each pair ``(u1, u2)`` of consecutive values becomes
    ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``,
    ``z1 = r sin(2 pi u2)`` in the same two places.  The kernels are
    elementwise, so a row of a stacked block gives the same bits as the
    same uniforms transformed alone.

    The transform runs in place on ``out``, which may be ``u`` itself
    (otherwise ``u`` is copied into it first); ``work`` is a contiguous
    ``(*u.shape[:-1], u.shape[-1] // 2)`` array that holds the radius.
    Either missing array is allocated, so a caller passing neither gets a
    new array and ``u`` is left as it was.  The engine passes both, from
    work arrays allocated once per stack.
    """
    if out is None:
        out = u.copy()
    elif out is not u:
        np.copyto(out, u)
    if work is None:
        work = np.empty((*u.shape[:-1], u.shape[-1] // 2))
    radius, angle = work, out[..., 1::2]
    np.negative(out[..., 0::2], out=radius)
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    np.cos(angle, out=out[..., 0::2])
    np.multiply(radius, out[..., 0::2], out=out[..., 0::2])
    np.sin(angle, out=angle)
    np.multiply(radius, angle, out=angle)
    return out


def as_random_source(seed) -> RandomSource:
    """Coerce ``seed`` (int, None or RandomSource) to a RandomSource.

    ``None`` maps to seed 0 so that omitting a seed still yields a
    reproducible run; pass an explicit seed for anything that matters.
    """
    if isinstance(seed, RandomSource):
        return seed
    if seed is None:
        return RandomSource(0)
    return RandomSource(seed)


def stable_seed(base_seed: int, *labels) -> int:
    """Derive a reproducible 64-bit seed from a base seed and labels.

    Uses SHA-256 over the joined labels (process-independent, unlike
    ``hash``) so adding experiment cells never shifts other cells'
    streams.
    """
    import hashlib

    tag = ":".join(str(label) for label in labels).encode()
    digest = hashlib.sha256(tag).digest()
    offset = int.from_bytes(digest[:8], "big")
    return (checked_int("base_seed", base_seed) + offset) & _UINT64_MASK
