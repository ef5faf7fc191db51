"""Deterministic random source used by every stochastic component.

All randomness flows through :class:`RandomSource` so that an optimization
run is reproducible from a single 64-bit seed.  The raw stream is the
[0, 1) double stream of a PCG64 bit generator; every other variate is a
pinned, documented transform of that stream:

* ``uniform(lo, hi)``   -> ``lo + (hi - lo) * u``
* ``integers(n)``       -> ``floor(u * n)``
* ``normal(...)``       -> Box-Muller over consecutive uniform pairs

Normal variates deliberately avoid the bit generator's native ziggurat
sampler: the Box-Muller transform is fixed here once and cannot drift
between library versions, which keeps pinned regression values valid.
"""

from __future__ import annotations

import numpy as np

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


class RandomSource:
    """Seeded random stream with value semantics suitable for one trial.

    Parameters
    ----------
    seed : int
        64-bit seed.  Values outside ``[0, 2**64)`` are reduced modulo
        ``2**64``.  Same seed, same stream, bit for bit.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _UINT64_MASK
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def spawn(self, index: int) -> "RandomSource":
        """Derive an independent stream for parallel trial ``index``.

        Trial streams are defined as ``seed + index`` (mod 2**64) so a
        trial's stream does not depend on how many other trials run.
        """
        if index < 0:
            raise ValueError(f"trial index must be non-negative, got {index}")
        return RandomSource((self.seed + index) & _UINT64_MASK)

    # -- raw stream ---------------------------------------------------------

    def random(self, size=None, out=None):
        """Raw [0, 1) doubles; scalar float when ``size`` and ``out`` are None.

        ``out``, a C-contiguous float64 array, receives the values in place
        of a new array (the same values a ``size`` of its shape gives).
        """
        if size is None and out is None:
            return float(self._gen.random())
        return self._gen.random(size, out=out)

    # -- pinned transforms --------------------------------------------------

    def uniform(self, lo: float, hi: float, size=None):
        """Uniform draw(s) in ``[lo, hi)``.

        Raises
        ------
        ValueError
            If ``lo >= hi`` (degenerate or inverted range).
        """
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got lo={lo}, hi={hi}")
        return lo + (hi - lo) * self.random(size)

    def integers(self, n: int, size=None):
        """Integer draw(s) in ``[0, n)`` via ``floor(u * n)``."""
        if n < 1:
            raise ValueError(f"integers requires n >= 1, got {n}")
        if size is None:
            return int(self.random() * n)
        return np.floor(self.random(size) * n).astype(np.int64)

    def normal(self, size=None):
        """Standard normal draw(s) via the Box-Muller transform.

        Consumes uniforms in pairs ``(u1, u2)`` (see :func:`box_muller`).
        An odd request discards the trailing sine variate, so
        ``normal(n)`` always consumes ``2 * ceil(n/2)`` uniforms.
        """
        if size is None:
            return float(self.normal(1)[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape))
        if n == 0:
            return np.empty(shape)
        return box_muller(self._gen.random(2 * ((n + 1) // 2)))[:n].reshape(shape)


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs along the last axis of ``u``.

    Each pair ``(u1, u2)`` of consecutive values becomes
    ``r = sqrt(-2 ln(1 - u1))``, ``z0 = r cos(2 pi u2)``,
    ``z1 = r sin(2 pi u2)`` in the same two places.  The kernels are
    elementwise, so a row of a stacked block gives the same bits as the
    same uniforms transformed alone.  Intermediates are reused in place,
    which keeps the allocations per call to four.
    """
    radius = np.negative(u[..., 0::2])
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty_like(u)
    wave = np.cos(theta)
    np.multiply(radius, wave, out=z[..., 0::2])
    np.sin(theta, out=wave)
    np.multiply(radius, wave, out=z[..., 1::2])
    return z


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
    return (int(base_seed) + offset) & _UINT64_MASK
