"""Deterministic random source used by every stochastic component.

All randomness flows through :class:`RandomSource` so that an optimization
run is reproducible from a single 64-bit seed.  A seed is always an
integer: an estimator's ``fit`` and ``synth_instance`` make their source
with ``RandomSource(seed)``, and :func:`ecsa.optimizer.run_trials` takes
the sources themselves.  The stream has one pinned, documented form,
``random(...)``: the raw [0, 1) doubles of a PCG64 bit generator.  The
Levy steps' normals are made from these uniforms by
:func:`ecsa.levy.levy_steps`.
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
        ``2**64``.  Same seed, same stream, bit for bit.  Anything but
        an integer, a ``bool`` too, raises ``TypeError``.

    The PCG64 generator is made at the first draw, so a worker pool's
    parent, which only builds and pickles sources, never imports
    ``numpy.random``.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
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
