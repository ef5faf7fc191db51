"""Sobol low-discrepancy sequence generator.

Points are produced with the Gray-code (Antonov-Saleev) recurrence: point
``n`` is the previous point XOR-ed with the direction number indexed by
the lowest zero bit of ``n - 1``.  Direction numbers are built from the
primitive-polynomial initialisation table shipped with the package
(``data/sobol_direction_numbers.txt``, one line per dimension in the
``d s a m_1 ... m_s`` layout), which covers dimensions up to 1111; a
dimension reads only the table's lines up to its own.

Fractions use 32 fixed-point bits, so coordinates live on the grid
``k / 2**32`` and the generator supports ``2**32 - 1`` points.  The
all-zeros point of index 0 is never emitted: the first point emitted is
the point of index 1.  Skipping the origin keeps an exactly-optimal corner
candidate out of initial populations, at the cost that an emitted block
of ``2**k`` points is offset by one from the dyadic block the classic
equidistribution guarantees apply to (the origin plus the first
``2**k - 1`` emitted points form such a block).
"""

from __future__ import annotations

import importlib.resources
from contextlib import closing
from functools import cache

import numpy as np

from .core import SearchBox, checked_int

BITS = 32
_SCALE = float(2**BITS)

_TABLE_RESOURCE = "sobol_direction_numbers.txt"


def _table_rows():
    """The table's ``(s, a, m)`` rows for dimensions 2, 3, ... in file order.

    A malformed line, one out of dimension order and one with fewer or more
    initial values than its degree ``s`` raise ``ValueError`` naming the line.
    """
    resource = importlib.resources.files("ecsa.data").joinpath(_TABLE_RESOURCE)
    with resource.open(encoding="utf-8") as lines:
        dim = 2
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                d, s, a, *m = map(int, line.split())
            except ValueError as exc:
                raise ValueError(f"malformed direction-number line {lineno}: {line!r}") from exc
            if d != dim or len(m) != s:
                raise ValueError(f"direction-number line {lineno}: expected dimension {dim} "
                                 f"with {s} initial values, got {line!r}")
            yield s, a, m
            dim += 1


def check_dim(dim: int) -> None:
    """Raise ``ValueError`` unless ``dim`` is an integer >= 1 that the direction-number table covers."""
    _direction_numbers(checked_int("dim", dim, 1))


@cache
def _direction_numbers(dim: int) -> np.ndarray:
    """Direction numbers as a read-only ``(dim, BITS)`` uint64 array of V_j values.

    Dimension 1 is the canonical sequence ``V_j = 2**(BITS - j)``; higher
    dimensions expand their ``m`` initials with the primitive-polynomial
    recurrence ``m_j = 2 a_1 m_{j-1} ^ ... ^ 2**s m_{j-s} ^ m_{j-s}``.
    Only the table's first ``dim - 1`` rows are read, and a table that ends
    first raises ``ValueError`` before any array is made.  Built once per
    dimension, then shared by every generator; ``dim`` is an integer ``>= 1``.
    """
    with closing(_table_rows()) as table:  # the file closes when the last row needed is read
        rows = [row for _, row in zip(range(dim - 1), table)]
    if len(rows) < dim - 1:
        raise ValueError(f"dim={dim} exceeds direction-number table capacity {len(rows) + 1}")
    v = np.zeros((dim, BITS), dtype=np.uint64)
    v[0] = [1 << (BITS - j) for j in range(1, BITS + 1)]
    for d, (s, a, m) in enumerate(rows, start=2):
        for j in range(s, BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d - 1] = [m[j] << (BITS - 1 - j) for j in range(BITS)]
    v.flags.writeable = False
    return v


class SobolSequence:
    """Stateful Sobol point emitter for a fixed dimension.

    Single-owner: instances are not synchronised.  Two generators with
    the same ``dim`` emit identical streams.
    """

    def __init__(self, dim: int):
        self.dim = checked_int("dim", dim, 1)
        self.direction_numbers = _direction_numbers(self.dim)
        self.current = np.zeros(self.dim, dtype=np.uint64)
        self.index = 0  # points emitted so far; point 0 (origin) is skipped

    def take(self, count: int) -> np.ndarray:
        """Emit ``count`` consecutive points as a ``(count, dim)`` array.

        A cumulative XOR of the Gray-code columns onto the current point,
        so consecutive takes continue one stream.
        """
        count = checked_int("count", count, 0)
        if self.index + count > 2**BITS - 1:
            raise RuntimeError(f"Sobol generator exhausted after 2**{BITS} - 1 points")
        n = np.arange(self.index, self.index + count, dtype=np.uint64)
        # exponent of the lowest zero bit of each counter (frexp is exact on powers of two)
        columns = np.frexp((~n & (n + np.uint64(1))).astype(float))[1] - 1
        block = np.bitwise_xor.accumulate(self.direction_numbers[:, columns].T, axis=0)
        points = block ^ self.current
        if count:
            self.current = points[-1].copy()
            self.index += count
        return points / _SCALE


def sobol_population(box: SearchBox, count: int) -> np.ndarray:
    """First ``count`` Sobol points affinely mapped onto ``box``.

    Coordinate ``k`` of each point becomes
    ``lower[k] + u * (upper[k] - lower[k])``; the first returned vector is
    the box midpoint (unit-cube point ``0.5`` in every coordinate).
    """
    unit = SobolSequence(box.dim).take(checked_int("count", count, 1))
    return box.lower + unit * box.width
