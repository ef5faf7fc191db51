"""Sobol low-discrepancy sequence generator.

Points are produced with the Gray-code (Antonov-Saleev) recurrence: point
``n`` is the previous point XOR-ed with the direction number indexed by
the lowest zero bit of ``n - 1``.  Direction numbers are built from the
primitive-polynomial initialisation table shipped with the package
(``data/sobol_direction_numbers.txt``, one line per dimension in the
``d s a m_1 ... m_s`` layout), which covers dimensions up to 1111.

Fractions use 32 fixed-point bits, so coordinates live on the grid
``k / 2**32`` and the generator supports ``2**32 - 1`` points.  The
all-zeros point of index 0 is never emitted: the first call returns the
point of index 1.  Skipping the origin keeps an exactly-optimal corner
candidate out of initial populations, at the cost that an emitted block
of ``2**k`` points is offset by one from the dyadic block the classic
equidistribution guarantees apply to (the origin plus the first
``2**k - 1`` emitted points form such a block).
"""

from __future__ import annotations

import importlib.resources
from functools import lru_cache

import numpy as np

from .core import SearchBox

BITS = 32
_SCALE = float(2**BITS)

_TABLE_RESOURCE = "sobol_direction_numbers.txt"


@lru_cache(maxsize=None)
def _load_table(path: str | None = None):
    """Parse the direction-number table into ``{dim: (s, a, m-list)}``."""
    if path is None:
        source = (
            importlib.resources.files("ecsa.data")
            .joinpath(_TABLE_RESOURCE)
            .read_text()
        )
    else:
        with open(path) as handle:
            source = handle.read()
    table = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            d, s, a = int(fields[0]), int(fields[1]), int(fields[2])
            m = [int(v) for v in fields[3:]]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"malformed direction-number line {lineno}: {line!r}") from exc
        if len(m) != s:
            raise ValueError(
                f"direction-number line {lineno}: expected {s} initial values, got {len(m)}"
            )
        table[d] = (s, a, m)
    return table


def table_capacity(path: str | None = None) -> int:
    """Highest dimension supported by the direction-number table."""
    return max(_load_table(path))


@lru_cache(maxsize=None)
def _direction_numbers(dim: int, path: str | None = None) -> np.ndarray:
    """Direction numbers as a read-only ``(dim, BITS)`` uint64 array of V_j values.

    Dimension 1 is the canonical sequence ``V_j = 2**(BITS - j)``; higher
    dimensions expand their ``m`` initials with the primitive-polynomial
    recurrence ``m_j = 2 a_1 m_{j-1} ^ ... ^ 2**s m_{j-s} ^ m_{j-s}``.
    Built once per dimension and table, then shared by every generator.
    """
    table = _load_table(path)
    capacity = max(table)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim > capacity:
        raise ValueError(
            f"dim={dim} exceeds direction-number table capacity {capacity}; "
            "supply a larger table file"
        )
    v = np.zeros((dim, BITS), dtype=np.uint64)
    v[0] = [1 << (BITS - j) for j in range(1, BITS + 1)]
    for d in range(2, dim + 1):
        s, a, m_init = table[d]
        m = list(m_init)
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

    def __init__(self, dim: int, table_path: str | None = None):
        self.dim = int(dim)
        self.direction_numbers = _direction_numbers(self.dim, table_path)
        self.current = np.zeros(self.dim, dtype=np.uint64)
        self.index = 0  # points emitted so far; point 0 (origin) is skipped

    def next_point(self) -> np.ndarray:
        """Emit the next point of the sequence, coordinates in [0, 1)."""
        if self.index >= 2**BITS - 1:
            raise RuntimeError(f"Sobol generator exhausted after 2**{BITS} - 1 points")
        # Lowest zero bit of the running counter selects the XOR column.
        n = self.index
        column = 0
        while n & 1:
            n >>= 1
            column += 1
        self.current ^= self.direction_numbers[:, column]
        self.index += 1
        return self.current / _SCALE

    def take(self, count: int) -> np.ndarray:
        """Emit ``count`` consecutive points as a ``(count, dim)`` array.

        The same points as ``count`` calls to :meth:`next_point`: a
        cumulative XOR of the Gray-code columns onto the current point.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
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


def sobol_population(dim: int, count: int, box: SearchBox) -> np.ndarray:
    """First ``count`` Sobol points affinely mapped onto ``box``.

    Coordinate ``k`` of each point becomes
    ``lower[k] + u * (upper[k] - lower[k])``; the first returned vector is
    the box midpoint (unit-cube point ``0.5`` in every coordinate).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if box.dim != dim:
        raise ValueError(f"box dimension {box.dim} does not match dim={dim}")
    unit = SobolSequence(dim).take(count)
    return box.lower + unit * box.width
