"""Descriptive statistics and the two-sided Wilcoxon rank-sum test.

The rank-sum p-value is exact (full enumeration of rank assignments via
dynamic programming over the midrank multiset) when both samples have at
most EXACT_LIMIT observations, and otherwise uses the normal
approximation with midranks, tie-corrected variance and a 0.5 continuity
correction.  Ties always receive midranks, so midrank sums are multiples
of one half and the enumeration can count over integers after doubling.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_LIMIT = 10
SMALLEST_P = math.ulp(0.0)

COMPARABLE = "comparable"
SIGNIFICANTLY_DIFFERENT = "significantly_different"


def summarize(sample) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n - 1 denominator).

    The spread of a sample holding an infinite value is unbounded, so its
    std is ``inf`` (the formula would give NaN); its mean is infinite, or
    NaN when it holds infinities of both signs.  When a sum or a square
    overflows on finite values (``[1e308, 1e308]``), both are redone on the
    values scaled by a power of two, so they stay finite wherever the true
    value is.
    """
    values = np.asarray(sample, dtype=float)
    if values.size < 2:
        raise ValueError(f"summarize needs at least 2 values, got {values.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, and inf + -inf
        mean, std = values.mean(), values.std(ddof=1)
        if np.isinf(values).any():
            return float(mean), math.inf
        if np.isfinite(values).all() and not np.isfinite([mean, std]).all():
            # scaling by a power of two changes no rounding (short of subnormals)
            _, exponent = np.frexp(np.abs(values).max())
            scaled = np.ldexp(values, -exponent)
            mean, std = np.ldexp([scaled.mean(), scaled.std(ddof=1)], exponent)
    return float(mean), float(std)


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties replaced by the mean of their rank range."""
    order = np.argsort(pooled, kind="stable")
    ordered = pooled[order]
    # a tie group starts where the sorted value changes; NaN != NaN, so every
    # NaN is a group of its own
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, pooled.size])
    ranks = np.empty(pooled.size)
    # a group over sorted positions i..j gets (i + j) / 2 + 1
    ranks[order] = np.repeat((2 * starts + counts - 1) / 2.0 + 1.0, counts)
    return ranks


def _exact_two_sided(doubled_ranks: np.ndarray, n: int, observed_doubled: int) -> float:
    """Exact p by counting n-subsets of the doubled midranks by sum.

    ``counts[k, s]`` is the number of k-subsets with doubled-rank sum s;
    the two-sided p-value is the fraction of subsets whose deviation from
    the mean doubled sum is at least the observed deviation.  Doubled
    midranks are integers and every count is an integer below 2**53, so
    all arithmetic here is exact.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros((n + 1, total + 1))
    counts[0, 0] = 1.0
    for value in doubled_ranks.astype(int):
        # numpy reads the right side as it was before the add, though the
        # slices overlap: each k-subset count gains the old (k - 1)-subset counts
        counts[1:, value:] += counts[:-1, : total + 1 - value]
    n_total = len(doubled_ranks)
    # mean doubled rank-sum of an n-subset: n * (sum of all) / N
    mean_twice = n * total / n_total
    deviation = abs(observed_doubled - mean_twice)
    sums = np.arange(total + 1)
    eligible = np.abs(sums - mean_twice) >= deviation - 1e-9
    extreme = counts[n][eligible].sum()
    return float(extreme / math.comb(n_total, n))


def _normal_two_sided(ranks: np.ndarray, n: int, m: int, observed: float) -> float:
    """Tie-corrected normal approximation with continuity correction.

    The tail is floored at the smallest positive double: for large,
    fully separated samples ``erfc`` underflows to 0.0, and a p-value
    must stay in (0, 1].
    """
    N = n + m
    expected = n * (N + 1) / 2.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts)).sum())
    variance = n * m * (N + 1) / 12.0 - n * m * tie_term / (12.0 * N * (N - 1))
    if variance <= 0.0:
        return 1.0
    z = (abs(observed - expected) - 0.5) / math.sqrt(variance)
    if z <= 0.0:
        return 1.0
    return min(1.0, max(math.erfc(z / math.sqrt(2.0)), SMALLEST_P))


def rank_sum_p(a, b) -> float:
    """Two-sided Wilcoxon-Mann-Whitney rank-sum p-value.

    Exact enumeration when both samples have at most EXACT_LIMIT values,
    normal approximation otherwise.  Symmetric in its arguments.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("rank_sum_p requires non-empty samples")
    pooled = np.concatenate([x, y])
    ranks = _midranks(pooled)
    rank_sum = float(ranks[: x.size].sum())
    if x.size <= EXACT_LIMIT and y.size <= EXACT_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(int)
        observed_doubled = int(np.rint(2.0 * rank_sum))
        return _exact_two_sided(doubled, x.size, observed_doubled)
    return _normal_two_sided(ranks, x.size, y.size, rank_sum)


def decide(p: float, level: float = 0.05) -> str:
    """Apply the decision rule: significantly different iff ``p < level``."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return SIGNIFICANTLY_DIFFERENT if p < level else COMPARABLE
