"""Truncation intervals for dyadic block sums.

A released block of 2^(level-1) samples is projected onto an interval
centered at 2^(level-1) times a prior mean estimate.  The half-width is
chosen so honest Bernoulli block sums are almost never clipped while the
worst-case change a single user can inject drops from the block size to
twice the half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from contmean.median import prior_array_count

__all__ = [
    "TruncationInterval",
    "clamp_bounds",
    "full_prior_split",
    "interval_full",
    "interval_single",
    "project",
    "top_level",
]


@dataclass(frozen=True)
class TruncationInterval:
    """Projection target [center - half_width, center + half_width]."""

    center: float
    half_width: float
    level: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError(f"half_width must be nonnegative, got {self.half_width}")

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width


def _check_params(m: int, n: int, delta: float) -> None:
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")


def interval_single(prior: float, level: int, m: int, n: int, delta: float) -> TruncationInterval:
    """Interval for the prior-assuming estimators at a given release level.

    Half-width: sqrt((2^(level-1)/2) * ln(2 n log2(m) / delta))
                + 2^(level-1)/sqrt(m).
    """
    _check_params(m, n, delta)
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    size = 2.0 ** (level - 1)
    width = math.sqrt((size / 2.0) * math.log(2.0 * n * math.log2(m) / delta))
    width += size / math.sqrt(m)
    return TruncationInterval(center=size * prior, half_width=width, level=level)


def top_level(m: int) -> int:
    """L = ceil(log2 m): the estimators book release levels 0..L for users
    of at most m samples, level L's blocks holding 2^(L-1) of them."""
    return math.ceil(math.log2(m))


def full_prior_split(m: int, delta: float) -> tuple[int, float]:
    """(split, beta) of ``full``'s median prior at each level: it spends
    eps / split with split = 2L, L = ``top_level(m)``, and fails with
    probability at most beta = delta / (3L)."""
    big_l = top_level(m)
    return 2 * big_l, delta / (3 * big_l)


def interval_full(
    prior_ell: float, level: int, n: int, m: int, eps: float, delta: float
) -> TruncationInterval:
    """Interval for the no-prior estimator, sized for a private-median prior.

    Half-width: sqrt((2^(level-1)/2) * ln(2 n log2(m) / (delta/3)))
                + sqrt(2^level * ln(2 k / (delta/3L)))
    with L = ceil(log2 m) and k the array count the level-``level`` median
    prior was computed from, at the budget eps/2L and failure delta/3L of
    ``full_prior_split``.
    """
    _check_params(m, n, delta)
    if level < 2:
        raise ValueError(f"full-estimator truncation starts at level 2, got {level}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    split, beta = full_prior_split(m, delta)
    size = 2.0 ** (level - 1)
    k = prior_array_count(eps / split, level, beta)
    width = math.sqrt((size / 2.0) * math.log(2.0 * n * math.log2(m) / (delta / 3.0)))
    width += math.sqrt(2.0**level * math.log(2.0 * k / beta))
    return TruncationInterval(center=size * prior_ell, half_width=width, level=level)


def clamp_bounds(interval: TruncationInterval, block_size: int) -> tuple[float, float]:
    """The interval intersected with [0, block_size], as (lo, hi), lo <=
    hi: honest sums of ``block_size`` samples in [0, 1] cannot leave that
    range, so this only tightens the sensitivity."""
    lo, hi = max(interval.lo, 0.0), min(interval.hi, float(block_size))
    if not lo <= hi:
        raise ValueError(f"interval [{interval.lo}, {interval.hi}] misses [0, {block_size}]")
    return lo, hi


def project(interval: TruncationInterval, s: float, block_size: int | None = None) -> float:
    """Clamp s into the interval (identity on interior points), first
    intersected with [0, block_size] when a block size is given
    (``clamp_bounds``).  Two comparisons, which ``_EstimatorBase._release``
    inlines, give what min(max(s, lo), hi) gives, ties and signed zeros too."""
    lo, hi = (interval.lo, interval.hi) if block_size is None else clamp_bounds(interval, block_size)
    return lo if s < lo else hi if hi < s else s
