"""User-level private median over [0, 1] via the exponential mechanism.

Per-user samples are packed into k arrays of 2^(level-1) values each, so a
user's data lands in at most two arrays.  Array means are snapped to a grid
of bin midpoints and one midpoint is drawn with probability falling off
exponentially in how far it sits from the median of the snapped means.  The
result is a coarse mean prior, accurate to roughly 2^(-level/2), that later
centers truncation intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from contmean.noise import exp_mechanism_sample
from contmean.streams import StreamEvent

__all__ = [
    "BinGrid",
    "InsufficientDiversityError",
    "MedianRequest",
    "pack_arrays",
    "prior_array_count",
    "private_median",
    "utility_radius",
]


class InsufficientDiversityError(ValueError):
    """Too few distinct-user samples to fill the required arrays."""


def prior_array_count(eps: float, level: int, beta: float) -> float:
    """Required number of arrays: (16/eps) * ln(2^(level/2) / beta).

    Returned as a real number; callers that materialize arrays take the
    ceiling.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return (16.0 / eps) * math.log(2.0 ** (level / 2.0) / beta)


def utility_radius(arrays: int, level: int, delta: float) -> float:
    """Radius 2*sqrt(ln(2k/delta)/2^level) within which the prior lands with
    probability at least 1 - delta - beta."""
    return 2.0 * math.sqrt(math.log(2.0 * arrays / delta) / 2.0**level)


@dataclass(frozen=True)
class MedianRequest:
    """Inputs for one private-median call on the stream history up to now."""

    history: tuple[StreamEvent, ...]
    eps: float
    level: int
    beta: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    @property
    def arrays_required(self) -> int:
        return math.ceil(prior_array_count(self.eps, self.level, self.beta))

    @property
    def array_size(self) -> int:
        return 1 << (self.level - 1)


@dataclass(frozen=True)
class BinGrid:
    """Equal-width bins over [0, 1] (the last one may be shorter) and their
    midpoints."""

    width: float
    midpoints: tuple[float, ...]

    @classmethod
    def for_level(cls, level: int) -> "BinGrid":
        width = 2.0 * 2.0 ** (-level / 2.0)
        edges = [0.0]
        while edges[-1] + width < 1.0 - 1e-12:
            edges.append(edges[-1] + width)
        edges.append(1.0)
        mids = tuple((lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:]))
        return cls(width=width, midpoints=mids)

    def nearest_midpoint(self, y: float) -> float:
        """Closest midpoint to y; ties break toward the smaller midpoint."""
        best = self.midpoints[0]
        best_d = abs(y - best)
        for mid in self.midpoints[1:]:
            d = abs(y - mid)
            if d < best_d - 1e-15:
                best, best_d = mid, d
        return best


def pack_arrays(request: MedianRequest) -> list[list[float]]:
    """Fill k arrays of 2^(level-1) samples from per-user contributions.

    Users are visited in ascending user id; each contributes its first
    min(count, 2^(level-1)) samples in arrival order, written contiguously,
    so no user spans more than two arrays.  Packing stops once the last
    array is full; raises if the history cannot fill all arrays.
    """
    k = request.arrays_required
    size = request.array_size

    per_user: dict[int, list[float]] = {}
    for ev in request.history:
        bucket = per_user.setdefault(ev.user, [])
        if len(bucket) < size:
            bucket.append(ev.value)

    usable = sum(len(v) for v in per_user.values())
    if usable < k * size:
        raise InsufficientDiversityError(
            f"need {k} arrays of {size} samples ({k * size} total) but only "
            f"{usable} user-capped samples are available"
        )

    arrays: list[list[float]] = [[] for _ in range(k)]
    j = 0
    for user in sorted(per_user):
        for x in per_user[user]:
            arrays[j].append(x)
            if len(arrays[j]) == size:
                j += 1
                if j == k:
                    return arrays
    raise InsufficientDiversityError("packing ended before the last array filled")


def private_median(request: MedianRequest, rng: np.random.Generator) -> float:
    """Return a bin midpoint drawn with probability ~ exp(-(eps/4) * cost).

    The cost of a midpoint is the larger of the counts of snapped array
    means strictly below and strictly above it, so low-cost midpoints sit
    near the median of the array means.
    """
    arrays = pack_arrays(request)
    grid = BinGrid.for_level(request.level)
    snapped = [grid.nearest_midpoint(float(np.mean(arr))) for arr in arrays]

    def cost(y: float) -> float:
        below = sum(1 for s in snapped if s < y)
        above = sum(1 for s in snapped if s > y)
        return float(max(below, above))

    candidates = [(mid, cost(mid)) for mid in grid.midpoints]
    return float(exp_mechanism_sample(candidates, request.eps, rng))
