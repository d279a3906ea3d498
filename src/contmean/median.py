"""User-level private median over [0, 1] via the exponential mechanism.

Per-user samples are packed into k arrays of 2^(level-1) values each, so a
user's data lands in at most two arrays.  Array means are snapped to a grid
of bin midpoints and one midpoint is drawn with probability falling off
exponentially in how far it sits from the median of the snapped means.  The
result is a coarse mean prior, accurate to roughly 2^(-level/2), that later
centers truncation intervals.

One call is a single O(h log h) numpy pass over the h events of the
history: a stable sort by user packs the arrays, and the array means, the
snap to the grid and the midpoint costs are whole-array operations, O(k)
per midpoint.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from contmean.noise import exp_mechanism_sample
from contmean.streams import StreamEvent

__all__ = [
    "BinGrid",
    "InsufficientDiversityError",
    "MedianRequest",
    "array_size",
    "arrays_required",
    "extend_columns",
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


def arrays_required(eps: float, level: int, beta: float) -> int:
    """The number of arrays a median at ``level`` packs: the ceiling of
    ``prior_array_count``."""
    return math.ceil(prior_array_count(eps, level, beta))


def array_size(level: int) -> int:
    """The samples in each array a median at ``level`` packs, 2^(level-1):
    one user's level-``level`` block."""
    return 1 << (level - 1)


def utility_radius(arrays: int, level: int, delta: float) -> float:
    """Radius 2*sqrt(ln(2k/delta)/2^level) within which the prior lands with
    probability at least 1 - delta - beta."""
    return 2.0 * math.sqrt(math.log(2.0 * arrays / delta) / 2.0**level)


def extend_columns(columns: tuple | None, history: Sequence[StreamEvent]) -> tuple[np.ndarray, np.ndarray]:
    """The user (int64) and value (float64) columns of ``history``, given
    ``columns`` of a prefix of it (None: empty), as new arrays: only the
    events past the prefix are read."""
    new = history[len(columns[0]) :] if columns else history
    users = np.fromiter(map(operator.itemgetter(1), new), dtype=np.int64, count=len(new))
    values = np.fromiter(map(operator.itemgetter(2), new), dtype=np.float64, count=len(new))
    if columns:
        users, values = np.concatenate((columns[0], users)), np.concatenate((columns[1], values))
    return users, values


@dataclass(frozen=True)
class MedianRequest:
    """Inputs for one private-median call on the stream history up to now,
    which is read where it lies, not copied, or through ``columns``, its
    ``extend_columns``, when given."""

    history: Sequence[StreamEvent]
    eps: float
    level: int
    beta: float
    columns: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    @property
    def arrays_required(self) -> int:
        return arrays_required(self.eps, self.level, self.beta)

    @property
    def array_size(self) -> int:
        return array_size(self.level)


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

    def snap(self, ys: np.ndarray) -> np.ndarray:
        """Closest midpoint to each of ``ys``.  Midpoints are scanned in
        ascending order and a later one wins only if it is closer by more
        than 1e-15, so ties break toward the smaller midpoint."""
        mids = self.midpoints
        best = np.full(len(ys), mids[0])
        best_d = np.abs(ys - mids[0])
        for mid in mids[1:]:
            d = np.abs(ys - mid)
            closer = d < best_d - 1e-15
            best[closer] = mid
            best_d[closer] = d[closer]
        return best


def _pack(request: MedianRequest) -> np.ndarray:
    """Fill k arrays of 2^(level-1) samples from per-user contributions, as
    the rows of a (k, 2^(level-1)) float64 array.

    Users are visited in ascending user id; each contributes its first
    min(count, 2^(level-1)) samples in arrival order, written contiguously,
    so no user spans more than two arrays.  Packing stops once the last
    array is full; raises if the history cannot fill all arrays.
    """
    k = request.arrays_required
    size = request.array_size
    columns = request.columns
    users, values = extend_columns(None, request.history) if columns is None else columns
    h = len(users)

    # ascending user, each user's events in arrival order.  The stable sort
    # runs on ids - min(ids) (exact in uint64 for any int64 ids) cast to the
    # narrowest unsigned type that holds them: numpy radix-sorts 8- and
    # 16-bit keys, several times faster than a merge sort over int64.
    keys = (users - (users.min() if h else 0)).view(np.uint64)
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")
    users = users[order]
    # each event's rank among its user's events: its index minus the index
    # where its user's run starts
    rank = np.arange(h)
    run_start = np.ones(h, dtype=bool)
    np.not_equal(users[1:], users[:-1], out=run_start[1:])
    start = np.where(run_start, rank, 0)
    np.maximum.accumulate(start, out=start)
    rank -= start
    kept = order[rank < size]

    if len(kept) < k * size:
        raise InsufficientDiversityError(
            f"need {k} arrays of {size} samples ({k * size} total) but only "
            f"{len(kept)} user-capped samples are available"
        )
    return values[kept[: k * size]].reshape(k, size)


def private_median(request: MedianRequest, rng: np.random.Generator) -> float:
    """Return a bin midpoint drawn with probability ~ exp(-(eps/4) * cost).

    The cost of a midpoint is the larger of the counts of snapped array
    means strictly below and strictly above it, so low-cost midpoints sit
    near the median of the array means.
    """
    # rows are C-contiguous, so each mean is the pairwise sum np.mean takes
    # of that row alone
    means = _pack(request).mean(axis=1)
    grid = BinGrid.for_level(request.level)
    snapped = grid.snap(means)
    candidates = [
        (mid, float(max(np.count_nonzero(snapped < mid), np.count_nonzero(snapped > mid))))
        for mid in grid.midpoints
    ]
    return float(exp_mechanism_sample(candidates, request.eps, rng))
