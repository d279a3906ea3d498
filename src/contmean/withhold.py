"""Per-user release laws: which samples an estimator feeds its counters,
and when.

``UserLedger`` is the exponential withhold-release law of ``single``,
``multi`` and ``full``.  A user's samples are released in dyadic bursts: the
1st and 2nd samples are released immediately, then the block (3,4] when the
4th arrives, (4,8] when the 8th arrives, and so on.  A release fires exactly
when the user's count hits a power of two, and the released block is the
second half of the user's samples so far.  At any time at least half of all
samples seen have been released, whatever the user ordering.

``SampleLedger`` (``naive``) releases every sample on arrival, and
``BatchLedger`` (``wishful``) withholds each user's samples until all m have
arrived and releases them as one block.  The three differ only in
``record``, which an estimator's ``step`` calls once per sample.

Each keeps two numbers per user: a count, and, while the user has samples
withheld, their running sum in ``pending``; how many are withheld follows
from the count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = ["BatchLedger", "ReleaseDecision", "SampleLedger", "UserLedger"]


class ReleaseDecision(NamedTuple):
    """Outcome of one arriving sample: withhold, or release a dyadic block.

    On a release at level ``level`` the block covers ``block_size`` =
    2^max(level-1, 0) samples and ``block_sum`` is their raw (untruncated)
    sum.  On a withhold both are None.
    """

    released: bool
    level: int | None = None
    block_sum: float | None = None
    block_size: int | None = None


_WITHHOLD = ReleaseDecision(released=False)


class UserLedger:
    """Tracks per-user sample counts and, for each user with withheld
    samples, their running sum since the user's last release, under the
    dyadic law.  Single-owner; not thread-safe."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.pending: dict[int, float] = {}

    def on_sample(self, user_id: int, value: float) -> ReleaseDecision:
        """Record one sample under this ledger's law (``record``)."""
        if not math.isfinite(value):
            raise ValueError(f"sample value must be finite, got {value}")
        released = self.record(user_id, value, self.counts.get(user_id, 0))
        return _WITHHOLD if released is None else ReleaseDecision(True, *released)

    def record(self, user_id: int, value: float, count: int) -> tuple[int, float, int] | None:
        """Record a finite sample of a user that held ``count`` samples
        before it; return ``(level, block_sum, block_size)`` when the new
        count is 2^level, else None.

        A block sums its samples in arrival order, ((0.0 + v1) + v2) + ...,
        one running sum per user; values on a dyadic grid sum exactly.
        ``count`` must equal ``counts.get(user_id, 0)``: the caller has read
        it, so this reads no count and checks no value.
        """
        count += 1
        self.counts[user_id] = count
        if count & (count - 1):  # not a power of two: withhold
            pending = self.pending
            pending[user_id] = pending.get(user_id, 0.0) + value
            return None
        if count < 4:
            # levels 0 and 1 find nothing withheld: the block is this
            # sample, 0.0 + value (a float, zero unsigned)
            return count - 1, float(value) + 0.0, 1
        return count.bit_length() - 1, self.pending.pop(user_id) + value, count >> 1

    def copy(self) -> UserLedger:
        """An independent ledger with the same counts and withheld sums."""
        cls = type(self)
        twin = cls.__new__(cls)
        twin.counts = dict(self.counts)
        twin.pending = dict(self.pending)
        return twin

    def released_info_count(self) -> int:
        """Number of samples whose information has been released so far."""
        return self.samples_seen() - self.pending_count()

    def pending_count(self) -> int:
        """Samples currently withheld across all users: past a user's last
        power of two, c - 2^floor(log2 c) of its c samples."""
        return sum(c - (1 << (c.bit_length() - 1)) for c in self.counts.values())

    def samples_seen(self) -> int:
        return sum(self.counts.values())


class SampleLedger(UserLedger):
    """The per-sample law: every sample is released on arrival, as a block
    of one at level 0, and nothing is withheld."""

    def record(self, user_id: int, value: float, count: int) -> tuple[int, float, int]:
        self.counts[user_id] = count + 1
        return 0, value, 1

    def pending_count(self) -> int:
        return 0


class BatchLedger(UserLedger):
    """The batch law: a user's samples are withheld until the m-th arrives,
    then released together as one block of m at level 0."""

    def __init__(self, m: int) -> None:
        super().__init__()
        self.m = m

    def record(self, user_id: int, value: float, count: int) -> tuple[int, float, int] | None:
        self.counts[user_id] = count + 1
        if count + 1 < self.m:
            pending = self.pending
            pending[user_id] = pending.get(user_id, 0.0) + value
            return None
        # at m = 1 nothing is pending
        return 0, self.pending.pop(user_id, 0.0) + value, self.m

    def pending_count(self) -> int:
        return sum(c for c in self.counts.values() if c < self.m)

    def copy(self) -> BatchLedger:
        twin = super().copy()
        twin.m = self.m
        return twin
