"""Per-user exponential withhold-release scheduling.

A user's samples are released in dyadic bursts: the 1st and 2nd samples are
released immediately, then the block (3,4] when the 4th arrives, (4,8] when
the 8th arrives, and so on.  A release fires exactly when the user's count
hits a power of two, and the released block is the second half of the
user's samples so far.  At any time at least half of all samples seen have
been released, whatever the user ordering.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = ["ReleaseDecision", "UserLedger"]


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
    """Tracks per-user sample counts and the values withheld since each
    user's last release.  Single-owner; not thread-safe."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.pending: dict[int, list[float]] = {}

    def on_sample(self, user_id: int, value: float) -> ReleaseDecision:
        """Record one sample; release iff the user's count becomes 2^level."""
        if not math.isfinite(value):
            raise ValueError(f"sample value must be finite, got {value}")
        released = self.record(user_id, value, self.counts.get(user_id, 0))
        return _WITHHOLD if released is None else ReleaseDecision(True, *released)

    def record(self, user_id: int, value: float, count: int) -> tuple[int, float, int] | None:
        """Record a finite sample of a user that held ``count`` samples
        before it; return ``(level, block_sum, block_size)`` when the new
        count is 2^level, else None.

        ``count`` must equal ``counts.get(user_id, 0)``: the caller has read
        it, so this reads no count and checks no value.
        """
        count += 1
        self.counts[user_id] = count
        if count & (count - 1):  # not a power of two: withhold
            block = self.pending.get(user_id)
            if block is None:
                self.pending[user_id] = [value]
            else:
                block.append(value)
            return None
        if count < 4:
            # levels 0 and 1 find nothing withheld: the block is this
            # sample, summed as fsum sums one value (a float, zero unsigned)
            return count - 1, float(value) + 0.0, 1
        block = self.pending.pop(user_id)
        block.append(value)
        return count.bit_length() - 1, math.fsum(block), count >> 1

    def copy(self) -> UserLedger:
        """An independent ledger with the same counts and withheld values."""
        cls = type(self)
        twin = cls.__new__(cls)
        twin.counts = dict(self.counts)
        twin.pending = {user: block[:] for user, block in self.pending.items()}
        return twin

    def released_info_count(self) -> int:
        """Number of samples whose information has been released so far."""
        return self.samples_seen() - self.pending_count()

    def pending_count(self) -> int:
        """Samples currently withheld across all users."""
        return sum(map(len, self.pending.values()))

    def samples_seen(self) -> int:
        return sum(self.counts.values())

    def count_of(self, user_id: int) -> int:
        return self.counts.get(user_id, 0)
