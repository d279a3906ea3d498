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
arrived and releases them as one block.  Each law is stated once, as
``releases(count)``: what a user's new count releases, ``(level,
block_size)``, or None.  One ``on_sample`` applies the law for all
three, and an estimator's ``step`` applies the same law from a table of
``releases`` (``estimators._release_table``).  Beyond ``releases``, the
three differ only in ``pending_count``, which counts what each law
withholds; the batch law also refuses a user's (m+1)-th sample.

Each keeps two numbers per user: a count, and, while the user has samples
withheld, their running sum in ``pending``; how many are withheld follows
from the count.
"""

from __future__ import annotations

import math

__all__ = ["BatchLedger", "SampleLedger", "UserLedger"]


class UserLedger:
    """Tracks per-user sample counts and, for each user with withheld
    samples, their running sum since the user's last release, under the
    dyadic law.  Single-owner; not thread-safe."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.pending: dict[int, float] = {}

    @staticmethod
    def releases(count: int) -> tuple[int, int] | None:
        """The dyadic law: a user's count 2^level releases the block
        (2^(level-1), 2^level], of max(2^(level-1), 1) samples."""
        if count & (count - 1):
            return None
        return count.bit_length() - 1, max(count >> 1, 1)

    def on_sample(self, user_id: int, value: float) -> tuple[int, float, int] | None:
        """Record one sample of a user; return ``(level, block_sum,
        block_size)`` when the user's new count releases under
        ``releases``, else None.

        A block of ``block_size`` samples sums them in arrival order,
        ((0.0 + v1) + v2) + ..., one running sum per user; values on a
        dyadic grid sum exactly, and a block of one is the sample itself.
        ``step`` applies the same law inline.
        """
        if not math.isfinite(value):
            raise ValueError(f"sample value must be finite, got {value}")
        # running sums stay Python floats: a float32 sample would make its
        # user's a float32
        value = float(value)
        count = self.counts.get(user_id, 0) + 1
        released = self.releases(count)
        self.counts[user_id] = count
        pending = self.pending
        if released is None:
            pending[user_id] = pending.get(user_id, 0.0) + value
            return None
        level, block_size = released
        return level, value if block_size == 1 else pending.pop(user_id, 0.0) + value, block_size

    def copy(self) -> UserLedger:
        """An independent ledger with the same counts and withheld sums."""
        cls = type(self)
        twin = cls.__new__(cls)
        twin.counts = dict(self.counts)
        twin.pending = dict(self.pending)
        return twin

    def released_info_count(self) -> int:
        """Number of samples whose information has been released so far."""
        return sum(self.counts.values()) - self.pending_count()

    def pending_count(self) -> int:
        """Samples currently withheld across all users: past a user's last
        power of two, c - 2^floor(log2 c) of its c samples."""
        return sum(c - (1 << (c.bit_length() - 1)) for c in self.counts.values())


class SampleLedger(UserLedger):
    """The per-sample law: every sample is released on arrival, as a block
    of one at level 0, and nothing is withheld."""

    @staticmethod
    def releases(count: int) -> tuple[int, int]:
        return 0, 1

    def pending_count(self) -> int:
        return 0


class BatchLedger(UserLedger):
    """The batch law: a user's samples are withheld until the m-th arrives,
    then released together as one block of m at level 0.  A user gives at
    most m samples."""

    def __init__(self, m: int) -> None:
        super().__init__()
        self.m = m

    def releases(self, count: int) -> tuple[int, int] | None:
        if count > self.m:  # before ``on_sample`` moves any state
            raise ValueError(f"count {count} exceeds the per-user cap m={self.m}")
        return (0, self.m) if count == self.m else None

    def pending_count(self) -> int:
        return sum(c for c in self.counts.values() if c < self.m)

    def copy(self) -> BatchLedger:
        twin = super().copy()
        twin.m = self.m
        return twin
