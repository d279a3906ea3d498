"""Tree-aggregation counter over dyadic blocks.

The k-th element releases one noisy partial sum, the sum of the most
recent ``lowbit(k)`` elements plus fresh Laplace noise, and a running-sum
query combines those of the dyadic decomposition of k, so each element
influences O(log k) of them.  A stack of running sums over that
decomposition, O(log k) state indexed by popcount(k), makes an append and
a query O(1) in the worst case; the partial sums themselves, which a
sensitivity audit compares, are stored only after ``store_nodes``.
"""

from __future__ import annotations

import math
from array import array
from copy import deepcopy
from typing import Callable

import numpy as np

from contmean.noise import laplace

__all__ = ["BinaryMechanism", "audit_influence"]

_FIRST_BLOCK, _MAX_BLOCK = 8, 1024  # noise blocks of 8, 16, 32, ... draws, capped


def audit_influence(mech_len: int, element_index: int) -> int:
    """Count stored partial sums whose block covers the given element.

    For element i in a mechanism of length T this is the number of levels s
    at which i's enclosing size-2^s block is actually materialized, which
    happens when the block end e <= T arrives with lowbit(e) = 2^s.
    """
    if mech_len < 1:
        raise ValueError(f"mech_len must be positive, got {mech_len}")
    if not 1 <= element_index <= mech_len:
        raise ValueError(f"element_index {element_index} out of range for length {mech_len}")
    count = 0
    for s in range(mech_len.bit_length() + 1):
        size = 1 << s
        end = ((element_index - 1) // size + 1) * size
        if end <= mech_len and (end & -end) == size:
            count += 1
    return count


class BinaryMechanism:
    """One tree-aggregation counter: after k elements, k, their prefix sum,
    and a stack of at most ``bit_length(k) + 1`` slots (and k partial sums
    after ``store_nodes``).  Slot d holds the prefix and noisy running sums
    at the end of the d-th block of k's dyadic decomposition, slot 0 those
    at 0; slots past popcount(k) are stale and never read.  Element k's
    block starts where the decomposition of k - 1 ends its first
    popcount(k) - 1 blocks, so an append reads slot popcount(k) - 1 and
    writes slot popcount(k), whatever the trailing zeros of k.

    ``eta`` is the Laplace scale added to every partial sum; the caller
    chooses it from its own bound on how many elements a user can
    contribute.  Replaying the same appends with the same generator state
    reproduces every partial sum bit for bit.

    ``rng`` is a generator, or a function that returns one and runs at the
    first Laplace draw.  Noise is drawn from it in blocks ahead of use, so
    the generator must not be shared.

    Not thread-safe: one owner mutates, though ownership may move between
    threads between operations.
    """

    def __init__(
        self,
        eta: float,
        rng: np.random.Generator | Callable[[], np.random.Generator],
        label: str = "",
    ):
        if not 0 <= eta < math.inf:  # NaN fails this too
            raise ValueError(f"noise scale must be nonnegative and finite, got {eta}")
        self.eta = float(eta)
        self.label = label
        self._rng = rng
        self._nodes: array | None = None  # every partial sum, once ``store_nodes`` is called
        self._k = 0  # elements appended
        self._prefix = 0.0  # their sum, without noise
        self._stack = [(0.0, 0.0)]  # (prefix, noisy running sum) per slot
        self._draws: list[float] = []  # buffered noise, next draw last; empty at zero scale

    def __len__(self) -> int:
        return self._k

    def store_nodes(self) -> None:
        """Store every partial sum, for a sensitivity audit to read; the
        running sums need only the stack.  Call it before the first append."""
        if len(self):
            raise ValueError(f"counter {self.label!r} already holds {len(self)} elements")
        self._nodes = array("d")

    def copy(self) -> BinaryMechanism:
        """An independent twin that appends, sums and draws exactly as this
        counter would from here on."""
        cls = type(self)
        twin = cls.__new__(cls)
        twin.eta = self.eta
        twin.label = self.label
        # a factory has not run, so the twin's first draw builds the same
        # generator; one already drawn from is copied with its state.  The
        # factory test comes first: naming ``np.random`` imports it
        rng = self._rng
        twin._rng = rng if callable(rng) else deepcopy(rng)
        twin._nodes = None if self._nodes is None else self._nodes[:]
        twin._k = self._k
        twin._prefix = self._prefix
        twin._stack = self._stack[:]
        twin._draws = self._draws[:]
        return twin

    def write_partial_sums(self, out: array) -> None:
        """Append the stored noisy partial sums, in index order, to ``out``,
        an ``array('d')``: one buffer copy, no float per entry."""
        if self._nodes is None:
            raise ValueError(f"counter {self.label!r} stores no partial sums: call store_nodes() first")
        out.extend(self._nodes)

    def _refill(self) -> float:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        # buffer the next block, doubling it to the cap: every earlier draw
        # is used.  ``append`` draws before it counts its element, so the
        # length is the number of elements appended before it
        size = min(len(self) + _FIRST_BLOCK, _MAX_BLOCK)
        self._draws = laplace(self.eta, self._rng, size).tolist()[::-1]
        return self._draws.pop()

    def append(self, x: float) -> float:
        """Ingest one element, release its noisy dyadic partial sum (stored
        only after ``store_nodes``), and return the new noisy running sum,
        the value ``sum()`` reads next."""
        prefix = self._prefix + float(x)
        noise = self._draws.pop() if self._draws else self._refill() if self.eta else 0.0
        k = self._k = self._k + 1
        self._prefix = prefix
        # k's block is (k - lowbit(k), k], and its start ends the block one
        # slot below k's own
        depth = k.bit_count()
        stack = self._stack
        start = stack[depth - 1]
        value = (prefix - start[0]) + noise
        if self._nodes is not None:
            self._nodes.append(value)
        total = start[1] + value
        if depth < len(stack):
            stack[depth] = (prefix, total)
        else:
            stack.append((prefix, total))
        return total

    def sum(self) -> float:
        """Noisy running sum of everything appended so far (0.0 when empty)."""
        return self._stack[self._k.bit_count()][1]
