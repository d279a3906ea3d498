"""Tree-aggregation counter over dyadic blocks.

The counter ingests a stream of real elements and maintains one noisy
partial sum per element: when the k-th element arrives, the sum of the most
recent ``lowbit(k)`` elements plus fresh Laplace noise is recorded.  A
running-sum query combines the partial sums of the dyadic decomposition of
k, so each element influences O(log k) stored values; a stack of running
sums over that decomposition makes an append O(1) amortized and a query O(1).
"""

from __future__ import annotations

import math
from array import array
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from contmean.noise import laplace

__all__ = ["BinaryMechanism", "DyadicDecomposition", "audit_influence", "decompose"]

_FIRST_BLOCK, _MAX_BLOCK = 8, 1024  # noise blocks of 8, 16, 32, ... draws, capped


@dataclass(frozen=True)
class DyadicDecomposition:
    """Disjoint dyadic blocks (1-based, inclusive) covering [1, k]."""

    blocks: tuple[tuple[int, int], ...]

    def ends(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.blocks)


def decompose(k: int) -> DyadicDecomposition:
    """Split [1, k] into the dyadic blocks given by the set bits of k.

    Blocks come most significant first, so sizes strictly decrease, e.g.
    decompose(6) -> (1,4),(5,6).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    blocks = []
    index = 0
    for j in range(k.bit_length() - 1, -1, -1):
        bit = 1 << j
        if k & bit:
            blocks.append((index + 1, index + bit))
            index += bit
    return DyadicDecomposition(tuple(blocks))


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
    """One tree-aggregation counter: one noisy partial sum per element, plus
    a stack of at most ``bit_length(k) + 1`` prefix and noisy running sums.

    ``eta`` is the Laplace scale added to every stored partial sum; the
    caller chooses it from its own bound on how many elements a user can
    contribute.  Entries of the partial-sum array are written once and never
    mutated, so replaying the same appends with the same generator state
    reproduces the array bit for bit.

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
        self._nps = array("d")
        self._stack = [(0, 0.0, 0.0)]  # (end, prefix, noisy sum) at 0 and each end of decompose(k)
        self._draws: list[float] = []  # buffered noise, next draw last; empty at zero scale

    def __len__(self) -> int:
        return len(self._nps)

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
        twin._nps = self._nps[:]
        twin._stack = self._stack[:]
        twin._draws = self._draws[:]
        return twin

    @property
    def noisy_partial_sums(self) -> tuple[float, ...]:
        return tuple(self._nps)

    def write_partial_sums(self, out: array) -> None:
        """Append the noisy partial sums, in index order, to ``out``, an
        ``array('d')``: one buffer copy, no float per entry."""
        out.extend(self._nps)

    def _refill(self) -> float:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        # buffer the next block, doubling it to the cap: every earlier draw is used
        size = min(len(self._nps) + _FIRST_BLOCK, _MAX_BLOCK)
        self._draws = laplace(self.eta, self._rng, size).tolist()[::-1]
        return self._draws.pop()

    def append(self, x: float) -> None:
        """Ingest one element and record its noisy dyadic partial sum."""
        stack = self._stack
        top = stack[-1]  # (k - 1, its prefix sum, its noisy running sum)
        prefix = top[1] + float(x)
        k = top[0] + 1
        start = k - (k & -k)  # the block covers (start, k]; start is on the stack
        while top[0] != start:
            stack.pop()
            top = stack[-1]
        value = (prefix - top[1]) + (self._draws.pop() if self._draws else self._refill() if self.eta else 0.0)
        self._nps.append(value)
        stack.append((k, prefix, top[2] + value))

    def sum(self) -> float:
        """Noisy running sum of everything appended so far (0.0 when empty)."""
        return self._stack[-1][2]

    def block_of(self, k: int) -> tuple[int, int]:
        """The (start, end) block covered by the k-th partial sum."""
        if not 1 <= k <= len(self._nps):
            raise ValueError(f"index {k} out of range for length {len(self._nps)}")
        return (k - (k & -k) + 1, k)

    def dump_rows(self) -> list[tuple[int, int, int, float]]:
        """One (index, block_start, block_end, noisy_value) row per stored
        partial sum."""
        return [(k, *self.block_of(k), self._nps[k - 1]) for k in range(1, len(self._nps) + 1)]

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.append(x)
