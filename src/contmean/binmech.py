"""Tree-aggregation counter over dyadic blocks.

The counter ingests a stream of real elements and maintains one noisy
partial sum per element: when the k-th element arrives, the sum of the most
recent ``lowbit(k)`` elements plus fresh Laplace noise is recorded.  A
running-sum query combines the partial sums of the dyadic decomposition of
k, so each element influences O(log k) stored values and each query touches
O(log k) of them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from contmean.noise import laplace

__all__ = ["BinaryMechanism", "DyadicDecomposition", "audit_influence", "decompose"]


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
        raise ValueError(
            f"element_index {element_index} out of range for length {mech_len}"
        )
    count = 0
    for s in range(mech_len.bit_length() + 1):
        size = 1 << s
        end = ((element_index - 1) // size + 1) * size
        if end <= mech_len and (end & -end) == size:
            count += 1
    return count


class BinaryMechanism:
    """One tree-aggregation counter: prefix sums of an append-only stream
    plus one noisy partial sum per element.

    ``eta`` is the Laplace scale added to every stored partial sum; the
    caller chooses it from its own bound on how many elements a user can
    contribute.  Entries of the partial-sum array are written once and never
    mutated, so replaying the same appends with the same generator state
    reproduces the array bit for bit.

    ``rng`` is a generator, or a function that returns one; the function
    runs at the first Laplace draw, so a counter that never draws (zero
    scale, or no elements) never builds a generator.

    Not thread-safe: one owner mutates, though ownership may move between
    threads between operations.
    """

    def __init__(
        self,
        eta: float,
        rng: np.random.Generator | Callable[[], np.random.Generator],
        label: str = "",
    ):
        if eta < 0:
            raise ValueError(f"noise scale must be nonnegative, got {eta}")
        self.eta = float(eta)
        self.label = label
        self._rng = rng
        # prefix[i] = sum of the first i elements; kept so each append costs
        # O(1) instead of O(block size).
        self._prefix: list[float] = [0.0]
        self._nps: list[float] = []
        self._cached_sum: float | None = 0.0

    def __len__(self) -> int:
        return len(self._nps)

    @property
    def noisy_partial_sums(self) -> tuple[float, ...]:
        return tuple(self._nps)

    def _noise(self) -> float:
        if self.eta == 0:
            return 0.0
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        return laplace(self.eta, self._rng)

    def append(self, x: float) -> None:
        """Ingest one element and record its noisy dyadic partial sum."""
        prefix = self._prefix
        prefix.append(prefix[-1] + float(x))
        k = len(self._nps) + 1
        block = k & -k  # lowest set bit = covered block size
        block_sum = prefix[k] - prefix[k - block]
        self._nps.append(block_sum + self._noise())
        self._cached_sum = None

    def sum(self) -> float:
        """Noisy running sum of everything appended so far (0.0 when empty)."""
        if self._cached_sum is None:
            k = len(self._nps)
            self._cached_sum = sum(self._nps[end - 1] for end in decompose(k).ends())
        return self._cached_sum

    def block_of(self, k: int) -> tuple[int, int]:
        """The (start, end) block covered by the k-th partial sum."""
        if not 1 <= k <= len(self._nps):
            raise ValueError(f"index {k} out of range for length {len(self._nps)}")
        size = k & -k
        return (k - size + 1, k)

    def dump_rows(self) -> list[tuple[int, int, int, float]]:
        """(index, block_start, block_end, noisy_value) rows for the auditor."""
        return [(k, *self.block_of(k), self._nps[k - 1]) for k in range(1, len(self._nps) + 1)]

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "block_start", "block_end", "noisy_value"])
            for row in self.dump_rows():
                writer.writerow([row[0], row[1], row[2], repr(row[3])])

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.append(x)
