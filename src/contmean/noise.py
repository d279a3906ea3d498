"""Seeded randomness, Laplace noise, exponential-mechanism sampling, and
privacy-budget accounting.

All randomness flows through ``numpy.random.Generator`` instances derived
deterministically from a base seed plus an integer key path, so adding one
noise consumer never perturbs the draws of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "BudgetExceededError",
    "BudgetLedger",
    "exp_mechanism_sample",
    "laplace",
    "spawn_rng",
]

# Smallest uniform used by the inverse CDF; keeps log() finite.
_U_EPS = 2.0**-53


class BudgetExceededError(RuntimeError):
    """A charge would push the ledger past its epsilon budget."""


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator derived from ``seed`` and an integer key path.

    The same (seed, key) pair always yields the same stream, and distinct
    key paths yield statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def laplace(scale: float, rng: np.random.Generator, size: int | None = None):
    """Draw from the Laplace distribution via inverse CDF on a uniform.

    ``scale`` is the usual b parameter (Var = 2 b^2).  A zero scale returns
    exactly 0.0 without consuming randomness, which is the deterministic
    pass-through used by noiseless test runs.
    """
    # NaN fails ``0 <= x < inf``; a NaN or infinite scale would draw NaN or infinity
    if not 0 <= scale < math.inf:
        raise ValueError(f"Laplace scale must be nonnegative and finite, got {scale}")
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    u = rng.random(size)  # in [0, 1)
    u = np.clip(u, _U_EPS, 1.0 - _U_EPS)
    out = np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))
    return float(out) if size is None else out


def exp_mechanism_sample(
    candidates: Sequence[tuple[object, float]],
    eps: float,
    rng: np.random.Generator,
):
    """Pick one candidate with probability proportional to exp(-(eps/4) * cost).

    ``candidates`` is a sequence of (value, cost) pairs with finite,
    nonnegative costs.  The quarter-epsilon exponent matches a score of
    sensitivity 2 under user changes.  Weights are normalized in log space.
    """
    if len(candidates) == 0:
        raise ValueError("exponential mechanism needs at least one candidate")
    # a NaN or infinite eps would turn every weight into NaN or 0
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    costs = np.array([c for _, c in candidates], dtype=float)
    if not np.all(np.isfinite(costs)):
        raise ValueError("candidate costs must be finite")
    logw = -(eps / 4.0) * costs
    logw -= logw.max()
    weights = np.exp(logw)
    probs = weights / weights.sum()
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    idx = min(idx, len(candidates) - 1)
    return candidates[idx][0]


@dataclass
class BudgetLedger:
    """Additive epsilon accounting across the mechanisms of one release.

    Charges append (label, eps) entries; a charge that would push the running
    sum past ``total_eps`` (beyond float round-off) raises and is not
    recorded.
    """

    total_eps: float
    entries: list[tuple[str, float]] = field(default_factory=list)
    # running total of ``entries`` for the overrun check; ``spent`` is exact
    _running: float = field(default=0.0, init=False, repr=False, compare=False)

    # Slack for accumulated float round-off only; never hides a real overrun.
    _REL_SLACK = 1e-9

    def __post_init__(self) -> None:
        # NaN fails ``0 < x < inf``; a NaN budget or charge would let every
        # later overrun check pass
        if not 0 < self.total_eps < math.inf:
            raise ValueError(f"total_eps must be positive and finite, got {self.total_eps}")
        self._running = self.spent

    @property
    def spent(self) -> float:
        return math.fsum(e for _, e in self.entries)

    def charge(self, label: str, eps: float) -> "BudgetLedger":
        if not 0 < eps < math.inf:
            raise ValueError(f"charge must be positive and finite, got {eps} for {label!r}")
        new_total = self._running + eps
        if new_total > self.total_eps * (1.0 + self._REL_SLACK):
            raise BudgetExceededError(
                f"charging {eps} for {label!r} would spend {new_total} "
                f"of budget {self.total_eps}"
            )
        self.entries.append((label, eps))
        self._running = new_total
        return self
