"""The five continual mean estimators.

All five publish an estimate after every event.  ``naive`` feeds raw samples
to one tree counter.  ``wishful`` requires user-contiguous arrival and feeds
one truncated per-user sum.  ``single`` and ``multi`` apply the exponential
withhold-release schedule with a supplied prior, feeding truncated dyadic
blocks to one counter or to one counter per level.  ``full`` needs no prior:
it buffers blocks for levels whose truncation interval cannot be centered
yet, and activates a level once enough distinct users have contributed to
pay for a private-median prior.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

from contmean.binmech import BinaryMechanism
from contmean.median import MedianRequest, prior_array_count, private_median
from contmean.noise import BudgetLedger, spawn_rng
from contmean.streams import StreamEvent
from contmean.truncate import TruncationInterval, interval_full, interval_single
from contmean.withhold import UserLedger

__all__ = [
    "ALGORITHMS",
    "DiversityReport",
    "EstimatorConfig",
    "OrderingError",
    "TraceRecord",
    "check_diversity",
    "full_noise_scale",
    "make_estimator",
    "multi_noise_scale",
    "naive_noise_scale",
    "single_noise_scale",
    "wishful_noise_scale",
    "write_trace",
]

ALGORITHMS = ("naive", "wishful", "single", "multi", "full")

TRACE_HEADER = ["t", "user", "estimate", "total", "M_t", "flags"]


class OrderingError(ValueError):
    """Arrival order violates an estimator precondition."""


# --------------------------------------------------------------------------
# Noise scales.  Logs are base 2 throughout (they index dyadic levels).

def naive_noise_scale(m: int, T: int, eps: float) -> float:
    return m * (1.0 + math.log2(T)) / eps


def wishful_noise_scale(m: int, n: int, eps: float, delta: float) -> float:
    width = math.sqrt((m / 2.0) * math.log(2.0 * n / delta)) + math.sqrt(m)
    return 2.0 * width * (1.0 + math.log2(n)) / eps


def single_noise_scale(m: int, n: int, eps: float, delta: float) -> float:
    width = math.sqrt((m / 2.0) * math.log(2.0 * n * math.log2(m) / delta)) + math.sqrt(m)
    uses = math.log2(1.0 + n * (1.0 + math.log2(m)))
    return 2.0 * width * (1.0 + math.log2(m)) * uses / eps


def multi_noise_scale(m: int, n: int, level: int, eps: float, delta: float) -> float:
    big_l = math.ceil(math.log2(m))
    size = 2.0 ** (level - 1)
    width = math.sqrt((size / 2.0) * math.log(2.0 * n * math.log2(m) / delta)) + math.sqrt(size)
    return 2.0 * width * (1.0 + math.log2(n)) * (big_l + 1) / eps


def full_noise_scale(m: int, n: int, level: int, eps: float, delta: float) -> float:
    big_l = math.ceil(math.log2(m))
    if level <= 1:
        # identity projection; a raw sample moves by at most 1
        sensitivity = float(1 << max(level - 1, 0))
    else:
        sensitivity = 2.0 * interval_full(0.0, level, n, m, eps, delta).half_width
    return sensitivity * (1.0 + math.log2(n)) * 2.0 * (big_l + 1) / eps


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters shared by all estimators plus testing knobs.

    ``prior`` is required by wishful/single/multi and forbidden elsewhere.
    ``prior_override`` pins every level prior of the full estimator to a
    fixed value, replacing the private-median subroutine; it exists for
    deterministic audits and tests.  ``noise_override`` replaces every
    mechanism's noise scale (0.0 gives noiseless runs) and
    ``clip_disabled`` turns all projections into the identity.
    """

    algorithm: str
    n: int
    m: int
    eps: float
    delta: float
    seed: int = 0
    T: int | None = None
    prior: float | None = None
    prior_override: float | None = None
    noise_override: float | None = None
    clip_disabled: bool = False
    keep_trace: bool = True
    track_diversity: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        min_m = 1 if self.algorithm in ("naive", "wishful") else 2
        if self.m < min_m:
            raise ValueError(f"{self.algorithm} needs m >= {min_m}, got {self.m}")
        if self.algorithm in ("naive", "wishful"):
            if self.T is None or self.T < 1:
                raise ValueError(f"{self.algorithm} needs a positive stream length T")
        needs_prior = self.algorithm in ("wishful", "single", "multi")
        if needs_prior and self.prior is None:
            raise ValueError(f"{self.algorithm} needs a prior mean estimate")
        if not needs_prior and self.prior is not None:
            raise ValueError(f"{self.algorithm} takes no prior")
        if self.prior is not None and not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {self.prior}")
        if self.prior_override is not None and self.algorithm != "full":
            raise ValueError("prior_override applies to the full estimator only")
        if self.noise_override is not None and self.noise_override < 0:
            raise ValueError("noise_override must be nonnegative")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One published step: estimate, denominator, and status flags."""

    t: int
    user: int
    estimate: float
    total: int
    max_count: int
    active_levels: tuple[int, ...] | None
    flags: tuple[str, ...]

    def flags_str(self) -> str:
        tokens = list(self.flags)
        if self.active_levels is not None:
            tokens.append("act=" + "-".join(str(lv) for lv in self.active_levels))
        return ";".join(tokens)


def write_trace(records, path) -> None:
    """Write trace records as CSV rows ``t,user,estimate,total,M_t,flags``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in records:
            writer.writerow([r.t, r.user, repr(r.estimate), r.total, r.max_count, r.flags_str()])


@dataclass(frozen=True)
class DiversityReport:
    satisfied: bool
    lhs: float
    rhs: float
    max_count: int


def _diversity_rhs(max_count: int, eps: float, delta: float, m: int) -> float:
    big_l = math.ceil(math.log2(m))
    return (max_count / 2.0) * (16.0 / eps) * (
        2.0 * big_l * math.log(3.0 * big_l * math.sqrt(max_count) / delta)
    )


def _diversity_report(lhs: float, max_count: int, eps: float, delta: float, m: int) -> DiversityReport:
    rhs = _diversity_rhs(max_count, eps, delta, m)
    return DiversityReport(satisfied=lhs >= rhs, lhs=lhs, rhs=rhs, max_count=max_count)


def check_diversity(
    counts: Mapping[int, int] | UserLedger, eps: float, delta: float, m: int
) -> DiversityReport:
    """Evaluate the distinct-user sample-supply condition at the current time.

    The left side counts samples usable at half the current per-user maximum
    (each user capped at M_t/2); the right side is the supply the private
    priors need at that scale.  This recounts from the per-user counts; an
    estimator keeps the same quantity incrementally in its ``CappedSupply``.
    """
    if isinstance(counts, UserLedger):
        counts = counts.counts
    if not counts or all(c == 0 for c in counts.values()):
        raise ValueError("diversity check needs at least one observed sample")
    max_count = max(counts.values())
    lhs = float(sum(min(c, max_count / 2.0) for c in counts.values()))
    return _diversity_report(lhs, max_count, eps, delta, m)


class CappedSum:
    """sum_u min(c_u, cap) over all users, kept current by a ``CappedSupply``."""

    __slots__ = ("cap", "value")

    def __init__(self, cap: float, value: float):
        self.cap = cap
        self.value = value


class CappedSupply:
    """Users per sample count, plus running capped sums over those counts.

    ``hist[c]`` is the number of the n users that hold exactly c samples,
    c = 0..m.  Each tracked ``CappedSum`` stays exact in O(1) per sample:
    when one user's count moves from c to c + 1 its sum gains
    min(c + 1, cap) - min(c, cap), which is 1, 1/2 or 0.  A sum over a new
    cap is recounted from the histogram in O(m).  Every sum is a multiple of
    1/2 no larger than n * m, so float sums and comparisons are exact.
    """

    __slots__ = ("hist", "max_count", "sums")

    def __init__(self, n: int, m: int):
        self.hist = [0] * (m + 1)
        self.hist[0] = n
        self.max_count = 0
        self.sums: list[CappedSum] = []

    def add(self, count: int) -> bool:
        """Move one user from ``count`` samples to ``count + 1``; return
        whether that raised ``max_count``."""
        hist = self.hist
        hist[count] -= 1
        hist[count + 1] += 1
        for s in self.sums:
            if count < s.cap:
                s.value += min(count + 1, s.cap) - count
        if count < self.max_count:
            return False
        self.max_count = count + 1
        return True

    def capped_sum(self, cap: float) -> float:
        """sum_u min(c_u, cap), recounted from the histogram."""
        hist = self.hist
        return sum(hist[c] * min(c, cap) for c in range(1, self.max_count + 1))

    def track(self, cap: float) -> CappedSum:
        s = CappedSum(cap, self.capped_sum(cap))
        self.sums.append(s)
        return s

    def untrack(self, s: CappedSum) -> None:
        self.sums.remove(s)


# --------------------------------------------------------------------------


class _EstimatorBase:
    """Shared event loop: input checks, count bookkeeping, trace records,
    publication.

    Per-user counts live in ``counts`` (users seen so far only) and, as a
    histogram with capped sums, in ``supply``; a ``step`` costs O(1) in n.

    An instance owns all of its state and is single-threaded; independent
    instances (e.g. Monte-Carlo trials) never interact and may run on
    separate threads.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.t = 0
        self.total = 0
        self.records: list[TraceRecord] = []
        self.budget = self._make_budget()
        self.counts: dict[int, int] = {}
        self.supply = CappedSupply(config.n, config.m)
        self._last_t = 0
        # the div flag's sum at cap M_t/2 and its threshold; both change
        # only when M_t rises
        self._half_supply = self.supply.track(0.0) if config.track_diversity else None
        self._diversity_rhs = math.inf

    # -- subclass hooks ----------------------------------------------------

    def _make_budget(self) -> BudgetLedger:
        raise NotImplementedError

    def _process(self, event: StreamEvent) -> list[str]:
        """Consume one event: count it in ``counts``, update mechanisms and
        ``total``; return step flags."""
        raise NotImplementedError

    def _noisy_sum(self) -> float:
        raise NotImplementedError

    def active_levels(self) -> tuple[int, ...] | None:
        return None

    # -- common loop -------------------------------------------------------

    def _scale(self, eta: float) -> float:
        if self.config.noise_override is not None:
            return self.config.noise_override
        return eta

    def step(self, event: StreamEvent) -> TraceRecord:
        cfg = self.config
        user = event.user
        if not 1 <= user <= cfg.n:
            raise ValueError(f"user {user} outside [1, {cfg.n}]")
        # the noise is calibrated to samples in [0, 1]; NaN fails this too
        if not 0.0 <= event.value <= 1.0:
            raise ValueError(f"sample value {event.value!r} outside [0, 1]")
        if event.t <= self._last_t:
            raise ValueError(f"t={event.t} does not increase past {self._last_t}")
        count = self.counts.get(user, 0)
        if count >= cfg.m:
            raise ValueError(f"user {user} exceeds the per-user cap m={cfg.m}")
        self.t += 1
        self._last_t = event.t
        supply = self.supply
        max_rose = supply.add(count)

        flags = self._process(event)

        if self.total == 0:
            estimate = 0.5
            flags.append("nodata")
        else:
            estimate = self._noisy_sum() / self.total
            if not 0.0 <= estimate <= 1.0:
                flags.append("oob")
        half = self._half_supply
        if half is not None:
            if max_rose:
                max_count = supply.max_count
                half.cap = max_count / 2.0
                half.value = supply.capped_sum(half.cap)
                self._diversity_rhs = _diversity_rhs(max_count, cfg.eps, cfg.delta, cfg.m)
            if half.value >= self._diversity_rhs:
                flags.append("div")

        record = TraceRecord(
            t=self.t,
            user=user,
            estimate=estimate,
            total=self.total,
            max_count=supply.max_count,
            active_levels=self.active_levels(),
            flags=tuple(flags),
        )
        if cfg.keep_trace:
            self.records.append(record)
        return record

    def run(self, events) -> list[TraceRecord]:
        return [self.step(ev) for ev in events]

    def diversity(self) -> DiversityReport:
        max_count = self.supply.max_count
        if max_count == 0:
            raise ValueError("diversity check needs at least one observed sample")
        lhs = float(self.supply.capped_sum(max_count / 2.0))
        cfg = self.config
        return _diversity_report(lhs, max_count, cfg.eps, cfg.delta, cfg.m)

    def _project(self, interval: TruncationInterval, s: float, block_size: int) -> float:
        # intervals are intersected with [0, block_size]: honest block sums
        # cannot leave that range, so the intersection only tightens the
        # formal sensitivity
        lo = max(interval.lo, 0.0)
        hi = min(interval.hi, float(block_size))
        return min(max(s, lo), hi)


class NaiveEstimator(_EstimatorBase):
    """Every sample goes straight into one counter; estimate is sum/t."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        eta = naive_noise_scale(config.m, config.T, config.eps)
        self.mechanisms = [
            BinaryMechanism(self._scale(eta), lambda: spawn_rng(config.seed, 1, 0), label="naive")
        ]

    def _make_budget(self) -> BudgetLedger:
        return BudgetLedger(self.config.eps).charge("mech", self.config.eps)

    def _process(self, event: StreamEvent) -> list[str]:
        self.counts[event.user] = self.counts.get(event.user, 0) + 1
        if self.t > self.config.T:
            raise ValueError(f"stream longer than configured T={self.config.T}")
        self.mechanisms[0].append(event.value)
        self.total = self.t
        return []

    def _noisy_sum(self) -> float:
        return self.mechanisms[0].sum()


class WishfulEstimator(_EstimatorBase):
    """Waits for each user's full batch of m samples, then feeds one
    truncated batch sum.  Requires user-contiguous arrival."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        eta = wishful_noise_scale(config.m, config.n, config.eps, config.delta)
        self.mechanisms = [
            BinaryMechanism(self._scale(eta), lambda: spawn_rng(config.seed, 1, 0), label="wishful")
        ]
        width = math.sqrt((config.m / 2.0) * math.log(2.0 * config.n / config.delta))
        width += math.sqrt(config.m)
        self._interval = TruncationInterval(
            center=config.m * config.prior, half_width=width, level=0
        )
        self._block: list[float] = []
        self._active_user: int | None = None
        self._finished: set[int] = set()

    def _make_budget(self) -> BudgetLedger:
        eps = self.config.eps
        ledger = BudgetLedger(2.0 * eps)
        ledger.charge("prior (external)", eps)
        ledger.charge("mech", eps)
        return ledger

    def _check_contiguous(self, user: int) -> None:
        if user in self._finished or (
            self._active_user is not None and user != self._active_user
        ):
            raise OrderingError(
                f"user {user} at t={self.t} breaks the user-contiguous arrival "
                "this estimator requires"
            )

    def _process(self, event: StreamEvent) -> list[str]:
        self.counts[event.user] = self.counts.get(event.user, 0) + 1
        if self.t > self.config.T:
            raise ValueError(f"stream longer than configured T={self.config.T}")
        self._check_contiguous(event.user)
        self._active_user = event.user
        self._block.append(event.value)
        flags: list[str] = []
        if len(self._block) == self.config.m:
            raw = math.fsum(self._block)
            sigma = raw
            if not self.config.clip_disabled:
                sigma = self._project(self._interval, raw, self.config.m)
            if sigma != raw:
                flags.append("clip")
            self.mechanisms[0].append(sigma)
            self.total += self.config.m
            self._finished.add(event.user)
            self._active_user = None
            self._block = []
        return flags

    def step(self, event: StreamEvent) -> TraceRecord:
        record = super().step(event)
        if self.t < self.config.m:
            # warm-up: publish the prior itself
            record = TraceRecord(
                t=record.t,
                user=record.user,
                estimate=self.config.prior,
                total=record.total,
                max_count=record.max_count,
                active_levels=None,
                flags=tuple(f for f in record.flags if f != "nodata"),
            )
            if self.config.keep_trace:
                self.records[-1] = record
        return record

    def _noisy_sum(self) -> float:
        return self.mechanisms[0].sum()


class _WithholdReleaseBase(_EstimatorBase):
    """Common release handling for the schedule-driven estimators."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        self.ledger = UserLedger()
        self.counts = self.ledger.counts  # the ledger counts each sample
        self._sum: float | None = 0.0  # noisy sum over all counters, until the next append

    def _handle_release(self, level: int, block_sum: float, block_size: int) -> list[str]:
        raise NotImplementedError

    def _append(self, index: int, sigma: float, block_size: int) -> None:
        """Feed one (projected) block sum to counter ``index``."""
        self.mechanisms[index].append(sigma)
        self.total += block_size
        self._sum = None

    def _process(self, event: StreamEvent) -> list[str]:
        decision = self.ledger.on_sample(event.user, event.value)
        if not decision.released:
            return []
        return self._handle_release(decision.level, decision.block_sum, decision.block_size)

    def _noisy_sum(self) -> float:
        if self._sum is None:
            self._sum = math.fsum(mech.sum() for mech in self.mechanisms)
        return self._sum


class SingleCounterEstimator(_WithholdReleaseBase):
    """Withhold-release blocks, all truncated into one counter."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        eta = single_noise_scale(config.m, config.n, config.eps, config.delta)
        self.mechanisms = [
            BinaryMechanism(self._scale(eta), lambda: spawn_rng(config.seed, 1, 0), label="single")
        ]
        self._intervals: dict[int, TruncationInterval] = {}

    def _make_budget(self) -> BudgetLedger:
        eps = self.config.eps
        ledger = BudgetLedger(2.0 * eps)
        ledger.charge("prior (external)", eps)
        ledger.charge("mech", eps)
        return ledger

    def _interval_at(self, level: int) -> TruncationInterval:
        if level not in self._intervals:
            cfg = self.config
            self._intervals[level] = interval_single(cfg.prior, level, cfg.m, cfg.n, cfg.delta)
        return self._intervals[level]

    def _handle_release(self, level: int, block_sum: float, block_size: int) -> list[str]:
        sigma = block_sum
        if level >= 1 and not self.config.clip_disabled:
            sigma = self._project(self._interval_at(level), block_sum, block_size)
        self._append(0, sigma, block_size)
        return ["clip"] if sigma != block_sum else []


class MultiCounterEstimator(_WithholdReleaseBase):
    """Withhold-release blocks, one counter per level with level-sized noise."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        self.big_l = math.ceil(math.log2(config.m))
        self.mechanisms = [
            BinaryMechanism(
                self._scale(multi_noise_scale(config.m, config.n, lv, config.eps, config.delta)),
                lambda lv=lv: spawn_rng(config.seed, 1, lv),
                label=f"multi[{lv}]",
            )
            for lv in range(self.big_l + 1)
        ]
        self._intervals: dict[int, TruncationInterval] = {}

    def _make_budget(self) -> BudgetLedger:
        eps = self.config.eps
        big_l = math.ceil(math.log2(self.config.m))
        ledger = BudgetLedger(2.0 * eps)
        ledger.charge("prior (external)", eps)
        for lv in range(big_l + 1):
            ledger.charge(f"mech[{lv}]", eps / (big_l + 1))
        return ledger

    def _interval_at(self, level: int) -> TruncationInterval:
        if level not in self._intervals:
            cfg = self.config
            self._intervals[level] = interval_single(cfg.prior, level, cfg.m, cfg.n, cfg.delta)
        return self._intervals[level]

    def _handle_release(self, level: int, block_sum: float, block_size: int) -> list[str]:
        sigma = block_sum
        if level >= 1 and not self.config.clip_disabled:
            sigma = self._project(self._interval_at(level), block_sum, block_size)
        self._append(level, sigma, block_size)
        return ["clip"] if sigma != block_sum else []


class FullEstimator(_WithholdReleaseBase):
    """No prior needed: levels >= 2 buffer their blocks until enough
    distinct users justify a private-median prior, then flush."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        cfg = config
        self.big_l = math.ceil(math.log2(cfg.m))
        self.mechanisms = [
            BinaryMechanism(
                self._scale(full_noise_scale(cfg.m, cfg.n, lv, cfg.eps, cfg.delta)),
                lambda lv=lv: spawn_rng(cfg.seed, 1, lv),
                label=f"full[{lv}]",
            )
            for lv in range(self.big_l + 1)
        ]
        self.inactive: set[int] = set(range(2, self.big_l + 1))
        self.buffers: dict[int, list[float]] = {lv: [] for lv in self.inactive}
        self.priors: dict[int, float] = {}
        self._intervals: dict[int, TruncationInterval] = {}
        self._history: list[StreamEvent] = []
        # (level, sum_u min(M(u), 2^(level-1)), activation threshold) per
        # inactive level, ascending
        self._waiting = tuple(
            (
                lv,
                self.supply.track(1 << (lv - 1)),
                (1 << (lv - 1))
                * math.ceil(
                    prior_array_count(
                        cfg.eps / (2.0 * self.big_l), lv, cfg.delta / (3.0 * self.big_l)
                    )
                ),
            )
            for lv in sorted(self.inactive)
        )
        self._active = (0, 1)

    def _make_budget(self) -> BudgetLedger:
        eps = self.config.eps
        big_l = math.ceil(math.log2(self.config.m))
        ledger = BudgetLedger(eps)
        for lv in range(1, big_l + 1):
            ledger.charge(f"prior[{lv}]", eps / (2.0 * big_l))
        for lv in range(big_l + 1):
            ledger.charge(f"mech[{lv}]", eps / (2.0 * (big_l + 1)))
        return ledger

    def active_levels(self) -> tuple[int, ...]:
        return self._active

    def buffered_sample_count(self) -> int:
        return sum((1 << (lv - 1)) * len(vals) for lv, vals in self.buffers.items())

    def _prior_for(self, level: int) -> float:
        cfg = self.config
        if cfg.prior_override is not None:
            return cfg.prior_override
        request = MedianRequest(
            history=tuple(self._history),
            eps=cfg.eps / (2.0 * self.big_l),
            level=level,
            beta=cfg.delta / (3.0 * self.big_l),
        )
        return private_median(request, spawn_rng(cfg.seed, 2, level))

    def _activate(self, level: int) -> None:
        cfg = self.config
        prior = self._prior_for(level)
        self.priors[level] = prior
        self._intervals[level] = interval_full(prior, level, cfg.n, cfg.m, cfg.eps, cfg.delta)
        for raw in self.buffers.pop(level):
            sigma = raw
            if not cfg.clip_disabled:
                sigma = self._project(self._intervals[level], raw, 1 << (level - 1))
            self._append(level, sigma, 1 << (level - 1))
        self.inactive.discard(level)
        done = next(w for w in self._waiting if w[0] == level)
        self.supply.untrack(done[1])
        self._waiting = tuple(w for w in self._waiting if w is not done)
        self._active = tuple(lv for lv in range(self.big_l + 1) if lv not in self.inactive)

    def _process(self, event: StreamEvent) -> list[str]:
        self._history.append(event)
        decision = self.ledger.on_sample(event.user, event.value)

        # activation runs on the post-increment counts (``step`` has already
        # moved this user in ``supply``), before this event's own release is
        # routed
        for level, supply, threshold in self._waiting:
            if supply.value >= threshold:
                self._activate(level)

        if not decision.released:
            return []
        return self._handle_release(decision.level, decision.block_sum, decision.block_size)

    def _handle_release(self, level: int, block_sum: float, block_size: int) -> list[str]:
        if level in self.inactive:
            self.buffers[level].append(block_sum)
            return []
        sigma = block_sum
        if level >= 2 and not self.config.clip_disabled:
            sigma = self._project(self._intervals[level], block_sum, block_size)
        self._append(level, sigma, block_size)
        return ["clip"] if sigma != block_sum else []


_CLASSES = {
    "naive": NaiveEstimator,
    "wishful": WishfulEstimator,
    "single": SingleCounterEstimator,
    "multi": MultiCounterEstimator,
    "full": FullEstimator,
}


def make_estimator(config: EstimatorConfig) -> _EstimatorBase:
    return _CLASSES[config.algorithm](config)
