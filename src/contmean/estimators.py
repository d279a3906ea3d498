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

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from contmean.binmech import BinaryMechanism
from contmean.median import MedianRequest, array_size, arrays_required, private_median
from contmean.noise import BudgetLedger, spawn_rng
from contmean.streams import StreamEvent
from contmean.truncate import (
    TruncationInterval,
    full_prior_split,
    interval_full,
    interval_single,
    project,
)
from contmean.withhold import UserLedger

__all__ = [
    "ALGORITHMS",
    "DiversityReport",
    "EstimatorConfig",
    "OrderingError",
    "PrivacyRow",
    "TraceRecord",
    "check_diversity",
    "full_noise_scale",
    "make_estimator",
    "multi_noise_scale",
    "naive_noise_scale",
    "privacy_table",
    "single_noise_scale",
    "wishful_noise_scale",
    "write_trace",
]

ALGORITHMS = ("naive", "wishful", "single", "multi", "full")

TRACE_HEADER = ["t", "user", "estimate", "total", "M_t", "flags"]


class OrderingError(ValueError):
    """Arrival order violates an estimator precondition."""


# --------------------------------------------------------------------------
# Privacy tables.  Logs are base 2 throughout (they index dyadic levels).


class PrivacyRow(NamedTuple):
    """One charge against an algorithm's budget, booked as ``label``.

    The row spends ``share`` = eps / ``split``.  A counter row (``counter``
    names the tree counter) bounds the l1 change one user can cause across
    the counter's stored partial sums by ``sensitivity``, touching at most
    ``entries`` of them; the counter's Laplace scale is ``eta``.  A prior
    row pays for one prior mean; ``full``'s are private medians that fail
    with probability at most ``beta``.
    """

    label: str
    eps: float
    split: int
    counter: str | None = None
    sensitivity: float = 0.0
    entries: float = 0.0
    beta: float = 0.0

    @property
    def share(self) -> float:
        return self.eps / self.split

    @property
    def eta(self) -> float:
        return self.sensitivity * self.split / self.eps


def _naive_row(m: int, T: int, eps: float) -> PrivacyRow:
    # every sample is an element of one counter; a user adds m of them
    sensitivity = m * (1.0 + math.log2(T))
    return PrivacyRow("mech", eps, 1, "naive", sensitivity, m * (1 + math.floor(math.log2(T))))


def _per_user_row(
    label: str, counter: str, eps: float, split: int, per_entry: float, n: int
) -> PrivacyRow:
    """A counter fed at most one element per user: each element lands in at
    most 1 + log2(n) partial sums and moves each by at most ``per_entry``."""
    entries = 1 + math.log2(n)
    return PrivacyRow(label, eps, split, counter, per_entry * entries, entries)


def _wishful_width(m: int, n: int, delta: float) -> float:
    return math.sqrt((m / 2.0) * math.log(2.0 * n / delta)) + math.sqrt(m)


def _wishful_row(m: int, n: int, eps: float, delta: float) -> PrivacyRow:
    return _per_user_row("mech", "wishful", eps, 1, 2.0 * _wishful_width(m, n, delta), n)


def _single_row(m: int, n: int, eps: float, delta: float) -> PrivacyRow:
    width = math.sqrt((m / 2.0) * math.log(2.0 * n * math.log2(m) / delta)) + math.sqrt(m)
    uses = math.log2(1.0 + n * (1.0 + math.log2(m)))
    sensitivity = 2.0 * width * (1.0 + math.log2(m)) * uses
    return PrivacyRow("mech", eps, 1, "single", sensitivity, (1 + math.log2(m)) * uses)


def _multi_row(m: int, n: int, level: int, eps: float, delta: float) -> PrivacyRow:
    size = 2.0 ** (level - 1)
    width = math.sqrt((size / 2.0) * math.log(2.0 * n * math.log2(m) / delta)) + math.sqrt(size)
    split = math.ceil(math.log2(m)) + 1
    return _per_user_row(f"mech[{level}]", f"multi[{level}]", eps, split, 2.0 * width, n)


def _full_row(m: int, n: int, level: int, eps: float, delta: float) -> PrivacyRow:
    if level <= 1:
        # identity projection; a raw sample moves by at most 1
        per_entry = float(1 << max(level - 1, 0))
    else:
        per_entry = 2.0 * interval_full(0.0, level, n, m, eps, delta).half_width
    split = 2 * (math.ceil(math.log2(m)) + 1)
    return _per_user_row(f"mech[{level}]", f"full[{level}]", eps, split, per_entry, n)


def _full_prior_row(m: int, level: int, eps: float, delta: float) -> PrivacyRow:
    split, beta = full_prior_split(m, delta)
    return PrivacyRow(f"prior[{level}]", eps, split, beta=beta)


# An audit builds thousands of estimators from one config, so each table is
# computed once.
@functools.lru_cache(maxsize=128)
def privacy_table(config: EstimatorConfig) -> tuple[PrivacyRow, ...]:
    """Every charge of ``config``'s algorithm, in ledger order.

    Counter rows appear in counter order: one counter for naive, wishful and
    single, one per release level 0..L (L = ceil(log2 m)) for multi and
    full.  A supplied prior is charged eps of its own, on top of the eps the
    algorithm spends.  ``full`` books one median prior per level 1..L,
    though level 1 never uses its prior.
    """
    m, n, eps, delta = config.m, config.n, config.eps, config.delta
    algorithm = config.algorithm
    if algorithm == "naive":
        return (_naive_row(m, config.T, eps),)
    levels = range(math.ceil(math.log2(m)) + 1)
    if algorithm == "full":
        return (
            *(_full_prior_row(m, lv, eps, delta) for lv in levels[1:]),
            *(_full_row(m, n, lv, eps, delta) for lv in levels),
        )
    external = PrivacyRow("prior (external)", eps, 1)
    if algorithm == "wishful":
        return (external, _wishful_row(m, n, eps, delta))
    if algorithm == "single":
        return (external, _single_row(m, n, eps, delta))
    return (external, *(_multi_row(m, n, lv, eps, delta) for lv in levels))


def naive_noise_scale(m: int, T: int, eps: float) -> float:
    return _naive_row(m, T, eps).eta


def wishful_noise_scale(m: int, n: int, eps: float, delta: float) -> float:
    return _wishful_row(m, n, eps, delta).eta


def single_noise_scale(m: int, n: int, eps: float, delta: float) -> float:
    return _single_row(m, n, eps, delta).eta


def multi_noise_scale(m: int, n: int, level: int, eps: float, delta: float) -> float:
    return _multi_row(m, n, level, eps, delta).eta


def full_noise_scale(m: int, n: int, level: int, eps: float, delta: float) -> float:
    return _full_row(m, n, level, eps, delta).eta


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
        # NaN fails ``0 < eps < inf``: a NaN or infinite budget would publish
        # NaN or run without noise
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
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
        if self.prior_override is not None and not 0.0 <= self.prior_override <= 1.0:
            raise ValueError(f"prior_override must be in [0, 1], got {self.prior_override}")
        if self.noise_override is not None and not 0 <= self.noise_override < math.inf:
            raise ValueError(f"noise_override must be nonnegative and finite, got {self.noise_override}")


@dataclass(slots=True)
class TraceRecord:
    """One published step: estimate, denominator, and status flags.

    ``step`` builds one per event, and a frozen dataclass costs several
    times as much to build, so this one is not frozen.  The record ``step``
    returns is the one it keeps in ``records``: treat it as read-only and
    use ``dataclasses.replace`` for a changed copy.

    ``clip`` depends on raw block sums: it is value-dependent and not
    private, so ``flags_str``, hence ``write_trace``, leaves it out.  The
    other fields are the private estimate, ``oob`` (a function of it), or
    functions of the arrival pattern, which is treated as public.
    """

    t: int
    user: int
    estimate: float
    total: int
    max_count: int
    active_levels: tuple[int, ...] | None
    flags: tuple[str, ...]

    def flags_str(self) -> str:
        """The flags field as written: every flag but ``clip``, then the
        active levels as ``act=``."""
        tokens = [tok for tok in self.flags if tok != "clip"]
        if self.active_levels is not None:
            tokens.append("act=" + "-".join(str(lv) for lv in self.active_levels))
        return ";".join(tokens)


def _trace_lines(records):
    # one flags field per distinct (flags, active levels) pair
    tails: dict = {}
    for r in records:
        key = (r.flags, r.active_levels)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = r.flags_str()
        yield f"{r.t},{r.user},{r.estimate!r},{r.total},{r.max_count},{tail}\r\n"


def write_trace(records, path) -> None:
    """Write trace records as CSV rows ``t,user,estimate,total,M_t,flags``.

    Rows are written as ``csv.writer`` writes them, CRLF included: no field
    needs quoting, since flags come from a fixed comma-free vocabulary.  The
    flags field is ``flags_str``, without the value-dependent ``clip``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        fh.writelines(_trace_lines(records))


@dataclass(frozen=True)
class DiversityReport:
    satisfied: bool
    lhs: float
    rhs: float
    max_count: int


def _diversity_prior(m: int, eps: float, delta: float) -> tuple[float, float] | None:
    """(16 / share, beta) of ``full``'s median prior rows, the terms of the
    diversity threshold that do not change with M_t; None at m = 1."""
    if m == 1:
        return None
    prior = _full_prior_row(m, 1, eps, delta)
    return 16.0 / prior.share, prior.beta


def _diversity_rhs(max_count: int, prior: tuple[float, float] | None) -> float:
    """Samples, capped at M_t/2 per user, that buy ``full``'s median priors
    (``prior`` from ``_diversity_prior``) at scale M_t."""
    if prior is None:
        # nothing is withheld, so the condition is vacuous (the limit of
        # L log L as L -> 0)
        return 0.0
    weight, beta = prior
    return (max_count / 2.0) * weight * math.log(math.sqrt(max_count) / beta)


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
    rhs = _diversity_rhs(max_count, _diversity_prior(m, eps, delta))
    return DiversityReport(satisfied=lhs >= rhs, lhs=lhs, rhs=rhs, max_count=max_count)


class CappedSum:
    """sum_u min(c_u, cap) over all users, kept current by a ``CappedSupply``."""

    __slots__ = ("cap", "value")

    def __init__(self, cap: float, value: float):
        self.cap = cap
        self.value = value


class CappedSupply:
    """Users with at least k samples, plus running capped sums over them.

    ``at_least[k]`` = A(k), the number of users that hold k or more samples,
    k = 1..m (slot 0 is unused and slot m + 1 stays 0).  A user moving from c
    to c + 1 samples changes A(c + 1) alone, and sum_u min(c_u, cap) equals
    sum_{k <= floor(cap)} A(k) + (cap - floor(cap)) * A(floor(cap) + 1).
    Each tracked ``CappedSum`` stays exact in O(1) per sample, gaining
    min(c + 1, cap) - min(c, cap), which is 1, 1/2 or 0, and in O(1) per
    half-step raise of its cap.  Every sum is a multiple of 1/2 no larger
    than n * m, so float sums and comparisons are exact.
    """

    __slots__ = ("at_least", "max_count", "sums")

    def __init__(self, m: int):
        self.at_least = [0] * (m + 2)
        self.max_count = 0
        self.sums: list[CappedSum] = []

    def add(self, count: int) -> bool:
        """Move one user from ``count`` samples to ``count + 1``; return
        whether that raised ``max_count``."""
        self.at_least[count + 1] += 1
        for s in self.sums:
            if count < s.cap:
                s.value += 1 if count + 1 <= s.cap else s.cap - count
        if count < self.max_count:
            return False
        self.max_count = count + 1
        return True

    def raise_half(self, s: CappedSum) -> None:
        """Raise ``s``'s cap, a multiple of 1/2, by 1/2: each user above the
        old cap, A(floor(cap) + 1) of them, gains 1/2 and nobody else moves."""
        k = int(s.cap) + 1
        if k <= self.max_count:
            s.value += 0.5 * self.at_least[k]
        s.cap += 0.5

    def capped_sum(self, cap: float) -> float:
        """sum_u min(c_u, cap), recounted from ``at_least`` in O(min(cap, M))."""
        whole = min(int(cap), self.max_count)  # A(k) = 0 above max_count
        at_least = self.at_least
        return sum(at_least[1 : whole + 1]) + (cap - whole) * at_least[whole + 1]

    def track(self, cap: float) -> CappedSum:
        s = CappedSum(cap, self.capped_sum(cap))
        self.sums.append(s)
        return s

    def untrack(self, s: CappedSum) -> None:
        self.sums.remove(s)

    def copy(self) -> CappedSupply:
        """An independent twin; its ``sums`` are new ``CappedSum``s in the
        same order as these."""
        cls = type(self)
        twin = cls.__new__(cls)
        twin.at_least = self.at_least[:]
        twin.max_count = self.max_count
        twin.sums = [CappedSum(s.cap, s.value) for s in self.sums]
        return twin


# --------------------------------------------------------------------------


class _EstimatorBase:
    """Shared event loop: input checks, count bookkeeping, trace records,
    publication.

    The counters and the budget ledger are built from one privacy table, so
    each counter's noise scale and its ledger share come from the same row.
    Per-user counts live in ``counts`` (users seen so far only) and, as
    counts of users with at least k samples plus capped sums, in
    ``supply``; a ``step`` costs O(1) in n.

    An instance owns all of its state and is single-threaded; independent
    instances (e.g. Monte-Carlo trials) never interact and may run on
    separate threads.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.t = 0
        self.total = 0
        self.records: list[TraceRecord] = []
        self.table = privacy_table(config)
        self.budget = BudgetLedger(2.0 * config.eps if config.prior is not None else config.eps)
        for row in self.table:
            self.budget.charge(row.label, row.share)
        noise = config.noise_override
        counters = [row for row in self.table if row.counter is not None]
        self.mechanisms = [
            BinaryMechanism(
                row.eta if noise is None else noise,
                lambda i=i: spawn_rng(config.seed, 1, i),
                label=row.counter,
            )
            for i, row in enumerate(counters)
        ]
        self._sum = 0.0  # the counters' noisy total, set after every append
        self.counts: dict[int, int] = {}
        self.supply = CappedSupply(config.m)
        self._last_t = 0
        # the div flag's sum at cap M_t/2 and its threshold; the cap and
        # the threshold change only when M_t rises
        tracking = config.track_diversity
        self._half_supply = self.supply.track(0.0) if tracking else None
        self._diversity_prior = _diversity_prior(config.m, config.eps, config.delta) if tracking else None
        self._diversity_rhs = math.inf
        self._active: tuple[int, ...] | None = None  # set by estimators that hold levels back
        self._max_t = math.inf  # the longest stream accepted: T for naive and wishful

    # -- subclass hooks ----------------------------------------------------

    def _process(self, event: StreamEvent, count: int) -> bool:
        """Consume one event of a user that held ``count`` samples before
        it: count it in ``counts``, update mechanisms and ``total``; return
        whether a block was clipped."""
        raise NotImplementedError

    def active_levels(self) -> tuple[int, ...] | None:
        return self._active

    # -- common loop -------------------------------------------------------

    def _refuse(self, event: StreamEvent) -> None:
        """Raise the first ``ValueError`` that applies to ``event``, in the
        order ``step`` checks them; return if none does."""
        cfg = self.config
        user = event.user
        if not 1 <= user <= cfg.n:
            raise ValueError(f"user {user} outside [1, {cfg.n}]")
        # the noise is calibrated to samples in [0, 1]; NaN fails this too
        if not 0.0 <= event.value <= 1.0:
            raise ValueError(f"sample value {event.value!r} outside [0, 1]")
        if event.t <= self._last_t:
            raise ValueError(f"t={event.t} does not increase past {self._last_t}")
        if self.counts.get(user, 0) >= cfg.m:
            raise ValueError(f"user {user} exceeds the per-user cap m={cfg.m}")
        if self.t >= self._max_t:
            raise ValueError(f"stream longer than configured T={cfg.T}")

    def step(self, event: StreamEvent) -> TraceRecord:
        cfg = self.config
        user = event.user
        count = self.counts.get(user, 0)
        # every check of ``_refuse`` in one test, so a rejected event
        # changes no state
        if not (
            1 <= user <= cfg.n
            and 0.0 <= event.value <= 1.0
            and event.t > self._last_t
            and count < cfg.m
            and self.t < self._max_t
        ):
            self._refuse(event)
        self.t += 1
        self._last_t = event.t
        supply = self.supply
        max_rose = supply.add(count)

        flags = ("clip",) if self._process(event, count) else ()

        if self.total:
            estimate = self._sum / self.total
            if not 0.0 <= estimate <= 1.0:
                flags += ("oob",)
        else:
            # only wishful gets here: it holds its first user's batch back
            # until all m samples arrive, while the others release every
            # user's first sample at once
            estimate = cfg.prior
        half = self._half_supply
        if half is not None:
            if max_rose:
                # M_t rose by 1, so the cap M_t/2 rises by 1/2
                supply.raise_half(half)
                self._diversity_rhs = _diversity_rhs(supply.max_count, self._diversity_prior)
            if half.value >= self._diversity_rhs:
                flags += ("div",)

        record = TraceRecord(self.t, user, estimate, self.total, supply.max_count, self._active, flags)
        if cfg.keep_trace:
            self.records.append(record)
        return record

    def run(self, events) -> list[TraceRecord]:
        return [self.step(ev) for ev in events]

    # -- branching ---------------------------------------------------------

    def copy(self) -> _EstimatorBase:
        """An independent twin in this estimator's exact state: stepping
        either one leaves the other as it was, and the twin publishes, stores
        and draws exactly what this estimator would from here on.

        Mutable state is copied and immutable state (config, privacy table,
        counter routing, intervals, trace records) shared.  The twin is
        built without ``__init__``: it copies the budget ledger's entries,
        so it charges nothing.  Each class copies the attributes its own
        ``__init__`` sets, one by one and in the same order, never through
        ``__dict__``: on CPython 3.11 an instance whose ``__dict__`` has been
        materialised loses the inline attribute layout that ``step``'s
        specialised attribute loads expect.
        """
        cls = type(self)
        twin = cls.__new__(cls)
        twin.config = self.config
        twin.t = self.t
        twin.total = self.total
        twin.records = self.records[:]
        twin.table = self.table
        twin.budget = self.budget.copy()
        twin.mechanisms = [mech.copy() for mech in self.mechanisms]
        twin._sum = self._sum
        twin.counts = dict(self.counts)
        twin.supply = self.supply.copy()
        twin._last_t = self._last_t
        half = self._half_supply
        twin._half_supply = None if half is None else self._twin_sum(twin, half)
        twin._diversity_prior = self._diversity_prior
        twin._diversity_rhs = self._diversity_rhs
        twin._active = self._active
        twin._max_t = self._max_t
        return twin

    def _twin_sum(self, twin: _EstimatorBase, s: CappedSum) -> CappedSum:
        """``twin``'s copy of the ``CappedSum`` ``s`` that ``supply`` tracks."""
        return twin.supply.sums[self.supply.sums.index(s)]

    def diversity(self) -> DiversityReport:
        cfg = self.config
        return check_diversity(self.counts, cfg.eps, cfg.delta, cfg.m)


class NaiveEstimator(_EstimatorBase):
    """Every sample goes straight into one counter; estimate is sum/t."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        self._max_t = config.T

    def _process(self, event: StreamEvent, count: int) -> bool:
        self.counts[event.user] = count + 1
        mech = self.mechanisms[0]
        mech.append(event.value)
        self._sum = mech.sum()
        self.total = self.t
        return False


class WishfulEstimator(NaiveEstimator):
    """Waits for each user's full batch of m samples, then feeds one
    truncated batch sum.  Requires user-contiguous arrival, and publishes
    the prior until the first batch completes."""

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        width = _wishful_width(config.m, config.n, config.delta)
        self._interval = TruncationInterval(center=config.m * config.prior, half_width=width, level=0)
        self._block: list[float] = []  # the open batch of the last user

    def copy(self) -> WishfulEstimator:
        twin = super().copy()
        twin._interval = self._interval
        twin._block = self._block[:]
        return twin

    def step(self, event: StreamEvent) -> TraceRecord:
        # while a batch is open only its user may arrive; a returning user
        # that already gave all m samples fails the per-user cap first
        if self._block and event.user not in self.counts:
            self._refuse(event)
            raise OrderingError(
                f"user {event.user} at t={self.t + 1} breaks the user-contiguous arrival "
                "this estimator requires"
            )
        return super().step(event)

    def _process(self, event: StreamEvent, count: int) -> bool:
        self.counts[event.user] = count + 1
        self._block.append(event.value)
        m = self.config.m
        if len(self._block) < m:
            return False
        raw = math.fsum(self._block)
        sigma = raw if self.config.clip_disabled else project(self._interval, raw, m)
        mech = self.mechanisms[0]
        mech.append(sigma)
        self._sum = mech.sum()
        self.total += m
        self._block = []
        return sigma != raw


class WithholdReleaseEstimator(_EstimatorBase):
    """The withhold-release schedule: ``single``, ``multi`` and ``full``.

    Each released block is projected onto its level's interval, if the level
    has one, then fed to counter 0 when the privacy table has one counter,
    else to its level's counter.  The three differ only in data, decided by
    whether a prior is supplied.  With one (``single``, ``multi``), levels 1
    and up get intervals centred on it at construction and no level waits.
    Without one (``full``), levels 2 and up wait: each buffers its blocks,
    outside the estimate, until enough distinct users pay for a
    private-median prior at its scale; activation sets the level's interval
    and flushes its buffer.  ``clip_disabled`` leaves every level without
    an interval.
    """

    def __init__(self, config: EstimatorConfig):
        super().__init__(config)
        self.ledger = UserLedger()
        self.counts = self.ledger.counts  # the ledger counts each sample
        levels = math.ceil(math.log2(config.m)) + 1
        # counter index fed by each release level
        self._feeds = [0] * levels if len(self.mechanisms) == 1 else list(range(levels))
        clipped = config.prior is not None and not config.clip_disabled
        self._intervals: list[TruncationInterval | None] = [
            interval_single(config.prior, lv, config.m, config.n, config.delta) if clipped and lv else None
            for lv in range(levels)
        ]
        self._sums = [0.0] * len(self.mechanisms)  # each counter's noisy sum
        # a level waits exactly while it holds a buffer
        waiting = range(2, levels) if config.prior is None else ()
        self.buffers: dict[int, list[float]] = {lv: [] for lv in waiting}
        self.priors: dict[int, float] = {}
        # each user's first 2^(L-1) events: the most any level's median reads
        self._history: list[StreamEvent] = []
        self._history_cap = 1 << (levels - 2) if self.buffers else 0
        # the capped sum at the lowest waiting level, tracked until the last
        # activation, and that level's threshold
        self._gate: CappedSum | None = None
        self._need = math.inf
        if self.buffers:
            cap, self._need = self._gate_at(2)
            self._gate = self.supply.track(cap)
        if config.prior is None:
            self._active = (0, 1)

    def copy(self) -> WithholdReleaseEstimator:
        twin = super().copy()
        twin.ledger = self.ledger.copy()
        twin.counts = twin.ledger.counts
        twin._feeds = self._feeds
        twin._intervals = self._intervals[:]
        twin._sums = self._sums[:]
        twin.buffers = {lv: vals[:] for lv, vals in self.buffers.items()}
        twin.priors = dict(self.priors)
        twin._history = self._history[:]
        twin._history_cap = self._history_cap
        twin._gate = None if self._gate is None else self._twin_sum(twin, self._gate)
        twin._need = self._need
        return twin

    @property
    def inactive(self) -> set[int]:
        return set(self.buffers)

    def buffered_sample_count(self) -> int:
        return sum(array_size(lv) * len(vals) for lv, vals in self.buffers.items())

    def _prior_row(self, level: int) -> PrivacyRow:
        return self.table[level - 1]  # without a prior, the rows of priors 1..L lead the table

    def _gate_at(self, level: int) -> tuple[int, float]:
        """The gate's cap and threshold at a waiting ``level``: its median's
        array size, and the supply that fills its arrays,
        sum_u min(M(u), array size) >= arrays * array size."""
        row = self._prior_row(level)
        size = array_size(level)
        return size, arrays_required(row.share, level, row.beta) * size

    def _median_request(self, level: int) -> MedianRequest:
        row = self._prior_row(level)
        return MedianRequest(tuple(self._history), row.share, level, row.beta)

    def _activate(self, level: int) -> None:
        cfg = self.config
        if cfg.prior_override is not None:
            prior = cfg.prior_override
        else:
            prior = private_median(self._median_request(level), spawn_rng(cfg.seed, 2, level))
        self.priors[level] = prior
        if not cfg.clip_disabled:
            self._intervals[level] = interval_full(prior, level, cfg.n, cfg.m, cfg.eps, cfg.delta)
        size = array_size(level)
        for raw in self.buffers.pop(level):
            self._release(level, raw, size)
        self._active += (level,)
        gate = self._gate
        if self.buffers:
            gate.cap, self._need = self._gate_at(next(iter(self.buffers)))
            gate.value = self.supply.capped_sum(gate.cap)
        else:
            self.supply.untrack(gate)
            self._gate = None
            self._need = math.inf
            self._history = []
            self._history_cap = 0

    def _process(self, event: StreamEvent, count: int) -> bool:
        gate = self._gate  # None while no level waits
        if gate is not None:
            if count < self._history_cap:
                self._history.append(event)
            # activation reads the post-increment counts (``step`` has
            # already moved this user in ``supply``) and runs before this
            # event's own release is routed.  Levels activate in ascending
            # order: level l+1's capped sum is at most twice level l's, and
            # its threshold (arrays twice as long, and no fewer) at least
            # twice level l's, so only the lowest waiting level, the one
            # ``gate`` tracks against ``_need``, can be next.  The last
            # activation sets ``_need`` to infinity.
            while gate.value >= self._need:
                self._activate(next(iter(self.buffers)))
        released = self.ledger.record(event.user, event.value, count)
        if released is None:
            return False
        level, block_sum, block_size = released
        if gate is not None:
            buffer = self.buffers.get(level)
            if buffer is not None:
                buffer.append(block_sum)
                return False
        # on CPython 3.11 a call with unpacked arguments costs about half
        # of ``_release(*released)``, which the interpreter cannot specialise
        return self._release(level, block_sum, block_size)

    def _release(self, level: int, block_sum: float, block_size: int) -> bool:
        """Feed one block to its level's counter; return whether it was clipped."""
        interval = self._intervals[level]
        sigma = block_sum if interval is None else project(interval, block_sum, block_size)
        i = self._feeds[level]
        mech = self.mechanisms[i]
        mech.append(sigma)
        sums = self._sums
        sums[i] = mech.sum()
        self._sum = math.fsum(sums)
        self.total += block_size
        return sigma != block_sum


_CLASSES = {
    "naive": NaiveEstimator,
    "wishful": WishfulEstimator,
    "single": WithholdReleaseEstimator,
    "multi": WithholdReleaseEstimator,
    "full": WithholdReleaseEstimator,
}


def make_estimator(config: EstimatorConfig) -> _EstimatorBase:
    return _CLASSES[config.algorithm](config)
