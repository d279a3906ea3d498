"""The five continual mean estimators.

All five publish an estimate after every event, from one ``step``, and
differ in data only: a release law, a privacy table and per-level
intervals.  ``naive`` feeds raw samples to one tree counter.  ``wishful``
requires user-contiguous arrival and feeds one truncated per-user sum.
``single`` and ``multi`` apply the exponential withhold-release schedule
with a supplied prior, feeding truncated dyadic blocks to one counter or to
one counter per level.  ``full`` needs no prior: it buffers blocks for
levels whose truncation interval cannot be centered yet, and activates a
level once enough distinct users have contributed to pay for a
private-median prior.

A release law is a per-count table, built from the ledger's
``releases`` by ``_release_table`` and shared, and ``step`` applies it
inline.  So a withheld sample makes no Python call: it adds the value to
its user's running sum in ``pending`` and publishes the estimate the last
release set.  A release calls the route to the counter (``_release``),
which clamps the block with two comparisons and sets the estimate, and the
counter's ``append``, which returns the new running sum.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from contmean.binmech import BinaryMechanism
from contmean.median import MedianRequest, array_size, arrays_required, extend_columns, private_median
from contmean.noise import BudgetLedger, spawn_rng
from contmean.streams import StreamEvent, _require_int
from contmean.truncate import (
    TruncationInterval,
    clamp_bounds,
    full_prior_split,
    interval_full,
    interval_single,
    top_level,
)
from contmean.withhold import BatchLedger, SampleLedger, UserLedger

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
    split = top_level(m) + 1
    return _per_user_row(f"mech[{level}]", f"multi[{level}]", eps, split, 2.0 * width, n)


def _full_row(m: int, n: int, level: int, eps: float, delta: float) -> PrivacyRow:
    if level <= 1:
        # identity projection; a raw sample moves by at most 1
        per_entry = float(1 << max(level - 1, 0))
    else:
        per_entry = 2.0 * interval_full(0.0, level, n, m, eps, delta).half_width
    split = 2 * (top_level(m) + 1)
    return _per_user_row(f"mech[{level}]", f"full[{level}]", eps, split, per_entry, n)


def _full_prior_row(m: int, level: int, eps: float, delta: float) -> PrivacyRow:
    split, beta = full_prior_split(m, delta)
    return PrivacyRow(f"prior[{level}]", eps, split, beta=beta)


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
    levels = range(top_level(m) + 1)
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
        # a numpy scalar prior is stored as the equal Python number: it is
        # the estimate until the first release, and a trace writes its repr
        for field in ("prior", "prior_override"):
            value = getattr(self, field)
            if isinstance(value, np.generic):
                object.__setattr__(self, field, value.item())
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        for field in ("n", "m", "seed"):
            _require_int(field, getattr(self, field))
        if self.T is not None:
            _require_int("T", self.T)
        # a bad seed would otherwise fail at the first noise draw, inside
        # a ``step`` that has already moved state
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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

    ``step`` makes one per event without calling ``__init__``: it takes
    ``object.__new__(TraceRecord)`` and stores the seven slots itself, in
    its own frame, so the class is not frozen.  The record ``step`` returns
    is the one it keeps in ``records``: treat it as read-only and use
    ``dataclasses.replace`` for a changed copy.

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
    # one flags field per distinct (flags, active levels) pair, and one
    # estimate text per run of equal estimates: a withhold-release estimate
    # changes only on a release.  A zero is formatted afresh, as 0.0 == -0.0,
    # and so is a change of type, as 1 == 1.0 (an int prior is published
    # as given).  Both only save work, so records written over several
    # calls give the rows one call gives
    tails: dict = {}
    last = text = None
    for r in records:
        key = (r.flags, r.active_levels)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = r.flags_str()
        estimate = r.estimate
        if estimate != last or not estimate or estimate.__class__ is not last.__class__:
            last = estimate
            text = repr(estimate)
        yield f"{r.t},{r.user},{text},{r.total},{r.max_count},{tail}\r\n"


@contextlib.contextmanager
def _trace_file(path):
    """``path`` opened for trace rows, its header written.  A body that
    raises leaves no file: a trace written in parts is removed when a part
    fails."""
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(",".join(TRACE_HEADER) + "\r\n")
            yield fh
    except BaseException:
        os.remove(path)
        raise


def write_trace(records, path) -> None:
    """Write trace records as CSV rows ``t,user,estimate,total,M_t,flags``.

    Rows are written as ``csv.writer`` writes them, CRLF included: no field
    needs quoting, since flags come from a fixed comma-free vocabulary.  The
    flags field is ``flags_str``, without the value-dependent ``clip``.
    """
    with _trace_file(path) as fh:
        fh.writelines(_trace_lines(records))


# ``step`` builds a record from a blank one, ``object.__new__(TraceRecord)``
# (``_new``, one global load), and takes its flags from ``_FLAGS`` by the
# bits 4 * clip + 2 * oob + div, each tuple in the order clip, oob, div
_new = object.__new__
_FLAGS = (
    (), ("div",), ("oob",), ("oob", "div"),
    ("clip",), ("clip", "div"), ("clip", "oob"), ("clip", "oob", "div"),
)


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
    estimator keeps the same quantity incrementally, as ``_half``.
    """
    if isinstance(counts, UserLedger):
        counts = counts.counts
    if not counts or all(c == 0 for c in counts.values()):
        raise ValueError("diversity check needs at least one observed sample")
    max_count = max(counts.values())
    lhs = float(sum(min(c, max_count / 2.0) for c in counts.values()))
    rhs = _diversity_rhs(max_count, _diversity_prior(m, eps, delta))
    return DiversityReport(satisfied=lhs >= rhs, lhs=lhs, rhs=rhs, max_count=max_count)


def _capped_sum(at_least: list[int], max_count: int, cap: float) -> float:
    """sum_u min(c_u, cap), recounted in O(min(cap, M_t)) from ``at_least``,
    where ``at_least[k]`` = A(k) is the number of users that hold k or more
    samples: the sum is sum_{k <= floor(cap)} A(k) + (cap - floor(cap)) *
    A(floor(cap) + 1)."""
    whole = min(int(cap), max_count)  # A(k) = 0 above M_t
    return sum(at_least[1 : whole + 1]) + (cap - whole) * at_least[whole + 1]


# --------------------------------------------------------------------------

# the release tables ``_release_table`` has built
_TABLES: dict[object, tuple[tuple[int, int] | None, ...]] = {}


def _release_table(ledger: UserLedger, m: int) -> tuple[tuple[int, int] | None, ...]:
    """``ledger``'s law for counts up to at least m, as a shared table of
    ``releases(c)`` at c (None at 0): one per law, grown to the largest m
    seen, as the table at m is a prefix of those at larger m, but one per m
    for the batch law, which depends on m."""
    key = (BatchLedger, m) if isinstance(ledger, BatchLedger) else type(ledger)
    table = _TABLES.get(key, (None,))
    if len(table) <= m:
        table = _TABLES[key] = table + tuple(map(ledger.releases, range(len(table), m + 1)))
    return table


class _EstimatorBase:
    """The one event loop of all five estimators: input checks, count
    bookkeeping, the route from a release to its counter, trace records and
    publication.

    The estimators differ in data, not in code:

    - ``ledger``'s release law (``withhold``): every sample at once
      (``naive``), a user's m samples as one batch (``wishful``), or dyadic
      blocks (``single``, ``multi``, ``full``).  ``_law`` tabulates it per
      count, and ``step`` applies the table itself, as ``ledger.record``
      would: a withheld sample joins its user's sum in ``pending``, and a
      release pops that sum into ``_release``, or, for a block of one
      sample, passes the sample itself.
    - The privacy table, hence the counters: one that every release level
      feeds (``naive``, ``wishful``, ``single``), or one per level
      (``multi``, ``full``), whose noisy sums ``_sums`` keeps.
    - Each level's interval, with the clamp bounds ``_release`` applies:
      ``wishful``'s at block size m, and for ``single`` and ``multi``
      intervals centred on the supplied prior at levels 1 and up.
      ``naive``, level 0 and ``clip_disabled`` clamp nothing.
    - Which levels wait.  Without a prior, ``full``'s levels 2 and up
      buffer their blocks, outside the estimate, until enough distinct users
      pay for a private-median prior at their scale; activation sets the
      level's interval and releases its buffer along the same route.

    The counters and the budget ledger are built from one privacy table, so
    each counter's noise scale and its ledger share come from the same row.
    Per-user counts live in ``counts`` (users seen so far only) and, as
    counts of users with at least k samples plus capped sums, in the supply
    fields beside the thresholds they are compared with; a ``step`` costs
    O(1) in n.

    The published estimate is state too.  ``_release`` is the one place a
    counter's noisy sum and the denominator ``total`` change, so it sets
    ``_estimate``, the counters' noisy total over ``total``, and its ``oob``
    bit there; until the first release the estimate is the prior as given.
    A withheld sample's ``step`` reads both and divides nothing.

    An instance owns all of its state and is single-threaded; independent
    instances (e.g. Monte-Carlo trials) never interact and may run on
    separate threads.  Its attributes are fixed by ``__slots__``, so no
    instance has a ``__dict__`` however much state it holds: CPython 3.11
    keeps at most 29 attributes inline, and an instance that falls back to
    a dict slows every attribute load in ``step``.
    """

    __slots__ = (
        "config", "t", "total", "records", "table", "budget", "mechanisms", "_estimate", "_oob",
        "ledger", "counts", "pending", "_law", "_at_least", "max_count", "_half", "_gate",
        "_gate_cap", "_last_t", "_diversity_prior", "_diversity_rhs", "_active", "_max_t", "_sums",
        "_clamps", "buffers", "priors", "_history", "_columns", "_history_cap", "_need",
    )

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
        # the published estimate, and 2 when it lies outside [0, 1] (its
        # weight in ``_FLAGS``), else 0; ``_release`` sets both
        self._estimate = config.prior
        self._oob = 0
        algorithm, m = config.algorithm, config.m
        if algorithm == "naive":
            self.ledger = SampleLedger()
        elif algorithm == "wishful":
            self.ledger = BatchLedger(m)
        else:
            self.ledger = UserLedger()
        # the ledger counts each sample and holds the withheld sums, which
        # ``step`` moves itself by the ledger's law
        self.counts = self.ledger.counts
        self.pending = self.ledger.pending
        self._law = _release_table(self.ledger, m)
        # the supply: ``_at_least[k]`` = A(k), the number of users that hold
        # k or more samples, k = 1..m (slot 0 is unused and slot m + 1 stays
        # 0), M_t, and two capped sums sum_u min(c_u, cap).  ``_half`` is the
        # div flag's, at cap M_t/2 (None when the flag is not tracked), and
        # ``_gate`` is ``full``'s, at the integer cap ``_gate_cap``, the
        # lowest waiting level's array size (0: no gate).  A sample moves
        # A(c + 1) alone and gains each sum min(c + 1, cap) - min(c, cap),
        # which is 1, 1/2 or 0; when M_t rises by 1, each user above the old
        # half cap, A(floor(M_t/2) + 1) of them, gains 1/2.  So ``step``
        # keeps all exact in O(1) per sample.  Every sum is a multiple of
        # 1/2 no larger than n * m, so float sums and comparisons are exact
        tracking = config.track_diversity
        self._at_least = [0] * (m + 2)
        self.max_count = 0
        self._half = 0.0 if tracking else None
        self._gate = 0
        self._gate_cap = 0
        self._last_t = 0
        # the div flag's threshold, which changes only when M_t rises
        self._diversity_prior = _diversity_prior(m, config.eps, config.delta) if tracking else None
        self._diversity_rhs = math.inf
        self._active: tuple[int, ...] | None = (0, 1) if algorithm == "full" else None
        # the longest stream accepted, an int for ``step`` to compare: T for
        # naive and wishful, else n * m, which the per-user cap ensures
        one_level = algorithm in ("naive", "wishful")
        self._max_t = int(config.T if one_level else config.n * config.m)
        levels = 1 if one_level else top_level(m) + 1
        # each level's counter's noisy sum, or None when one counter takes
        # every level
        self._sums = None if len(self.mechanisms) == 1 else [0.0] * len(self.mechanisms)
        # replaced, never written into, so a ``copy()`` shares it
        self._clamps: tuple[tuple[float, float] | None, ...] = (None,) * levels
        if config.prior is not None and not config.clip_disabled:
            prior, n, delta = config.prior, config.n, config.delta
            if one_level:
                batch = TruncationInterval(center=m * prior, half_width=_wishful_width(m, n, delta), level=0)
                self._set_interval(0, batch, m)
            for lv in range(1, levels):
                self._set_interval(lv, interval_single(prior, lv, m, n, delta), array_size(lv))
        # a level waits exactly while it holds a buffer; only ``full`` has
        # levels above 1 and no prior
        waiting = range(2, levels) if config.prior is None else ()
        self.buffers: dict[int, list[float]] = {lv: [] for lv in waiting}
        self.priors: dict[int, float] = {}
        # each user's first 2^(L-1) events: the most any level's median
        # reads, and at least every waiting level's array size; each
        # activation adds the events since the last to its median's columns
        self._history: list[StreamEvent] = []
        self._columns = None
        self._history_cap = 1 << (levels - 2) if self.buffers else 0
        # the lowest waiting level's threshold for ``_gate``, which is kept
        # at that level's cap until the last activation
        self._need = math.inf
        if self.buffers:
            self._gate_cap, self._need = self._gate_at(2)

    def active_levels(self) -> tuple[int, ...] | None:
        return self._active

    # -- common loop -------------------------------------------------------

    def _refuse(self, t: int, user: int, value: float) -> float:
        """Raise the first ``ValueError`` that applies to the event ``(t,
        user, value)``, in the order ``step`` checks them; if none does,
        return the sample value as a Python float, the value ``step``
        records."""
        cfg = self.config
        # each counter's row assumes at most n users; a fractional id would
        # be one more.  An id equal to an admitted one is that user
        if user not in self.counts:
            _require_int("user", user)
        if not 1 <= user <= cfg.n:
            raise ValueError(f"user {user} outside [1, {cfg.n}]")
        # a value that only compares with floats (a Decimal) would fail
        # inside the ledger's running sum, after the counts have moved
        if not isinstance(value, numbers.Real):
            raise ValueError(f"sample value {value!r} is not a real number")
        # the noise is calibrated to samples in [0, 1]; NaN fails this too
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"sample value {value!r} outside [0, 1]")
        # the exact negation of ``step``'s test, so a NaN time fails too
        if not t > self._last_t:
            raise ValueError(f"t={t} does not increase past {self._last_t}")
        if self.counts.get(user, 0) >= cfg.m:
            raise ValueError(f"user {user} exceeds the per-user cap m={cfg.m}")
        if self.t >= self._max_t:
            raise ValueError(f"stream longer than configured T={cfg.T}")
        # the ledger's running sums stay Python floats: a float32 sample
        # would make its user's a float32
        return float(value)

    def step(self, event: StreamEvent) -> TraceRecord:
        # any 3-tuple (t, user, value) will do; it is read once, here
        t, user, value = event
        cfg = self.config
        count = self.counts.get(user, 0)
        # every check of ``_refuse`` in one test, so a rejected event
        # changes no state; only a new user's id needs its type checked, and
        # a value that is not a float takes the slow path, which converts it
        if not (
            (count or user.__class__ is int)
            and 1 <= user <= cfg.n
            and value.__class__ is float
            and 0.0 <= value <= 1.0
            and t > self._last_t
            and count < cfg.m
            and self.t < self._max_t
        ):
            value = self._refuse(t, user, value)
        self.t += 1
        self._last_t = t

        # move the user from ``count`` samples to ``count + 1`` in the supply
        at_least = self._at_least
        at_least[count + 1] += 1
        half = self._half
        if count < self.max_count:
            if half is not None:
                cap = self.max_count / 2
                if count < cap:
                    self._half = half = half + (1 if count + 1 <= cap else cap - count)
        else:
            # M_t rises from count: this user already held the old cap
            # count/2, so only the cap's rise adds to ``_half``
            self.max_count = count + 1
            if half is not None:
                self._half = half = half + 0.5 * at_least[count // 2 + 1]
                self._diversity_rhs = _diversity_rhs(count + 1, self._diversity_prior)

        # ``full``'s waiting levels.  Both caps are 0 once no level waits,
        # and always for the other estimators; the gate's cap is at most the
        # history's
        if count < self._history_cap:
            self._history.append(event)
            if count < self._gate_cap:
                self._gate += 1
                # activation reads the post-increment counts and runs before
                # this event's own release is routed.  Levels activate in
                # ascending order: level l+1's capped sum is at most twice
                # level l's, and its threshold (arrays twice as long, and no
                # fewer) at least twice level l's, so only the lowest waiting
                # level, the one ``_gate`` sums at, can be next.  The
                # gate moves only here and in ``_activate``, so this is the
                # only place it can reach ``_need``; the last activation sets
                # ``_need`` to infinity.
                while self._gate >= self._need:
                    self._activate(next(iter(self.buffers)))

        # the ledger's law, as ``ledger.record`` applies it
        self.counts[user] = count + 1
        released = self._law[count + 1]
        if released is None:
            pending = self.pending
            pending[user] = pending.get(user, 0.0) + value
            bits = self._oob
        else:
            # ``_release`` runs before ``_oob`` is read: it moves the estimate.
            # A block of one is the sample, and none of its user's is pending
            level, block_size = released
            block_sum = value if block_size == 1 else self.pending.pop(user, 0.0) + value
            bits = (4 if self._release(level, block_sum, block_size) else 0) + self._oob
        if half is not None and half >= self._diversity_rhs:
            bits += 1

        # the generated ``__init__`` would be a Python frame of its own
        record = _new(TraceRecord)
        record.t = self.t
        record.user = user
        record.estimate = self._estimate
        record.total = self.total
        record.max_count = self.max_count
        record.active_levels = self._active
        record.flags = _FLAGS[bits]
        if cfg.keep_trace:
            self.records.append(record)
        return record

    def _release(self, level: int, block_sum: float, block_size: int) -> bool:
        """Route one released block: into its level's buffer while the level
        waits, else clamped to the level's bounds, if any, into the counter
        the level feeds, which moves the published estimate.  Return whether
        the block was clipped."""
        buffers = self.buffers  # empty once no level waits
        if buffers:
            buffer = buffers.get(level)
            if buffer is not None:
                buffer.append(block_sum)
                return False
        bounds = self._clamps[level]
        if bounds is None:
            sigma = block_sum
        else:
            # ``project``'s two comparisons, a tenth of min(max(...))'s cost
            lo, hi = bounds
            sigma = lo if block_sum < lo else hi if hi < block_sum else block_sum
        sums = self._sums
        if sums is None:
            # ``math.fsum([s])`` is s for every running sum s, which is never
            # -0.0: the stack starts at 0.0, and a + b is -0.0 only if both are
            running = self.mechanisms[0].append(sigma)
        else:
            sums[level] = self.mechanisms[level].append(sigma)
            running = math.fsum(sums)
        self.total = total = self.total + block_size
        self._estimate = estimate = running / total
        self._oob = 0 if 0.0 <= estimate <= 1.0 else 2
        return sigma != block_sum

    def run(self, events) -> list[TraceRecord]:
        return [self.step(ev) for ev in events]

    # -- intervals and waiting levels --------------------------------------

    def _set_interval(self, level: int, interval: TruncationInterval, block_size: int) -> None:
        """Set the clamp bounds ``_release`` applies to ``level``'s blocks of
        ``block_size`` samples, from the level's interval, in a new tuple."""
        clamps = self._clamps
        self._clamps = clamps[:level] + (clamp_bounds(interval, block_size),) + clamps[level + 1 :]

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
        self._columns = extend_columns(self._columns, self._history)
        return MedianRequest(self._history, row.share, level, row.beta, self._columns)

    def _activate(self, level: int) -> None:
        cfg = self.config
        if cfg.prior_override is not None:
            prior = cfg.prior_override
        else:
            prior = private_median(self._median_request(level), spawn_rng(cfg.seed, 2, level))
        self.priors = {**self.priors, level: prior}  # a new dict, which a copy() shares
        size = array_size(level)
        if not cfg.clip_disabled:
            self._set_interval(level, interval_full(prior, level, cfg.n, cfg.m, cfg.eps, cfg.delta), size)
        for raw in self.buffers.pop(level):
            self._release(level, raw, size)
        self._active += (level,)
        if self.buffers:
            self._gate_cap, self._need = self._gate_at(next(iter(self.buffers)))
            self._gate = _capped_sum(self._at_least, self.max_count, self._gate_cap)
        else:
            self._gate_cap = self._gate = 0
            self._need = math.inf
            self._history = []
            self._columns = None
            self._history_cap = 0

    # -- branching ---------------------------------------------------------

    def copy(self) -> _EstimatorBase:
        """An independent twin in this estimator's exact state: stepping
        either one leaves the other as it was, and the twin publishes, stores
        and draws exactly what this estimator would from here on.

        Mutable state is copied, the trace records as a new list of the
        same records, and state that is never written into is shared: the
        config, privacy table, release table, budget ledger (only
        ``__init__`` charges it), and the clamp bounds, priors and history
        columns, which ``_set_interval`` and ``_activate`` replace whole.
        ``counts`` and ``pending`` alias the twin's ledger.  The twin is
        built without ``__init__``, so it charges nothing; it sets every
        slot, one assignment each, in slot order.
        """
        cls = type(self)
        twin = cls.__new__(cls)
        twin.config = self.config
        twin.t = self.t
        twin.total = self.total
        twin.records = self.records[:]
        twin.table = self.table
        twin.budget = self.budget
        twin.mechanisms = [mech.copy() for mech in self.mechanisms]
        twin._estimate = self._estimate
        twin._oob = self._oob
        twin.ledger = self.ledger.copy()
        twin.counts = twin.ledger.counts
        twin.pending = twin.ledger.pending
        twin._law = self._law
        twin._at_least = self._at_least[:]
        twin.max_count = self.max_count
        twin._half = self._half
        twin._gate = self._gate
        twin._gate_cap = self._gate_cap
        twin._last_t = self._last_t
        twin._diversity_prior = self._diversity_prior
        twin._diversity_rhs = self._diversity_rhs
        twin._active = self._active
        twin._max_t = self._max_t
        twin._sums = None if self._sums is None else self._sums[:]
        twin._clamps = self._clamps
        twin.buffers = {lv: vals[:] for lv, vals in self.buffers.items()}
        twin.priors = self.priors
        twin._history = self._history[:]
        twin._columns = self._columns
        twin._history_cap = self._history_cap
        twin._need = self._need
        return twin

    def diversity(self) -> DiversityReport:
        cfg = self.config
        return check_diversity(self.counts, cfg.eps, cfg.delta, cfg.m)


class WishfulEstimator(_EstimatorBase):
    """``wishful``: requires user-contiguous arrival, and publishes the
    prior until the first batch completes."""

    __slots__ = ()

    def step(self, event: StreamEvent) -> TraceRecord:
        # while a batch is open only its user may arrive; a returning user
        # that already gave all m samples fails the per-user cap first
        t, user, value = event
        if self.pending and user not in self.counts:
            self._refuse(t, user, value)
            raise OrderingError(
                f"user {user} at t={self.t + 1} breaks the user-contiguous arrival "
                "this estimator requires"
            )
        return super().step(event)


def make_estimator(config: EstimatorConfig) -> _EstimatorBase:
    return (WishfulEstimator if config.algorithm == "wishful" else _EstimatorBase)(config)
