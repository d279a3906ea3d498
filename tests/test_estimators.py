"""The five estimators: schedules, denominators, noise scales, budgets."""

import dataclasses
import functools
import gc
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contmean
from contmean.estimators import (
    ALGORITHMS,
    EstimatorConfig,
    OrderingError,
    TraceRecord,
    check_diversity,
    full_noise_scale,
    make_estimator,
    multi_noise_scale,
    naive_noise_scale,
    privacy_table,
    single_noise_scale,
    write_trace,
    _capped_sum,
    _EstimatorBase,
    _wishful_width,
)
from contmean.median import MedianRequest, array_size, private_median
from contmean.noise import spawn_rng
from contmean.streams import OrderingSpec, StreamEvent, generate
from contmean.truncate import TruncationInterval, clamp_bounds, interval_full, interval_single, project, top_level
from contmean.withhold import SampleLedger, UserLedger
from oracles import activation_threshold, noiseless_estimates, partial_sums, reference_trace_csv
from test_golden import SETTINGS as GOLDEN_SETTINGS

LN = math.log
LOG2 = math.log2


def events_of(users, values):
    return [StreamEvent(t=i + 1, user=u, value=v) for i, (u, v) in enumerate(zip(users, values))]


def noiseless_config(algorithm, **kw):
    kw.setdefault("noise_override", 0.0)
    return EstimatorConfig(algorithm=algorithm, **kw)


def any_config(algorithm, *, n, m, T, **kw):
    """A config of any algorithm: fills in the horizon and prior it needs."""
    if algorithm in ("naive", "wishful"):
        kw.setdefault("T", T)
    if algorithm in ("wishful", "single", "multi"):
        kw.setdefault("prior", 0.5)
    return EstimatorConfig(algorithm=algorithm, n=n, m=m, **kw)


@st.composite
def capped_streams(draw, contiguous=False):
    """(n, m, events): at most m samples per user; user-contiguous arrival
    (each user's samples in one run) when ``contiguous``."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 8))
    if contiguous:
        users = [u for u in draw(st.permutations(range(1, n + 1))) for _ in range(m)]
    else:
        users = draw(st.permutations([u for u in range(1, n + 1) for _ in range(m)]))
    users = users[: draw(st.integers(1, len(users)))]
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=len(users), max_size=len(users)))
    return n, m, events_of(users, values)


class TestConfigValidation:
    def test_prior_required_iff_prior_family(self):
        with pytest.raises(ValueError):
            EstimatorConfig(algorithm="single", n=2, m=4, eps=1, delta=0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(algorithm="naive", n=2, m=4, eps=1, delta=0.1, T=8, prior=0.5)
        with pytest.raises(ValueError):
            EstimatorConfig(algorithm="full", n=2, m=4, eps=1, delta=0.1, prior=0.5)

    def test_t_required_for_fixed_horizon_algorithms(self):
        with pytest.raises(ValueError):
            EstimatorConfig(algorithm="naive", n=2, m=4, eps=1, delta=0.1)

    def test_m_floor_for_truncating_algorithms(self):
        with pytest.raises(ValueError):
            EstimatorConfig(algorithm="multi", n=2, m=1, eps=1, delta=0.1, prior=0.5)

    def test_prior_override_full_only(self):
        with pytest.raises(ValueError):
            EstimatorConfig(
                algorithm="single", n=2, m=4, eps=1, delta=0.1, prior=0.5, prior_override=0.5
            )

    @pytest.mark.parametrize("algorithm", ["naive", "multi"])
    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.5), ("n", True), ("n", "2"), ("m", 4.0), ("m", False), ("T", 8.5), ("T", True),
         ("seed", 1.5), ("seed", True)],
    )
    def test_non_integer_rejected_by_name(self, algorithm, field, value):
        # m = 4.0 used to die in the supply's counts with a TypeError, and n = 2.5
        # or T = 8.5 calibrated the noise to a fractional count
        with pytest.raises(ValueError, match=f"^{field}: "):
            EstimatorConfig(algorithm, eps=1, delta=0.1, **{"n": 2, "m": 4, "T": 8, field: value},
                            **({"prior": 0.5} if algorithm == "multi" else {}))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_negative_seed_rejected_before_any_step(self, algorithm):
        # it used to fail in the first step's noise draw, after ``t``,
        # ``counts`` and ``supply`` had moved
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1"):
            any_config(algorithm, n=2, m=4, T=8, eps=1, delta=0.1, seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("prior", "prior_override", "eps", "delta", "noise_override")
         for v in (True, False, "0.5", Decimal("0.5"))] + [("eps", None), ("delta", None)],
    )
    def test_non_real_rejected_by_name(self, field, value):
        # prior = True used to run and write ``True`` as the estimate, and
        # eps, delta and noise_override took a bool as 1 or 0
        algorithm = "full" if field == "prior_override" else "multi"
        kw = {"eps": 1.0, "delta": 0.1, **({"prior": 0.5} if algorithm == "multi" else {}), field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            EstimatorConfig(algorithm, n=2, m=4, **kw)

    def test_numpy_integers_accepted(self):
        kw = dict(n=2, m=4, T=8, eps=1.0, delta=0.1, prior=0.5, seed=3)
        numpy_kw = dict(kw, n=np.int64(2), m=np.int32(4), T=np.int64(8), seed=np.uint8(3))
        events = events_of([1, 1, 2, 1, 2], [1.0, 0.25, 0.0, 1.0, 0.5])
        plain = make_estimator(EstimatorConfig("multi", **kw)).run(events)
        assert make_estimator(EstimatorConfig("multi", **numpy_kw)).run(events) == plain


def profile_step(est, event) -> tuple[list[tuple[str, str]], list]:
    """What ``est.step(event)`` calls, in call order, seen by
    ``sys.setprofile``: every Python frame it enters, inside the package or
    outside it, as (file name, qualified name), and every C function it
    calls (``c_call``), a bound method of its receiver's type for a method
    call such as ``pending.pop``."""
    frames, builtins = [], []

    def profile(frame, what, arg):
        if what == "call":
            frames.append((frame.f_code.co_filename, frame.f_code.co_qualname))
        elif what == "c_call":
            builtins.append(arg)

    # no collection runs while profiled: a finalizer it ran would be traced
    # ahead of ``step``'s own frame, which ``frames[1:]`` drops
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        est.step(event)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return frames[1:], builtins[:-1]  # not the step called here, nor ``setprofile``


def frames_in_step(est, event) -> list[tuple[str, str]]:
    """Every Python frame ``est.step(event)`` enters (``profile_step``)."""
    return profile_step(est, event)[0]


def c_methods(builtins, owner: type, name: str) -> list:
    """The calls among ``builtins`` of method ``name`` of an ``owner``."""
    return [f for f in builtins if type(getattr(f, "__self__", None)) is owner and f.__name__ == name]


def calls_in_step(est, event) -> list[str]:
    """The package's functions that ``est.step(event)`` calls, by qualified
    name in call order."""
    package = os.path.dirname(contmean.__file__)
    return [name for path, name in frames_in_step(est, event) if path.startswith(package)]


RELEASE = ["_EstimatorBase._release", "BinaryMechanism.append"]


class TestCallBudget:
    """The Python calls one ``step`` makes: none on a withheld sample, since
    ``step`` applies the release law from its table, and the route to the
    counter on a release.  Runs are noiseless, so no noise block is drawn,
    and M_t stays put, so the ``div`` threshold is not recomputed."""

    # (algorithm, users stepped first, the user whose sample is counted, calls)
    CASES = [
        # user 2's 3rd sample: withheld, and user 1 already holds 5
        *[(alg, [1] * 5 + [2, 2], 2, []) for alg in ("single", "multi", "full")],
        # user 2's 4th sample releases level 2; ``full``'s level 2 waits
        ("single", [1] * 5 + [2] * 3, 2, RELEASE),
        ("multi", [1] * 5 + [2] * 3, 2, RELEASE),
        ("full", [1] * 5 + [2] * 3, 2, ["_EstimatorBase._release"]),
        ("naive", [1] * 5 + [2] * 3, 2, RELEASE),
        ("wishful", [1] * 8 + [2] * 2, 2, ["_EstimatorBase.step"]),
        ("wishful", [1] * 8 + [2] * 7, 2, ["_EstimatorBase.step", *RELEASE]),
    ]

    @pytest.mark.parametrize("algorithm, users, user, expected", CASES)
    def test_calls_per_step(self, algorithm, users, user, expected):
        est = make_estimator(any_config(algorithm, n=3, m=8, T=24, eps=1.0, delta=0.1, noise_override=0.0))
        est.run(events_of(users, [0.5] * len(users)))
        max_count = est.max_count
        assert calls_in_step(est, StreamEvent(t=len(users) + 1, user=user, value=0.5)) == expected
        assert est.max_count == max_count and est.priors == {}

    def test_full_withheld_sample_with_tracked_history(self):
        # a waiting level keeps the history; that costs no call either
        est = make_estimator(noiseless_config("full", n=300, m=16, eps=50.0, delta=0.5))
        users = [1] * 6 + [2] * 2
        est.run(events_of(users, [0.5] * len(users)))
        assert est.buffers and est._history_cap > 2
        assert calls_in_step(est, StreamEvent(t=9, user=2, value=0.5)) == []
        assert len(est._history) == 9

    def test_clamped_release_calls_no_min_or_max(self):
        # at prior 0 level 3's bounds end below 4, so user 1's 8th sample
        # releases a clipped block of four 1.0s
        config = any_config("multi", n=3, m=8, T=24, eps=1.0, delta=1.0, prior=0.0, noise_override=0.0)
        est = make_estimator(config)
        est.run(events_of([1] * 7, [1.0] * 7))
        _, builtins = profile_step(est, StreamEvent(t=8, user=1, value=1.0))
        assert "clip" in est.records[-1].flags and est._clamps[3][1] < 4.0
        assert math.fsum in builtins  # the profile sees C calls
        assert min not in builtins and max not in builtins

    @pytest.mark.parametrize("store", [False, True])
    def test_counter_stores_nodes_only_when_asked(self, store):
        # an audit's counters store every partial sum; others only stack
        est = make_estimator(any_config("naive", n=3, m=8, T=24, eps=1.0, delta=0.1, noise_override=0.0))
        if store:
            for mech in est.mechanisms:
                mech.store_nodes()
        _, builtins = profile_step(est, StreamEvent(t=1, user=1, value=0.5))
        assert len(c_methods(builtins, array, "append")) == store
        assert c_methods(builtins, list, "append")  # the profile sees the stack's append

    @pytest.mark.parametrize("algorithm, users", [
        ("naive", [1, 2, 1, 1]), ("wishful", []), ("single", [1]), ("multi", [1]), ("full", [1]),
    ])
    def test_one_sample_block_reads_no_pending_sum(self, algorithm, users):
        # naive releases every sample alone, wishful at m = 1, and the
        # dyadic laws at a user's 1st and 2nd samples
        m = 1 if algorithm == "wishful" else 8
        est = make_estimator(any_config(algorithm, n=3, m=m, T=24, eps=1.0, delta=0.1, noise_override=0.0))
        est.run(events_of(users, [0.5] * len(users)))
        _, builtins = profile_step(est, StreamEvent(t=len(users) + 1, user=1, value=0.5))
        assert est.records[-1].total == est.total > 0
        assert [f for f in builtins if getattr(f, "__self__", None) is est.pending] == []


def law_replay(config, events):
    """Replay ``events`` through ``on_sample`` on a fresh ledger of
    ``config``'s law: the ledger, and each event's release, with its block
    sum as hex, or None."""
    ledger = make_estimator(config).ledger
    released = []
    for _, user, value in events:
        block = ledger.on_sample(user, value)
        released.append(block and (block[0], block[1].hex(), block[2]))
    return ledger, released


def routed_blocks(est) -> list:
    """Spy on the blocks ``est``'s steps hand to ``_release``, as (level,
    block sum as hex, block size); an activation's buffered blocks are
    left out."""
    blocks, activating = [], []
    # an estimator has no ``__dict__`` to hold spies, so ``est`` moves to a
    # subclass of its estimator class that spies, with the same slots
    base = next(cls for cls in type(est).__mro__ if cls.__module__ == "contmean.estimators")

    class Spy(base):
        __slots__ = ()

        def _release(self, level, block_sum, block_size):
            if not activating:
                assert type(block_sum) is float
                blocks.append((level, block_sum.hex(), block_size))
            return base._release(self, level, block_sum, block_size)

        def _activate(self, level):
            activating.append(level)
            try:
                base._activate(self, level)
            finally:
                activating.pop()

    est.__class__ = Spy
    return blocks


@st.composite
def law_cases(draw):
    """(algorithm, n, m, users, values, cut): a capped stream at a cap m
    that is a power of two or not (or 1, which naive and wishful allow),
    with values off the dyadic grid, and a point to copy at."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    one_level = algorithm in ("naive", "wishful")
    m = draw(st.sampled_from([1, 3, 4, 6, 8] if one_level else [3, 4, 6, 8]))
    n = draw(st.integers(1, 5))
    if algorithm == "wishful":
        users = [u for u in draw(st.permutations(range(1, n + 1))) for _ in range(m)]
    else:
        users = draw(st.permutations([u for u in range(1, n + 1) for _ in range(m)]))
    users = users[: draw(st.integers(1, len(users)))]
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(users), max_size=len(users)))
    return algorithm, n, m, users, values, draw(st.integers(0, len(users)))


class TestStepAppliesLedgerLaw:
    """``step`` applies its ledger's release law from a table, not through
    ``on_sample``; both must give the same counts, the same withheld sums
    and the same released blocks, bit for bit."""

    @given(law_cases())
    @example(("multi", 2, 8, [1, 1, 2, 1, 1, 2, 2, 1, 1, 2], [-0.0] * 10, 4))
    @example(("naive", 2, 3, [1, 2, 1, 2], [-0.0, 0.1, -0.0, 0.3], 2))
    @example(("wishful", 3, 1, [2, 1, 3], [-0.0, 0.7, -0.0], 1))
    @settings(max_examples=300, deadline=None)
    def test_step_matches_a_record_replay(self, case):
        algorithm, n, m, users, values, cut = case
        events = events_of(users, values)
        config = any_config(
            algorithm, n=n, m=m, T=len(events), eps=3000.0, delta=0.5, noise_override=0.0, keep_trace=False
        )
        ledger, released = law_replay(config, events)
        pending = {u: s.hex() for u, s in ledger.pending.items()}
        est = make_estimator(config)
        blocks = routed_blocks(est)
        est.run(events[:cut])
        # a twin taken mid-stream goes on by the same law, apart from ``est``
        twin = est.copy()
        twin_blocks = routed_blocks(twin)
        twin.run(events[cut:])
        est.run(events[cut:])
        assert blocks == [b for b in released if b]
        assert twin_blocks == [b for b in released[cut:] if b]
        for each in (est, twin):
            assert each.counts == ledger.counts
            assert {u: s.hex() for u, s in each.pending.items()} == pending
            assert each.counts is each.ledger.counts and each.pending is each.ledger.pending
        assert twin.pending is not est.pending

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_table_per_law(self, algorithm):
        # the dyadic and per-sample laws share one table, grown to the
        # largest m seen; the batch law, which depends on m, one per m
        config = any_config(algorithm, n=3, m=6, T=18, eps=1.0, delta=0.1)
        est = make_estimator(config)
        assert est._law[:7] == (None, *map(est.ledger.releases, range(1, 7)))
        assert make_estimator(config)._law is est._law and est.copy()._law is est._law
        wider = make_estimator(dataclasses.replace(config, m=40))
        assert wider._law[:41] == (None, *map(wider.ledger.releases, range(1, 41)))
        if algorithm == "wishful":
            assert len(est._law) == 7 and len(wider._law) == 41
        else:
            assert wider._law[: len(est._law)] == est._law
            assert make_estimator(config)._law is wider._law

    def test_criterion_5_caps_leave_one_table_per_law(self, monkeypatch):
        # criterion 5 builds ``full`` at each m of 2..1024; naive here too
        monkeypatch.setattr(contmean.estimators, "_TABLES", {})
        for m in range(2, 1025):
            for algorithm in ("full", "naive"):
                make_estimator(any_config(algorithm, n=4, m=m, T=m, eps=1.0, delta=0.1, track_diversity=False))
        tables = contmean.estimators._TABLES
        assert list(tables) == [UserLedger, SampleLedger]
        assert [len(table) for table in tables.values()] == [1025, 1025]


class TestNoRecordInit:
    """``step`` fills its record's slots itself: no step enters an
    ``__init__``, such as the dataclass's generated one, which lives outside
    the package and so escapes ``calls_in_step``."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_init_frame_in_any_step(self, algorithm):
        # user-contiguous, so wishful accepts it; every estimator both
        # withholds and releases
        users = [1] * 8 + [2] * 8 + [3] * 8
        est = make_estimator(any_config(algorithm, n=3, m=8, T=24, eps=1.0, delta=0.1, noise_override=0.0))
        inits = []
        for ev in events_of(users, [0.5] * len(users)):
            inits += [frame for frame in frames_in_step(est, ev) if frame[1].rpartition(".")[2] == "__init__"]
        assert inits == []
        assert est.t == len(users)


class TestNaive:
    def test_noiseless_running_mean(self):
        cfg = noiseless_config("naive", n=4, m=4, eps=1, delta=0.1, T=16)
        est = make_estimator(cfg)
        recs = est.run(events_of([1, 2, 3, 4], [1.0, 0.0, 1.0, 1.0]))
        assert [r.estimate for r in recs] == [1.0, 0.5, 2.0 / 3.0, 0.75]
        assert [r.total for r in recs] == [1, 2, 3, 4]

    def test_noise_scale_formula(self):
        cfg = EstimatorConfig(algorithm="naive", n=4, m=4, eps=1.0, delta=0.1, T=16)
        est = make_estimator(cfg)
        assert est.mechanisms[0].eta == pytest.approx(20.0)  # 4 * (1 + log2 16) / 1
        assert naive_noise_scale(4, 16, 1.0) == 20.0

    def test_budget_is_eps(self):
        est = make_estimator(EstimatorConfig(algorithm="naive", n=2, m=2, eps=0.7, delta=0.1, T=4))
        assert est.budget.spent == pytest.approx(0.7)

    def test_error_envelope_small_scale(self):
        # Monte-Carlo envelope: median |est - mu| at t = T stays below the
        # statistical + noise rate with a single modest constant
        mu, m, n, T, eps, delta = 0.5, 4, 16, 256, 1.0, 0.1
        errs = []
        for seed in range(100):
            events = generate(mu, n, m * n, T, OrderingSpec("round_robin"), seed=seed)
            cfg = EstimatorConfig(algorithm="naive", n=n, m=m * n, eps=eps, delta=delta, T=T, seed=seed)
            est = make_estimator(cfg)
            errs.append(abs(est.run(events)[-1].estimate - mu))
        envelope = math.sqrt(LN(1 / delta) / T) + (m / (T * eps)) * math.sqrt(
            LOG2(T)
        ) * LOG2(T) * LN(1 / delta)
        assert np.median(errs) <= 3 * envelope


class TestWishful:
    def test_prior_returned_before_first_batch(self):
        cfg = noiseless_config("wishful", n=3, m=4, eps=1, delta=0.1, T=12, prior=0.42)
        est = make_estimator(cfg)
        recs = est.run(events_of([1, 1, 1], [1.0, 1.0, 1.0]))
        assert all(r.estimate == 0.42 for r in recs)

    def test_noiseless_batch_means(self):
        m = 4
        values = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]
        users = [1] * 4 + [2] * 4
        cfg = noiseless_config("wishful", n=2, m=m, eps=1, delta=0.1, T=8, prior=0.5)
        est = make_estimator(cfg)
        recs = est.run(events_of(users, values))
        assert recs[3].estimate == pytest.approx(3 / 4)  # first batch flushed
        assert recs[5].estimate == pytest.approx(3 / 4)  # unchanged between batches
        assert recs[7].estimate == pytest.approx(4 / 8)
        assert est.total == 8

    def test_round_robin_rejected(self):
        cfg = noiseless_config("wishful", n=2, m=2, eps=1, delta=0.1, T=4, prior=0.5)
        est = make_estimator(cfg)
        est.step(StreamEvent(t=1, user=1, value=1.0))
        with pytest.raises(OrderingError):
            est.step(StreamEvent(t=2, user=2, value=1.0))

    def test_returning_user_rejected(self):
        # a finished user coming back trips the per-user cap (an OrderingError
        # would follow anyway); either way the step must refuse
        cfg = noiseless_config("wishful", n=2, m=2, eps=1, delta=0.1, T=6, prior=0.5)
        est = make_estimator(cfg)
        for ev in events_of([1, 1, 2, 2], [0.0] * 4):
            est.step(ev)
        with pytest.raises(ValueError):
            est.step(StreamEvent(t=5, user=1, value=0.0))

    def test_interrupted_block_rejected_midway(self):
        cfg = noiseless_config("wishful", n=3, m=3, eps=1, delta=0.1, T=9, prior=0.5)
        est = make_estimator(cfg)
        for ev in events_of([1, 1, 1, 2], [0.0] * 4):
            est.step(ev)
        with pytest.raises(OrderingError):
            est.step(StreamEvent(t=5, user=3, value=0.0))


class TestSingle:
    def test_two_samples_one_user(self):
        cfg = noiseless_config("single", n=2, m=4, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        recs = est.run(events_of([1, 1], [1.0, 1.0]))
        assert est.total == 2
        assert recs[1].estimate == 1.0

    def test_noise_scale_formula(self):
        m, n, eps, delta = 64, 200, 1.0, 0.1
        expected = (
            2
            * (math.sqrt((m / 2) * LN(2 * n * LOG2(m) / delta)) + math.sqrt(m))
            * (1 + LOG2(m))
            * LOG2(1 + n * (1 + LOG2(m)))
            / eps
        )
        cfg = EstimatorConfig(algorithm="single", n=n, m=m, eps=eps, delta=delta, prior=0.5)
        assert make_estimator(cfg).mechanisms[0].eta == pytest.approx(expected, rel=1e-12)
        assert single_noise_scale(m, n, eps, delta) == pytest.approx(expected, rel=1e-12)

    def test_noiseless_matches_oracle(self):
        n, m = 6, 16
        events = generate(0.5, n, m, 64, OrderingSpec("uniform_random"), seed=21)
        cfg = noiseless_config("single", n=n, m=m, eps=1, delta=0.1, prior=0.5, clip_disabled=True)
        est = make_estimator(cfg)
        expected = noiseless_estimates(events, "single", n=n, m=m)
        for ev, (exp_est, exp_total) in zip(events, expected):
            rec = est.step(ev)
            assert rec.estimate == exp_est
            assert rec.total == exp_total

    def test_truncation_fires_with_bad_prior(self):
        # prior far from the data: deep blocks get clipped and flagged
        cfg = noiseless_config("single", n=2, m=64, eps=1, delta=0.999, prior=0.0)
        est = make_estimator(cfg)
        users = [1] * 64
        values = [1.0] * 64
        flags = [est.step(ev).flags for ev in events_of(users, values)]
        assert any("clip" in f for f in flags)


class TestMulti:
    def test_noiseless_matches_oracle(self):
        n, m = 8, 32
        events = generate(0.3, n, m, 150, OrderingSpec("uniform_random"), seed=5)
        cfg = noiseless_config("multi", n=n, m=m, eps=1, delta=0.1, prior=0.3, clip_disabled=True)
        est = make_estimator(cfg)
        expected = noiseless_estimates(events, "multi", n=n, m=m)
        for ev, (exp_est, exp_total) in zip(events, expected):
            rec = est.step(ev)
            assert rec.estimate == exp_est

    def test_level_mechanism_count_and_budget(self):
        m, eps = 50, 1.3
        big_l = math.ceil(LOG2(m))
        cfg = EstimatorConfig(algorithm="multi", n=4, m=m, eps=eps, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        assert len(est.mechanisms) == big_l + 1
        assert est.budget.spent == pytest.approx(2 * eps)

    def test_noise_far_below_single_counter_at_low_levels(self):
        # level-1 noise is a small fraction of the single-counter scale
        m, n, eps, delta = 1024, 100, 1.0, 0.1
        ratio = multi_noise_scale(m, n, 1, eps, delta) / single_noise_scale(m, n, eps, delta)
        assert ratio < 1 / 8

    def test_only_low_levels_hold_elements(self):
        n, m = 4, 64
        events = generate(0.5, n, m, 20, OrderingSpec("round_robin"), seed=2)
        cfg = noiseless_config("multi", n=n, m=m, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        est.run(events)
        max_count = 5  # 20 events over 4 users
        top = math.floor(LOG2(max_count))
        for lv, mech in enumerate(est.mechanisms):
            if lv > top:
                assert len(mech) == 0


class TestFull:
    def test_low_levels_active_from_start(self):
        cfg = EstimatorConfig(algorithm="full", n=4, m=16, eps=1, delta=0.1)
        est = make_estimator(cfg)
        assert est.active_levels() == (0, 1)
        assert est.inactive == {2, 3, 4}

    def test_activation_example_two_users(self):
        # eps chosen so the level-2 threshold is exactly 2 capped samples
        m, delta = 16, 0.1
        big_l = math.ceil(LOG2(m))
        eps = 32 * big_l * LN(3 * big_l * 2 / delta)
        assert activation_threshold(2, m, eps, delta) == 2
        cfg = noiseless_config("full", n=4, m=m, eps=eps, delta=delta)
        est = make_estimator(cfg)
        est.step(StreamEvent(t=1, user=1, value=1.0))
        assert 2 in est.inactive
        est.step(StreamEvent(t=2, user=2, value=1.0))
        assert 2 not in est.inactive
        assert est.priors[2] == 0.5  # single level-2 bin midpoint

    def test_budget_charges_exactly_eps(self):
        for m in (2, 7, 64, 1024):
            cfg = EstimatorConfig(algorithm="full", n=4, m=m, eps=1.0, delta=0.1)
            est = make_estimator(cfg)
            assert abs(est.budget.spent - 1.0) <= 1e-12
            assert est.budget.total_eps == 1.0

    def test_noise_scale_levels(self):
        m, n, eps, delta = 16, 32, 1.0, 0.1
        big_l = math.ceil(LOG2(m))
        # identity-projection levels carry unit sensitivity
        assert full_noise_scale(m, n, 0, eps, delta) == pytest.approx(
            (1 + LOG2(n)) * 2 * (big_l + 1) / eps
        )
        assert full_noise_scale(m, n, 1, eps, delta) == full_noise_scale(m, n, 0, eps, delta)
        assert full_noise_scale(m, n, 2, eps, delta) > full_noise_scale(m, n, 1, eps, delta)

    def test_noiseless_matches_oracle_with_activation(self):
        n, m, eps, delta = 30, 16, 300.0, 0.1
        events = generate(0.5, n, m, 300, OrderingSpec("uniform_random"), seed=31)
        cfg = noiseless_config(
            "full", n=n, m=m, eps=eps, delta=delta, clip_disabled=True
        )
        est = make_estimator(cfg)
        expected = noiseless_estimates(events, "full", n=n, m=m, eps=eps, delta=delta)
        for ev, (exp_est, exp_total) in zip(events, expected):
            rec = est.step(ev)
            assert rec.estimate == exp_est
            assert rec.total == exp_total
        assert len(est.active_levels()) > 2  # activation actually exercised

    @settings(max_examples=60, deadline=None)
    @given(capped_streams(), st.sampled_from([50.0, 300.0, 3000.0]))
    def test_activation_times_match_recount_with_diversity_flag(self, stream, eps):
        n, m, events = stream
        delta = 0.1
        cfg = noiseless_config("full", n=n, m=m, eps=eps, delta=delta, clip_disabled=True, track_diversity=True)
        est = make_estimator(cfg)
        expected = noiseless_estimates(events, "full", n=n, m=m, eps=eps, delta=delta)
        inactive = set(range(2, math.ceil(LOG2(m)) + 1))
        counts = {}
        for ev, (exp_est, exp_total) in zip(events, expected):
            counts[ev.user] = counts.get(ev.user, 0) + 1
            for lv in sorted(inactive):
                supply = sum(min(c, 1 << (lv - 1)) for c in counts.values())
                if supply >= activation_threshold(lv, m, eps, delta):
                    inactive.discard(lv)
            rec = est.step(ev)
            assert (rec.estimate, rec.total) == (exp_est, exp_total)
            assert est.inactive == inactive
            assert rec.active_levels == tuple(lv for lv in range(math.ceil(LOG2(m)) + 1) if lv not in inactive)

    @pytest.mark.parametrize("clip_disabled", [False, True])
    def test_clip_disabled_after_activation(self, clip_disabled):
        # one user's 64 unit samples activate every level; prior 0 centres
        # level 6's interval (half-width about 23) below its block sum of 32
        cfg = noiseless_config(
            "full", n=2, m=64, eps=1000.0, delta=1.0, prior_override=0.0, clip_disabled=clip_disabled
        )
        est = make_estimator(cfg)
        records = est.run(events_of([1] * 64, [1.0] * 64))
        assert est.active_levels() == (0, 1, 2, 3, 4, 5, 6)
        clipped = [r.t for r in records if "clip" in r.flags]
        if clip_disabled:
            assert not clipped and all(r.estimate == 1.0 for r in records)
        else:
            assert clipped and records[-1].estimate < 1.0

    def test_buffered_samples_excluded_from_total(self):
        cfg = noiseless_config("full", n=4, m=1024, eps=1.0, delta=0.1)
        est = make_estimator(cfg)
        events = events_of([1] * 40, [1.0] * 40)
        for ev in events:
            est.step(ev)
        assert est.active_levels() == (0, 1)
        assert est.total == 2
        assert est.total + est.ledger.pending_count() + est.buffered_sample_count() == 40

    def test_prior_override_pins_projections(self):
        m, delta = 16, 0.1
        big_l = math.ceil(LOG2(m))
        eps = 32 * big_l * LN(3 * big_l * 2 / delta)
        cfg = noiseless_config("full", n=4, m=m, eps=eps, delta=delta, prior_override=0.25)
        est = make_estimator(cfg)
        est.step(StreamEvent(t=1, user=1, value=1.0))
        est.step(StreamEvent(t=2, user=2, value=1.0))
        assert est.priors[2] == 0.25


class TestFullHistory:
    """``full`` keeps each user's first 2^(L-1) events for its median priors,
    and nothing once every level is active."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("ordering", ["uniform_random", "single_user_prefix"])
    def test_priors_equal_median_of_untrimmed_history(self, seed, ordering):
        n, m, eps, delta = 30, 16, 300.0, 0.1
        big_l = math.ceil(LOG2(m))
        events = generate(0.5, n, m, 400, OrderingSpec(ordering), seed=seed)
        est = make_estimator(EstimatorConfig(algorithm="full", n=n, m=m, eps=eps, delta=delta, seed=seed))
        untrimmed, trimmed_at_activation = [], False
        for ev in events:
            untrimmed.append(ev)
            before = set(est.priors)
            est.step(ev)
            assert len(est._history) <= n * (1 << (big_l - 1))
            for level in sorted(set(est.priors) - before):
                request = MedianRequest(
                    history=tuple(untrimmed), eps=eps / (2 * big_l), level=level, beta=delta / (3 * big_l)
                )
                assert est.priors[level] == private_median(request, spawn_rng(seed, 2, level))
                trimmed_at_activation |= len(est._history) < len(untrimmed)
        assert not est.inactive and sorted(est.priors) == [2, 3, 4]
        assert est._history == []
        if ordering == "single_user_prefix":
            assert trimmed_at_activation

    def test_no_history_without_inactive_levels(self):
        est = make_estimator(noiseless_config("full", n=2, m=2, eps=1.0, delta=0.1))
        est.run(events_of([1, 2, 1], [1.0, 0.0, 1.0]))
        assert est._history == []


class TestFullGates:
    """``full`` keeps one capped sum, ``_gate``, at the lowest inactive
    level's array size, against that level's activation threshold, and
    none (cap 0) once every level is active.  ``single`` and ``multi``
    share its class and never hold a gate, a buffer or history."""

    @pytest.mark.parametrize("ordering", ["uniform_random", "single_user_prefix", "round_robin"])
    @pytest.mark.parametrize("algorithm", ["single", "multi", "full"])
    def test_gates_are_the_buffered_levels(self, algorithm, ordering):
        n, m, eps, delta = 300, 16, 50.0, 0.5
        events = generate(0.5, n, m, 200, OrderingSpec(ordering), seed=1)
        est = make_estimator(any_config(algorithm, n=n, m=m, T=len(events), eps=eps, delta=delta, seed=1))
        for ev in events:
            est.step(ev)
            gated = est._gate_cap != 0
            assert gated == bool(est.buffers)
            if gated:
                level = min(est.buffers)
                assert est._gate_cap == 1 << (level - 1)  # that level's median array size
                assert est._need == activation_threshold(level, m, eps, delta)  # and its threshold
                assert est._gate == _capped_sum(est._at_least, est.max_count, est._gate_cap)
            else:
                assert est._need == math.inf and est._gate == 0
            assert (est._half is not None) == est.config.track_diversity
            if algorithm != "full":
                assert not gated and est.buffers == {} and est._history == [] and est.inactive == set()
        assert est._gate_cap == 0
        assert sorted(est.priors) == ([2, 3, 4] if algorithm == "full" else [])


@st.composite
def supply_cases(draw):
    """(config, events, caps): a noiseless ``full`` run, whose activations
    re-cap the gate, with at most m samples per user, and caps to probe
    after every event.  Probe caps are integers and halves, 0 and values
    above m among them."""
    m = draw(st.integers(2, 64))
    n = draw(st.integers(1, 30))
    counts: dict[int, int] = {}
    users = []
    for user in draw(st.lists(st.integers(1, n), max_size=120)):
        if counts.get(user, 0) < m:
            counts[user] = counts.get(user, 0) + 1
            users.append(user)
    config = EstimatorConfig(
        algorithm="full", n=n, m=m, eps=draw(st.sampled_from([1.0, 50.0, 3000.0])), delta=0.5,
        prior_override=0.5, noise_override=0.0,
    )
    caps = st.one_of(
        st.just(0),
        st.integers(0, m + 2),
        st.integers(0, 2 * m + 4).map(lambda k: k / 2.0),
        st.integers(m + 1, 4 * m).map(float),
    )
    return config, events_of(users, [0.5] * len(users)), draw(st.lists(caps, min_size=1, max_size=3))


def _supply_case(m, users, probes):
    config = EstimatorConfig(
        algorithm="full", n=3, m=m, eps=1.0, delta=0.5, prior_override=0.5, noise_override=0.0
    )
    return config, events_of(users, [0.5] * len(users)), probes


def _activating_supply_case(ordering):
    # levels 2, 3 and 4 activate at t = 20, 44 and 96 (as in ``_full_copy_case``)
    n, m = 300, 16
    config = EstimatorConfig(
        algorithm="full", n=n, m=m, eps=50.0, delta=0.5, seed=1, prior_override=0.5, noise_override=0.0
    )
    return config, generate(0.5, n, m, 120, OrderingSpec(ordering), seed=1), [8.5, 0, 40.0]


# the estimator's supply fields: user counts A(k), M_t and the capped sums
SUPPLY_FIELDS = ("_at_least", "max_count", "_half", "_gate", "_gate_cap")


class TestCappedSupply:
    """``step`` keeps ``half``, ``gate`` and ``max_count`` equal to their
    definitions, counted user by user after every sample, and so does every
    recount; an activation re-caps the gate."""

    @settings(max_examples=120, deadline=None)
    @given(supply_cases())
    @example(_activating_supply_case("round_robin"))
    @example(_activating_supply_case("uniform_random"))
    @example(_supply_case(1024, [1] * 1024 + [2] * 5 + [3] * 2, [512.5, 0, 2000.0]))  # a user reaches m
    @example(_supply_case(8, [1] * 3 + [2] * 2 + [3] + [1] * 2 + [2] * 4, [4]))
    def test_sums_equal_brute_force(self, case):
        config, events, probes = case
        m = config.m
        est = make_estimator(config)
        bare = make_estimator(dataclasses.replace(config, track_diversity=False))
        counts = est.counts

        def capped(cap):
            return sum(min(c, cap) for c in counts.values())

        recaps = 0
        for ev in events:
            gate_cap = est._gate_cap
            est.step(ev)
            bare.step(ev)
            recaps += est._gate_cap != gate_cap
            max_count = max(counts.values())
            assert est.max_count == max_count
            assert est._half == capped(max_count / 2)
            assert est._gate == capped(est._gate_cap)
            for cap in [max_count / 2, est._gate_cap] + probes:
                assert _capped_sum(est._at_least, est.max_count, cap) == capped(cap)
            assert est._at_least[1:] == [sum(c >= k for c in counts.values()) for k in range(1, m + 2)]
            # without the flag's sum, the supply is the same in all else
            assert bare._half is None
            assert [getattr(bare, f) for f in SUPPLY_FIELDS if f != "_half"] == [
                getattr(est, f) for f in SUPPLY_FIELDS if f != "_half"
            ]
        # an activation re-caps the gate, at most once per level
        assert (recaps > 0) == bool(est.priors) and recaps <= len(est.priors)
        if config.n == 300:  # the two examples: every level activates
            assert sorted(est.priors) == [2, 3, 4]


@functools.cache
def clamping_estimators() -> tuple:
    """A ``wishful``, ``single``, ``multi`` and ``full`` estimator with their
    intervals set; ``full``'s levels 2, 3 and 4 have activated."""
    n, m = 300, 16
    ests = []
    for algorithm in ("wishful", "single", "multi", "full"):
        est = make_estimator(any_config(algorithm, n=n, m=m, T=n * m, eps=50.0, delta=0.5, seed=1))
        ordering = "contiguous" if algorithm == "wishful" else "round_robin"
        est.run(generate(0.5, n, m, 120, OrderingSpec(ordering), seed=1))
        ests.append(est)
    return tuple(ests)


def level_intervals(est) -> list:
    """Each level's (interval, block size), recomputed from the config and
    ``full``'s median priors, or None where the level clamps nothing."""
    cfg = est.config
    m, n, delta = cfg.m, cfg.n, cfg.delta
    if cfg.algorithm == "wishful":
        return [(TruncationInterval(center=m * cfg.prior, half_width=_wishful_width(m, n, delta)), m)]
    intervals = [None] * (top_level(m) + 1)
    for lv in range(1, len(intervals)):
        if cfg.algorithm == "full":
            if lv in est.priors:
                intervals[lv] = interval_full(est.priors[lv], lv, n, m, cfg.eps, delta), array_size(lv)
        else:
            intervals[lv] = interval_single(cfg.prior, lv, m, n, delta), array_size(lv)
    return intervals


class TestClampBounds:
    """The bounds ``_release`` clamps a block with are those ``project``
    intersects the level's interval with: the same result, bit for bit."""

    def test_every_family_has_intervals(self):
        levels = {est.config.algorithm: [lv for lv, b in enumerate(est._clamps) if b] for est in clamping_estimators()}
        assert levels == {"wishful": [0], "single": [1, 2, 3, 4], "multi": [1, 2, 3, 4], "full": [2, 3, 4]}
        for est in clamping_estimators():
            expected = [iv and clamp_bounds(*iv) for iv in level_intervals(est)]
            assert list(est._clamps) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.floats(-40.0, 40.0), st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, 8.0, 16.0]),
    ))
    def test_bounds_give_project(self, s):
        for est in clamping_estimators():
            for sized, bounds in zip(level_intervals(est), est._clamps):
                if sized is None:
                    assert bounds is None
                    continue
                interval, size = sized
                lo, hi = bounds
                assert min(max(s, lo), hi).hex() == project(interval, s, size).hex()


class TestReleaseClamp:
    """``_release`` clamps with two comparisons: the block it appends is
    ``project``'s, and ``min(max(s, lo), hi)``'s, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.floats(0.0, 1.0), st.floats(0.0, 12.0), st.data())
    def test_clamp_is_project(self, level, prior, half_width, data):
        size = array_size(level)
        interval = TruncationInterval(center=size * prior, half_width=half_width)
        lo, hi = clamp_bounds(interval, size)
        s = data.draw(st.one_of(
            st.sampled_from([lo, hi, -lo, -hi, 0.0, -0.0, float(size)]),
            st.floats(-1.0, size + 1.0), st.floats(allow_nan=False),
        ))
        est = make_estimator(noiseless_config("multi", n=3, m=16, eps=1.0, delta=0.1, prior=0.5))
        est._set_interval(level, interval, size)
        appended = []
        est.mechanisms[level].append = lambda x: appended.append(x) or 0.0
        clipped = est._release(level, s, size)
        assert appended[0].hex() == project(interval, s, size).hex() == min(max(s, lo), hi).hex()
        assert clipped == (appended[0] != s)


class TestNegativeZeroSamples:
    """A -0.0 sample publishes exactly what 0.0 does.  A block of one is
    the sample itself, -0.0 where 0.0 + -0.0 used to give 0.0, but the
    clamp keeps either as it is, and the counter adds either to a prefix
    sum that is never -0.0."""

    @pytest.mark.parametrize("noise", [None, 0.0])
    @pytest.mark.parametrize("algorithm, m", [
        ("naive", 1), ("naive", 4), ("wishful", 1), ("wishful", 4), ("single", 4), ("multi", 4), ("full", 4),
    ])
    def test_outputs_bit_identical(self, algorithm, m, noise):
        n = 6
        ordering = OrderingSpec("contiguous" if algorithm == "wishful" else "round_robin")
        users = [ev.user for ev in generate(0.5, n, m, n * m, ordering, seed=3)]
        zeros = [(0.0, 1.0, 0.25)[i % 3] for i in range(n * m)]
        config = any_config(
            algorithm, n=n, m=m, T=n * m, eps=1.0, delta=0.1, seed=4, noise_override=noise,
            prior_override=0.25 if algorithm == "full" else None,
        )
        runs = []
        for values in (zeros, [-v if v == 0.0 else v for v in zeros]):
            est = stored_estimator(config)
            est.run(events_of(users, values))
            runs.append((
                repr(est.records), [[v.hex() for v in partial_sums(mech)] for mech in est.mechanisms],
                {u: s.hex() for u, s in est.pending.items()}, est.buffers,
            ))
        assert runs[0] == runs[1]
        assert "-0.0" not in runs[1][0]


def set_fields(obj) -> list[str]:
    """The names of the attributes ``obj`` holds: its set ``__slots__``,
    then its ``__dict__`` keys, each in order."""
    slots = [f for cls in type(obj).__mro__ for f in getattr(cls, "__slots__", ())]
    return [f for f in slots if hasattr(obj, f)] + list(getattr(obj, "__dict__", ()))


def stored_estimator(config):
    """An estimator whose counters store every partial sum, as an audited
    one's do, so ``estimator_state`` can read them."""
    est = make_estimator(config)
    for mech in est.mechanisms:
        mech.store_nodes()
    return est


def estimator_state(est) -> str:
    """Everything ``step`` changes, exact to the last bit of every float;
    ``est`` must store its counters' partial sums (``stored_estimator``)."""
    return repr((
        est.t, est.total, est.records, est.counts, est.budget.entries, est.active_levels(),
        [(partial_sums(mech), mech.sum()) for mech in est.mechanisms],
        [getattr(est, f) for f in SUPPLY_FIELDS],
        getattr(est, "ledger", None) and est.ledger.pending, getattr(est, "_clamps", None),
        getattr(est, "priors", None), getattr(est, "buffers", None), getattr(est, "_history", None),
    ))


@st.composite
def copy_cases(draw):
    """(config, events, cut): any algorithm, noise on or off, any cut."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    n, m, events = draw(capped_streams(contiguous=algorithm == "wishful"))
    config = any_config(
        algorithm, n=n, m=m, T=len(events), eps=draw(st.sampled_from([1.0, 50.0, 3000.0])),
        delta=0.1, seed=draw(st.integers(0, 3)), noise_override=draw(st.sampled_from([None, 0.0])),
    )
    return config, events, draw(st.integers(0, len(events)))


def _full_copy_case(ordering, length, cut, noise):
    # levels 2, 3 and 4 activate at t = 20, 44 and 96 under round robin and
    # uniform random, and at t = 146, 164 and 184 after a single-user
    # prefix, which leaves blocks buffered before them
    n, m = 300, 16
    config = EstimatorConfig(
        algorithm="full", n=n, m=m, eps=50.0, delta=0.5, seed=1, noise_override=None if noise else 0.0
    )
    return config, generate(0.5, n, m, length, OrderingSpec(ordering), seed=1), cut


class TestCopy:
    """A ``copy()`` branches an estimator: twin and original go on exactly
    as one uninterrupted run, and neither sees the other's steps."""

    @settings(max_examples=150, deadline=None)
    @given(copy_cases())
    @example(_full_copy_case("round_robin", 120, 10, noise=True))  # every level activates after the cut
    @example(_full_copy_case("uniform_random", 120, 30, noise=True))  # between activations
    @example(_full_copy_case("uniform_random", 120, 60, noise=False))
    @example(_full_copy_case("single_user_prefix", 200, 100, noise=True))  # buffers and history held
    @example(_full_copy_case("single_user_prefix", 200, 150, noise=True))
    @example(_full_copy_case("single_user_prefix", 200, 170, noise=False))
    def test_twin_continues_as_one_run(self, case):
        config, events, cut = case
        whole = stored_estimator(config)
        whole.run(events)
        est = stored_estimator(config)
        est.run(events[:cut])
        at_cut = estimator_state(est)
        twin = est.copy()
        # an attribute that copy() misses shows here
        pairs = list(zip(twin.mechanisms, est.mechanisms))
        if hasattr(est, "ledger"):
            pairs.append((twin.ledger, est.ledger))
        for a, b in pairs:
            assert set_fields(a) == set_fields(b)
        assert set_fields(twin) == set_fields(est) == list(_EstimatorBase.__slots__)
        assert estimator_state(twin) == at_cut
        twin.run(events[cut:])
        assert estimator_state(est) == at_cut
        assert estimator_state(twin) == estimator_state(whole)
        est.run(events[cut:])
        assert estimator_state(est) == estimator_state(whole)
        assert estimator_state(twin) == estimator_state(whole)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_instance_dict(self, algorithm):
        # ``__slots__`` keeps every attribute out of a ``__dict__``, in a
        # run's estimator and in its twin
        config, events = tuple_case(algorithm)
        est = make_estimator(config)
        est.run(events)
        assert not hasattr(est, "__dict__") and not hasattr(est.copy(), "__dict__")


class TestCopyBeforeDraws:
    """A counter that has not drawn holds a generator factory, and copying
    it neither runs the factory nor imports ``numpy.random``."""

    SCRIPT = """
import sys
from contmean.estimators import ALGORITHMS, EstimatorConfig, make_estimator
from contmean.streams import StreamEvent

def config(algorithm):
    extra = {"T": 8} if algorithm in ("naive", "wishful") else {}
    if algorithm in ("wishful", "single", "multi"):
        extra["prior"] = 0.5
    return EstimatorConfig(algorithm, n=3, m=4, eps=1.0, delta=0.1, **extra)

for algorithm in ALGORITHMS:
    make_estimator(config(algorithm)).copy()
    print(algorithm, "numpy.random" in sys.modules)
make_estimator(config("naive")).step(StreamEvent(1, 1, 0.5))  # the first draw
print("drawn", "numpy.random" in sys.modules)
"""

    def test_fresh_copy_leaves_numpy_random_unimported(self):
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert out == [f"{a} False" for a in ALGORITHMS] + ["drawn True", ""]


class TestAccountingInvariant:
    @pytest.mark.parametrize("algorithm", ["single", "multi", "full"])
    def test_total_plus_withheld_equals_t(self, algorithm):
        n, m = 7, 32
        events = generate(0.5, n, m, 200, OrderingSpec("uniform_random"), seed=13)
        kw = {} if algorithm == "full" else {"prior": 0.5}
        cfg = noiseless_config(algorithm, n=n, m=m, eps=2.0, delta=0.1, **kw)
        est = make_estimator(cfg)
        for ev in events:
            est.step(ev)
            buffered = est.buffered_sample_count() if algorithm == "full" else 0
            assert est.total + est.ledger.pending_count() + buffered == est.t

    @pytest.mark.parametrize("algorithm", ["single", "multi", "full"])
    @pytest.mark.parametrize("ordering", ["uniform_random", "single_user_prefix"])
    def test_estimate_is_fsum_of_counter_sums(self, algorithm, ordering):
        # noise on; at the dense golden setting every full level activates,
        # and under a single-user prefix some activate with blocks buffered,
        # which the activation releases
        p = GOLDEN_SETTINGS["dense"]
        n, m, T = p["n"], p["m"], p["T"]
        events = generate(p["mu"], n, m, T, OrderingSpec(ordering), seed=5)
        est = make_estimator(any_config(algorithm, n=n, m=m, T=T, eps=p["eps"], delta=p["delta"], seed=5))
        flushed = 0
        for ev in events:
            waiting = {lv: len(buf) for lv, buf in getattr(est, "buffers", {}).items()}
            rec = est.step(ev)
            flushed += sum(waiting[lv] for lv in getattr(est, "priors", {}) if lv in waiting)
            assert rec.estimate == math.fsum(mech.sum() for mech in est.mechanisms) / rec.total
        if algorithm == "full":
            assert not est.inactive
            assert flushed > 0 or ordering == "uniform_random"

    def test_half_total_law_when_all_levels_active(self):
        # single/multi never buffer, so total >= ceil(t/2) at every step
        events = generate(0.5, 5, 64, 150, OrderingSpec("uniform_random"), seed=17)
        cfg = noiseless_config("single", n=5, m=64, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        for ev in events:
            rec = est.step(ev)
            assert rec.total >= math.ceil(rec.t / 2)


class TestDiversity:
    def test_single_user_never_satisfied(self):
        report = check_diversity({1: 40}, eps=1.0, delta=0.1, m=64)
        assert not report.satisfied
        assert report.lhs == pytest.approx(20.0)

    def test_sufficient_condition(self):
        # enough users each holding at least M_t/2 samples
        m, eps, delta, max_count = 64, 1.0, 0.1, 8
        big_l = math.ceil(LOG2(m))
        needed = (16 / eps) * 2 * big_l * LN(3 * big_l * math.sqrt(max_count) / delta)
        users = {u: max_count // 2 for u in range(1, int(needed) + 3)}
        users[1] = max_count
        report = check_diversity(users, eps=eps, delta=delta, m=m)
        assert report.satisfied

    def test_boundary_case_formula(self):
        # independently evaluated threshold at M_t = 4, m = 16
        eps, delta, m = 8.0, 0.5, 16
        rhs = 2.0 * (16 / eps) * (2 * 4 * LN(3 * 4 * 2.0 / delta))
        just_enough = math.ceil(rhs / 2)
        users = {u: 2 for u in range(1, just_enough + 1)}
        users[1] = 4  # sets M_t
        report = check_diversity(users, eps=eps, delta=delta, m=m)
        assert report.rhs == pytest.approx(rhs, rel=1e-12)
        assert report.satisfied == (report.lhs >= rhs)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            check_diversity({}, eps=1.0, delta=0.1, m=4)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_flag_and_report_equal_recount_every_step(self, algorithm, data):
        n, m, events = data.draw(capped_streams(contiguous=algorithm == "wishful"))
        eps = data.draw(st.sampled_from([0.5, 20.0, 500.0, 5000.0]))
        seed = data.draw(st.integers(0, 3))
        kw = dict(n=n, m=m, T=len(events), eps=eps, delta=0.1, seed=seed)
        est = make_estimator(any_config(algorithm, **kw))
        twin = make_estimator(any_config(algorithm, track_diversity=False, **kw))
        counts = {}
        for ev in events:
            counts[ev.user] = counts.get(ev.user, 0) + 1
            recount = check_diversity(counts, eps=eps, delta=0.1, m=m)
            rec = est.step(ev)
            assert ("div" in rec.flags) == recount.satisfied
            assert est.diversity() == recount
            # the flag is the only output that tracking changes
            bare = twin.step(ev)
            assert bare.flags == tuple(f for f in rec.flags if f != "div")
            assert (bare.estimate, bare.total, bare.max_count, bare.active_levels) == (
                rec.estimate, rec.total, rec.max_count, rec.active_levels
            )

    @pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
    def test_flag_equals_recount_up_to_m_1024(self, algorithm):
        # one user drives M_t to m = 1024 among 40 users of 1 to 8 samples;
        # at this eps the flag turns on and off again as M_t rises
        m, eps = 1024, 2000.0
        rng = np.random.default_rng(0)
        users = [1] * m + [u for u in range(2, 42) for _ in range(int(rng.integers(1, 9)))]
        events = events_of([int(u) for u in rng.permutation(users)], [1.0, 0.0] * len(users))
        est = make_estimator(any_config(algorithm, n=41, m=m, T=len(events), eps=eps, delta=0.1, seed=1))
        counts, flags = {}, []
        for ev in events:
            counts[ev.user] = counts.get(ev.user, 0) + 1
            recount = check_diversity(counts, eps=eps, delta=0.1, m=m)
            rec = est.step(ev)
            assert ("div" in rec.flags) == recount.satisfied
            assert est.diversity() == recount
            assert (est._half, est._diversity_rhs) == (recount.lhs, recount.rhs)
            flags.append(recount.satisfied)
        assert est.max_count == m
        assert 0 < sum(flags) < len(flags) and flags[-1] is False

    @pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
    def test_step_recounts_only_at_full_activations(self, algorithm, monkeypatch):
        # the flag's sum moves by O(1) raises as M_t rises to m; only
        # ``full``'s gate is recounted, at an activation that leaves levels
        # to come
        n, m = 300, 16
        events = generate(0.5, n, m, 400, OrderingSpec("single_user_prefix"), seed=1)
        est = make_estimator(any_config(algorithm, n=n, m=m, T=len(events), eps=50.0, delta=0.5, seed=1))
        recounts = []
        recount = contmean.estimators._capped_sum
        monkeypatch.setattr(
            contmean.estimators, "_capped_sum",
            lambda at_least, max_count, cap: recounts.append(cap) or recount(at_least, max_count, cap),
        )
        est.run(events)
        assert est.max_count == m
        activations = len(getattr(est, "priors", ()))
        assert len(recounts) == (activations - 1 if activations else 0)
        if algorithm == "full":
            assert activations == 3 and not est.buffers

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_report_needs_a_sample(self, algorithm):
        est = make_estimator(any_config(algorithm, n=2, m=4, T=8, eps=1.0, delta=0.1))
        with pytest.raises(ValueError):
            est.diversity()


class TestInputValidation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("value", [1000.0, -0.5, 1.0 + 1e-12, math.nan, math.inf, -math.inf])
    def test_value_outside_unit_interval_rejected(self, algorithm, value):
        est = make_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            est.step(StreamEvent(t=1, user=1, value=value))
        assert est.t == 0 and est.counts == {} and est.records == []
        est.step(StreamEvent(t=1, user=1, value=1.0))  # the boundary is allowed

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_decimal_value_refused_without_a_trace(self, algorithm):
        # a Decimal compares with floats but does not add to them: unless
        # step refuses it, multi's ledger raises TypeError on the running
        # sum at t = 3 after the counts have moved, and the next step KeyError
        config = any_config(algorithm, n=2, m=8, T=16, eps=1.0, delta=0.1)
        est, twin = stored_estimator(config), stored_estimator(config)
        events = events_of([1, 1, 1], [0.5, 0.25, 0.75])
        est.run(events[:2])
        before = estimator_state(est)
        with pytest.raises(ValueError, match="is not a real number"):
            est.step(StreamEvent(t=3, user=1, value=Decimal("0.5")))
        assert estimator_state(est) == before
        assert est.step(events[2]) == twin.run(events)[2]
        assert estimator_state(est) == estimator_state(twin)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float32_values_publish_as_their_floats(self, algorithm):
        # 10 samples a user, so blocks of 2 and 4 are summed; ``full``
        # activates levels 2, 3 and 4, so its private medians read the
        # float32 values too
        n, m, length = 20, 16, 200
        config = any_config(algorithm, n=n, m=m, T=length, eps=50.0, delta=0.5, seed=1, keep_trace=True)
        ordering = OrderingSpec("contiguous" if algorithm == "wishful" else "round_robin")
        users = [ev.user for ev in generate(0.5, n, m, length, ordering, seed=1)]
        narrow = [np.float32((i * 0.37) % 1.0) for i in range(length)]
        est, twin = make_estimator(config), make_estimator(config)
        est.run(events_of(users, narrow))
        twin.run(events_of(users, [float(v) for v in narrow]))
        assert repr(est.records) == repr(twin.records)
        assert all(type(s) is float for s in est.ledger.pending.values())
        assert est.ledger.pending == twin.ledger.pending
        if algorithm == "full":
            assert est.active_levels() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("user", [1.5, 1.0, "1", True, None])
    def test_user_id_must_be_an_integer(self, algorithm, user):
        est = stored_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1))
        est.step(StreamEvent(t=1, user=2, value=1.0))
        before = estimator_state(est)
        with pytest.raises(ValueError, match="^user: .* is not an integer"):
            est.step(StreamEvent(t=2, user=user, value=1.0))
        assert estimator_state(est) == before

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_numpy_integer_user_accepted(self, algorithm):
        est = make_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1, noise_override=0.0))
        est.run(events_of([np.int64(3), 3, np.int32(3)], [1.0, 0.0, 1.0]))
        assert est.counts == {3: 3}

    @pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
    def test_fractional_ids_add_no_counter_element(self, algorithm):
        # at n = 2 every counter's row assumes at most 2 users; five ids in
        # [1, 2] once made a 5-element level-0 counter, whose first element
        # lies in 3 partial sums against the row's 2
        est = make_estimator(any_config(algorithm, n=2, m=4, T=5, eps=1.0, delta=0.1))
        for t, user in enumerate([1, 1.25, 1.5, 1.75, 2], start=1):
            if user.__class__ is int:
                est.step(StreamEvent(t=t, user=user, value=1.0))
            else:
                with pytest.raises(ValueError, match="is not an integer"):
                    est.step(StreamEvent(t=t, user=user, value=1.0))
        assert est.counts == {1: 1, 2: 1}
        assert sum(map(len, est.mechanisms)) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps", math.nan),
            ("eps", math.inf),
            ("noise_override", math.nan),
            ("noise_override", math.inf),
            ("prior_override", math.nan),
            ("prior_override", -0.1),
            ("prior_override", 1.5),
        ],
    )
    def test_nonfinite_privacy_inputs_rejected(self, field, value):
        # a NaN budget publishes NaN, an infinite one runs noiseless, and a
        # NaN prior centre leaves block sums unclamped
        with pytest.raises(ValueError, match=f"{field} must be"):
            any_config("full", n=4, m=4, T=16, delta=0.1, **{"eps": 1.0, field: value})

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_nan_time_refused(self, algorithm):
        # NaN fails ``t > last`` and ``t <= last`` alike: refused only on
        # the second, NaN times were accepted, and after one any time was
        config = any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1, seed=2)
        est, twin = stored_estimator(config), stored_estimator(config)
        events = events_of([1, 1, 1], [0.5, 0.25, 0.75])
        est.run(events[:2])
        twin.run(events[:2])
        before = estimator_state(est)
        for _ in range(3):
            with pytest.raises(ValueError, match="does not increase"):
                est.step(StreamEvent(t=math.nan, user=1, value=0.5))
            assert estimator_state(est) == before
        assert est.step(events[2]) == twin.step(events[2])
        assert estimator_state(est) == estimator_state(twin)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_time_must_increase(self, algorithm):
        est = make_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1))
        est.step(StreamEvent(t=3, user=1, value=0.5))
        for t in (3, 2, 0):
            with pytest.raises(ValueError, match="does not increase"):
                est.step(StreamEvent(t=t, user=1, value=0.5))
        assert est.t == 1 and est.counts == {1: 1}
        assert est.step(StreamEvent(t=7, user=1, value=0.5)).t == 2  # gaps are allowed


class TestRejectedEvents:
    """A rejected event leaves no trace: the estimator goes on as a twin
    that never saw it."""

    def test_wishful_ordering_error(self):
        kw = dict(n=3, m=4, T=12, eps=1.0, delta=0.1, prior=0.5, seed=2)
        est, twin = make_estimator(EstimatorConfig("wishful", **kw)), make_estimator(EstimatorConfig("wishful", **kw))
        for ev in events_of([1, 1], [1.0, 0.0]):
            est.step(ev)
            twin.step(ev)
        with pytest.raises(OrderingError):
            est.step(StreamEvent(t=3, user=2, value=1.0))
        assert (est.t, est.counts) == (2, {1: 2})
        for ev in events_of([1, 1, 1, 1, 2], [1.0, 1.0, 0.0, 1.0, 1.0])[2:]:
            assert est.step(ev) == twin.step(ev)

    def test_naive_stream_longer_than_t(self):
        kw = dict(n=2, m=4, T=3, eps=1.0, delta=0.1, seed=2)
        est, twin = stored_estimator(EstimatorConfig("naive", **kw)), stored_estimator(EstimatorConfig("naive", **kw))
        events = events_of([1, 2, 1], [1.0, 0.0, 1.0])
        est.run(events)
        twin.run(events)
        with pytest.raises(ValueError, match="longer than configured T"):
            est.step(StreamEvent(t=4, user=2, value=1.0))
        assert (est.t, est.counts, est.total) == (twin.t, twin.counts, twin.total)
        assert est._at_least == twin._at_least and est.diversity() == twin.diversity()
        assert partial_sums(est.mechanisms[0]) == partial_sums(twin.mechanisms[0])


def tuple_case(algorithm):
    """(config, events) of ``algorithm`` with noise on; ``full`` activates
    levels 2, 3 and 4, so its private medians read the kept history."""
    if algorithm == "full":
        config, events, _ = _full_copy_case("round_robin", 120, 0, noise=True)
        return config, events
    n, m, length = 20, 8, 120
    ordering = OrderingSpec("contiguous" if algorithm == "wishful" else "round_robin")
    # at this eps every algorithm publishes estimates both inside and
    # outside [0, 1]
    config = any_config(algorithm, n=n, m=m, T=length, eps=20.0, delta=0.1, seed=1)
    return config, generate(0.5, n, m, length, ordering, seed=1)


class TestPlainTupleEvents:
    """``step`` reads its event as ``t, user, value = event``, so any
    3-tuple is an event, refused or published as the equal ``StreamEvent``."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_plain_tuple_publishes_the_same_record(self, algorithm):
        config, events = tuple_case(algorithm)
        est, twin = make_estimator(config), make_estimator(config)
        plain = [est.step(tuple(ev)) for ev in events]
        assert repr(plain) == repr(twin.run(events))
        assert est.priors == twin.priors
        if algorithm == "full":
            assert est.active_levels() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("event, match", [
        ((2, 2, 1.5), r"outside \[0, 1\]"),
        ((2, 2, math.nan), r"outside \[0, 1\]"),
        ((1, 2, 0.5), "does not increase"),
        ((2, 9, 0.5), r"outside \[1, 4\]"),
    ])
    def test_plain_tuple_refused_with_value_error(self, algorithm, event, match):
        # user 2 arrives while wishful's batch for user 1 is open, so
        # wishful refuses through its arrival-order check
        est = stored_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1))
        est.step((1, 1, 0.5))
        before = estimator_state(est)
        with pytest.raises(ValueError, match=match):
            est.step(event)
        assert estimator_state(est) == before

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("event", [(2, 1), (2, 1, 0.5, 0.0), (), None, 0.5])
    def test_not_a_triple_raises_before_any_state_moves(self, algorithm, event):
        est = stored_estimator(any_config(algorithm, n=4, m=4, T=16, eps=1.0, delta=0.1))
        est.step((1, 1, 0.5))
        before = estimator_state(est)
        with pytest.raises((TypeError, ValueError), match="unpack"):
            est.step(event)
        assert estimator_state(est) == before
        est.step((2, 1, 0.5))
        assert est.t == 2 and est.counts == {1: 2}


class TestOneSamplePerUser:
    """m = 1 withholds nothing, so the diversity condition holds vacuously."""

    @pytest.mark.parametrize("algorithm", ["naive", "wishful"])
    def test_step_with_diversity_flag(self, algorithm):
        n = 5
        est = make_estimator(any_config(algorithm, n=n, m=1, T=n, eps=1.0, delta=0.1))
        records = est.run(events_of(range(1, n + 1), [1.0, 0.0, 1.0, 1.0, 0.0]))
        assert all("div" in rec.flags for rec in records)
        assert est.diversity() == check_diversity(est.counts, eps=1.0, delta=0.1, m=1)

    def test_check_diversity(self):
        report = check_diversity({1: 1, 2: 1}, eps=1.0, delta=0.1, m=1)
        assert report.satisfied and report.rhs == 0.0


class TestMemory:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_construction_allocates_nothing_of_size_n(self, algorithm):
        n = 10**6
        event = StreamEvent(t=1, user=n, value=0.5)
        make_estimator(any_config(algorithm, n=4, m=64, T=n, eps=1.0, delta=0.1)).step(
            StreamEvent(t=1, user=1, value=0.5)
        )  # warm lazy imports and caches first
        tracemalloc.start()
        try:
            est = make_estimator(any_config(algorithm, n=n, m=64, T=n, eps=1.0, delta=0.1))
            est.step(event)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n // 10  # one byte per user would already be n


class TestTrace:
    def test_csv_layout(self, tmp_path):
        cfg = noiseless_config("single", n=2, m=4, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        est.run(events_of([1, 1, 1], [1.0, 0.0, 1.0]))
        path = tmp_path / "trace.csv"
        write_trace(est.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,user,estimate,total,M_t,flags"
        assert lines[1].startswith("1,1,")
        assert len(lines) == 4

    def test_flags_are_comma_free(self):
        cfg = EstimatorConfig(algorithm="full", n=4, m=16, eps=1, delta=0.1, seed=3)
        est = make_estimator(cfg)
        events = generate(0.5, 4, 16, 40, OrderingSpec("round_robin"), seed=4)
        for ev in events:
            est.step(ev)
        for rec in est.records:
            assert "," not in rec.flags_str()

    def test_nodata_flag_only_before_first_release(self):
        cfg = noiseless_config("single", n=2, m=4, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        rec = est.step(StreamEvent(t=1, user=1, value=1.0))
        assert "nodata" not in rec.flags  # first sample always releases

    def test_per_user_cap_enforced(self):
        cfg = noiseless_config("single", n=2, m=2, eps=1, delta=0.1, prior=0.5)
        est = make_estimator(cfg)
        est.run(events_of([1, 1], [0.0, 0.0]))
        with pytest.raises(ValueError, match="cap"):
            est.step(StreamEvent(t=3, user=1, value=0.0))


def golden_records(algorithm, setting, seed=3):
    """Trace records of one run at a setting of the golden test."""
    p = GOLDEN_SETTINGS[setting]
    ordering = "contiguous" if algorithm == "wishful" else "uniform_random"
    events = generate(p["mu"], p["n"], p["m"], p["T"], OrderingSpec(ordering), seed=seed + 100)
    est = make_estimator(
        any_config(algorithm, n=p["n"], m=p["m"], T=p["T"], eps=p["eps"], delta=p["delta"], seed=seed,
                   **({"prior": 0.1} if algorithm in ("wishful", "single", "multi") else {}))
    )
    est.run(events)
    return est.records


class TestTraceBytes:
    def test_write_trace_equals_csv_writer(self, tmp_path):
        traces = [golden_records(a, s) for a, s in
                  (("wishful", "odd"), ("single", "odd"), ("multi", "odd"), ("full", "odd"), ("full", "dense"))]
        # no estimator publishes ``nodata`` on these streams; build records
        # that carry it, every flag at once, and edge-case floats
        last = traces[-1][-1]
        traces.append([
            dataclasses.replace(last, estimate=0.5, flags=("nodata",), active_levels=None),
            dataclasses.replace(last, estimate=-0.0, flags=("nodata", "clip", "oob", "div")),
            dataclasses.replace(last, estimate=5e-324, flags=(), active_levels=()),
            dataclasses.replace(last, estimate=-1e300, flags=("clip",), active_levels=(0,)),
        ])
        # runs of equal estimates: zeros of either sign, NaN (unequal to
        # itself), an int prior next to its float, and a repeated estimate
        # whose total or flags change
        traces.append([
            dataclasses.replace(last, t=t, estimate=x, total=total, flags=flags)
            for t, (x, total, flags) in enumerate([
                (0.0, 0, ()), (-0.0, 0, ()), (0.0, 0, ()), (-0.0, 1, ()), (-0.0, 1, ()),
                (math.nan, 1, ()), (math.nan, 1, ()), (-math.nan, 2, ()),
                (1, 2, ()), (1.0, 2, ()), (1, 2, ()), (1, 3, ()),
                (0.25, 3, ()), (0.25, 4, ()), (0.25, 4, ("div",)), (0.25, 4, ("oob", "div")),
                (0.25, 5, ("clip",)), (0.5, 5, ("clip",)), (0.25, 5, ("clip",)),
            ], start=1)
        ])
        assert any("clip" in r.flags for trace in traces for r in trace)
        tokens = {tok for trace in traces for r in trace for tok in r.flags_str().split(";")}
        assert {"nodata", "oob", "div", ""} <= tokens and "clip" not in tokens
        assert any(tok.startswith("act=0-1-") for tok in tokens)
        for i, trace in enumerate(traces + [[r for trace in traces for r in trace], []]):
            path = tmp_path / f"trace_{i}.csv"
            write_trace(trace, path)
            assert path.read_bytes() == reference_trace_csv(trace)


class TestWriteTrace:
    """``write_trace`` is the one writer of a trace file: it reads any
    iterable of records once, and leaves no file when it fails."""

    def test_an_iterator_writes_the_bytes_of_its_list(self, tmp_path):
        records = golden_records("full", "dense")
        write_trace(records, tmp_path / "list.csv")
        write_trace(iter(records), tmp_path / "iter.csv")
        assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_a_failing_stream_leaves_no_file(self, tmp_path):
        records = golden_records("multi", "odd")

        def fail_after_three():
            yield from records[:3]
            raise RuntimeError("stream failed")

        with pytest.raises(RuntimeError, match="stream failed"):
            write_trace(fail_after_three(), tmp_path / "trace.csv")
        assert list(tmp_path.iterdir()) == []

    def test_an_unopenable_path_raises_its_own_error(self, tmp_path):
        # the open comes before the cleanup, so no ``os.remove`` error hides it
        with pytest.raises(FileNotFoundError) as caught:
            write_trace(golden_records("multi", "odd"), tmp_path / "missing" / "trace.csv")
        assert caught.value.filename == str(tmp_path / "missing" / "trace.csv")
        assert list(tmp_path.iterdir()) == []


def _events_from(order, per_user):
    """Events of users in ``order``; a user's k-th event takes its k-th value."""
    seen: dict[int, int] = {}
    values = []
    for u in order:
        k = seen[u] = seen.get(u, 0) + 1
        values.append(per_user[u][k - 1])
    return events_of(order, values)


@st.composite
def neighbour_cases(draw):
    """(n, m, eps, seed, prior, order, per_user, victim, victim_values): one
    arrival order and per-user values; the neighbour gives ``victim``
    ``victim_values`` instead."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([2, 3, 8, 64]))
    order = draw(st.permutations([u for u in range(1, n + 1) for _ in range(m)]))
    order = order[: draw(st.integers(1, len(order)))]
    values = st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=m, max_size=m)
    per_user = {u: draw(values) for u in range(1, n + 1)}
    return (
        n, m, draw(st.sampled_from([1.0, 50.0, 3000.0])), draw(st.integers(0, 3)),
        draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), order, per_user,
        draw(st.sampled_from(order)), draw(values),
    )


def written_rows(config, events) -> list[str]:
    est = make_estimator(config)
    est.run(events)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(est.records, path)
        return path.read_text().splitlines()


class TestTraceNeighbours:
    """A written trace is private: value-neighbouring streams (same arrival
    order, one user's values changed) give traces that differ only in the
    noisy ``estimate`` and the ``oob`` flag computed from it."""

    @staticmethod
    def public_fields(rows):
        out = [rows[0]]
        for row in rows[1:]:
            t, user, _estimate, total, max_count, flags = row.split(",")
            out.append((t, user, total, max_count, [tok for tok in flags.split(";") if tok not in ("", "oob")]))
        return out

    @settings(max_examples=60, deadline=None)
    @given(neighbour_cases())
    # user 1's unit samples clip blocks that user 1's 0.1s do not
    @example((2, 64, 1.0, 3, 0.1, [1, 2] * 64, {1: [0.1] * 64, 2: [0.1] * 64}, 1, [1.0] * 64))
    def test_only_estimate_and_oob_differ(self, case):
        n, m, eps, seed, prior, order, per_user, victim, victim_values = case
        neighbour = {**per_user, victim: victim_values}
        # wishful takes each user's m samples in a row, in order of first arrival
        contiguous = [u for u in dict.fromkeys(order) for _ in range(m)][: len(order)]
        leaky = []
        for algorithm in ALGORITHMS:
            arrival = contiguous if algorithm == "wishful" else order
            kw = {"prior": prior} if algorithm in ("wishful", "single", "multi") else {}
            config = any_config(algorithm, n=n, m=m, T=len(order), eps=eps, delta=0.1, seed=seed, **kw)
            a, b = (self.public_fields(written_rows(config, _events_from(arrival, values)))
                    for values in (per_user, neighbour))
            if a != b:
                leaky.append(algorithm)
        assert leaky == []


class TestTraceRecord:
    def test_dataclass_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(TraceRecord)] == [
            "t", "user", "estimate", "total", "max_count", "active_levels", "flags"
        ]
        rec = TraceRecord(1, 2, 0.5, 1, 1, None, ("clip",))
        changed = dataclasses.replace(rec, estimate=0.25)
        assert changed == TraceRecord(1, 2, 0.25, 1, 1, None, ("clip",))
        assert rec.estimate == 0.5

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_step_returns_the_record_it_keeps(self, algorithm):
        est = make_estimator(any_config(algorithm, n=3, m=4, T=12, eps=1.0, delta=0.1))
        events = generate(0.5, 3, 4, 12, OrderingSpec("contiguous"), seed=1)
        returned = [est.step(ev) for ev in events]
        assert len(est.records) == len(returned)
        assert all(a is b for a, b in zip(returned, est.records))


class TestRecordShortcut:
    """``step`` builds its record with ``object.__new__`` and seven slot
    stores: the same record the dataclass's ``__init__`` builds."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_record_equals_its_constructed_twin(self, algorithm):
        config, events = tuple_case(algorithm)
        est = make_estimator(config)
        names = [f.name for f in dataclasses.fields(TraceRecord)]
        for ev in events:
            rec = est.step(ev)
            assert type(rec) is TraceRecord
            assert all(hasattr(rec, name) for name in names)
            twin = TraceRecord(*(getattr(rec, f.name) for f in dataclasses.fields(TraceRecord)))
            assert rec == twin and repr(rec) == repr(twin)


def published(est, events) -> list[TraceRecord]:
    """Step ``events`` into ``est``, checking each record's estimate and
    ``oob`` flag against their definitions, and return the records."""
    records = []
    for ev in events:
        rec = est.step(ev)
        if est.total:
            # correctly rounded, so the counters' total to the last bit
            expected = math.fsum(mech.sum() for mech in est.mechanisms) / est.total
            assert type(rec.estimate) is float and rec.estimate.hex() == expected.hex()
        else:
            prior = est.config.prior
            assert type(rec.estimate) is type(prior) and rec.estimate == prior
        assert ("oob" in rec.flags) == (not 0.0 <= rec.estimate <= 1.0)
        records.append(rec)
    return records


class TestCachedEstimate:
    """``_release`` sets the published estimate and its ``oob`` bit, and a
    withheld step publishes them as they are: after every step the estimate
    is the counters' noisy total over ``total`` to the last bit, or the
    prior as given before any release."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_estimate_is_sum_over_total(self, algorithm):
        config, events = tuple_case(algorithm)
        records = published(make_estimator(config), events)
        oob = ["oob" in rec.flags for rec in records]
        assert any(oob) and not all(oob)

    def test_full_activation_flushes_buffered_blocks(self):
        # after a single-user prefix, levels 2 to 4 activate with blocks
        # buffered, and each flush moves the estimate
        config, events, _ = _full_copy_case("single_user_prefix", 200, 0, noise=True)
        est = make_estimator(config)
        flushed = 0
        for ev in events:
            buffered, active = est.buffered_sample_count(), est.active_levels()
            published(est, [ev])
            if est.active_levels() != active:
                flushed += buffered > 0
        assert flushed == 3 and est.active_levels() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("prior", [0, 1])
    def test_wishful_int_prior_published_as_given(self, prior):
        n, m = 3, 4
        config = any_config("wishful", n=n, m=m, T=n * m, eps=1.0, delta=0.1, seed=2, prior=prior)
        events = generate(0.5, n, m, n * m, OrderingSpec("contiguous"), seed=1)
        records = published(make_estimator(config), events)
        assert [type(rec.estimate) for rec in records] == [int] * (m - 1) + [float] * (n * m - m + 1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_copy_between_releases(self, algorithm):
        config, events = tuple_case(algorithm)
        whole = make_estimator(config).run(events)
        # the first withheld step after a release; naive withholds nothing
        cut = next((i for i in range(1, len(events)) if whole[i].total == whole[i - 1].total > 0),
                   len(events) // 2)
        est = make_estimator(config)
        est.run(events[:cut + 1])
        twin = est.copy()
        assert repr(published(twin, events[cut + 1:])) == repr(whole[cut + 1:])
        assert repr(published(est, events[cut + 1:])) == repr(whole[cut + 1:])


class TestSharedBudget:
    """Only ``__init__`` charges the budget ledger, so a ``copy()`` twin
    shares it, as it shares the privacy table, and no step books a charge."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_twin_shares_table_and_budget_and_steps_charge_nothing(self, algorithm):
        config, events = tuple_case(algorithm)
        booked = [(row.label, row.share) for row in privacy_table(config)]
        est = make_estimator(config)
        assert est.budget.entries == booked
        cut = len(events) // 2
        est.run(events[:cut])
        twin = est.copy()
        assert twin.table is est.table and twin.budget is est.budget
        twin.run(events[cut:])
        est.run(events[cut:])
        if algorithm == "full":
            assert est.active_levels() == twin.active_levels() == (0, 1, 2, 3, 4)
        assert est.budget.entries == booked
