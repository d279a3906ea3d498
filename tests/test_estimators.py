"""The five estimators: schedules, denominators, noise scales, budgets."""

import dataclasses
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contmean.estimators import (
    ALGORITHMS,
    CappedSupply,
    EstimatorConfig,
    OrderingError,
    TraceRecord,
    check_diversity,
    full_noise_scale,
    make_estimator,
    multi_noise_scale,
    naive_noise_scale,
    single_noise_scale,
    write_trace,
)
from contmean.median import MedianRequest, private_median
from contmean.noise import spawn_rng
from contmean.streams import OrderingSpec, StreamEvent, generate
from oracles import activation_threshold, noiseless_estimates, reference_trace_csv
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
    """``full`` tracks one capped sum, at the lowest inactive level, against
    that level's activation threshold, and none once every level is active.
    ``single`` and ``multi`` share its class and never hold a gate, a buffer
    or history."""

    @pytest.mark.parametrize("ordering", ["uniform_random", "single_user_prefix", "round_robin"])
    @pytest.mark.parametrize("algorithm", ["single", "multi", "full"])
    def test_gates_are_the_buffered_levels(self, algorithm, ordering):
        n, m, eps, delta = 300, 16, 50.0, 0.5
        events = generate(0.5, n, m, 200, OrderingSpec(ordering), seed=1)
        est = make_estimator(any_config(algorithm, n=n, m=m, T=len(events), eps=eps, delta=delta, seed=1))
        for ev in events:
            est.step(ev)
            gate = est._gate
            assert (gate is not None) == bool(est.buffers)
            if gate is not None:
                level = min(est.buffers)
                assert gate.cap == 1 << (level - 1)  # that level's median array size
                assert est._need == activation_threshold(level, m, eps, delta)  # and its threshold
                assert any(gate is s for s in est.supply.sums)
                assert gate.value == est.supply.capped_sum(gate.cap)
            else:
                assert est._need == math.inf
            assert len(est.supply.sums) == est.config.track_diversity + (gate is not None)
            if algorithm != "full":
                assert gate is None and est.buffers == {} and est._history == [] and est.inactive == set()
        assert est._gate is None
        assert sorted(est.priors) == ([2, 3, 4] if algorithm == "full" else [])


@st.composite
def supply_cases(draw):
    """(m, caps, ops): caps to probe after every op, and a list of
    ("add", user, repeats), ("raise", which sum) and ("track", cap) ops.
    Caps are integers and halves, 0 and values above m among them."""
    m = draw(st.integers(1, 1024))
    caps = st.one_of(
        st.just(0),
        st.integers(0, m + 2),
        st.integers(0, 2 * m + 4).map(lambda k: k / 2.0),
        st.integers(m + 1, 4 * m).map(float),
    )
    ops = st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4), st.integers(1, m)),
        st.tuples(st.just("raise"), st.integers(0, 7)),
        st.tuples(st.just("track"), caps),
    )
    return m, draw(st.lists(caps, min_size=1, max_size=3)), draw(st.lists(ops, max_size=20))


class TestCappedSupply:
    """Every tracked sum and every recount equals sum_u min(c_u, cap),
    counted user by user."""

    @settings(max_examples=120, deadline=None)
    @given(supply_cases())
    @example((1024, [512.5, 0, 2000.0], [("add", 1, 1024), ("track", 3), ("add", 2, 5), ("raise", 0)]))
    def test_sums_equal_brute_force(self, case):
        m, probes, ops = case
        supply = CappedSupply(m)
        counts = {}

        def check():
            for cap in [s.cap for s in supply.sums] + probes:
                brute = sum(min(c, cap) for c in counts.values())
                assert supply.capped_sum(cap) == brute
            for s in supply.sums:
                assert s.value == sum(min(c, s.cap) for c in counts.values())
            assert supply.max_count == max(counts.values(), default=0)

        for op in ops:
            if op[0] == "add":
                _, user, repeats = op
                for _ in range(min(repeats, m - counts.get(user, 0))):
                    count = counts.get(user, 0)
                    rose = count == supply.max_count
                    counts[user] = count + 1
                    assert supply.add(count) == rose
                    check()
            elif op[0] == "raise":
                if supply.sums:
                    supply.raise_half(supply.sums[op[1] % len(supply.sums)])
                    check()
            else:
                supply.track(op[1])
                check()
            assert supply.at_least[1:] == [sum(c >= k for c in counts.values()) for k in range(1, m + 2)]


def estimator_state(est) -> str:
    """Everything ``step`` changes, exact to the last bit of every float."""
    return repr((
        est.t, est.total, est.records, est.counts, est.budget.entries, est.active_levels(),
        [(mech.noisy_partial_sums, mech.sum()) for mech in est.mechanisms],
        est.supply.at_least, [(s.cap, s.value) for s in est.supply.sums],
        getattr(est, "ledger", None) and est.ledger.pending, getattr(est, "_intervals", None),
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
        whole = make_estimator(config)
        whole.run(events)
        est = make_estimator(config)
        est.run(events[:cut])
        at_cut = estimator_state(est)
        twin = est.copy()
        # an attribute that copy() misses shows here
        assert list(vars(twin)) == list(vars(est))
        for a, b in zip(twin.mechanisms, est.mechanisms):
            assert list(vars(a)) == list(vars(b))
        assert estimator_state(twin) == at_cut
        twin.run(events[cut:])
        assert estimator_state(est) == at_cut
        assert estimator_state(twin) == estimator_state(whole)
        est.run(events[cut:])
        assert estimator_state(est) == estimator_state(whole)
        assert estimator_state(twin) == estimator_state(whole)


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
            assert (est._half_supply.value, est._diversity_rhs) == (recount.lhs, recount.rhs)
            flags.append(recount.satisfied)
        assert est.supply.max_count == m
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
        recount = CappedSupply.capped_sum
        monkeypatch.setattr(CappedSupply, "capped_sum", lambda supply, cap: recounts.append(cap) or recount(supply, cap))
        est.run(events)
        assert est.supply.max_count == m
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
        est, twin = make_estimator(EstimatorConfig("naive", **kw)), make_estimator(EstimatorConfig("naive", **kw))
        events = events_of([1, 2, 1], [1.0, 0.0, 1.0])
        est.run(events)
        twin.run(events)
        with pytest.raises(ValueError, match="longer than configured T"):
            est.step(StreamEvent(t=4, user=2, value=1.0))
        assert (est.t, est.counts, est.total) == (twin.t, twin.counts, twin.total)
        assert est.supply.at_least == twin.supply.at_least and est.diversity() == twin.diversity()
        assert est.mechanisms[0].noisy_partial_sums == twin.mechanisms[0].noisy_partial_sums


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
        assert any("clip" in r.flags for trace in traces for r in trace)
        tokens = {tok for trace in traces for r in trace for tok in r.flags_str().split(";")}
        assert {"nodata", "oob", "div", ""} <= tokens and "clip" not in tokens
        assert any(tok.startswith("act=0-1-") for tok in tokens)
        for i, trace in enumerate(traces + [[r for trace in traces for r in trace], []]):
            path = tmp_path / f"trace_{i}.csv"
            write_trace(trace, path)
            assert path.read_bytes() == reference_trace_csv(trace)


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
