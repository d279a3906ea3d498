"""Laplace sampling, exponential mechanism, and budget ledger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean.noise import BudgetExceededError, BudgetLedger, exp_mechanism_sample, laplace, spawn_rng


class TestLaplace:
    def test_zero_scale_is_exact_zero(self):
        rng = spawn_rng(123, 0)
        state = rng.bit_generator.state
        assert laplace(0.0, rng) == 0.0
        assert np.all(laplace(0.0, rng, size=10) == 0.0)
        assert rng.bit_generator.state == state  # nothing was drawn

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace(-1.0, spawn_rng(0, 0))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [None, 4])
    def test_nonfinite_scale_rejected(self, scale, size):
        # NaN slips past ``scale < 0``, and it or infinity would come back
        # as the draw itself
        with pytest.raises(ValueError, match="finite"):
            laplace(scale, spawn_rng(0, 0), size=size)

    def test_moments_match_closed_form(self):
        # mean 0 and Var = 2 b^2 for Lap(b)
        b = 1.0
        draws = laplace(b, spawn_rng(7, 1), size=10**6)
        n = draws.size
        assert abs(draws.mean()) <= 5 * b / math.sqrt(n)
        assert abs(draws.var() - 2 * b * b) <= 0.1 * 2 * b * b
        assert -0.01 <= draws.mean() <= 0.01
        assert 1.9 <= draws.var() <= 2.1

    def test_determinism_bit_identical(self):
        a = [laplace(2.5, spawn_rng(42, 9)) for _ in range(50)]
        b = [laplace(2.5, spawn_rng(42, 9)) for _ in range(50)]
        assert a == b
        arr1 = laplace(2.5, spawn_rng(42, 9), size=50)
        arr2 = laplace(2.5, spawn_rng(42, 9), size=50)
        assert np.array_equal(arr1, arr2)

    def test_distinct_stream_keys_are_independent(self):
        a = laplace(1.0, spawn_rng(42, 0), size=8)
        b = laplace(1.0, spawn_rng(42, 1), size=8)
        assert not np.array_equal(a, b)


class TestBlockDraws:
    """Counters draw noise in blocks ahead of use; a block must equal the
    same number of scalar draws from a twin generator, bit for bit."""

    SCALES = [1e-3, 1.0, 4.59, 84.73, 1e6]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("size", [1, 8, 1024])
    def test_block_equals_scalar_draws(self, scale, size):
        block = laplace(scale, spawn_rng(19, 1, size), size=size).tolist()
        twin = spawn_rng(19, 1, size)
        assert block == [laplace(scale, twin) for _ in range(size)]

    @pytest.mark.parametrize("scale", SCALES)
    def test_chained_refills_equal_scalar_draws(self, scale):
        rng, twin = spawn_rng(23, 1, 3), spawn_rng(23, 1, 3)
        drawn = []
        for size in (8, 16, 32, 64, 128, 256, 512, 1024):
            drawn += laplace(scale, rng, size=size).tolist()
        assert drawn == [laplace(scale, twin) for _ in range(len(drawn))]


class TestExpMechanism:
    def test_singleton_always_selected(self):
        rng = spawn_rng(0, 0)
        for _ in range(20):
            assert exp_mechanism_sample([("only", 3.0)], eps=1.0, rng=rng) == "only"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            exp_mechanism_sample([], eps=1.0, rng=spawn_rng(0, 0))

    def test_equal_costs_are_symmetric(self):
        rng = spawn_rng(11, 0)
        draws = [exp_mechanism_sample([("a", 2.0), ("b", 2.0)], 1.0, rng) for _ in range(10**5)]
        freq = draws.count("a") / len(draws)
        assert 0.48 <= freq <= 0.52

    def test_cost_gap_ratio(self):
        # costs (0, 4) at eps=4: P(low)/P(high) = exp((eps/4) * 4) = e^4
        rng = spawn_rng(5, 0)
        draws = [exp_mechanism_sample([("lo", 0.0), ("hi", 4.0)], 4.0, rng) for _ in range(10**5)]
        n_hi = draws.count("hi")
        ratio = draws.count("lo") / n_hi
        assert abs(ratio - math.e**4) <= 0.1 * math.e**4

    def test_total_variation_against_analytic_distribution(self):
        costs = [0.0, 1.0, 3.0, 7.0]
        eps = 2.0
        weights = np.exp([-(eps / 4) * c for c in costs])
        probs = weights / weights.sum()
        rng = spawn_rng(13, 0)
        cands = [(i, c) for i, c in enumerate(costs)]
        draws = np.array([exp_mechanism_sample(cands, eps, rng) for _ in range(10**5)])
        emp = np.array([(draws == i).mean() for i in range(len(costs))])
        tv = 0.5 * np.abs(emp - probs).sum()
        assert tv <= 0.02

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_eps_rejected(self, eps):
        # NaN and infinite eps used to return the first candidate
        with pytest.raises(ValueError, match="eps"):
            exp_mechanism_sample([("a", 0.0), ("b", 1.0)], eps, spawn_rng(0, 0))

    def test_log_sum_exp_stability_with_huge_costs(self):
        # weights underflow without stabilization; the min-cost candidate wins
        rng = spawn_rng(3, 0)
        out = exp_mechanism_sample([("a", 10000.0), ("b", 10004.0)], 4.0, rng)
        assert out == "a"


class TestBudgetLedger:
    def test_empty_ledger_spends_nothing(self):
        assert BudgetLedger(1.0).spent == 0.0

    def test_additive_charges_then_overflow(self):
        ledger = BudgetLedger(1.0)
        ledger.charge("a", 0.5)
        ledger.charge("b", 0.5)
        assert ledger.spent == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(BudgetExceededError, match="'c'"):
            ledger.charge("c", 0.01)
        # failed charge is not recorded
        assert [label for label, _ in ledger.entries] == ["a", "b"]

    def test_nonpositive_charge_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(1.0).charge("x", 0.0)

    @pytest.mark.parametrize("total", [0.0, -1.0, math.nan, math.inf])
    def test_total_must_be_positive_and_finite(self, total):
        with pytest.raises(ValueError, match="total_eps must be positive and finite"):
            BudgetLedger(total)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_nonfinite_charge_rejected(self, eps):
        # a recorded NaN would make every later overrun check pass
        ledger = BudgetLedger(1.0)
        with pytest.raises(ValueError, match="charge must be positive and finite"):
            ledger.charge("x", eps)
        assert ledger.entries == []
        with pytest.raises(BudgetExceededError):
            ledger.charge("z", 100.0)

    def test_full_allocation_sums_to_eps(self):
        # L prior slots at eps/2L plus L+1 mechanisms at eps/2(L+1)
        for m in (2, 3, 64, 1000, 1024):
            big_l = math.ceil(math.log2(m))
            eps = 1.0
            ledger = BudgetLedger(eps)
            for lv in range(1, big_l + 1):
                ledger.charge(f"prior[{lv}]", eps / (2 * big_l))
            for lv in range(big_l + 1):
                ledger.charge(f"mech[{lv}]", eps / (2 * (big_l + 1)))
            assert abs(ledger.spent - eps) <= 1e-12

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=20),
        st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_never_reports_success_past_budget(self, charges, total):
        ledger = BudgetLedger(total)
        for i, c in enumerate(charges):
            try:
                ledger.charge(str(i), c)
            except BudgetExceededError:
                pass
        assert ledger.spent <= total * (1 + 1e-9)
