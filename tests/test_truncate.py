"""Truncation intervals and projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean.noise import spawn_rng
from contmean.truncate import TruncationInterval, interval_full, interval_single, project


class TestIntervalSingle:
    def test_level_one_shape(self):
        # center = prior, half width = sqrt(0.5 ln(2 n log2(m)/delta)) + 1/sqrt(m)
        m, n, delta, prior = 64, 10, 0.2, 0.37
        iv = interval_single(prior, 1, m, n, delta)
        assert iv.center == pytest.approx(prior)
        expected = math.sqrt(0.5 * math.log(2 * n * math.log2(m) / delta)) + 1 / math.sqrt(m)
        assert iv.half_width == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self):
        # independently evaluated: sqrt(2 ln(640)) + 1
        iv = interval_single(0.5, 3, 16, 8, 0.1)
        assert iv.half_width == pytest.approx(4.594848585505019, rel=1e-12)
        assert iv.center == pytest.approx(4 * 0.5)

    def test_upper_bound_via_block_size(self):
        # half width <= sqrt((2^(l-1)/2) ln(2 n log2 m / delta)) + sqrt(2^(l-1))
        # whenever 2^(l-1) <= m
        for m in (4, 16, 64):
            for level in range(1, int(math.log2(m)) + 2):
                size = 2.0 ** (level - 1)
                if size > m:
                    continue
                iv = interval_single(0.5, level, m, 50, 0.1)
                cap = math.sqrt((size / 2) * math.log(2 * 50 * math.log2(m) / 0.1)) + math.sqrt(size)
                assert iv.half_width <= cap + 1e-12

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            interval_single(0.5, 1, 4, 4, 0.0)
        with pytest.raises(ValueError):
            interval_single(0.5, 1, 4, 4, 1.5)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            interval_single(0.5, 1, 1, 4, 0.1)


class TestIntervalFull:
    def test_frozen_value(self):
        # independently evaluated at level=4, n=100, m=64, eps=1, delta=0.1
        iv = interval_full(0.5, 4, 100, 64, 1.0, 0.1)
        assert iv.half_width == pytest.approx(20.915509875706903, rel=1e-12)
        assert iv.center == pytest.approx(8 * 0.5)

    def test_level_below_two_rejected(self):
        with pytest.raises(ValueError):
            interval_full(0.5, 1, 10, 16, 1.0, 0.1)

    def test_width_grows_when_eps_shrinks(self):
        wide = interval_full(0.5, 3, 50, 64, 0.25, 0.1).half_width
        narrow = interval_full(0.5, 3, 50, 64, 4.0, 0.1).half_width
        assert wide > narrow


class TestProject:
    def test_interior_is_identity(self):
        iv = TruncationInterval(center=2.0, half_width=1.0)
        assert project(iv, 1.7) == 1.7

    def test_clamps_above(self):
        iv = TruncationInterval(center=2.0, half_width=1.0)
        assert project(iv, iv.hi + 5.0) == iv.hi

    def test_degenerate_width_returns_center(self):
        iv = TruncationInterval(center=0.25, half_width=0.0)
        for s in (-10.0, 0.0, 0.25, 3.0):
            assert project(iv, s) == 0.25

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0, max_value=3),
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=200)
    def test_idempotent_and_one_lipschitz(self, center, width, a, b):
        iv = TruncationInterval(center=center, half_width=width)
        pa, pb = project(iv, a), project(iv, b)
        assert project(iv, pa) == pa
        assert abs(pa - pb) <= abs(a - b) + 1e-12

    def test_worst_case_spread_is_twice_half_width(self):
        # max |project(a) - project(b)| over a grid hits exactly 2 * width
        iv = TruncationInterval(center=1.0, half_width=0.75)
        grid = np.linspace(-5, 5, 2001)
        projected = np.clip(grid, iv.lo, iv.hi)
        spread = projected.max() - projected.min()
        assert spread == pytest.approx(2 * iv.half_width, abs=1e-12)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            TruncationInterval(center=0.0, half_width=-0.1)


class TestNoTruncationFrequency:
    def test_honest_blocks_rarely_clip(self):
        # Bernoulli(mu) blocks with |prior - mu| <= 1/sqrt(m): the chance any
        # level's block sum leaves its interval stays below delta
        m, n, delta, mu = 16, 8, 0.1, 0.45
        prior = mu + 1 / math.sqrt(m)  # worst allowed prior
        rng = spawn_rng(2024, 0)
        levels = range(1, int(math.log2(m)) + 1)
        intervals = {lv: interval_single(prior, lv, m, n, delta) for lv in levels}
        trials, clipped = 2000, 0
        for _ in range(trials):
            hit = False
            for _ in range(n):
                samples = (rng.random(m) < mu).astype(float)
                for lv in levels:
                    block = samples[2 ** (lv - 1) : 2**lv].sum()
                    iv = intervals[lv]
                    if not iv.lo <= block <= iv.hi:
                        hit = True
            clipped += hit
        assert clipped / trials <= delta
