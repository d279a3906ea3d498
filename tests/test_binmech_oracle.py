"""Noisy tree counter against a slow oracle; block draws; bounded state."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean import binmech
from contmean.binmech import BinaryMechanism
from contmean.noise import spawn_rng
from oracles import noisy_counter, partial_sums
from test_binmech import extend


def check_against_oracle(values, eta, seed):
    """Every append's partial sum and running sum equal the oracle's, drawn
    scalar from a twin generator; the array is never rewritten."""
    mech = BinaryMechanism(eta, lambda: spawn_rng(seed, 1, 0))
    mech.store_nodes()
    expected = []
    for k, (x, (partial, running)) in enumerate(
        zip(values, noisy_counter(values, eta, spawn_rng(seed, 1, 0))), start=1
    ):
        mech.append(x)
        assert len(mech) == k
        assert partial_sums(mech)[k - 1] == partial
        assert mech.sum() == running
        expected.append(partial)
    assert partial_sums(mech) == tuple(expected)


class TestNoisyCounterOracle:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=64.0), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=1e-3, max_value=1e6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_draw_oracle(self, pattern, length, eta, seed):
        # the drawn values repeat to the drawn length, so long streams stay cheap to generate
        values = (pattern * (length // len(pattern) + 1))[:length]
        check_against_oracle(values, eta, seed)

    def test_past_the_block_cap(self):
        # 8 + 16 + ... + 1024 = 2040 draws, so 5000 appends use full-size blocks
        values = np.random.default_rng(4).random(5000) * 64.0
        check_against_oracle(values.tolist(), 84.73, 6)


class TestDrawSchedule:
    def record_sizes(self, monkeypatch):
        sizes = []
        draw = binmech.laplace

        def recording(scale, rng, size=None):
            sizes.append(size)
            return draw(scale, rng, size)

        monkeypatch.setattr(binmech, "laplace", recording)
        return sizes

    def test_block_sizes_double_to_the_cap(self, monkeypatch):
        sizes = self.record_sizes(monkeypatch)
        mech = BinaryMechanism(2.0, spawn_rng(1, 1, 0))
        extend(mech, [0.5] * 4100)
        assert sizes == [8, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 1024]

    def test_zero_scale_draws_nothing_and_builds_no_generator(self, monkeypatch):
        sizes = self.record_sizes(monkeypatch)

        def no_generator():
            raise AssertionError("a noiseless counter built its generator")

        mech = BinaryMechanism(0.0, no_generator)
        extend(mech, [1.0] * 100)
        assert sizes == [] and mech.sum() == 100.0

    def test_construction_draws_nothing(self, monkeypatch):
        sizes = self.record_sizes(monkeypatch)
        built = []
        BinaryMechanism(2.0, lambda: built.append(1) or spawn_rng(1, 1, 0))
        assert sizes == [] and built == []


def held_after(values, store):
    """Bytes a fresh counter holds after appending ``values`` (tracemalloc),
    storing its partial sums or not."""
    extend(BinaryMechanism(1.0, spawn_rng(0, 1, 0)), values[:2000])  # warm caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mech = BinaryMechanism(1.0, lambda: spawn_rng(0, 1, 0))
        if store:
            mech.store_nodes()
        extend(mech, values)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(mech) == len(values)
    return held


class TestStateBound:
    def test_one_counter_after_1e5_appends_holds_under_2_mib(self):
        values = np.random.default_rng(2).random(10**5).tolist()
        assert held_after(values, store=True) < 2 * 2**20

    def test_without_stored_nodes_state_is_logarithmic(self):
        # a stack of at most 18 entries and one noise block of at most
        # 1,024 draws, against 8 bytes per element when nodes are stored
        values = np.random.default_rng(2).random(10**5).tolist()
        assert held_after(values, store=False) < 64 * 2**10
