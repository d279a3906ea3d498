"""Withhold-release schedule: dyadic bursts per user, half-released law."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean.withhold import _WITHHOLD, ReleaseDecision, UserLedger


def drive(users, values=None):
    ledger = UserLedger()
    values = values if values is not None else [0.0] * len(users)
    return ledger, [ledger.on_sample(u, v) for u, v in zip(users, values)]


class TestSchedule:
    def test_first_sample_always_releases_level_zero(self):
        for user in (1, 5, 42):
            ledger = UserLedger()
            d = ledger.on_sample(user, 0.75)
            assert d.released and d.level == 0 and d.block_sum == 0.75 and d.block_size == 1

    def test_third_sample_withholds(self):
        ledger = UserLedger()
        ledger.on_sample(1, 1.0)
        ledger.on_sample(1, 1.0)
        d = ledger.on_sample(1, 1.0)
        assert not d.released

    def test_interleaved_two_user_example(self):
        # order 1,2,2,2,1,2,1,1 with values x1..x8
        users = [1, 2, 2, 2, 1, 2, 1, 1]
        values = [float(i) for i in range(1, 9)]
        _, decisions = drive(users, values)
        released = [d.released for d in decisions]
        assert released == [True, True, True, False, True, True, False, True]
        assert decisions[5].block_sum == 4.0 + 6.0  # user 2's block (x4 + x6)
        assert decisions[5].level == 2 and decisions[5].block_size == 2
        assert decisions[7].block_sum == 7.0 + 8.0  # user 1's block (x7 + x8)

    def test_block_boundaries_single_user(self):
        values = [float(2**i) for i in range(16)]  # distinguishable values
        _, decisions = drive([1] * 16, values)
        releases = [(i + 1, d.level, d.block_sum) for i, d in enumerate(decisions) if d.released]
        assert releases == [
            (1, 0, 1.0),
            (2, 1, 2.0),
            (4, 2, 4.0 + 8.0),
            (8, 3, 16.0 + 32.0 + 64.0 + 128.0),
            (16, 4, float(2**8 + 2**9 + 2**10 + 2**11 + 2**12 + 2**13 + 2**14 + 2**15)),
        ]

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            UserLedger().on_sample(1, float("nan"))


class TestReleasedInfoCount:
    def test_empty_ledger(self):
        assert UserLedger().released_info_count() == 0

    def test_example_stream_fully_released_at_8(self):
        ledger, _ = drive([1, 2, 2, 2, 1, 2, 1, 1])
        assert ledger.released_info_count() == 8

    def test_single_user_seven_samples(self):
        ledger, _ = drive([1] * 7)
        assert ledger.released_info_count() == 4
        assert len(ledger.pending[1]) == 3

    def test_pending_size_law(self):
        # pending = M - 2^floor(log2 M) except right after a release
        ledger = UserLedger()
        for i in range(1, 101):
            ledger.on_sample(3, 1.0)
            m = ledger.count_of(3)
            expected = 0 if m & (m - 1) == 0 else m - (1 << (m.bit_length() - 1))
            assert len(ledger.pending.get(3, [])) == expected

    def test_exhaustive_half_released_small(self):
        # every ordering over up to 3 users, lengths 1..7
        for length in range(1, 8):
            for users in itertools.product([1, 2, 3], repeat=length):
                ledger = UserLedger()
                for t, u in enumerate(users, start=1):
                    ledger.on_sample(u, 0.0)
                    assert ledger.released_info_count() >= math.ceil(t / 2), (users, t)

    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_half_released_property(self, users):
        ledger = UserLedger()
        for t, u in enumerate(users, start=1):
            ledger.on_sample(u, 0.0)
            assert ledger.released_info_count() >= math.ceil(t / 2)
            # per-user: withheld never exceeds released
            for uu, cnt in ledger.counts.items():
                held = len(ledger.pending.get(uu, []))
                assert held <= cnt - held


class TestBlockPartition:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=120))
    @settings(max_examples=100)
    def test_each_sample_in_exactly_one_block_or_pending(self, users):
        # per user, releases must cover sample ranges {1}, {2}, (2,4], (4,8], ...
        # in order, and whatever follows the last release is pending
        ledger = UserLedger()
        covered: dict[int, list[tuple[int, int]]] = {}
        for u in users:
            d = ledger.on_sample(u, 1.0)
            if d.released:
                hi = ledger.count_of(u)
                lo = hi - d.block_size + 1
                covered.setdefault(u, []).append((lo, hi))
                assert d.block_sum == float(d.block_size)  # unit values sum to size
        for u, cnt in ledger.counts.items():
            blocks = covered.get(u, [])
            flat = [i for lo, hi in blocks for i in range(lo, hi + 1)]
            assert flat == list(range(1, 2 ** (cnt.bit_length() - 1) + 1))
            assert len(ledger.pending.get(u, [])) == cnt - len(flat)
        pending = sum(len(v) for v in ledger.pending.values())
        assert ledger.released_info_count() + pending == ledger.samples_seen()


class TestReleaseDecision:
    def test_fields_and_construction(self):
        assert ReleaseDecision._fields == ("released", "level", "block_sum", "block_size")
        assert ReleaseDecision(False) == ReleaseDecision(released=False, level=None, block_sum=None, block_size=None)
        assert ReleaseDecision(True, 2, 0.75, 2) == ReleaseDecision(released=True, level=2, block_sum=0.75, block_size=2)

    def test_ledger_decisions(self):
        ledger = UserLedger()
        assert ledger.on_sample(1, 1.0) == ReleaseDecision(True, 0, 1.0, 1)
        assert ledger.on_sample(1, 0.0) == ReleaseDecision(True, 1, 0.0, 1)
        withheld = ledger.on_sample(1, 0.5)
        assert withheld is _WITHHOLD and not withheld.released
        assert ledger.on_sample(1, 0.25) == ReleaseDecision(True, 2, 0.75, 2)
