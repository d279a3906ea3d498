"""Withhold-release schedule: dyadic bursts per user, half-released law."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean.withhold import _WITHHOLD, BatchLedger, ReleaseDecision, SampleLedger, UserLedger


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
        # unit values: a user's withheld sum counts its withheld samples
        ledger, _ = drive([1] * 7, [1.0] * 7)
        assert ledger.released_info_count() == 4
        assert ledger.pending[1] == 3.0

    def test_pending_size_law(self):
        # pending = M - 2^floor(log2 M) except right after a release
        ledger = UserLedger()
        for i in range(1, 101):
            ledger.on_sample(3, 1.0)
            m = ledger.counts[3]
            expected = 0 if m & (m - 1) == 0 else m - (1 << (m.bit_length() - 1))
            assert ledger.pending.get(3, 0.0) == expected
            assert ledger.pending_count() == expected

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
            ledger.on_sample(u, 1.0)
            assert ledger.released_info_count() >= math.ceil(t / 2)
            # per-user: withheld never exceeds released (unit values, so a
            # withheld sum counts the samples withheld)
            for uu, cnt in ledger.counts.items():
                held = ledger.pending.get(uu, 0.0)
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
                hi = ledger.counts[u]
                lo = hi - d.block_size + 1
                covered.setdefault(u, []).append((lo, hi))
                assert d.block_sum == float(d.block_size)  # unit values sum to size
        for u, cnt in ledger.counts.items():
            blocks = covered.get(u, [])
            flat = [i for lo, hi in blocks for i in range(lo, hi + 1)]
            assert flat == list(range(1, 2 ** (cnt.bit_length() - 1) + 1))
            # unit values: the withheld sum counts the withheld samples
            assert ledger.pending.get(u, 0.0) == cnt - len(flat)
        pending = sum(ledger.pending.values())
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


def arrival_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def released_blocks(ledger, users, values, cap=math.inf):
    """Drive ``ledger`` as ``step`` does, skipping a user's samples past
    ``cap``; return each release's block sum beside the user's samples the
    block covers."""
    seen: dict[int, list[float]] = {}
    out = []
    for u, v in zip(users, values):
        held = seen.setdefault(u, [])
        if len(held) >= cap:
            continue
        released = ledger.record(u, v, len(held))
        held.append(v)
        if released is not None:
            _, block_sum, block_size = released
            out.append((block_sum, held[len(held) - block_size :]))
    return out


# the users of a stream's events, up to four of them
user_streams = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=150)


class TestBlockSums:
    """A released block is the running sum of its samples in arrival order,
    ((0.0 + v1) + v2) + ... + vk: one float per user with samples withheld."""

    @given(user_streams, st.data())
    @settings(max_examples=200)
    def test_any_values_sum_in_arrival_order(self, users, data):
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(users), max_size=len(users)))
        m = data.draw(st.integers(1, 40))
        for ledger, cap in ((UserLedger(), math.inf), (BatchLedger(m), m)):
            for block_sum, block in released_blocks(ledger, users, values, cap):
                assert block_sum.hex() == arrival_sum(block).hex()

    @given(user_streams, st.integers(0, 40), st.data())
    @settings(max_examples=200)
    def test_grid_values_sum_as_fsum(self, users, k, data):
        # on the grid 2^-k every partial sum of up to 64 values in [0, 1]
        # is exact, so the order cannot matter
        steps = st.integers(0, 1 << k).map(lambda i: i / (1 << k))
        values = data.draw(st.lists(steps, min_size=len(users), max_size=len(users)))
        m = data.draw(st.integers(1, 40))
        for ledger, cap in ((UserLedger(), math.inf), (BatchLedger(m), m)):
            for block_sum, block in released_blocks(ledger, users, values, cap):
                assert block_sum.hex() == math.fsum(block).hex()


class TestConstantState:
    """A user's withheld samples are one float, however many there are."""

    @pytest.mark.parametrize("law", ["dyadic", "batch"])
    def test_withheld_samples_allocate_nothing(self, law):
        # counts 97..127 are withheld under both laws: in the block
        # (64, 128] under the dyadic law, in the open batch under the batch law
        ledger, withheld = (UserLedger(), 127 - 64) if law == "dyadic" else (BatchLedger(128), 127)

        def traced_growth(counts):
            before = tracemalloc.get_traced_memory()[0]
            for c in counts:
                ledger.record(1, c / 128, c)
            return tracemalloc.get_traced_memory()[0] - before

        tracemalloc.start()
        try:
            # the first samples also fill the interpreter's free list of
            # floats, which stays traced
            traced_growth(range(96))
            idle = traced_growth(())  # what measuring itself allocates
            grown = traced_growth(range(96, 127))
        finally:
            tracemalloc.stop()
        assert ledger.counts[1] == 127 and ledger.pending_count() == withheld
        # a list of the samples would grow by more than a float per sample
        assert grown <= idle


class TestPendingCount:
    @given(user_streams, st.integers(1, 40))
    def test_derived_from_counts(self, users, m):
        # unit values: each withheld sum counts its user's withheld samples
        for ledger in (UserLedger(), BatchLedger(m)):
            for u in users:
                if ledger.counts.get(u, 0) < m:
                    ledger.on_sample(u, 1.0)
                    assert ledger.pending_count() == sum(ledger.pending.values())


LAWS = {"dyadic": UserLedger, "per-sample": SampleLedger, "batch": lambda: BatchLedger(4)}


class TestReleases:
    """Each law is stated once, as ``releases(count)``."""

    def test_each_law(self):
        dyadic = {1: (0, 1), 2: (1, 1), 4: (2, 2), 8: (3, 4), 16: (4, 8)}
        assert [UserLedger.releases(c) for c in range(1, 17)] == [dyadic.get(c) for c in range(1, 17)]
        assert [SampleLedger.releases(c) for c in range(1, 17)] == [(0, 1)] * 16
        assert [BatchLedger(5).releases(c) for c in range(1, 6)] == [None] * 4 + [(0, 5)]
        assert BatchLedger(1).releases(1) == (0, 1)


class TestOnSampleTypes:
    """``on_sample`` records a sample as a Python float, so released block
    sums and withheld sums are Python floats whatever real scalar arrives."""

    @pytest.mark.parametrize("law", list(LAWS))
    @pytest.mark.parametrize(
        "samples",
        [[np.float32(v) for v in (0.1, 0.7, 0.2, 0.9)], [np.float64(v) for v in (0.1, 0.7, 0.2, 0.9)], [1, 0, 1, 1]],
        ids=["float32", "float64", "int"],
    )
    def test_sums_are_the_floats_of_the_samples(self, law, samples):
        ledger, twin = LAWS[law](), LAWS[law]()
        for v in samples:
            got, want = ledger.on_sample(1, v), twin.on_sample(1, float(v))
            assert got.released == want.released
            if got.released:
                assert type(got.block_sum) is float and got.block_sum.hex() == want.block_sum.hex()
                assert (got.level, got.block_size) == (want.level, want.block_size)
            assert all(type(s) is float for s in ledger.pending.values())
            assert ledger.pending == twin.pending


class TestBatchCap:
    """The batch law gives a user at most m samples: ``record`` and
    ``on_sample`` refuse the (m+1)-th, as an estimator's ``step`` does."""

    def test_sample_past_m_refused_without_a_trace(self):
        ledger = BatchLedger(2)
        for user, value in [(1, 0.5), (1, 0.25), (2, 0.75)]:
            ledger.on_sample(user, value)
        counts, pending = dict(ledger.counts), {u: s.hex() for u, s in ledger.pending.items()}
        with pytest.raises(ValueError, match="count 3 exceeds the per-user cap m=2"):
            ledger.on_sample(1, 1.0)
        with pytest.raises(ValueError, match="count 3 exceeds the per-user cap m=2"):
            ledger.record(1, 1.0, 2)
        assert ledger.counts == counts and {u: s.hex() for u, s in ledger.pending.items()} == pending
        assert (ledger.pending_count(), ledger.released_info_count()) == (1, 2)
        assert ledger.on_sample(2, 0.125) == ReleaseDecision(True, 0, 0.75 + 0.125, 2)


class TestOneSampleBlocks:
    """A block of one sample is the sample itself: no pending sum is read,
    so a -0.0 sample is released as -0.0."""

    @pytest.mark.parametrize("ledger, samples", [
        (UserLedger(), [(1, 0), (1, 1), (2, 0)]),  # a user's 1st and 2nd samples
        (SampleLedger(), [(1, 0), (1, 1), (2, 0)]),
        (BatchLedger(1), [(1, 0), (2, 0), (3, 0)]),
    ], ids=["dyadic", "per-sample", "batch"])
    def test_block_of_one_is_the_sample(self, ledger, samples):
        released = [ledger.record(user, -0.0, count) for user, count in samples]
        assert [(level, block_sum.hex(), size) for level, block_sum, size in released] == [
            (level, (-0.0).hex(), 1) for level in ([0, 1, 0] if type(ledger) is UserLedger else [0, 0, 0])
        ]
        assert ledger.pending == {}
