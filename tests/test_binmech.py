"""Tree-aggregation counter: dyadic structure, oracle equivalence, influence."""

import math
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contmean.binmech import BinaryMechanism, audit_influence
from contmean.noise import spawn_rng
from oracles import decompose, partial_sums


def storing(eta, rng, label=""):
    """A counter that stores every partial sum, as an audited one does."""
    mech = BinaryMechanism(eta, rng, label)
    mech.store_nodes()
    return mech


def extend(mech, xs):
    for x in xs:
        mech.append(x)


def block_of(mech, k):
    """The (start, end) block covered by the k-th partial sum."""
    if not 1 <= k <= len(mech):
        raise ValueError(f"index {k} out of range for length {len(mech)}")
    return (k - (k & -k) + 1, k)


def dump_rows(mech):
    """One (index, block_start, block_end, noisy_value) row per stored
    partial sum."""
    return [(k, *block_of(mech, k), v) for k, v in enumerate(partial_sums(mech), start=1)]


def opcodes_in_append(mech, x) -> int:
    """Bytecode instructions that ``mech.append(x)`` runs, over every Python
    frame it enters, counted with ``sys.settrace``."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        mech.append(x)
    finally:
        sys.settrace(None)
    return count


def append_twins(mech, xs):
    """Append ``xs`` to ``mech`` and to a copy of it whose stale stack slots,
    those past popcount(len), hold NaN; check that both give the same bits."""
    twin = mech.copy()
    live = len(mech).bit_count() + 1
    twin._stack[live:] = [(math.nan, math.nan)] * (len(twin._stack) - live)
    for x in xs:
        assert twin.append(x).hex() == mech.append(x).hex()
        assert twin.sum().hex() == mech.sum().hex()
        assert len(twin) == len(mech)
    sums, twin_sums = array("d"), array("d")
    mech.write_partial_sums(sums)
    twin.write_partial_sums(twin_sums)
    assert twin_sums.tobytes() == sums.tobytes()


def brute_influence(mech_len: int, element_index: int) -> int:
    """Independent oracle: scan every partial sum's covering block."""
    count = 0
    for k in range(1, mech_len + 1):
        size = k & -k
        if k - size + 1 <= element_index <= k:
            count += 1
    return count


class TestDecompose:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, [(1, 1)]),
            (6, [(1, 4), (5, 6)]),
            (7, [(1, 4), (5, 6), (7, 7)]),
            (8, [(1, 8)]),
            (13, [(1, 8), (9, 12), (13, 13)]),
        ],
    )
    def test_known_decompositions(self, k, expected):
        assert list(decompose(k)) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose(0)

    @given(st.integers(min_value=1, max_value=2**20))
    @settings(max_examples=200)
    def test_blocks_partition_and_count(self, k):
        blocks = decompose(k)
        # contiguous, disjoint, covering [1, k]
        assert blocks[0][0] == 1 and blocks[-1][1] == k
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert c == b + 1
        sizes = [b - a + 1 for a, b in blocks]
        assert all(s & (s - 1) == 0 for s in sizes)
        assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
        assert len(blocks) == bin(k).count("1") <= 1 + k.bit_length() - 1


class TestAppendAndSum:
    def test_noiseless_partial_sums_hand_computed(self):
        mech = storing(0.0, spawn_rng(0, 0))
        extend(mech, [1.0, 0.0, 1.0, 1.0])
        # blocks {1}, {1-2}, {3}, {1-4}
        assert list(partial_sums(mech)) == [1.0, 1.0, 1.0, 3.0]

    def test_block_coverage_examples(self):
        mech = BinaryMechanism(0.0, spawn_rng(0, 0))
        extend(mech, [0.0] * 6)
        assert block_of(mech, 1) == (1, 1)  # k=1, lowest set bit 2^0
        assert block_of(mech, 6) == (5, 6)  # k=6 (binary 110), block size 2

    def test_sum_empty_stream(self):
        assert BinaryMechanism(0.0, spawn_rng(0, 0)).sum() == 0.0

    def test_sum_recombination_oracle(self):
        mech = storing(0.0, spawn_rng(0, 0))
        extend(mech, [1.0, 0.0, 1.0])
        # k=3 combines the entries at indices 2 and 3
        nodes = partial_sums(mech)
        assert mech.sum() == nodes[1] + nodes[2] == 2.0
        mech.append(1.0)
        assert mech.sum() == 3.0

    def test_noiseless_matches_prefix_sum_every_step(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            length = int(rng.integers(1, 1025))
            values = rng.integers(0, 8, size=length) / 8.0  # dyadic: sums exact
            mech = BinaryMechanism(0.0, spawn_rng(0, 0))
            running = 0.0
            for x in values:
                mech.append(float(x))
                running += float(x)
                assert mech.sum() == running

    def test_write_once_replay_identical(self):
        values = list(np.random.default_rng(1).random(100))
        a = storing(3.0, spawn_rng(77, 4))
        b = storing(3.0, spawn_rng(77, 4))
        for x in values:
            a.append(x)
        prefix_snapshot = partial_sums(a)[:50]
        for x in values:
            b.append(x)
        assert partial_sums(a) == partial_sums(b)
        # earlier entries were never rewritten
        assert partial_sums(a)[:50] == prefix_snapshot

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 1100), st.sampled_from([0.0, 0.5, 1e3]), st.integers(0, 2**32 - 1))
    @example(1100, 1.0, 7)  # crosses every noise-block refill, blocks of 8, 16, ..., 1,024
    @example(1100, 0.0, 7)
    def test_append_returns_the_next_sum(self, length, eta, seed):
        mech = BinaryMechanism(eta, spawn_rng(seed, 0))
        for x in np.random.default_rng(seed).uniform(-2.0, 2.0, length).tolist():
            assert mech.append(x).hex() == mech.sum().hex()

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            BinaryMechanism(-1.0, spawn_rng(0, 0))

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_nonfinite_eta_rejected(self, eta):
        # a NaN scale used to publish a NaN sum after one append
        with pytest.raises(ValueError, match="finite"):
            BinaryMechanism(eta, spawn_rng(0, 0))

    def test_noise_scale_is_applied(self):
        mech = storing(10.0, spawn_rng(3, 0))
        extend(mech, [0.0] * 64)
        spread = np.std(partial_sums(mech))
        assert 5.0 < spread < 30.0  # Var = 2 * 10^2 -> std ~ 14


class TestInfluence:
    def test_element_one_in_length_eight(self):
        # covering entries at k = 1, 2, 4, 8
        assert audit_influence(8, 1) == 4 == brute_influence(8, 1)

    def test_odd_elements_influence_at_least_once(self):
        for k in (1, 3, 5, 7, 9):
            assert audit_influence(9, k) >= 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            audit_influence(8, 9)
        with pytest.raises(ValueError):
            audit_influence(8, 0)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 12, 33, 64, 100])
    def test_matches_brute_force(self, length):
        for i in range(1, length + 1):
            assert audit_influence(length, i) == brute_influence(length, i)

    def test_bound_exhaustive_small(self):
        for length in range(1, 257):
            cap = 1 + (length.bit_length() - 1)
            for i in range(1, length + 1):
                assert audit_influence(length, i) <= cap


class TestDump:
    def test_dump_rows_structure(self):
        mech = storing(0.0, spawn_rng(0, 0), label="demo")
        extend(mech, [1.0, 1.0, 1.0])
        rows = dump_rows(mech)
        assert rows == [(1, 1, 1, 1.0), (2, 1, 2, 2.0), (3, 3, 3, 1.0)]


class TestStoredNodes:
    """A counter stores its partial sums only once asked, before any
    append; its length and running sums never need them."""

    def test_unstored_counter_counts_and_sums(self):
        mech = BinaryMechanism(0.0, spawn_rng(0, 0), label="c")
        extend(mech, [1.0, 0.5, 0.25])
        assert (len(mech), mech.sum()) == (3, 1.75)
        with pytest.raises(ValueError, match="stores no partial sums"):
            partial_sums(mech)
        with pytest.raises(ValueError, match="already holds 3 elements"):
            mech.store_nodes()

    def test_copies_keep_storage(self):
        stored = storing(2.0, spawn_rng(0, 0))
        extend(stored, [1.0, 0.5])
        twin = stored.copy()
        twin.append(0.25)
        assert partial_sums(twin)[:2] == partial_sums(stored) and len(partial_sums(twin)) == 3
        with pytest.raises(ValueError):
            partial_sums(BinaryMechanism(2.0, spawn_rng(0, 0)).copy())


class TestConstantTimeAppend:
    """An append reads and writes one slot of its stack: slot d holds the
    sums at the end of the d-th block of the length's dyadic decomposition,
    and slots past popcount(length) are stale."""

    @pytest.mark.parametrize("store", [False, True])
    def test_work_does_not_depend_on_trailing_zeros(self, store):
        # the 4,096th element's block starts at 0, twelve block ends below
        # the 4,095th's; the 4,097th's block is the element itself
        mech = storing(0.0, spawn_rng(0, 1)) if store else BinaryMechanism(0.0, spawn_rng(0, 1))
        extend(mech, [0.5] * 4095)
        at_4096 = opcodes_in_append(mech, 0.5)
        at_4097 = opcodes_in_append(mech, 0.5)
        assert (len(mech), mech.sum()) == (4097, 2048.5)
        assert at_4096 == at_4097

    def test_stale_slots_never_leak_at_any_length(self):
        values = (np.random.default_rng(5).random(400) * 64.0).tolist()
        for length in range(1, 301):
            mech = storing(2.5, lambda: spawn_rng(7, 1, 0))
            extend(mech, values[:length])
            append_twins(mech, values[length:])

    @given(
        st.integers(min_value=1, max_value=3000),
        st.lists(st.floats(min_value=-64.0, max_value=64.0), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stale_slots_never_leak(self, length, pattern, more, seed):
        values = (pattern * ((length + more) // len(pattern) + 1))[: length + more]
        mech = storing(0.75, lambda: spawn_rng(seed, 1, 0))
        extend(mech, values[:length])
        append_twins(mech, values[length:])
