"""Stream generation orderings and CSV round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contmean.noise import spawn_rng
from contmean.streams import (
    ORDERING_KINDS,
    OrderingSpec,
    StreamEvent,
    StreamParseError,
    generate,
    read_stream,
    write_stream,
)
from oracles import single_user_prefix_users, uniform_random_users


def user_counts(events):
    counts = {}
    for ev in events:
        counts[ev.user] = counts.get(ev.user, 0) + 1
    return counts


class TestGenerate:
    def test_degenerate_bernoulli(self):
        for mu, expected in ((0.0, 0.0), (1.0, 1.0)):
            events = generate(mu, 5, 10, 50, OrderingSpec("round_robin"), seed=1)
            assert all(ev.value == expected for ev in events)

    def test_empirical_mean_concentrates(self):
        events = generate(0.5, 200, 1000, 10**5, OrderingSpec("round_robin"), seed=3)
        mean = sum(ev.value for ev in events) / len(events)
        # binomial concentration at delta = 1e-3: sqrt(ln(2/delta)/(2N))
        slack = math.sqrt(math.log(2 / 1e-3) / (2 * 10**5))
        assert abs(mean - 0.5) <= slack
        assert 0.494 <= mean <= 0.506

    def test_infeasible_length_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate(0.5, 2, 3, 7, OrderingSpec("round_robin"), seed=0)

    def test_contiguous_blocks(self):
        events = generate(0.5, 3, 4, 12, OrderingSpec("contiguous"), seed=0)
        users = [ev.user for ev in events]
        assert users == [1] * 4 + [2] * 4 + [3] * 4

    def test_round_robin_cycles(self):
        events = generate(0.5, 3, 4, 9, OrderingSpec("round_robin"), seed=0)
        assert [ev.user for ev in events] == [1, 2, 3] * 3

    def test_uniform_random_respects_cap(self):
        events = generate(0.5, 4, 5, 20, OrderingSpec("uniform_random"), seed=7)
        assert all(c <= 5 for c in user_counts(events).values())
        assert len(events) == 20

    @pytest.mark.parametrize(
        "n,m,T,seed", [(1, 1, 1, 0), (1, 5, 5, 1), (3, 2, 6, 2), (7, 9, 40, 3), (50, 3, 150, 4), (200, 64, 3000, 5)]
    )
    def test_uniform_random_equals_rebuilding_oracle(self, n, m, T, seed):
        mu = 0.3
        rng = spawn_rng(seed, 0)  # the generator ``generate`` draws from
        users = uniform_random_users(n, m, T, rng)
        values = rng.random(T) < mu
        expected = [StreamEvent(t=i + 1, user=u, value=float(v)) for i, (u, v) in enumerate(zip(users, values))]
        assert generate(mu, n, m, T, OrderingSpec("uniform_random"), seed) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 70),
        share=st.just(1.0) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=1, share=1.0, seed=0)
    @example(n=40, m=1, share=1.0, seed=1)
    @example(n=1, m=70, share=1.0, seed=2)
    @example(n=40, m=70, share=1.0, seed=3)
    def test_uniform_random_block_draws_equal_oracle(self, n, m, share, seed):
        # T = n*m fills every user, and blocks shrink to one draw at the end
        T = max(1, round(share * n * m))
        rng = spawn_rng(seed, 0)  # the generator ``generate`` draws from
        users = uniform_random_users(n, m, T, rng)
        # values come after the users from the same generator, so equal values
        # mean the block draws left the generator where the scalar draws do
        values = (rng.random(T) < 0.5).astype(float).tolist()
        events = generate(0.5, n, m, T, OrderingSpec("uniform_random"), seed)
        assert [ev.user for ev in events] == users
        assert [ev.value for ev in events] == values

    @pytest.mark.parametrize(
        "n,m,T,prefix_len",
        [(1, 1, 1, None), (1, 5, 3, None), (4, 6, 20, None), (4, 6, 24, None), (4, 6, 10, 3),
         (5, 3, 15, 1), (5, 3, 14, 2), (5, 3, 13, 1), (3, 4, 12, 2), (2, 7, 14, 6), (3, 5, 4, 0)],
    )
    def test_single_user_prefix_equals_full_slot_list(self, n, m, T, prefix_len):
        try:
            expected = single_user_prefix_users(n, m, T, prefix_len)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                generate(0.5, n, m, T, OrderingSpec("single_user_prefix", prefix_len=prefix_len), seed=0)
        else:
            spec = OrderingSpec("single_user_prefix", prefix_len=prefix_len)
            assert [ev.user for ev in generate(0.5, n, m, T, spec, seed=0)] == expected

    @pytest.mark.parametrize("prefix_len", [0, -1, 2.5, 3.0, True, "3"])
    def test_prefix_len_must_be_a_positive_integer(self, prefix_len):
        # 0 used to stand for the full cap, -1 dropped user 1, and 2.5
        # failed inside ``generate`` with a TypeError
        with pytest.raises(ValueError, match="prefix_len must be a positive integer"):
            OrderingSpec("single_user_prefix", prefix_len=prefix_len)

    def test_prefix_len_numpy_integer_accepted(self):
        spec = OrderingSpec("single_user_prefix", prefix_len=np.int64(3))
        assert [ev.user for ev in generate(0.5, 4, 6, 10, spec, seed=0)][:4] == [1, 1, 1, 2]

    def test_single_user_prefix_builds_only_the_returned_users(self):
        # every other user's m slots would be 1.28M list entries (10 MB)
        tracemalloc.start()
        try:
            events = generate(0.5, 20_000, 64, 100, OrderingSpec("single_user_prefix"), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [ev.user for ev in events] == [1] * 64 + [2] * 36
        assert peak < 200_000

    def test_single_user_prefix(self):
        events = generate(0.5, 4, 6, 20, OrderingSpec("single_user_prefix"), seed=0)
        users = [ev.user for ev in events]
        assert users[:6] == [1] * 6
        assert all(u != 1 for u in users[6:])

    def test_single_user_prefix_custom_length(self):
        spec = OrderingSpec("single_user_prefix", prefix_len=3)
        events = generate(0.5, 4, 6, 10, spec, seed=0)
        assert [ev.user for ev in events[:4]] == [1, 1, 1, 2]

    def test_determinism(self):
        a = generate(0.3, 5, 8, 40, OrderingSpec("uniform_random"), seed=11)
        b = generate(0.3, 5, 8, 40, OrderingSpec("uniform_random"), seed=11)
        assert a == b

    def test_from_file_replays_user_column(self, tmp_path):
        base = generate(0.5, 3, 4, 10, OrderingSpec("uniform_random"), seed=5)
        path = tmp_path / "base.csv"
        write_stream(base, path)
        replayed = generate(0.9, 3, 4, 10, OrderingSpec("from_file", path=str(path)), seed=6)
        assert [ev.user for ev in replayed] == [ev.user for ev in base]

    def test_from_file_user_over_cap_rejected(self, tmp_path):
        path = tmp_path / "base.csv"
        users = [1, 2, 3, 2, 3, 3]  # user 3 is the first to pass m=2
        write_stream([StreamEvent(t, u, 0.5) for t, u in enumerate(users, start=1)], path)
        with pytest.raises(ValueError, match=r"user 3 more than m=2"):
            generate(0.5, 3, 2, 6, OrderingSpec("from_file", path=str(path)), seed=0)

    def test_from_file_user_above_n_rejected(self, tmp_path):
        path = tmp_path / "base.csv"
        write_stream([StreamEvent(1, 1, 0.5), StreamEvent(2, 4, 0.5)], path)
        with pytest.raises(ValueError, match=r"user 4 outside \[1, 3\]"):
            generate(0.5, 3, 2, 2, OrderingSpec("from_file", path=str(path)), seed=0)

    def test_bad_mu_rejected(self):
        with pytest.raises(ValueError):
            generate(1.5, 2, 2, 2, OrderingSpec("round_robin"), seed=0)

    def test_unknown_ordering_kind_rejected(self):
        with pytest.raises(ValueError):
            OrderingSpec("zigzag")


class TestStreamEvent:
    def test_positional_and_keyword_construction_agree(self):
        a = StreamEvent(1, 2, 0.5)
        b = StreamEvent(t=1, user=2, value=0.5)
        assert a == b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert (a.t, a.user, a.value) == (1, 2, 0.5)
        assert StreamEvent._fields == ("t", "user", "value")

    def test_generated_fields_are_python_scalars(self, tmp_path):
        path = tmp_path / "order.csv"
        write_stream(generate(0.5, 3, 4, 12, OrderingSpec("round_robin"), seed=1), path)
        for kind in ORDERING_KINDS:
            events = generate(0.5, 3, 4, 12, OrderingSpec(kind, path=str(path)), seed=2)
            assert len(events) == 12
            for ev in events:
                assert type(ev) is StreamEvent
                assert (type(ev.t), type(ev.user), type(ev.value)) == (int, int, float)
            # the same events as one StreamEvent call per event builds, t = 1..T
            built = [StreamEvent(t=i, user=ev.user, value=ev.value) for i, ev in enumerate(events, 1)]
            assert events == built and list(map(hash, events)) == list(map(hash, built))


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        events = generate(0.5, 10, 10, 100, OrderingSpec("uniform_random"), seed=9)
        path = tmp_path / "s.csv"
        write_stream(events, path)
        assert read_stream(path) == events

    def test_numpy_values_round_trip(self, tmp_path):
        # an np.float64 value used to be written as ``np.float64(0.5)``,
        # which ``read_stream`` rejects
        values = np.linspace(0.0, 1.0, 7)
        path = tmp_path / "s.csv"
        write_stream([StreamEvent(t, 1, v) for t, v in enumerate(values, start=1)], path)
        events = read_stream(path)
        assert events == [StreamEvent(t, 1, float(v)) for t, v in enumerate(values, start=1)]
        assert {type(ev.value) for ev in events} == {float}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_stream(path) == []

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("t,user,value\n")
        assert read_stream(path) == []

    def test_zero_user_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,user,value\n1,0,0.5\n")
        with pytest.raises(StreamParseError, match="line 2"):
            read_stream(path)

    def test_non_increasing_t_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,user,value\n1,1,0.5\n1,2,0.5\n")
        with pytest.raises(StreamParseError, match="line 3"):
            read_stream(path)

    def test_malformed_value_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,user,value\n1,1,0.5\n2,1,zebra\n")
        with pytest.raises(StreamParseError, match="line 3"):
            read_stream(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,uid,val\n")
        with pytest.raises(StreamParseError, match="line 1"):
            read_stream(path)

    def test_value_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,user,value\n1,1,1.5\n")
        with pytest.raises(StreamParseError):
            read_stream(path)
