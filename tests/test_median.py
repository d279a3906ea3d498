"""Private median: packing, bin grids, selection, sensitivity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmean.median import (
    BinGrid,
    InsufficientDiversityError,
    MedianRequest,
    _pack,
    prior_array_count,
    private_median,
    utility_radius,
)
from contmean.noise import spawn_rng
from contmean.streams import StreamEvent
from oracles import (
    reference_nearest_midpoint,
    reference_pack_arrays,
    reference_private_median,
    reference_snapped_means,
)


def make_history(samples_per_user: dict[int, list[float]]) -> tuple[StreamEvent, ...]:
    events, t = [], 0
    # round-robin interleave to exercise arrival order independence
    queues = {u: list(vals) for u, vals in samples_per_user.items()}
    while any(queues.values()):
        for u in sorted(queues):
            if queues[u]:
                t += 1
                events.append(StreamEvent(t=t, user=u, value=queues[u].pop(0)))
    return tuple(events)


def reference_pack(per_user: dict[int, list[float]], k: int, size: int):
    """Brute-force oracle packer: flatten capped user samples, chunk into k."""
    flat = []
    for u in sorted(per_user):
        flat.extend(per_user[u][:size])
    if len(flat) < k * size:
        return None
    return [flat[i * size : (i + 1) * size] for i in range(k)]


class TestArrayCount:
    def test_unit_value(self):
        assert prior_array_count(16.0, 2, 2 / math.e) == pytest.approx(1.0, rel=1e-12)

    def test_doubles_when_eps_halves(self):
        assert prior_array_count(4.0, 3, 0.1) == pytest.approx(
            2 * prior_array_count(8.0, 3, 0.1), rel=1e-12
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            prior_array_count(0.0, 2, 0.1)
        with pytest.raises(ValueError):
            prior_array_count(1.0, 2, 0.0)


class TestBinGrid:
    def test_level_two_single_bin(self):
        grid = BinGrid.for_level(2)
        assert grid.width == pytest.approx(1.0)
        assert grid.midpoints == (0.5,)

    def test_level_four_two_bins(self):
        grid = BinGrid.for_level(4)
        assert grid.width == pytest.approx(0.5)
        assert grid.midpoints == (0.25, 0.75)

    def test_short_last_bin_midpoint(self):
        grid = BinGrid.for_level(3)  # width 2^(1/2)/... = 0.7071
        assert len(grid.midpoints) == 2
        assert grid.midpoints[0] == pytest.approx(grid.width / 2)
        assert grid.midpoints[1] == pytest.approx((grid.width + 1.0) / 2)

    def test_quantization_error_within_half_width(self):
        for level in (2, 3, 4, 6, 8):
            grid = BinGrid.for_level(level)
            ys = np.linspace(0, 1, 257)
            assert np.all(np.abs(grid.snap(ys) - ys) <= 2.0 ** (-level / 2) + 1e-12)

    def test_edge_ties_break_toward_smaller(self):
        grid = BinGrid.for_level(4)  # bins [0,.5],[.5,1]; midpoints .25,.75
        assert grid.snap(np.array([0.5])).tolist() == [0.25]


class TestPacking:
    def test_unit_arrays_level_one(self):
        history = make_history({1: [0.1], 2: [0.9], 3: [0.4]})
        req = MedianRequest(history=history, eps=16.0, level=1, beta=2 / math.e)
        assert req.arrays_required == 1 and req.array_size == 1
        assert _pack(req).tolist() == [[0.1]]

    def test_single_user_fills_exactly_one_array(self):
        history = make_history({1: [1.0, 0.0, 1.0, 1.0], 2: [0.5] * 4})
        req = MedianRequest(history=history, eps=32.0, level=3, beta=2 / math.e)
        assert req.array_size == 4 and req.arrays_required == 1
        assert _pack(req).tolist() == [[1.0, 0.0, 1.0, 1.0]]

    def test_caps_per_user_contribution(self):
        # users hold more than 2^(level-1) samples; only the first ones count
        history = make_history({1: [1.0] * 8, 2: [0.0] * 8})
        eps = (16.0 / 1.9) * math.log(2.0 / 0.9)  # two arrays required
        req = MedianRequest(history=history, eps=eps, level=2, beta=0.9)
        assert req.arrays_required == 2
        arrays = _pack(req).tolist()
        assert arrays == [[1.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "low,span",
        [
            (1, 255), (1, 256), (-5, 65_535), (0, 65_536),
            (7, 2**32 - 1), (-(2**40), 2**32), (-(2**63), 2**64 - 256), (-(2**63), 2**64 - 1),
        ],
    )
    def test_sort_keys_of_every_width(self, low, span):
        # the sort keys are ids - min(ids) in 8, 16, 32 or 64 bits; spans
        # of 2^63 and more overflow int64 and must still order the ids
        ids = [low, low + span, low + 2, low + span - 1, low + 1]
        per_user = {u: [(i + 1) / 10 + j / 100 for j in range(3)] for i, u in enumerate(ids)}
        eps = 16.0 * math.log(2.0 / 0.5) / 5  # five arrays of two
        req = MedianRequest(history=make_history(per_user), eps=eps, level=2, beta=0.5)
        assert req.arrays_required == 5
        assert _pack(req).tolist() == reference_pack(per_user, 5, 2) == reference_pack_arrays(req)

    def test_insufficient_diversity_raises(self):
        history = make_history({1: [1.0] * 100})
        with pytest.raises(InsufficientDiversityError):
            _pack(MedianRequest(history=history, eps=1.0, level=3, beta=0.1))

    def test_exhaustive_against_reference_and_two_array_rule(self):
        # all per-user sample-count profiles with n <= 4 users, levels <= 3
        for level in (1, 2, 3):
            size = 2 ** (level - 1)
            for counts in itertools.product(range(0, 2 * size + 1), repeat=4):
                per_user = {
                    u + 1: [float(u + 1) + 0.001 * j for j in range(c)]
                    for u, c in enumerate(counts)
                }
                usable = sum(min(c, size) for c in counts)
                k = usable // size  # largest feasible array count
                if k == 0:
                    continue
                # choose eps so that ceil(prior_array_count) == k
                eps = 16.0 * math.log(2.0 ** (level / 2) / 0.5) / k
                req = MedianRequest(
                    history=make_history(per_user), eps=eps, level=level, beta=0.5
                )
                assert req.arrays_required == k
                arrays = _pack(req).tolist()
                assert arrays == reference_pack(per_user, k, size)
                # every user's samples land in at most two arrays
                for u in per_user:
                    touched = {
                        i for i, arr in enumerate(arrays) if any(x in arr for x in per_user[u])
                    }
                    assert len(touched) <= 2


class TestPrivateMedian:
    def test_level_two_always_returns_half(self):
        history = make_history({u: [1.0] * 2 for u in range(1, 30)})
        req = MedianRequest(history=history, eps=2.0, level=2, beta=0.5)
        for seed in range(5):
            assert private_median(req, spawn_rng(seed, 0)) == 0.5

    def test_concentrated_arrays_pick_their_midpoint(self):
        # all array means snap to one midpoint y*: cost(y*) = 0 and every
        # other midpoint costs k, so y* wins with prob >= 1 - |T| e^(-eps k/4)
        level, eps, beta = 6, 8.0, 0.5
        k = math.ceil(prior_array_count(eps, level, beta))
        size = 2 ** (level - 1)
        history = make_history({u: [1.0] * size for u in range(1, k + 2)})
        req = MedianRequest(history=history, eps=eps, level=level, beta=beta)
        grid = BinGrid.for_level(level)
        fail_bound = len(grid.midpoints) * math.exp(-eps * k / 4)
        trials = 400
        star = float(grid.snap(np.array([1.0]))[0])
        hits = sum(private_median(req, spawn_rng(s, 1)) == star for s in range(trials))
        assert hits / trials >= 1 - fail_bound - 0.05

    def test_user_change_moves_cost_by_at_most_two(self):
        # brute force: changing ALL samples of one user changes <= 2 snapped
        # means, so every midpoint's cost moves by <= 2
        level, size = 3, 4
        base_counts = {1: 4, 2: 4, 3: 3, 4: 2}
        per_user = {u: [0.3] * c for u, c in base_counts.items()}
        k = sum(min(c, size) for c in base_counts.values()) // size
        eps = 16.0 * math.log(2.0 ** (level / 2) / 0.5) / k
        grid = BinGrid.for_level(level)

        def costs(users_dict):
            req = MedianRequest(
                history=make_history(users_dict), eps=eps, level=level, beta=0.5
            )
            arrays = _pack(req).tolist()
            snapped = grid.snap(np.array([np.mean(a) for a in arrays])).tolist()
            return [
                max(sum(s < y for s in snapped), sum(s > y for s in snapped))
                for y in grid.midpoints
            ]

        base_costs = costs(per_user)
        for victim in base_counts:
            for new_value in (0.0, 1.0):
                changed = dict(per_user)
                changed[victim] = [new_value] * base_counts[victim]
                delta = np.abs(np.array(costs(changed)) - np.array(base_costs))
                assert delta.max() <= 2

    def test_utility_against_bernoulli_truth(self):
        # claim-level check at moderate scale: prior lands within the radius
        mu, eps, level, delta, beta = 0.3, 8.0, 8, 0.1, 0.1
        k = math.ceil(prior_array_count(eps, level, beta))
        size = 2 ** (level - 1)
        radius = utility_radius(k, level, delta)
        rng = spawn_rng(99, 0)
        hits = 0
        trials = 60
        for trial in range(trials):
            history = make_history(
                {u: list((rng.random(size) < mu).astype(float)) for u in range(1, k + 3)}
            )
            req = MedianRequest(history=history, eps=eps, level=level, beta=beta)
            prior = private_median(req, spawn_rng(trial, 2))
            hits += abs(prior - mu) <= radius
        assert hits / trials >= 0.9


def halfway_points(grid: BinGrid) -> list[float]:
    return [(a + b) / 2.0 for a, b in zip(grid.midpoints, grid.midpoints[1:])]


@st.composite
def median_requests(draw):
    """A request at levels 1-11 over users of any id, arriving in any order.

    Values are floats, the ints 0 and 1, or one grid point per user (0, 1,
    a midpoint or a point halfway between two), so that arrays filled by
    one user have a mean exactly on a tie.  The array count k is drawn
    first and the per-user counts may or may not supply k arrays.
    """
    level = draw(st.sampled_from(range(1, 12)))
    size = 1 << (level - 1)
    k = draw(st.integers(1, 6 if level <= 8 else 2))
    users = draw(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=6, unique=True))
    counts = [draw(st.one_of(st.just(size), st.integers(0, 2 * size))) for _ in users]
    kind = draw(st.sampled_from(["float", "int", "grid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = BinGrid.for_level(level)
    points = [0.0, 1.0, *grid.midpoints, *halfway_points(grid)]
    samples = []
    for user, count in zip(users, counts):
        if kind == "float":
            values = rng.random(count).tolist()
        elif kind == "int":
            values = rng.integers(0, 2, count).tolist()
        else:
            values = [points[rng.integers(len(points))]] * count
        samples.extend((user, v) for v in values)
    # any arrival order; each user's own samples keep no particular order
    order = rng.permutation(len(samples))
    history = tuple(StreamEvent(t + 1, *samples[i]) for t, i in enumerate(order))
    beta = 0.5
    eps = 16.0 * math.log(2.0 ** (level / 2) / beta) / k
    return MedianRequest(history=history, eps=eps, level=level, beta=beta)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientDiversityError as exc:
        return (type(exc), str(exc))


class TestArrayOracle:
    """The whole-array packer, snap and costs against the loop versions in
    ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(median_requests(), st.integers(0, 2**16))
    def test_matches_loop_reference(self, req, seed):
        packed = outcome(lambda r: _pack(r).tolist(), req)
        assert packed == outcome(reference_pack_arrays, req)
        if isinstance(packed, tuple):
            assert outcome(private_median, req, spawn_rng(seed, 2)) == packed
            return
        grid = BinGrid.for_level(req.level)
        snapped = grid.snap(np.array(packed).mean(axis=1))
        assert snapped.tolist() == reference_snapped_means(req)
        assert private_median(req, spawn_rng(seed, 2)) == reference_private_median(
            req, spawn_rng(seed, 2)
        )

    @pytest.mark.parametrize("level", range(1, 12))
    def test_snap_matches_loop_on_and_near_ties(self, level):
        grid = BinGrid.for_level(level)
        ys = [0.0, 1.0, *grid.midpoints, *np.linspace(0.0, 1.0, 101)]
        for y in halfway_points(grid):
            ys += [y + d for d in (0.0, -2e-15, -1e-15, -5e-16, -1e-16, 1e-16, 5e-16, 1e-15, 2e-15)]
        snapped = grid.snap(np.array(ys))
        assert snapped.tolist() == [reference_nearest_midpoint(grid.midpoints, y) for y in ys]

    def test_level_six_median_memory(self):
        # a history about as long as ``full`` keeps for its level-6 prior at
        # n = 20,000, in Zipf-skewed user order; the bound leaves no room
        # for an intermediate of one entry per (event, array) pair
        rng = np.random.default_rng(6)
        users = rng.zipf(1.3, 50_000) % 20_000 + 1
        values = (rng.random(50_000) < 0.5).astype(float)
        history = tuple(StreamEvent(t + 1, int(u), float(v)) for t, (u, v) in enumerate(zip(users, values)))
        request = MedianRequest(history=history, eps=0.5, level=6, beta=0.1)
        assert len(_pack(request)) == request.arrays_required  # warm imports and caches
        tracemalloc.start()
        try:
            private_median(request, spawn_rng(0, 2, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
