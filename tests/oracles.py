"""Independent reference computations used by unit and acceptance tests.

These are deliberately straightforward dict-and-loop reimplementations of
the release schedule and denominator accounting, kept free of the package's
mechanism/estimator classes so they can serve as oracles for noiseless
runs.  ``noisy_counter`` takes only the scalar Laplace draw from the
package, and adds its running sums over the blocks of ``decompose``.  ``reference_trace_csv`` writes trace records
through ``csv.writer``.  The ``reference_audit_*`` functions still build
every variant fresh through ``make_estimator`` and replay it from t = 1, so
they independently check the auditor's walk from copies of one cached
estimator; they set up their own noiseless config (``audit_config``) and
take their bounds from ``privacy_table``, and compare neighbor runs one
numpy pair at a time, in ``reference_diff_report``.  The ``reference_*`` median functions pack, snap
and count one array at a time in Python loops, as the package did before
those steps became whole-array numpy operations.
"""

import csv
import dataclasses
import io
import math
from array import array

import numpy as np

from contmean.estimators import make_estimator, privacy_table
from contmean.harness import AuditMechanismReport, AuditReport
from contmean.median import BinGrid, InsufficientDiversityError
from contmean.noise import exp_mechanism_sample, laplace
from contmean.streams import StreamEvent


def schedule_releases(users):
    """Yield (index, user, level, covered_user_sample_range) per release.

    ``index`` is the 0-based event index at which the release fires and the
    range is 1-based inclusive over that user's own samples.
    """
    counts = {}
    for i, u in enumerate(users):
        counts[u] = counts.get(u, 0) + 1
        c = counts[u]
        if c & (c - 1) == 0:
            level = c.bit_length() - 1
            size = 1 << max(level - 1, 0)
            yield i, u, level, (c - size + 1, c)


def released_count_series(users):
    """Released-information count after each event (independent recompute)."""
    released = {}
    counts = {}
    out = []
    running = 0
    for u in users:
        counts[u] = counts.get(u, 0) + 1
        c = counts[u]
        new_released = 1 << (c.bit_length() - 1)
        running += new_released - released.get(u, 0)
        released[u] = new_released
        out.append(running)
    return out


def activation_threshold(level, m, eps, delta):
    """Samples needed (each user capped at the block size) to buy the
    level's median prior, with the array count rounded up to an integer."""
    big_l = math.ceil(math.log2(m))
    k_real = (32.0 * big_l / eps) * math.log(3.0 * big_l * 2.0 ** (level / 2) / delta)
    return (1 << (level - 1)) * math.ceil(k_real)


def noiseless_estimates(events, algorithm, *, n, m, eps=None, delta=None):
    """Per-step (estimate, total) for noiseless, unclipped runs.

    For ``single``/``multi`` the estimate is (released sample sum)/total.
    For ``full`` it is (released-and-activated sample sum)/total, with
    buffered blocks excluded until their level activates.
    """
    big_l = math.ceil(math.log2(m)) if m >= 2 else 0
    inactive = set(range(2, big_l + 1)) if algorithm == "full" else set()
    buffers = {lv: [] for lv in inactive}
    per_user = {}
    counts = {}
    released_sum, total = 0.0, 0
    out = []
    for ev in events:
        per_user.setdefault(ev.user, []).append(ev.value)
        counts[ev.user] = counts.get(ev.user, 0) + 1

        if algorithm == "full":
            for lv in sorted(inactive):
                supply = sum(min(c, 1 << (lv - 1)) for c in counts.values())
                if supply >= activation_threshold(lv, m, eps, delta):
                    for blk_sum, blk_size in buffers.pop(lv):
                        released_sum += blk_sum
                        total += blk_size
                    inactive.discard(lv)

        c = counts[ev.user]
        if c & (c - 1) == 0:
            level = c.bit_length() - 1
            size = 1 << max(level - 1, 0)
            block = math.fsum(per_user[ev.user][c - size : c])
            if level in inactive:
                buffers[level].append((block, size))
            else:
                released_sum += block
                total += size
        out.append((released_sum / total if total else 0.5, total))
    return out


def uniform_random_users(n, m, T, rng):
    """User sequence of the ``uniform_random`` ordering, rebuilding the list
    of users with samples left at every event (O(n) per event)."""
    remaining = {u: m for u in range(1, n + 1)}
    seq = []
    for _ in range(T):
        open_users = [u for u, r in remaining.items() if r > 0]
        u = int(open_users[rng.integers(len(open_users))])
        remaining[u] -= 1
        seq.append(u)
    return seq


def single_user_prefix_users(n, m, T, prefix_len=None):
    """User sequence of the ``single_user_prefix`` ordering, built from every
    other user's m slots (O(n m) whatever T is)."""
    if prefix_len is not None and prefix_len < 1:
        raise ValueError(f"prefix_len must be a positive integer, got {prefix_len!r}")
    prefix = min(m if prefix_len is None else prefix_len, m, T)
    seq = [1] * prefix
    others = [u for u in range(2, n + 1) for _ in range(m)]
    seq.extend(others[: T - prefix])
    if len(seq) < T:
        raise ValueError("single_user_prefix ordering cannot reach the requested length")
    return seq


def partial_sums(mech) -> tuple[float, ...]:
    """The partial sums a counter stores (``store_nodes``), in index order."""
    out = array("d")
    mech.write_partial_sums(out)
    return tuple(out)


def decompose(k: int) -> tuple[tuple[int, int], ...]:
    """Split [1, k] into the dyadic blocks (1-based, inclusive) given by the
    set bits of k, most significant first, so sizes strictly decrease, e.g.
    decompose(6) -> ((1, 4), (5, 6))."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    blocks = []
    index = 0
    for j in range(k.bit_length() - 1, -1, -1):
        bit = 1 << j
        if k & bit:
            blocks.append((index + 1, index + bit))
            index += bit
    return tuple(blocks)


def noisy_counter(values, eta, rng):
    """Yield (k-th partial sum, running sum) after each append to a tree counter.

    Element k stores (prefix[k] - prefix[k - lowbit(k)]) plus one scalar
    Laplace draw; the running sum adds the stored sums at the ends of
    decompose(k) one at a time, left to right (never the builtin ``sum``,
    whose order of additions differs between Python versions).
    """
    prefix, nps = [0.0], []
    for x in values:
        prefix.append(prefix[-1] + float(x))
        k = len(prefix) - 1
        nps.append((prefix[k] - prefix[k - (k & -k)]) + laplace(eta, rng))
        acc = 0.0
        for _, end in decompose(k):
            acc += nps[end - 1]
        yield nps[-1], acc


def reference_nearest_midpoint(midpoints, y):
    """Closest midpoint to y; ties break toward the smaller midpoint."""
    best = midpoints[0]
    best_d = abs(y - best)
    for mid in midpoints[1:]:
        d = abs(y - mid)
        if d < best_d - 1e-15:
            best, best_d = mid, d
    return best


def reference_pack_arrays(request):
    """Fill k arrays of 2^(level-1) samples from per-user contributions.

    Users are visited in ascending user id; each contributes its first
    min(count, 2^(level-1)) samples in arrival order, written contiguously,
    so no user spans more than two arrays.  Packing stops once the last
    array is full; raises if the history cannot fill all arrays.
    """
    k = request.arrays_required
    size = request.array_size

    per_user = {}
    for ev in request.history:
        bucket = per_user.setdefault(ev.user, [])
        if len(bucket) < size:
            bucket.append(ev.value)

    usable = sum(len(v) for v in per_user.values())
    if usable < k * size:
        raise InsufficientDiversityError(
            f"need {k} arrays of {size} samples ({k * size} total) but only "
            f"{usable} user-capped samples are available"
        )

    arrays = [[] for _ in range(k)]
    j = 0
    for user in sorted(per_user):
        for x in per_user[user]:
            arrays[j].append(x)
            if len(arrays[j]) == size:
                j += 1
                if j == k:
                    return arrays
    raise InsufficientDiversityError("packing ended before the last array filled")


def reference_snapped_means(request):
    """Each packed array's mean, snapped to the level's grid."""
    grid = BinGrid.for_level(request.level)
    arrays = reference_pack_arrays(request)
    return [reference_nearest_midpoint(grid.midpoints, float(np.mean(arr))) for arr in arrays]


def reference_private_median(request, rng):
    """Return a bin midpoint drawn with probability ~ exp(-(eps/4) * cost).

    The cost of a midpoint is the larger of the counts of snapped array
    means strictly below and strictly above it, so low-cost midpoints sit
    near the median of the array means.
    """
    grid = BinGrid.for_level(request.level)
    snapped = reference_snapped_means(request)

    def cost(y):
        below = sum(1 for s in snapped if s < y)
        above = sum(1 for s in snapped if s > y)
        return float(max(below, above))

    candidates = [(mid, cost(mid)) for mid in grid.midpoints]
    return float(exp_mechanism_sample(candidates, request.eps, rng))


def reference_trace_csv(records):
    """Bytes of a trace CSV written row by row through ``csv.writer``.

    The flags field leaves out ``clip``, which depends on raw values, and
    ends with ``act=`` and the active levels when a record has them.
    """
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["t", "user", "estimate", "total", "M_t", "flags"])
    for r in records:
        tokens = [tok for tok in r.flags if tok != "clip"]
        if r.active_levels is not None:
            tokens.append("act=" + "-".join(map(str, r.active_levels)))
        writer.writerow([r.t, r.user, repr(r.estimate), r.total, r.max_count, ";".join(tokens)])
    return fh.getvalue().encode()


def audit_config(config):
    """The config an audit replays: no noise, trace or div flag, and
    ``full``'s level priors pinned at 0.5 unless ``config`` pins them."""
    updates = {"noise_override": 0.0, "keep_trace": False, "track_diversity": False}
    if config.algorithm == "full" and config.prior_override is None:
        updates["prior_override"] = 0.5
    return dataclasses.replace(config, **updates)


def _grid_runs(config, events, positions):
    """Per {0,1} assignment of ``positions``, in mask order, the list of
    each counter's partial sums after a noiseless replay."""
    runs = []
    for mask in range(1 << len(positions)):
        variant = list(events)
        for bit, pos in enumerate(positions):
            ev = variant[pos]
            variant[pos] = StreamEvent(t=ev.t, user=ev.user, value=float((mask >> bit) & 1))
        est = make_estimator(config)
        for mech in est.mechanisms:
            mech.store_nodes()  # as the auditor's root does
        for ev in variant:
            est.step(ev)
        runs.append([np.asarray(partial_sums(mech)) for mech in est.mechanisms])
    return runs


def reference_audit_sensitivity(config, base_stream, changed_user):
    """``audit_sensitivity``: the stream against each {0,1} variant."""
    config = audit_config(config)
    events = list(base_stream)
    positions = [i for i, ev in enumerate(events) if ev.user == changed_user]
    base = _grid_runs(config, events, [])[0]
    pairs = [(base, v) for v in _grid_runs(config, events, positions)]
    return reference_diff_report(config, changed_user, pairs)


def reference_audit_value_grid(config, users, changed_user):
    """``audit_value_grid``: every variant pair i < j, or the one variant
    against itself."""
    config = audit_config(config)
    events = [StreamEvent(t=i + 1, user=u, value=0.0) for i, u in enumerate(users)]
    positions = [i for i, ev in enumerate(events) if ev.user == changed_user]
    variants = _grid_runs(config, events, positions)
    pairs = [
        (variants[i], variants[j])
        for i in range(len(variants))
        for j in range(i + 1, len(variants))
    ]
    if not pairs:
        pairs = [(variants[0], variants[0])]
    return reference_diff_report(config, changed_user, pairs)


def reference_diff_report(config, changed_user, pairs):
    """Worst partial-sum disturbance over (left runs, right runs) pairs,
    against each counter's row of ``privacy_table``."""
    rows = [row for row in privacy_table(config) if row.counter is not None]
    bounds = [(row.counter, row.entries, row.sensitivity) for row in rows]
    n_mech = len(bounds)
    worst_count = [0] * n_mech
    worst_l1 = [0.0] * n_mech
    worst_total_l1 = 0.0
    for left, right in pairs:
        if len(left) != n_mech or len(right) != n_mech:
            raise AssertionError("mechanism count changed between neighbor runs")
        total = 0.0
        for i, (a, b) in enumerate(zip(left, right)):
            if a.shape != b.shape:
                raise AssertionError("partial-sum layout changed between neighbor runs")
            diff = np.abs(a - b)
            changed = int((diff > 1e-9).sum())
            l1 = float(diff.sum())
            worst_count[i] = max(worst_count[i], changed)
            worst_l1[i] = max(worst_l1[i], l1)
            total += l1
        worst_total_l1 = max(worst_total_l1, total)

    mech_reports = tuple(
        AuditMechanismReport(
            label=label,
            changed_entries=worst_count[i],
            entry_count_bound=cbound,
            l1_shift=worst_l1[i],
            l1_bound=lbound,
        )
        for i, (label, cbound, lbound) in enumerate(bounds)
    )
    total_bound = sum(b.l1_bound for b in mech_reports)
    return AuditReport(
        algorithm=config.algorithm,
        changed_user=changed_user,
        mechanisms=mech_reports,
        changed_partial_sum_count=sum(r.changed_entries for r in mech_reports),
        max_l1_shift=worst_total_l1,
        theoretical_bound=total_bound,
        passed=all(r.passed for r in mech_reports) and worst_total_l1 <= total_bound,
    )
