"""Independent reference computations used by unit and acceptance tests.

These are deliberately straightforward dict-and-loop reimplementations of
the release schedule and denominator accounting, kept free of the package's
mechanism/estimator classes so they can serve as oracles for noiseless
runs.  ``noisy_counter`` takes only the dyadic decomposition and the scalar
Laplace draw from the package.  ``reference_trace_csv`` writes trace records
through ``csv.writer``.
"""

import csv
import io
import math

from contmean.binmech import decompose
from contmean.noise import laplace


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
    prefix = min(prefix_len or m, m, T)
    seq = [1] * prefix
    others = [u for u in range(2, n + 1) for _ in range(m)]
    seq.extend(others[: T - prefix])
    if len(seq) < T:
        raise ValueError("single_user_prefix ordering cannot reach the requested length")
    return seq


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
        for end in decompose(k).ends():
            acc += nps[end - 1]
        yield nps[-1], acc


def reference_trace_csv(records):
    """Bytes of a trace CSV written row by row through ``csv.writer``."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["t", "user", "estimate", "total", "M_t", "flags"])
    for r in records:
        writer.writerow([r.t, r.user, repr(r.estimate), r.total, r.max_count, r.flags_str()])
    return fh.getvalue().encode()
