"""Output checks, computed apart from the program.

Each check recomputes what the program published from the inputs alone, or
tests a property the method guarantees, and returns a list of problems
(empty when the output is right).  None compares against a stored copy of
earlier output.  The reference computations here are plain loops over the
inputs; the only program objects they read are the outputs under test and,
for the audit, the noise scales and ledger shares that the calibration
identity ties together.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import oracles

TRACE_COLUMNS = ("t", "user", "estimate", "total", "M_t", "flags")
SUMMARY_COLUMNS = ("t", "median_abs_error", "q10_abs_error", "q90_abs_error")

_REL = 1e-12  # float round-off between two correct ways of computing a quantile


# --------------------------------------------------------------------------
# Release law


def released_total(count: int) -> int:
    """Samples of one user represented in the sums after ``count`` arrivals:
    a release fires when the count reaches a power of two and publishes
    everything up to it, so 2^floor(log2 count)."""
    return 1 << (count.bit_length() - 1) if count else 0


def read_csv(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path.name}: header is {rows[0] if rows else None}, expected {header}")
    return rows[1:]


def check_trace(rows: list[list[str]], algorithm: str, n: int, m: int, T: int) -> list[str]:
    """A ``contmean run`` trace: t runs 1..T, users respect [1, n] and the cap
    m, M_t is the running maximum per-user count, and ``total`` follows the
    release law (t for naive; sum over users of 2^floor(log2 c_u) for the
    withhold-release estimators with every level active)."""
    problems = []
    if len(rows) != T:
        problems.append(f"trace has {len(rows)} rows, expected {T}")
    counts: dict[int, int] = {}
    released = 0
    max_count = 0
    for i, row in enumerate(rows[:T]):
        t, user, estimate, total, m_t = int(row[0]), int(row[1]), float(row[2]), int(row[3]), int(row[4])
        if t != i + 1:
            problems.append(f"row {i + 1}: t={t}, expected {i + 1}")
            break
        if not 1 <= user <= n:
            problems.append(f"t={t}: user {user} outside [1, {n}]")
            break
        c = counts.get(user, 0) + 1
        if c > m:
            problems.append(f"t={t}: user {user} exceeds the cap m={m}")
            break
        counts[user] = c
        released += released_total(c) - released_total(c - 1)
        max_count = max(max_count, c)
        if m_t != max_count:
            problems.append(f"t={t}: M_t={m_t}, recount gives {max_count}")
            break
        expected = t if algorithm == "naive" else released
        if total != expected:
            problems.append(f"t={t}: total={total}, release law gives {expected}")
            break
        if not math.isfinite(estimate):
            problems.append(f"t={t}: estimate {estimate} is not finite")
            break
    return problems


# --------------------------------------------------------------------------
# Summary statistics


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def summary_from_traces(traces: list[list[list[str]]], checkpoints, mu: float) -> list[tuple]:
    """(t, median, q10, q90) of |estimate - mu| over trials at each checkpoint."""
    out = []
    for t in checkpoints:
        errors = [abs(float(rows[t - 1][2]) - mu) for rows in traces]
        out.append((t, quantile(errors, 0.5), quantile(errors, 0.1), quantile(errors, 0.9)))
    return out


def check_summary(summary_rows: list[list[str]], recomputed: list[tuple]) -> list[str]:
    problems = []
    if len(summary_rows) != len(recomputed):
        return [f"summary has {len(summary_rows)} rows, expected {len(recomputed)}"]
    for row, want in zip(summary_rows, recomputed):
        got = (int(row[0]), *(float(x) for x in row[1:]))
        if got[0] != want[0]:
            problems.append(f"summary row t={got[0]}, expected t={want[0]}")
            continue
        for name, g, w in zip(SUMMARY_COLUMNS[1:], got[1:], want[1:]):
            if not math.isclose(g, w, rel_tol=_REL, abs_tol=1e-15):
                problems.append(f"summary t={got[0]} {name}={g!r}, traces give {w!r}")
    return problems


# --------------------------------------------------------------------------
# Noiseless companions


def running_released_mean(users, values, algorithm: str) -> list[tuple[float, int]]:
    """(estimate, total) per step of a noiseless, unclipped run: the mean of
    the samples released so far (all of them for naive)."""
    per_user: dict[int, list[float]] = {}
    released_sum = 0.0
    total = 0
    out = []
    for u, x in zip(users, values):
        seen = per_user.setdefault(u, [])
        seen.append(x)
        c = len(seen)
        if algorithm == "naive":
            released_sum += x
            total += 1
        elif c & (c - 1) == 0:
            size = c - released_total(c - 1)
            released_sum += math.fsum(seen[c - size :])
            total += size
        out.append((released_sum / total if total else 0.5, total))
    return out


def check_steps(records, expected: list[tuple[float, int]], what: str) -> list[str]:
    """Published (estimate, total) equal the reference at every step."""
    if len(records) != len(expected):
        return [f"{what}: {len(records)} records, expected {len(expected)}"]
    for rec, (estimate, total) in zip(records, expected):
        if rec.total != total or rec.estimate != estimate:
            return [
                f"{what}: t={rec.t} published ({rec.estimate!r}, {rec.total}), "
                f"reference ({estimate!r}, {total})"
            ]
    return []


def full_schedule(users, m: int, eps: float, delta: float) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-step ``total`` of the full estimator and its (t, level) activations.

    Level l >= 2 activates once sum_u min(c_u, 2^(l-1)) reaches the
    threshold in ``oracles.activation_threshold``; until then its blocks are
    buffered and left out of ``total``, and activation adds them back.
    Independent of noise, so it holds for noisy runs too.  The supply sums
    are kept incrementally, so this is O(levels) per event.
    """
    big_l = math.ceil(math.log2(m))
    inactive = list(range(2, big_l + 1))
    threshold = {lv: oracles.activation_threshold(lv, m, eps, delta) for lv in inactive}
    supply = dict.fromkeys(inactive, 0)
    buffered = dict.fromkeys(inactive, 0)
    counts: dict[int, int] = {}
    total = 0
    totals, activations = [], []
    for t, u in enumerate(users, start=1):
        c = counts.get(u, 0) + 1
        counts[u] = c
        for lv in inactive:
            if c <= 1 << (lv - 1):
                supply[lv] += 1
        for lv in list(inactive):
            if supply[lv] >= threshold[lv]:
                total += buffered[lv] * (1 << (lv - 1))
                inactive.remove(lv)
                activations.append((t, lv))
        if c & (c - 1) == 0:
            level = c.bit_length() - 1
            if level in inactive:
                buffered[level] += 1
            else:
                total += 1 << max(level - 1, 0)
        totals.append(total)
    return totals, activations


def check_full_pass(totals, activations, expected_totals, expected_activations) -> list[str]:
    """A noisy full-estimator pass: totals follow ``full_schedule`` and the
    active levels only grow, at the scheduled times."""
    problems = []
    for t, (got, want) in enumerate(zip(totals, expected_totals), start=1):
        if got != want:
            problems.append(f"full pass: t={t} total={got}, schedule gives {want}")
            break
    if len(totals) != len(expected_totals):
        problems.append(f"full pass: {len(totals)} steps, expected {len(expected_totals)}")
    if activations != expected_activations:
        problems.append(f"full pass: activations {activations}, schedule gives {expected_activations}")
    return problems


def activations_from(active_sets) -> tuple[list[tuple[int, int]], list[str]]:
    """(t, level) activations from (t, active_levels) change points, and a
    problem for every change that drops a level."""
    activations, problems = [], []
    previous: set[int] = set()
    for t, levels in active_sets:
        now = set(levels)
        if not previous <= now:
            problems.append(f"t={t}: active levels shrank from {sorted(previous)} to {sorted(now)}")
        activations.extend((t, lv) for lv in sorted(now - previous) if lv >= 2)
        previous = now
    return activations, problems


# --------------------------------------------------------------------------
# Sensitivity audits


def calibrated_bounds(estimator) -> list[float]:
    """Per-counter l1 sensitivity each Laplace scale pays for: eta_i times
    the epsilon share the ledger books for counter i.  An audit's realized
    shift must stay within it for the release to be eps-DP."""
    shares = [eps for label, eps in estimator.budget.entries if label.startswith("mech")]
    etas = [mech.eta for mech in estimator.mechanisms]
    if len(shares) != len(etas):
        raise ValueError(f"{len(etas)} counters but {len(shares)} ledger shares")
    return [eta * share for eta, share in zip(etas, shares)]


def check_audit(report, bounds: list[float]) -> list[str]:
    """Every counter's observed shift is within its calibrated bound, the
    report states that bound, and the report's verdict agrees."""
    problems = []
    what = f"{report.algorithm} audit (user {report.changed_user})"
    if len(report.mechanisms) != len(bounds):
        return [f"{what}: {len(report.mechanisms)} counters, expected {len(bounds)}"]
    for mech, bound in zip(report.mechanisms, bounds):
        if not math.isclose(mech.l1_bound, bound, rel_tol=1e-9):
            problems.append(f"{what}: {mech.label} bound {mech.l1_bound!r}, calibration gives {bound!r}")
        if mech.l1_shift > bound * (1 + 1e-9):
            problems.append(f"{what}: {mech.label} shift {mech.l1_shift!r} exceeds {bound!r}")
        if mech.changed_entries > mech.entry_count_bound:
            problems.append(
                f"{what}: {mech.label} changed {mech.changed_entries} entries, "
                f"bound {mech.entry_count_bound}"
            )
    if report.max_l1_shift > math.fsum(bounds) * (1 + 1e-9):
        problems.append(f"{what}: total shift {report.max_l1_shift!r} exceeds {math.fsum(bounds)!r}")
    if not report.passed:
        problems.append(f"{what}: report says it failed")
    return problems


_AUDIT_TOTAL = re.compile(r"^total: changed=(\d+) l1=(\S+) bound=(\S+) passed=(\w+)$")


def check_cli_audit(exit_code: int, stdout: str, api_report) -> list[str]:
    """``contmean audit`` exits 0 and its totals line states the API
    report's numbers (printed to six significant digits)."""
    problems = []
    if exit_code != 0:
        problems.append(f"contmean audit exited {exit_code}")
    lines = stdout.strip().splitlines()
    match = _AUDIT_TOTAL.match(lines[-1]) if lines else None
    if match is None:
        return problems + [f"contmean audit printed no totals line: {lines[-1:]}"]
    changed, l1, bound, passed = match.groups()
    if int(changed) != api_report.changed_partial_sum_count:
        problems.append(f"CLI changed={changed}, API {api_report.changed_partial_sum_count}")
    for name, printed, value in (
        ("l1", l1, api_report.max_l1_shift),
        ("bound", bound, api_report.theoretical_bound),
    ):
        if not math.isclose(float(printed), value, rel_tol=1e-5, abs_tol=1e-12):
            problems.append(f"CLI {name}={printed}, API {value!r}")
    if passed != str(api_report.passed):
        problems.append(f"CLI passed={passed}, API {api_report.passed}")
    return problems
