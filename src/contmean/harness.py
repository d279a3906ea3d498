"""Experiment orchestration and the sensitivity auditor.

``run`` executes seeded Monte-Carlo trials of one estimator configuration
and reduces per-checkpoint absolute errors to median/quantile summaries.
``sweep`` runs a cartesian grid of such experiments.  ``audit_sensitivity``
replays an estimator noiselessly on a stream and on user-level neighbors of
it (one user's values replaced adversarially over the {0,1} grid) and
compares the realized change in the stored partial sums against the bound
that calibrates the Laplace noise.  The neighbors are replayed along their
shared prefixes: a replay branches into an estimator ``copy()`` at each of
the changed user's samples, so an event is stepped once per branch it lies
on, not once per neighbor.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from contmean.estimators import EstimatorConfig, make_estimator, privacy_table, write_trace
from contmean.streams import OrderingSpec, StreamEvent, generate

__all__ = [
    "AuditMechanismReport",
    "AuditReport",
    "ExperimentSpec",
    "RunSummary",
    "audit_sensitivity",
    "audit_value_grid",
    "run",
    "sweep",
]

SUMMARY_HEADER = ["t", "median_abs_error", "q10_abs_error", "q90_abs_error"]

_AUDITABLE = ("naive", "single", "multi", "full")
_GRID_LIMIT = 12  # 2^12 estimator replays is the most an audit will attempt
_BLOCK_ENTRIES = 1 << 16  # per counter, the most pair differences held at once


# --------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte-Carlo experiment: a config, a source, and checkpoints."""

    config: EstimatorConfig
    mu: float
    ordering: OrderingSpec
    trials: int
    checkpoints: tuple[int, ...]
    stream_len: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.checkpoints:
            raise ValueError("need at least one checkpoint")
        if any(c < 1 for c in self.checkpoints):
            raise ValueError("checkpoints are 1-based times")
        object.__setattr__(self, "checkpoints", tuple(sorted(self.checkpoints)))

    @property
    def length(self) -> int:
        if self.stream_len is not None:
            return self.stream_len
        if self.config.T is not None:
            return min(self.config.T, self.checkpoints[-1])
        return self.checkpoints[-1]


@dataclass
class RunSummary:
    checkpoints: tuple[int, ...]
    median_abs_error: tuple[float, ...]
    q10_abs_error: tuple[float, ...]
    q90_abs_error: tuple[float, ...]
    summary_path: Path | None = None
    trace_paths: tuple[Path, ...] = ()

    def rows(self) -> list[tuple[int, float, float, float]]:
        return list(
            zip(self.checkpoints, self.median_abs_error, self.q10_abs_error, self.q90_abs_error)
        )

    def write_csv(self, path) -> Path:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_HEADER)
            for t, med, q10, q90 in self.rows():
                writer.writerow([t, repr(med), repr(q10), repr(q90)])
        self.summary_path = path
        return path


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def run(spec: ExperimentSpec, out_dir=None, write_traces: bool = True) -> RunSummary:
    """Run the experiment; optionally write one trace CSV per trial plus a
    summary CSV.  Deterministic for a fixed config seed."""
    if spec.checkpoints[-1] > spec.length:
        raise ValueError(
            f"checkpoint {spec.checkpoints[-1]} beyond stream length {spec.length}"
        )
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    wanted = set(spec.checkpoints)
    errors = np.empty((spec.trials, len(spec.checkpoints)))
    trace_paths: list[Path] = []
    for trial in range(spec.trials):
        stream_seed = _child_seed(spec.config.seed, 3, trial)
        est_seed = _child_seed(spec.config.seed, 4, trial)
        events = generate(
            spec.mu, spec.config.n, spec.config.m, spec.length, spec.ordering, stream_seed
        )
        keep = write_traces and out_path is not None
        est = make_estimator(dataclasses.replace(spec.config, seed=est_seed, keep_trace=keep))
        at_checkpoint: dict[int, float] = {}
        for ev in events:
            record = est.step(ev)
            if record.t in wanted:
                at_checkpoint[record.t] = record.estimate
        errors[trial] = [abs(at_checkpoint[t] - spec.mu) for t in spec.checkpoints]
        if keep:
            trace_path = out_path / f"trace_{trial:04d}.csv"
            write_trace(est.records, trace_path)
            trace_paths.append(trace_path)

    summary = RunSummary(
        checkpoints=spec.checkpoints,
        median_abs_error=tuple(float(x) for x in np.median(errors, axis=0)),
        q10_abs_error=tuple(float(x) for x in np.quantile(errors, 0.1, axis=0)),
        q90_abs_error=tuple(float(x) for x in np.quantile(errors, 0.9, axis=0)),
        trace_paths=tuple(trace_paths),
    )
    if out_path is not None:
        summary.write_csv(out_path / "summary.csv")
    return summary


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(EstimatorConfig)}
_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"config"}


def sweep(
    base: ExperimentSpec,
    grid: Mapping[str, Sequence],
    out_dir=None,
    write_traces: bool = False,
) -> list[tuple[dict, RunSummary]]:
    """Run the cartesian product of ``grid`` values over ``base``.

    Grid keys name either estimator-config fields or experiment fields.
    Returns (params, summary) pairs in row-major grid order and, when
    ``out_dir`` is given, writes one combined CSV with the parameters
    prepended to each summary row.
    """
    if not grid:
        raise ValueError("sweep needs a nonempty grid")
    keys = list(grid)
    for key in keys:
        if key not in _CONFIG_FIELDS and key not in _SPEC_FIELDS:
            raise ValueError(f"unknown sweep key {key!r}")
        if len(grid[key]) == 0:
            raise ValueError(f"sweep key {key!r} has no values")

    combos: list[dict] = [{}]
    for key in keys:
        combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]

    results = []
    for i, params in enumerate(combos):
        cfg_updates = {k: v for k, v in params.items() if k in _CONFIG_FIELDS}
        spec_updates = {k: v for k, v in params.items() if k in _SPEC_FIELDS}
        config = dataclasses.replace(base.config, **cfg_updates)
        point = dataclasses.replace(base, config=config, **spec_updates)
        sub_dir = Path(out_dir) / f"point_{i:03d}" if out_dir is not None else None
        results.append((params, run(point, sub_dir, write_traces=write_traces)))

    if out_dir is not None:
        combined = Path(out_dir) / "sweep.csv"
        with open(combined, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys + SUMMARY_HEADER)
            for params, summary in results:
                for row in summary.rows():
                    writer.writerow([params[k] for k in keys] + [row[0]] + [repr(x) for x in row[1:]])
    return results


# --------------------------------------------------------------------------
# Sensitivity auditor


@dataclass(frozen=True)
class AuditMechanismReport:
    label: str
    changed_entries: int
    entry_count_bound: float
    l1_shift: float
    l1_bound: float

    @property
    def passed(self) -> bool:
        return self.changed_entries <= self.entry_count_bound and self.l1_shift <= self.l1_bound


@dataclass(frozen=True)
class AuditReport:
    """Worst observed partial-sum disturbance over the explored neighbors."""

    algorithm: str
    changed_user: int
    mechanisms: tuple[AuditMechanismReport, ...]
    changed_partial_sum_count: int
    max_l1_shift: float
    theoretical_bound: float
    passed: bool


def _audit_config(config: EstimatorConfig) -> EstimatorConfig:
    if config.algorithm not in _AUDITABLE:
        raise ValueError(f"audits cover {_AUDITABLE}, not {config.algorithm!r}")
    updates: dict = {"noise_override": 0.0, "keep_trace": False, "track_diversity": False}
    if config.algorithm == "full" and config.prior_override is None:
        # pins every level prior so both neighbor runs share projections;
        # the calibration bound holds for any fixed priors
        updates["prior_override"] = 0.5
    return dataclasses.replace(config, **updates)


def _check_layout(widths: list[int], other: list[int], count: int) -> None:
    """Neighbor runs must store ``count`` counters with the same entry counts."""
    if len(widths) != count or len(other) != count:
        raise AssertionError("mechanism count changed between neighbor runs")
    if other != widths:
        raise AssertionError("partial-sum layout changed between neighbor runs")


def _per_mechanism_bounds(config: EstimatorConfig) -> list[tuple[str, float, float]]:
    """(label, entry_count_bound, l1_bound) per mechanism, from its privacy-table row."""
    table = privacy_table(config)
    return [(row.counter, row.entries, row.sensitivity) for row in table if row.counter is not None]


def _value_grid_runs(
    config: EstimatorConfig, events: list[StreamEvent], positions: list[int]
) -> list[np.ndarray]:
    """Replay ``events`` noiselessly through ``step`` under every {0,1}
    assignment of the given positions; per counter, one (assignments,
    entries) float64 array of its stored partial sums, row ``mask`` for the
    assignment that sets position j to bit j of ``mask``.

    Assignments that agree on the first j positions share their state up
    to position j + 1, so the replays walk a binary tree depth first: the
    events before the next position are stepped once per node, and at the
    position the estimator branches into a ``copy()`` that takes 1.0 while
    the original takes 0.0.  An event is stepped 2^c times, c the number of
    positions at or before it, not 2^len(positions) times.
    """
    if len(positions) > _GRID_LIMIT:
        raise ValueError(
            f"value grid over {len(positions)} samples is too large to enumerate"
        )
    k = len(positions)
    bounds = [*positions, len(events)]
    rows: list[np.ndarray] = []
    widths: list[int] = []

    def leaf(est, mask: int) -> None:
        sums = [mech.noisy_partial_sums for mech in est.mechanisms]
        if not rows:
            widths.extend(len(s) for s in sums)
            rows.extend(np.empty((1 << k, w)) for w in widths)
        _check_layout(widths, [len(s) for s in sums], len(widths))
        for acc, s in zip(rows, sums):
            acc[mask] = s

    def walk(est, depth: int, start: int, mask: int) -> None:
        stop = bounds[depth]
        for ev in events[start:stop]:
            est.step(ev)
        if depth == k:
            leaf(est, mask)
            return
        ev = events[stop]
        twin = est.copy()
        est.step(StreamEvent(t=ev.t, user=ev.user, value=0.0))
        walk(est, depth + 1, stop + 1, mask)
        twin.step(StreamEvent(t=ev.t, user=ev.user, value=1.0))
        walk(twin, depth + 1, stop + 1, mask | (1 << depth))

    walk(make_estimator(config), 0, 0, 0)
    return rows


def _diff_report(
    config: EstimatorConfig,
    changed_user: int,
    left: list[np.ndarray],
    right: list[np.ndarray],
    upper: bool,
) -> AuditReport:
    """Worst disturbance over the pairs of a left row i and a right row j
    (only j > i when ``upper``, for left and right the same runs): per
    counter the most entries moved by more than 1e-9 and the largest l1
    shift, plus the largest shift summed over counters."""
    bounds = _per_mechanism_bounds(config)
    n_mech = len(bounds)
    widths = [a.shape[1] for a in left]
    _check_layout(widths, [b.shape[1] for b in right], n_mech)
    worst_count = [0] * n_mech
    worst_l1 = [0.0] * n_mech
    worst_total_l1 = 0.0
    # pairs are numbered row by row, i ascending, then j; those of left row
    # i are right rows firsts[i].. and start at number offsets[i]
    n_left, n_right = left[0].shape[0], right[0].shape[0]
    firsts = np.arange(1, n_left + 1) if upper else np.zeros(n_left, dtype=np.intp)
    counts = n_right - firsts
    offsets = np.cumsum(counts) - counts
    n_pairs = int(counts.sum())
    # pairs go through in blocks, each block's indices built on the spot, so
    # the indices and differences held at once stay bounded however many
    # pairs a grid has
    block = max(1, _BLOCK_ENTRIES // max([1, *widths]))
    # a counter that holds no entries moves none, so its row stays at zero
    counters = [(i, a, b) for i, (a, b) in enumerate(zip(left, right)) if a.shape[1]]
    for start in range(0, n_pairs, block):
        p = np.arange(start, min(start + block, n_pairs))
        lb = np.searchsorted(offsets, p, side="right") - 1
        rb = p - offsets[lb] + firsts[lb]
        total = 0.0
        for i, a, b in counters:
            diff = a[lb]
            diff -= b[rb]
            np.abs(diff, out=diff)
            worst_count[i] = max(worst_count[i], int((diff > 1e-9).sum(axis=1).max()))
            l1 = diff.sum(axis=1)
            worst_l1[i] = max(worst_l1[i], float(l1.max()))
            total = total + l1
        worst_total_l1 = max(worst_total_l1, float(np.max(total)))

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


def audit_sensitivity(
    config: EstimatorConfig, base_stream: Sequence[StreamEvent], changed_user: int
) -> AuditReport:
    """Compare the base run against every {0,1} replacement of one user.

    Runs are noiseless, so partial-sum differences reflect pure data
    sensitivity; contributions of unchanged users cancel exactly in each
    difference.
    """
    config = _audit_config(config)
    if not 1 <= changed_user <= config.n:
        raise ValueError(f"changed_user {changed_user} outside [1, {config.n}]")
    events = list(base_stream)
    positions = [i for i, ev in enumerate(events) if ev.user == changed_user]
    # the grid runs first: it refuses an oversized grid before any replay
    variants = _value_grid_runs(config, events, positions)
    base = _value_grid_runs(config, events, [])
    return _diff_report(config, changed_user, base, variants, upper=False)


def audit_value_grid(
    config: EstimatorConfig, users: Sequence[int], changed_user: int
) -> AuditReport:
    """Exhaustive neighbor-pair audit for one user ordering.

    Both sides of the neighbor pair range over the {0,1} grid for the
    changed user's positions; other users' values are irrelevant to the
    difference (they cancel), so they are fixed at zero.
    """
    config = _audit_config(config)
    events = [StreamEvent(t=i + 1, user=u, value=0.0) for i, u in enumerate(users)]
    positions = [i for i, ev in enumerate(events) if ev.user == changed_user]
    variants = _value_grid_runs(config, events, positions)
    # every i < j; a user without samples has one variant and no pair,
    # which reports no change
    return _diff_report(config, changed_user, variants, variants, upper=True)
