"""Experiment orchestration and the sensitivity auditor.

``run`` executes seeded Monte-Carlo trials of one estimator configuration
and reduces per-checkpoint absolute errors to median/quantile summaries.
A trial maps ``step`` over its stream, whose events are handed out from
the end of the reversed list and freed as they are stepped.  Its records
form one lazy stream, taken ``_TRACE_CHUNK`` at a time, each checkpoint's
error read as its chunk is taken, and read once: by ``write_trace`` when
the trial is traced, else drained.  So a trial holds one chunk of records
however long it runs.  ``sweep`` runs a cartesian grid of such experiments.

``audit_sensitivity`` replays an estimator noiselessly on a stream and on
user-level neighbors of it (one user's values replaced adversarially over
the {0,1} grid) and compares the realized change in the stored partial
sums against the bound that calibrates the Laplace noise.  The replays
walk the neighbors' shared prefixes depth first, branching into a
``copy()`` at each of the changed user's samples, 0.0 before 1.0, so an
event is stepped once per branch it lies on, and the runs come out in
mask order, the user's first sample the highest bit.  Every audit of a
config starts from one cached root, ``_audit_root``.  An audit's runs form
one float64 matrix, a row per run, and their pairs are compared a tile of
rows at a time (``_diff_report``).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from contmean.estimators import EstimatorConfig, make_estimator, write_trace
from contmean.streams import OrderingSpec, StreamEvent, _require_int, _require_real, generate

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

_GRID_LIMIT = 12  # 2^12 estimator replays is the most an audit will attempt
_BLOCK_ENTRIES = 1 << 16  # the most pair differences held at once, over all counters
_TRACE_CHUNK = 4096  # the most step records a trial holds at once


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
        # a sweep over "ordering" would otherwise put a bare kind string here
        if not isinstance(self.ordering, OrderingSpec):
            raise ValueError(f"ordering: {self.ordering!r} is not an OrderingSpec")
        _require_real("mu", self.mu)
        _require_int("trials", self.trials)
        for c in self.checkpoints:
            _require_int("checkpoints", c)
        if self.stream_len is not None:
            _require_int("stream_len", self.stream_len)
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


def _chunks(steps, checkpoints: tuple[int, ...], errors: np.ndarray, mu: float):
    """The records of ``steps``, ``_TRACE_CHUNK`` at a time, each chunk
    setting ``errors[i]`` for the checkpoints in it before it is handed on."""
    stepped = i = 0
    while chunk := list(islice(steps, _TRACE_CHUNK)):
        stepped += len(chunk)
        # a checkpoint in the chunk is an index from its end
        while i < len(checkpoints) and checkpoints[i] <= stepped:
            errors[i] = abs(chunk[checkpoints[i] - stepped - 1].estimate - mu)
            i += 1
        yield chunk
        del chunk  # before the next chunk is stepped


def run(spec: ExperimentSpec, out_dir=None, write_traces: bool = True) -> RunSummary:
    """Run the experiment; optionally write one trace CSV per trial plus a
    summary CSV.  Deterministic for a fixed config seed."""
    if spec.checkpoints[-1] > spec.length:
        raise ValueError(f"checkpoint {spec.checkpoints[-1]} beyond stream length {spec.length}")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    errors = np.empty((spec.trials, len(spec.checkpoints)))
    trace_paths: list[Path] = []
    keep = write_traces and out_path is not None
    for trial in range(spec.trials):
        stream_seed = _child_seed(spec.config.seed, 3, trial)
        est_seed = _child_seed(spec.config.seed, 4, trial)
        events = generate(spec.mu, spec.config.n, spec.config.m, spec.length, spec.ordering, stream_seed)
        est = make_estimator(dataclasses.replace(spec.config, seed=est_seed, keep_trace=False))
        # hand the events out first to last, each dropped from the list as
        # it is stepped; the None put first ends the feed
        events.append(None)
        events.reverse()
        feed = iter(events.pop, None)
        records = chain.from_iterable(_chunks(map(est.step, feed), spec.checkpoints, errors[trial], spec.mu))
        if keep:
            trace_paths.append(out_path / f"trace_{trial:04d}.csv")
            write_trace(records, trace_paths[-1])
        else:
            deque(records, maxlen=0)

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


@functools.lru_cache(maxsize=64)
def _audit_root(config: EstimatorConfig):
    """The one set-up of every audit of ``config``: the estimator each
    replay starts from, as a ``copy()``, and each counter's ``(label,
    entry_count_bound, l1_bound)`` from its privacy-table row.

    The root runs ``config`` without noise, trace or div flag, and with
    ``full``'s level priors pinned at 0.5 unless the caller pinned them, so
    that neighbor runs share projections; the calibration bound holds for
    any fixed priors.  It is never stepped itself.  Its counters store
    every partial sum, the nodes an audit compares, and so do their copies.
    """
    updates: dict = {"noise_override": 0.0, "keep_trace": False, "track_diversity": False}
    if config.algorithm == "full" and config.prior_override is None:
        updates["prior_override"] = 0.5
    root = make_estimator(dataclasses.replace(config, **updates))
    for mech in root.mechanisms:
        mech.store_nodes()
    bounds = tuple((row.counter, row.entries, row.sensitivity) for row in root.table if row.counter is not None)
    return root, bounds


def _check_layout(widths: list[int], other: list[int], count: int) -> None:
    """Neighbor runs must store ``count`` counters with the same entry counts."""
    if len(widths) != count or len(other) != count:
        raise AssertionError("mechanism count changed between neighbor runs")
    if other != widths:
        raise AssertionError("partial-sum layout changed between neighbor runs")


class _Runs(NamedTuple):
    """Neighbor runs side by side: row r holds run r's counters' partial
    sums, counter i in the ``widths[i]`` columns after counters 0..i-1."""

    sums: np.ndarray
    widths: list[int]


def _value_grid_runs(root, events: list, positions: list[int]) -> _Runs:
    """Replay ``events`` through ``step`` from copies of the audit root
    ``root`` under every {0,1} assignment of the k given positions; row
    ``mask`` sets position j to bit k - 1 - j of ``mask``.

    Assignments that agree on the first j positions share their state up
    to position j + 1, so the replays walk a binary tree depth first: the
    events before the next position are stepped once per node, and at the
    position the estimator takes 0.0 and its ``copy()`` 1.0, in that order.
    An event is stepped 2^c times, c the number of positions at or before
    it, not 2^k times.  Each leaf appends its counters' partial sums to one
    buffer in walk order, which is mask order: the buffer is the matrix.
    """
    k = len(positions)
    # the events between positions, and each position's two values
    starts = [0, *(p + 1 for p in positions)]
    segments = [events[a:b] for a, b in zip(starts, [*positions, len(events)])]
    branches = [
        (StreamEvent(t, user, 0.0), StreamEvent(t, user, 1.0)) for t, user, _ in (events[p] for p in positions)
    ]
    buffer = array("d")
    widths: list[int] = []

    def leaf(est) -> None:
        mechs = est.mechanisms
        lengths = [len(mech) for mech in mechs]
        if not widths:
            widths.extend(lengths)
        elif lengths != widths:
            _check_layout(widths, lengths, len(widths))
        for mech in mechs:
            mech.write_partial_sums(buffer)

    def walk(est, depth: int) -> None:
        for ev in segments[depth]:
            est.step(ev)
        if depth == k:
            leaf(est)
            return
        zero, one = branches[depth]
        twin = est.copy()
        est.step(zero)
        walk(est, depth + 1)
        twin.step(one)
        walk(twin, depth + 1)

    walk(root.copy(), 0)
    return _Runs(np.frombuffer(buffer).reshape(1 << k, sum(widths)), widths)


def _diff_report(
    algorithm: str,
    changed_user: int,
    bounds: tuple[tuple[str, float, float], ...],
    left: _Runs,
    right: _Runs,
    upper: bool,
) -> AuditReport:
    """Worst disturbance over the pairs of a left row i and a right row j
    (only j > i when ``upper``, for left and right the same runs): per
    counter the most entries moved by more than 1e-9 and the largest l1
    shift, plus the largest shift summed over counters, against each
    counter's ``bounds`` from ``_audit_root``."""
    n_mech = len(bounds)
    widths = left.widths
    _check_layout(widths, right.widths, n_mech)
    worst_count = [0] * n_mech
    worst_l1 = [0.0] * n_mech
    worst_total_l1 = 0.0
    # counter i holds rows s..e of a tile's differences, run pairs along
    # columns; a counter that holds no entries moves none, so it is left out
    counters, width = [], 0
    for i, w in enumerate(widths):
        if w:
            counters.append((i, width, width + w))
        width += w
    # each counter entry's values over the runs, one row per entry
    left_t = np.ascontiguousarray(left.sums.T)
    right_t = left_t if right is left else np.ascontiguousarray(right.sums.T)
    n_left, n_right = left_t.shape[1], right_t.shape[1]
    # a tile sets ``rows`` left runs against ``cols`` right runs and holds
    # at most _BLOCK_ENTRIES differences, unless one pair alone is wider
    cols = min(n_right, max(1, _BLOCK_ENTRIES // max(1, width)))
    rows = max(1, _BLOCK_ENTRIES // max(1, cols * width))
    for a in range(0, n_left if counters else 0, rows):
        # with ``upper``, right runs start past the tile's first left run;
        # its pairs j <= i are then mirror images, |x - y| == |y - x| bit
        # for bit, or a run against itself, which moves nothing
        for b in range(a + 1 if upper else 0, n_right, cols):
            diff = left_t[:, a : a + rows, None] - right_t[:, None, b : b + cols]
            diff = np.abs(diff, out=diff).reshape(width, -1)
            moved = (diff > 1e-9).view(np.uint8)
            total = 0.0
            for i, s, e in counters:
                # a pair's l1 shift adds the counter's entries in the order
                # numpy sums one row: left to right below 8 entries, pairwise
                # from 8 on.  Entry counts are integers, so any order gives them
                if e - s < 8:
                    l1, count = diff[s], moved[s]
                    for c in range(s + 1, e):
                        l1 = l1 + diff[c]
                        count = count + moved[c]
                else:
                    l1 = diff[s:e].T.copy().sum(axis=1)
                    count = moved[s:e].sum(axis=0)
                worst_count[i] = max(worst_count[i], int(count.max()))
                worst_l1[i] = max(worst_l1[i], float(l1.max()))
                total = total + l1
            worst_total_l1 = max(worst_total_l1, float(total.max()))

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
        algorithm=algorithm,
        changed_user=changed_user,
        mechanisms=mech_reports,
        changed_partial_sum_count=sum(r.changed_entries for r in mech_reports),
        max_l1_shift=worst_total_l1,
        theoretical_bound=total_bound,
        passed=all(r.passed for r in mech_reports) and worst_total_l1 <= total_bound,
    )


def _grid_positions(config: EstimatorConfig, events: list, changed_user: int) -> list[int]:
    """The indices of ``changed_user``'s events, each a 3-tuple ``(t, user,
    value)`` read by position, as ``step`` reads it.  Refuses a changed user
    that no stream of ``config`` can hold (an audit of one would compare
    runs that never differ and pass), then a grid over more than
    ``_GRID_LIMIT`` samples, both before any construction."""
    _require_int("changed_user", changed_user)
    if not 1 <= changed_user <= config.n:
        raise ValueError(f"changed_user {changed_user} outside [1, {config.n}]")
    positions = [i for i, ev in enumerate(events) if ev[1] == changed_user]
    if len(positions) > _GRID_LIMIT:
        raise ValueError(f"value grid over {len(positions)} samples is too large to enumerate")
    return positions


def audit_sensitivity(
    config: EstimatorConfig, base_stream: Sequence[StreamEvent], changed_user: int
) -> AuditReport:
    """Compare the base run against every {0,1} replacement of one user.

    Runs are noiseless, so partial-sum differences reflect pure data
    sensitivity; contributions of unchanged users cancel exactly in each
    difference.  An event is any 3-tuple ``(t, user, value)``, as for
    ``step``.
    """
    events = list(base_stream)
    positions = _grid_positions(config, events, changed_user)
    root, bounds = _audit_root(config)
    variants = _value_grid_runs(root, events, positions)
    base = _value_grid_runs(root, events, [])
    return _diff_report(config.algorithm, changed_user, bounds, base, variants, upper=False)


def audit_value_grid(
    config: EstimatorConfig, users: Sequence[int], changed_user: int
) -> AuditReport:
    """Exhaustive neighbor-pair audit for one user ordering.

    Both sides of the neighbor pair range over the {0,1} grid for the
    changed user's positions; other users' values are irrelevant to the
    difference (they cancel), so they are fixed at zero.
    """
    events = [StreamEvent(t, u, 0.0) for t, u in enumerate(users, start=1)]
    positions = _grid_positions(config, events, changed_user)
    root, bounds = _audit_root(config)
    variants = _value_grid_runs(root, events, positions)
    # every i < j; a user without samples has one variant and no pair,
    # which reports no change
    return _diff_report(config.algorithm, changed_user, bounds, variants, variants, upper=True)
