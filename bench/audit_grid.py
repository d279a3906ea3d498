"""Workload ``audit-grid``: exhaustive sensitivity audits, the same layers
used for construction rather than streaming.

``harness.audit_value_grid`` runs over every ordering of 3 users x 6 events
that respects the cap m=4 (690 orderings), for ``naive``, ``single``,
``multi`` and ``full``: 2,760 audits per cycle, each thousands of short
noiseless replays, so estimator construction, ``spawn_rng`` and budget
charging dominate; there are no Laplace draws and no diversity pass.  Every
round also runs ``contmean audit`` in-process on a stream CSV.  The seed
shuffles the orderings, picks the changed user of each, and draws the CSV
stream.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
import time
from pathlib import Path

import checks
from common import Outcome, SpeedTrack, bernoulli, fresh_dir, measure_setup, peak_rss_mib, rng_for, weighted_order
from tracing import RoundLatencies, report_layers, run_traced, state_kib, time_steps, untime_steps

ALGORITHMS = ("naive", "single", "multi", "full")
GRID = dict(n=3, m=4, length=6)
EPS, DELTA, PRIOR = 1.0, 0.1, 0.5
BLOCKS = 15  # rounds per cycle over the 690 orderings
# the stream audited through the CLI: 4 users, up to 6 samples each, so at
# most 2^6 + 1 replays per audit
CSV_STREAM = dict(n=4, m=6, T=20)


def grid_orderings(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """(ordering, changed user) pairs: every capped ordering once, in seeded order."""
    users = range(1, GRID["n"] + 1)
    orderings = [
        o for o in itertools.product(users, repeat=GRID["length"])
        if max(o.count(u) for u in users) <= GRID["m"]
    ]
    rng = rng_for(seed, 1)
    order = rng.permutation(len(orderings))
    changed = rng.integers(1, GRID["n"] + 1, size=len(orderings))
    return [(orderings[i], int(c)) for i, c in zip(order, changed)]


def config_for(algorithm: str, n: int, m: int, T: int):
    from contmean.estimators import EstimatorConfig

    return EstimatorConfig(
        algorithm, n=n, m=m, eps=EPS, delta=DELTA, T=T,
        prior=PRIOR if algorithm in ("single", "multi") else None,
    )


def write_csv_audits(base: Path, seed: int) -> tuple[list[list[str]], list, int]:
    """Stream CSV plus one audit spec per algorithm; returns the argvs, the
    events and the changed user."""
    from contmean.streams import StreamEvent, write_stream

    s = CSV_STREAM
    rng = rng_for(seed, 2)
    users = weighted_order(rng, s["n"], s["m"], s["T"], 0.0).tolist()
    values = bernoulli(rng, s["T"], 0.5).tolist()
    events = [StreamEvent(t + 1, u, x) for t, (u, x) in enumerate(zip(users, values))]
    stream_path = base / "stream.csv"
    write_stream(events, stream_path)
    changed = users[int(rng.integers(s["T"]))]
    argvs = []
    for algorithm in ALGORITHMS:
        spec = dict(algorithm=algorithm, n=s["n"], m=s["m"], eps=EPS, delta=DELTA, T=s["T"],
                    stream=str(stream_path), changed_user=changed)
        if algorithm in ("single", "multi"):
            spec["prior"] = PRIOR
        spec_path = base / f"audit_{algorithm}.json"
        spec_path.write_text(json.dumps(spec))
        argvs.append(["audit", "--spec", str(spec_path)])
    return argvs, events, changed


def replayed_events(positions: int, length: int, with_base: bool) -> int:
    """Events one audit steps: every {0,1} assignment of the changed
    user's positions, plus the base stream for ``audit_sensitivity``."""
    return ((1 << positions) + with_base) * length


class Cycle:
    """The fixed work of the workload and its checks."""

    def __init__(self, seed: int, base: Path) -> None:
        from contmean import estimators

        pairs = grid_orderings(seed)
        size = -(-len(pairs) // BLOCKS)
        self.blocks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
        self.configs = {a: config_for(a, GRID["n"], GRID["m"], GRID["length"]) for a in ALGORITHMS}
        self.argvs, self.events, self.changed = write_csv_audits(base, seed)
        s = CSV_STREAM
        self.csv_configs = {a: config_for(a, s["n"], s["m"], s["T"]) for a in ALGORITHMS}
        def bounds(configs):
            return {a: checks.calibrated_bounds(estimators.make_estimator(c)) for a, c in configs.items()}

        self.bounds, self.csv_bounds = bounds(self.configs), bounds(self.csv_configs)
        positions = sum(1 for ev in self.events if ev.user == self.changed)
        self.cli_events = replayed_events(positions, len(self.events), True)
        self.cli_outputs: dict[str, set[tuple[int, str]]] = {a: set() for a in ALGORITHMS}

    def round(self, harness, cli, rnd: int, out: Outcome) -> int:
        """Audit one block of orderings under every algorithm, then run one
        ``contmean audit``; returns the number of replayed events."""
        events = 0
        for ordering, changed in self.blocks[rnd % len(self.blocks)]:
            positions = ordering.count(changed)
            for algorithm in ALGORITHMS:
                report = harness.audit_value_grid(self.configs[algorithm], ordering, changed)
                out.attempted += 1
                out.extend(checks.check_audit(report, self.bounds[algorithm]))
                events += replayed_events(positions, len(ordering), False)
        algorithm = ALGORITHMS[rnd % len(ALGORITHMS)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argvs[rnd % len(ALGORITHMS)])
        out.attempted += 1
        out.failed += code != 0
        self.cli_outputs[algorithm].add((code, printed.getvalue()))
        return events + self.cli_events

    def cli_problems(self) -> list[str]:
        """Each ``contmean audit`` run exits 0 and prints the totals of the
        API report on the same stream, which passes its calibrated bounds."""
        from contmean import harness

        problems = []
        for algorithm, outputs in self.cli_outputs.items():
            if not outputs:
                continue
            report = harness.audit_sensitivity(self.csv_configs[algorithm], self.events, self.changed)
            problems += checks.check_audit(report, self.csv_bounds[algorithm])
            for code, stdout in outputs:
                problems += [f"contmean audit ({algorithm}): {p}" for p in checks.check_cli_audit(code, stdout, report)]
        return problems


def timed(seed: int, seconds: float) -> Outcome:
    from contmean import cli, estimators, harness

    out = Outcome()
    base = fresh_dir("audit-grid")
    cycle = Cycle(seed, base)
    out.metric("setup_s", measure_setup({"cli": cycle.argvs}, base), "s")

    latencies = RoundLatencies()
    rates, raw_rates, rnd = [], [], 0
    undo = time_steps(latencies, estimators)
    speed = SpeedTrack()
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            events = cycle.round(harness, cli, rnd, out)
            raw_rates.append(events / (time.perf_counter() - start))
            scale = speed.scale()
            rates.append(raw_rates[-1] / scale)
            latencies.end_round(scale)
            rnd += 1
    finally:
        untime_steps(undo)
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB")
    out.metric("events_per_s", statistics.median(rates), "1/s")
    out.metric("step_p50_us", latencies.p50_us(), "us")
    out.metric("step_p99_us", latencies.p99_us(), "us")
    out.notes.update(rounds=rnd, steps=latencies.steps, step_max_us=latencies.max_us,
                     raw_round_rates=[round(r) for r in raw_rates],
                     speed_scales=[round(f, 3) for f in speed.scales])
    out.extend(cycle.cli_problems())
    return out


def traced(seed: int) -> Outcome:
    """One full cycle (every ordering, every algorithm, one CLI audit per
    block) untraced and traced.  The auditor already turns the diversity
    flag off, so the traced pass also gives the no-flag step time."""
    from contmean import cli, estimators, harness

    out = Outcome()
    cycle = Cycle(seed, fresh_dir("audit-grid-trace"))

    def one_cycle(_traced: bool) -> int:
        return sum(cycle.round(harness, cli, rnd, out) for rnd in range(len(cycle.blocks)))

    run = run_traced(one_cycle)
    if run.plain != run.traced:
        out.problem("tracing changed the number of replayed events")
    report_layers(
        out,
        run,
        state_kib=state_kib(estimators, cycle.csv_configs["full"], cycle.events),
        trace_bytes=0,
        abs_dev_final=0.0,
    )
    out.extend(cycle.cli_problems())
    return out
