"""Workload ``online-skewed``: one ``full`` estimator stepped event by event,
as an online deployment runs it.

n=20,000 users, m=64, eps=1, delta=0.1, diversity flag on, 100,000 events
per pass.  The arrival order is drawn here, not by ``streams.generate``
(whose ``uniform_random`` ordering costs O(n) per event): weighted sampling
without replacement of each user's m slots, user weights Zipf-like
(1/rank).  Levels 2..6 activate during the pass, each through a private
median over the kept history.  Each pass replays the run's stream with a
fresh estimator seed; the benchmark itself times every ``step`` call.
"""

from __future__ import annotations

import statistics
import time

import checks
import oracles
from common import Outcome, SpeedTrack, bernoulli, derive, fresh_dir, measure_setup, peak_rss_mib, rng_for, weighted_order
from tracing import RoundLatencies, report_layers, run_traced, state_kib

PARAMS = dict(n=20_000, m=64, eps=1.0, delta=0.1)
T = 100_000
MU = 0.5
ZIPF_S = 1.0
# The companion replays a prefix at a larger eps: the oracle costs O(users)
# per event, and the larger eps lowers the activation thresholds so that
# levels 2..4 activate inside an affordable prefix (at t ~ 370, 750, 1500).
COMPANION_EVENTS = 1800
COMPANION_EPS = 8.0


def make_events(seed: int):
    from contmean.streams import StreamEvent

    rng = rng_for(seed, 1)
    users = weighted_order(rng, PARAMS["n"], PARAMS["m"], T, ZIPF_S).tolist()
    values = bernoulli(rng, T, MU).tolist()
    return [StreamEvent(t + 1, u, x) for t, (u, x) in enumerate(zip(users, values))]


def config_for(seed: int, **overrides):
    from contmean.estimators import EstimatorConfig

    fields = dict(PARAMS, algorithm="full", seed=seed, keep_trace=False)
    fields.update(overrides)
    return EstimatorConfig(**fields)


WINDOW = 10_000  # steps between reference-speed readings


class Pass:
    """One pass: per-step totals, active-level change points, final
    estimate, and its wall time (raw and at reference speed)."""

    def __init__(self) -> None:
        self.totals = [0] * T
        self.changes: list[tuple[int, tuple[int, ...]]] = []
        self.final = None
        self.wall = 0.0
        self.ref_wall = 0.0


def step_through(estimators, config, events, latencies: RoundLatencies | None = None,
                 speed: SpeedTrack | None = None) -> Pass:
    """Step every event into a fresh estimator.  With ``latencies`` and
    ``speed``, each ``step`` is timed, and every WINDOW steps a reference
    reading closes a latency round.  Bookkeeping for the checks stays O(1)
    per step."""
    result = Pass()
    totals, changes = result.totals, result.changes
    clock = time.perf_counter_ns
    est = estimators.make_estimator(config)
    step = est.step
    previous = None
    lat = latencies.current if latencies is not None else None
    for first in range(0, len(events), WINDOW):
        start = time.perf_counter()
        for i in range(first, min(first + WINDOW, len(events))):
            if lat is None:
                record = step(events[i])
            else:
                begin = clock()
                record = step(events[i])
                lat.append(clock() - begin)
            totals[i] = record.total
            if record.active_levels != previous:
                previous = record.active_levels
                changes.append((record.t, previous))
        wall = time.perf_counter() - start
        result.wall += wall
        if speed is not None:
            scale = speed.scale()
            result.ref_wall += wall * scale
            if latencies is not None:
                latencies.end_round(scale)
    result.final = record.estimate
    return result


def pass_problems(result: Pass, schedule) -> list[str]:
    activations, problems = checks.activations_from(result.changes)
    return problems + checks.check_full_pass(result.totals, activations, *schedule)


def companion_problems(estimators, events, seed: int) -> list[str]:
    """A noiseless, unclipped pass over a prefix equals
    ``oracles.noiseless_estimates`` step for step."""
    prefix = events[:COMPANION_EVENTS]
    config = config_for(derive(seed, 3), eps=COMPANION_EPS, noise_override=0.0, clip_disabled=True)
    est = estimators.make_estimator(config)
    records = [est.step(ev) for ev in prefix]
    expected = oracles.noiseless_estimates(
        prefix, "full", n=PARAMS["n"], m=PARAMS["m"], eps=COMPANION_EPS, delta=PARAMS["delta"]
    )
    problems = checks.check_steps(records, expected, "noiseless full companion")
    if 3 not in records[-1].active_levels:
        problems.append(f"companion prefix activated only levels {records[-1].active_levels}")
    return problems


def timed(seed: int, seconds: float) -> Outcome:
    from contmean import estimators

    out = Outcome()
    workdir = fresh_dir("online-skewed")
    out.metric("setup_s", measure_setup({"config": dict(PARAMS, algorithm="full", seed=seed)}, workdir), "s")

    events = make_events(seed)
    schedule = checks.full_schedule([ev.user for ev in events], PARAMS["m"], PARAMS["eps"], PARAMS["delta"])
    latencies = RoundLatencies()
    speed = SpeedTrack()
    rates, raw_rates, finals = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        config = config_for(derive(seed, 2, len(rates)))
        result = step_through(estimators, config, events, latencies, speed)
        out.attempted += T
        raw_rates.append(T / result.wall)
        rates.append(T / result.ref_wall)
        finals.append(result.final)
        out.extend(f"pass {len(rates)}: {p}" for p in pass_problems(result, schedule))
        del result
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB")
    out.metric("events_per_s", statistics.median(rates), "1/s")
    out.metric("step_p50_us", latencies.p50_us(), "us")
    out.metric("step_p99_us", latencies.p99_us(), "us")
    out.notes.update(passes=len(rates), steps=latencies.steps, step_max_us=latencies.max_us,
                     raw_pass_rates=[round(r) for r in raw_rates],
                     speed_scales=[round(f, 3) for f in speed.scales],
                     abs_dev_final=[abs(x - MU) for x in finals])
    out.extend(companion_problems(estimators, events, seed))
    return out


def traced(seed: int) -> Outcome:
    """One pass untraced, traced, and traced with the diversity flag off;
    then the same pass under tracemalloc for the estimator's state."""
    from contmean import estimators

    out = Outcome()
    events = make_events(seed)
    schedule = checks.full_schedule([ev.user for ev in events], PARAMS["m"], PARAMS["eps"], PARAMS["delta"])
    config = config_for(derive(seed, 2, 0))

    def one_pass(config) -> Pass:
        out.attempted += T
        return step_through(estimators, config, events)

    run = run_traced(lambda traced: one_pass(config), lambda: one_pass(config_for(config.seed, track_diversity=False)))
    for label, result in (("plain", run.plain), ("traced", run.traced)):
        out.extend(f"{label}: {p}" for p in pass_problems(result, schedule))
    if run.traced.final != run.plain.final:
        out.problem("tracing changed the published estimates")
    report_layers(
        out,
        run,
        state_kib=state_kib(estimators, config, events),
        trace_bytes=0,
        abs_dev_final=abs(run.plain.final - MU),
    )
    out.extend(companion_problems(estimators, events, seed))
    return out
