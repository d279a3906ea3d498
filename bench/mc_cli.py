"""Workload ``mc-cli``: the researcher's Monte-Carlo loop through the CLI.

Each round calls ``contmean run`` in-process, through ``cli.main`` with an
argv, on two specs: ``naive`` (one Laplace draw and one counter query per
event) and ``multi`` (withhold-release into one counter per level), both at
n=200, m=64, T=8192, eps=1, delta=0.1 under ``uniform_random`` ordering,
with trace CSVs written.  The spec seeds come from the benchmark seed and
the round number.  Every multi step is faster than every naive step, so
the trial counts are unequal on purpose: the median step then falls inside
naive's latency distribution rather than in the gap between the two.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import checks
from common import OUT, Outcome, SpeedTrack, bernoulli, derive, fresh_dir, measure_setup, peak_rss_mib, rng_for
from tracing import RoundLatencies, report_layers, run_traced, state_kib, time_steps, untime_steps

PARAMS = dict(n=200, m=64, T=8192, eps=1.0, delta=0.1)
MU = 0.5
CHECKPOINTS = (1024, 2048, 4096, 8192)
TRIALS = {"naive": 3, "multi": 2}


def spec_for(algorithm: str, seed: int, **overrides) -> dict:
    spec = dict(
        PARAMS,
        algorithm=algorithm,
        seed=seed,
        mu=MU,
        ordering="uniform_random",
        trials=TRIALS[algorithm],
        checkpoints=list(CHECKPOINTS),
    )
    if algorithm == "multi":
        spec["prior"] = MU
    spec.update(overrides)
    return spec


def write_round(base: Path, seed: int, rnd: int, **overrides) -> list[list[str]]:
    """Write one round's spec files; return the ``contmean`` argvs."""
    argvs = []
    for algorithm in TRIALS:
        name = f"round_{rnd:03d}_{algorithm}"
        spec_path = base / f"{name}.json"
        spec_path.write_text(json.dumps(spec_for(algorithm, derive(seed, 1, rnd), **overrides)))
        argvs.append(["run", "--spec", str(spec_path), "--out", str(base / name)])
    return argvs


def call_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_round(base: Path, rnd: int) -> tuple[list[str], dict]:
    """Trace and summary checks for one round's output directories; also
    returns the summary rows recomputed from the traces, per algorithm."""
    problems, summaries = [], {}
    for algorithm, trials in TRIALS.items():
        out_dir = base / f"round_{rnd:03d}_{algorithm}"
        traces = []
        for trial in range(trials):
            path = out_dir / f"trace_{trial:04d}.csv"
            rows = checks.read_csv(path, checks.TRACE_COLUMNS)
            found = checks.check_trace(rows, algorithm, PARAMS["n"], PARAMS["m"], PARAMS["T"])
            problems += [f"{out_dir.name}/{path.name}: {p}" for p in found]
            traces.append(rows)
        recomputed = checks.summary_from_traces(traces, CHECKPOINTS, MU)
        summary = checks.read_csv(out_dir / "summary.csv", checks.SUMMARY_COLUMNS)
        problems += [f"{out_dir.name}/summary.csv: {p}" for p in checks.check_summary(summary, recomputed)]
        summaries[algorithm] = recomputed
    return problems, summaries


def companion_problems(seed: int) -> list[str]:
    """Noiseless, unclipped naive and multi runs over a stream the benchmark
    draws itself must publish the running mean of the released samples."""
    from contmean.estimators import EstimatorConfig, make_estimator
    from contmean.streams import StreamEvent

    n, m, T = PARAMS["n"], PARAMS["m"], PARAMS["T"]
    rng = rng_for(seed, 2)
    users = (rng.permutation(n * m)[:T] // m + 1).tolist()
    values = bernoulli(rng, T, MU).tolist()
    events = [StreamEvent(t + 1, u, x) for t, (u, x) in enumerate(zip(users, values))]
    problems = []
    for algorithm in TRIALS:
        config = EstimatorConfig(
            algorithm, n=n, m=m, eps=PARAMS["eps"], delta=PARAMS["delta"], T=T,
            prior=MU if algorithm == "multi" else None, seed=derive(seed, 3),
            noise_override=0.0, clip_disabled=True,
        )
        est = make_estimator(config)
        records = [est.step(ev) for ev in events]
        expected = checks.running_released_mean(users, values, algorithm)
        problems += checks.check_steps(records, expected, f"noiseless {algorithm} companion")
    return problems


def timed(seed: int, seconds: float) -> Outcome:
    from contmean import cli, estimators

    out = Outcome()
    probe_dir = fresh_dir("mc-cli-setup")
    out.metric("setup_s", measure_setup({"cli": write_round(probe_dir, seed, 0)}, probe_dir), "s")

    base = fresh_dir("mc-cli")
    latencies = RoundLatencies()
    events_per_round = sum(TRIALS.values()) * PARAMS["T"]
    rates, raw_rates, rnd = [], [], 0
    undo = time_steps(latencies, estimators)
    speed = SpeedTrack()
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            busy = 0.0
            for argv in write_round(base, seed, rnd):
                start = time.perf_counter()
                code = call_cli(cli, argv)
                busy += time.perf_counter() - start
                out.attempted += 1
                if code != 0:
                    out.failed += 1
                    out.problem(f"round {rnd}: contmean {' '.join(argv)} exited {code}")
            scale = speed.scale()
            raw_rates.append(events_per_round / busy)
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

    for r in range(rnd):
        out.extend(check_round(base, r)[0])
    out.extend(companion_problems(seed))
    return out


def traced(seed: int) -> Outcome:
    """Round 0 untraced, traced, and traced with the diversity flag off;
    then one multi trial under tracemalloc for the estimator's state."""
    from contmean import cli, estimators
    from contmean.streams import OrderingSpec, generate

    out = Outcome()

    def one_round(label: str, **overrides) -> Path:
        base = fresh_dir("mc-cli-trace", label)
        codes = [call_cli(cli, argv) for argv in write_round(base, seed, 0, **overrides)]
        out.attempted += len(codes)
        out.failed += sum(code != 0 for code in codes)
        return base

    run = run_traced(
        lambda traced: one_round("traced" if traced else "plain"),
        lambda: one_round("nodiv", track_diversity=False),
    )
    summaries = {}
    for label in ("plain", "traced", "nodiv"):
        problems, summaries[label] = check_round(OUT / "mc-cli-trace" / label, 0)
        out.extend(f"{label}: {p}" for p in problems)
    if summaries["traced"] != summaries["plain"]:
        out.problem("tracing changed the published estimates")

    config = estimators.EstimatorConfig(
        "multi", n=PARAMS["n"], m=PARAMS["m"], eps=PARAMS["eps"], delta=PARAMS["delta"],
        T=PARAMS["T"], prior=MU, seed=derive(seed, 4),
    )
    events = generate(MU, PARAMS["n"], PARAMS["m"], PARAMS["T"], OrderingSpec("uniform_random"), derive(seed, 5))
    report_layers(
        out,
        run,
        state_kib=state_kib(estimators, config, events),
        trace_bytes=sum(p.stat().st_size for p in run.traced.glob("round_*/trace_*.csv")),
        abs_dev_final=summaries["plain"]["multi"][-1][1],
    )
    out.extend(companion_problems(seed))
    return out
