"""The benchmark's output checks accept real program output and reject it
once corrupted.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from contmean import cli, harness  # noqa: E402
from contmean.estimators import EstimatorConfig, make_estimator  # noqa: E402
from contmean.streams import StreamEvent, write_stream  # noqa: E402

SMALL = dict(n=10, m=8, T=64, eps=1.0, delta=0.1)
CHECKPOINTS = [16, 32, 64]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Real ``contmean run`` output for naive and multi."""
    base = tmp_path_factory.mktemp("run")
    for algorithm in ("naive", "multi"):
        spec = dict(SMALL, algorithm=algorithm, seed=3, mu=0.5, ordering="uniform_random",
                    trials=5, checkpoints=CHECKPOINTS)
        if algorithm == "multi":
            spec["prior"] = 0.5
        spec_path = base / f"{algorithm}.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["run", "--spec", str(spec_path), "--out", str(base / algorithm)]) == 0
    return base


def traces(run_dir, algorithm):
    return [checks.read_csv(p, checks.TRACE_COLUMNS) for p in sorted((run_dir / algorithm).glob("trace_*.csv"))]


def summary(run_dir, algorithm):
    return checks.read_csv(run_dir / algorithm / "summary.csv", checks.SUMMARY_COLUMNS)


def corrupt(rows, index, column, change):
    rows = [list(r) for r in rows]
    rows[index][column] = change(rows[index][column])
    return rows


@pytest.mark.parametrize("algorithm", ["naive", "multi"])
def test_trace_check_accepts_real_traces(run_dir, algorithm):
    for rows in traces(run_dir, algorithm):
        assert checks.check_trace(rows, algorithm, SMALL["n"], SMALL["m"], SMALL["T"]) == []


@pytest.mark.parametrize("algorithm", ["naive", "multi"])
@pytest.mark.parametrize(
    "column, change",
    [
        (3, lambda v: str(int(v) + 1)),  # total off by one
        (4, lambda v: str(int(v) + 1)),  # M_t off by one
        (0, lambda v: str(int(v) + 1)),  # t skips
    ],
)
def test_trace_check_rejects_corrupted_traces(run_dir, algorithm, column, change):
    rows = corrupt(traces(run_dir, algorithm)[0], 40, column, change)
    assert checks.check_trace(rows, algorithm, SMALL["n"], SMALL["m"], SMALL["T"])


def test_multi_total_is_not_the_naive_law(run_dir):
    rows = traces(run_dir, "multi")[0]
    assert checks.check_trace(rows, "naive", SMALL["n"], SMALL["m"], SMALL["T"])


@pytest.mark.parametrize("algorithm", ["naive", "multi"])
def test_summary_check_accepts_real_summary(run_dir, algorithm):
    recomputed = checks.summary_from_traces(traces(run_dir, algorithm), CHECKPOINTS, 0.5)
    assert checks.check_summary(summary(run_dir, algorithm), recomputed) == []


@pytest.mark.parametrize("column", [1, 2, 3])
def test_summary_check_rejects_nudged_statistic(run_dir, column):
    recomputed = checks.summary_from_traces(traces(run_dir, "multi"), CHECKPOINTS, 0.5)
    nudged = corrupt(summary(run_dir, "multi"), 1, column, lambda v: repr(float(v) * (1 + 1e-9)))
    assert checks.check_summary(nudged, recomputed)


def test_quantile_matches_numpy_definition():
    rng = np.random.default_rng(0)
    for size in (1, 2, 5, 8, 31):
        xs = rng.random(size).tolist()
        for q in (0.1, 0.5, 0.9):
            assert checks.quantile(xs, q) == pytest.approx(float(np.quantile(xs, q)), rel=1e-14)


def stream(n, m, T, seed):
    rng = np.random.default_rng(seed)
    users = (rng.permutation(n * m)[:T] // m + 1).tolist()
    values = (rng.random(T) < 0.5).astype(float).tolist()
    return [StreamEvent(t + 1, u, x) for t, (u, x) in enumerate(zip(users, values))]


@pytest.mark.parametrize("algorithm", ["naive", "multi"])
def test_running_mean_companion(algorithm):
    events = stream(SMALL["n"], SMALL["m"], SMALL["T"], 1)
    config = EstimatorConfig(algorithm, **SMALL, prior=0.5 if algorithm == "multi" else None,
                             noise_override=0.0, clip_disabled=True)
    est = make_estimator(config)
    records = [est.step(ev) for ev in events]
    expected = checks.running_released_mean([e.user for e in events], [e.value for e in events], algorithm)
    assert checks.check_steps(records, expected, algorithm) == []
    records[30] = dataclasses.replace(records[30], estimate=records[30].estimate + 1e-12)
    assert checks.check_steps(records, expected, algorithm)


def full_run(events, eps, **overrides):
    config = EstimatorConfig("full", n=200, m=16, eps=eps, delta=0.1, keep_trace=False, **overrides)
    est = make_estimator(config)
    return [est.step(ev) for ev in events]


def test_full_schedule_matches_noisy_run_and_oracle():
    events = stream(200, 16, 2000, 2)
    users = [e.user for e in events]
    records = full_run(events, 4.0)
    totals, activations = checks.full_schedule(users, 16, 4.0, 0.1)
    assert activations, "the stream should activate some level"
    seen, problems = checks.activations_from((r.t, r.active_levels) for r in records)
    assert problems == []
    assert checks.check_full_pass([r.total for r in records], seen, totals, activations) == []
    # the schedule agrees with the repository's oracle on a noiseless run
    import oracles

    noiseless = full_run(events, 4.0, noise_override=0.0, clip_disabled=True)
    expected = oracles.noiseless_estimates(events, "full", n=200, m=16, eps=4.0, delta=0.1)
    assert checks.check_steps(noiseless, expected, "full") == []
    assert [total for _, total in expected] == totals

    bumped = [r.total for r in records]
    bumped[1500] += 1
    assert checks.check_full_pass(bumped, seen, totals, activations)
    assert checks.check_full_pass([r.total for r in records], seen[1:], totals, activations)


def test_shrinking_active_levels_is_reported():
    _, problems = checks.activations_from([(1, (0, 1)), (5, (0, 1, 2)), (9, (0, 1))])
    assert problems


def grid_report(algorithm):
    config = EstimatorConfig(algorithm, n=3, m=4, eps=1.0, delta=0.1, T=6,
                             prior=0.5 if algorithm in ("single", "multi") else None)
    report = harness.audit_value_grid(config, (1, 2, 1, 3, 1, 1), 1)
    return report, checks.calibrated_bounds(make_estimator(config))


@pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
def test_audit_check_accepts_real_reports(algorithm):
    report, bounds = grid_report(algorithm)
    assert checks.check_audit(report, bounds) == []


@pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
def test_audit_check_rejects_bound_below_observed_shift(algorithm):
    report, bounds = grid_report(algorithm)
    i = max(range(len(bounds)), key=lambda k: report.mechanisms[k].l1_shift)
    shift = report.mechanisms[i].l1_shift
    assert shift > 0
    # the calibration paid for less than the auditor observed
    shrunk = list(bounds)
    shrunk[i] = shift / 2
    assert checks.check_audit(report, shrunk)
    # the report states a bound below its own observed shift
    mechanisms = list(report.mechanisms)
    mechanisms[i] = dataclasses.replace(mechanisms[i], l1_bound=shift / 2)
    assert checks.check_audit(dataclasses.replace(report, mechanisms=tuple(mechanisms)), bounds)


def test_cli_audit_check(tmp_path, capsys):
    events = stream(4, 6, 20, 3)
    path = tmp_path / "stream.csv"
    write_stream(events, path)
    spec = dict(algorithm="multi", n=4, m=6, eps=1.0, delta=0.1, prior=0.5, stream=str(path),
                changed_user=events[0].user)
    spec_path = tmp_path / "audit.json"
    spec_path.write_text(json.dumps(spec))
    capsys.readouterr()
    code = cli.main(["audit", "--spec", str(spec_path)])
    printed = capsys.readouterr().out
    config = EstimatorConfig("multi", n=4, m=6, eps=1.0, delta=0.1, prior=0.5)
    report = harness.audit_sensitivity(config, events, events[0].user)
    assert checks.check_cli_audit(code, printed, report) == []
    assert checks.check_cli_audit(3, printed, report)
    lines = printed.strip().splitlines()
    lines[-1] = lines[-1].replace(" l1=", " l1=1")
    assert checks.check_cli_audit(code, "\n".join(lines), report)
    assert checks.check_cli_audit(code, "\n".join(lines[:-1]), report)
