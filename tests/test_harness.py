"""Experiment runner, sweeps, sensitivity audits, CLI."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contmean import cli, estimators, harness
from contmean.cli import build_parser, main
from contmean.estimators import (
    EstimatorConfig,
    OrderingError,
    full_noise_scale,
    make_estimator,
    multi_noise_scale,
    naive_noise_scale,
    privacy_table,
    single_noise_scale,
    wishful_noise_scale,
)
from contmean.harness import (
    ExperimentSpec,
    audit_sensitivity,
    audit_value_grid,
    run,
    sweep,
)
from contmean.streams import OrderingSpec, StreamEvent, generate, write_stream
from oracles import (
    audit_config,
    partial_sums,
    reference_audit_sensitivity,
    reference_audit_value_grid,
    reference_trace_csv,
)


def spec_for(algorithm="naive", *, n=4, m=8, eps=1.0, trials=2, checkpoints=(4, 16), **kw):
    T = kw.pop("T", max(checkpoints))
    prior = 0.5 if algorithm in ("wishful", "single", "multi") else None
    config = EstimatorConfig(
        algorithm=algorithm,
        n=n,
        m=m,
        eps=eps,
        delta=0.1,
        T=T if algorithm in ("naive", "wishful") else None,
        prior=prior,
        seed=kw.pop("seed", 5),
        **kw,
    )
    return ExperimentSpec(
        config=config,
        mu=0.5,
        ordering=OrderingSpec("round_robin"),
        trials=trials,
        checkpoints=tuple(checkpoints),
    )


class TestRun:
    def test_noiseless_mu_one_gives_zero_error(self, tmp_path):
        spec = spec_for("naive", noise_override=0.0)
        spec = ExperimentSpec(
            config=spec.config,
            mu=1.0,
            ordering=spec.ordering,
            trials=1,
            checkpoints=spec.checkpoints,
        )
        summary = run(spec, tmp_path)
        assert all(err == 0.0 for err in summary.median_abs_error)

    def test_same_seed_byte_identical_summaries(self, tmp_path):
        spec = spec_for("multi", trials=3)
        run(spec, tmp_path / "a")
        run(spec, tmp_path / "b")
        assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()

    def test_trace_files_written_per_trial(self, tmp_path):
        spec = spec_for("single", trials=3)
        summary = run(spec, tmp_path)
        assert len(summary.trace_paths) == 3
        header = summary.trace_paths[0].read_text().splitlines()[0]
        assert header == "t,user,estimate,total,M_t,flags"

    def test_in_memory_run_writes_nothing(self):
        summary = run(spec_for("naive"), out_dir=None)
        assert summary.summary_path is None and summary.trace_paths == ()

    def test_error_columns_nonnegative(self, tmp_path):
        summary = run(spec_for("multi", trials=4), tmp_path)
        for row in summary.rows():
            assert all(x >= 0 for x in row[1:])

    def test_checkpoint_beyond_stream_rejected(self):
        spec = spec_for("naive", checkpoints=(4, 16))
        object.__setattr__(spec, "stream_len", 8)
        with pytest.raises(ValueError):
            run(spec)


class TestSpecFields:
    """Trials, checkpoints and the stream length are counts of events."""

    BAD = [
        ("trials", 2.0), ("trials", True), ("checkpoints", (4, 8.5)), ("checkpoints", (8.0,)),
        ("checkpoints", (True, 4)), ("stream_len", 16.0), ("stream_len", False), ("trials", "2"),
    ]

    @pytest.mark.parametrize("field,value", BAD)
    def test_non_integer_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: "):
            dataclasses.replace(spec_for("naive"), **{field: value})

    def test_numpy_integers_accepted(self):
        spec = dataclasses.replace(
            spec_for("naive", T=16), trials=np.int64(2), checkpoints=(np.int32(16), 4), stream_len=np.int64(16)
        )
        assert spec.checkpoints == (4, 16)
        assert run(spec).median_abs_error == run(spec_for("naive", T=16)).median_abs_error

    @pytest.mark.parametrize("field,value", [(f, v) for f, v in BAD if not isinstance(v, tuple)] + [
        ("checkpoints", [4, 8.5]), ("checkpoints", [1024.0]), ("checkpoints", [True]),
    ])
    def test_cli_exit_code_two(self, tmp_path, capsys, field, value):
        run_spec = {
            "algorithm": "naive", "n": 4, "m": 256, "eps": 1.0, "delta": 0.1, "T": 1024,
            "mu": 0.5, "ordering": "round_robin", "trials": 1, "checkpoints": [4], field: value,
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert f"precondition violation: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [("T", 8.5), ("m", 4.0), ("n", 4.0), ("n", True), ("seed", 2.5)])
    def test_cli_config_non_integer_exit_code_two(self, tmp_path, capsys, field, value):
        # T = 8.5 used to run, calibrated with log2(8.5), and m = 4.0 to exit
        # with a TypeError's text
        run_spec = {
            "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1, "T": 16,
            "mu": 0.5, "ordering": "round_robin", "trials": 1, "checkpoints": [4], field: value,
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert f"precondition violation: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_bool_prior_exit_code_two(self, tmp_path, capsys):
        # it used to run and write ``True`` as the estimate of every row
        # before the first release
        run_spec = {
            "algorithm": "wishful", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1, "T": 16, "prior": True,
            "mu": 0.5, "ordering": "contiguous", "trials": 1, "checkpoints": [4],
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert "precondition violation: prior: True is not a real number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mu", [True, False, "0.5", None])
    def test_non_real_mu_rejected(self, mu):
        # ``True`` used to run, draw every value as 1 and measure errors against it
        with pytest.raises(ValueError, match=f"^mu: {mu!r} is not a real number"):
            dataclasses.replace(spec_for("naive"), mu=mu)

    @pytest.mark.parametrize("mu", [0, 1, 0.25, np.float64(0.5)])
    def test_real_mu_accepted(self, mu):
        assert dataclasses.replace(spec_for("naive"), mu=mu).mu == mu

    def test_cli_bool_mu_exit_code_two(self, tmp_path, capsys):
        run_spec = {
            "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1, "T": 16,
            "mu": True, "ordering": "round_robin", "trials": 1, "checkpoints": [4],
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert "precondition violation: mu: True is not a real number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ordering_must_be_an_ordering_spec(self):
        # it used to fail mid-run with an AttributeError
        with pytest.raises(ValueError, match="^ordering: 'round_robin' is not an OrderingSpec"):
            dataclasses.replace(spec_for(), ordering="round_robin")

    @pytest.mark.parametrize("prefix_len", [0, -1, 2.5])
    def test_cli_prefix_len_exit_code_two(self, tmp_path, capsys, prefix_len):
        run_spec = {
            "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1, "T": 16, "mu": 0.5,
            "ordering": "single_user_prefix", "prefix_len": prefix_len, "trials": 1, "checkpoints": [4],
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        out = tmp_path / "stream.csv"
        assert main(["generate", "--mu", "0.5", "--n", "4", "--m", "8", "--T", "16",
                     "--ordering", "single_user_prefix", "--prefix-len", "0", "--out", str(out)]) == 2
        assert not out.exists()
        assert "precondition violation: prefix_len must be a positive integer" in capsys.readouterr().err


def replay_spec(algorithm, checkpoints, stream_len=None):
    """A three-trial spec over n=4 users of m=8 samples; ``wishful`` gets
    the user-contiguous ordering it needs."""
    spec = spec_for(algorithm, trials=3, checkpoints=checkpoints, T=stream_len or max(checkpoints))
    ordering = OrderingSpec("contiguous" if algorithm == "wishful" else "uniform_random")
    return dataclasses.replace(spec, ordering=ordering, stream_len=stream_len)


def replay(spec):
    """Each trial of ``spec`` stepped event by event, as a plain loop:
    (per-trial checkpoint errors, per-trial records)."""
    errors, traces = [], []
    for trial in range(spec.trials):
        events = generate(
            spec.mu, spec.config.n, spec.config.m, spec.length, spec.ordering,
            harness._child_seed(spec.config.seed, 3, trial),
        )
        est = make_estimator(dataclasses.replace(spec.config, seed=harness._child_seed(spec.config.seed, 4, trial)))
        records = [est.step(ev) for ev in events]
        errors.append([abs(records[t - 1].estimate - spec.mu) for t in spec.checkpoints])
        traces.append(records)
    return errors, traces


class TestRunOracle:
    """``run`` against a plain replay of the same seeded trials."""

    CASES = {
        "duplicate checkpoints, one at the stream's end": dict(checkpoints=(16, 4, 16, 32)),
        "stream past the last checkpoint": dict(checkpoints=(1, 5, 12), stream_len=32),
        "one checkpoint, stream past it": dict(checkpoints=(7, 7), stream_len=20),
        # ``chunk`` sets how many records a trial is stepped into at once
        "a chunk per record": dict(chunk=1, checkpoints=(1, 2, 32)),
        "checkpoints on and just past chunk edges": dict(chunk=5, checkpoints=(5, 10, 11), stream_len=32),
        "checkpoints off chunk edges, stream ending mid-chunk": dict(chunk=5, checkpoints=(3, 3, 14, 22)),
        "stream of several chunks, ending on an edge": dict(chunk=8, checkpoints=(8, 16, 32)),
        "stream of one chunk, past the last checkpoint": dict(chunk=32, checkpoints=(7, 31), stream_len=32),
        "stream shorter than a chunk": dict(chunk=64, checkpoints=(9, 20), stream_len=32),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("algorithm", ["naive", "wishful", "single", "multi", "full"])
    def test_run_equals_replay(self, tmp_path, monkeypatch, algorithm, case):
        params = dict(self.CASES[case])
        monkeypatch.setattr(harness, "_TRACE_CHUNK", params.pop("chunk", harness._TRACE_CHUNK))
        spec = replay_spec(algorithm, **params)
        errors, traces = replay(spec)
        expected = (
            tuple(float(x) for x in np.median(errors, axis=0)),
            tuple(float(x) for x in np.quantile(errors, 0.1, axis=0)),
            tuple(float(x) for x in np.quantile(errors, 0.9, axis=0)),
        )
        runs = {
            "traced": run(spec, tmp_path / "traced"),
            "untraced": run(spec, tmp_path / "untraced", write_traces=False),
            "in memory": run(spec, out_dir=None),
        }
        for label, summary in runs.items():
            got = (summary.median_abs_error, summary.q10_abs_error, summary.q90_abs_error)
            assert summary.checkpoints == tuple(sorted(self.CASES[case]["checkpoints"])), label
            assert got == expected, label
        paths = runs["traced"].trace_paths
        assert [p.name for p in paths] == [f"trace_{i:04d}.csv" for i in range(spec.trials)]
        for path, records in zip(paths, traces):
            assert path.read_bytes() == reference_trace_csv(records)
        assert runs["untraced"].trace_paths == () and runs["in memory"].trace_paths == ()
        assert not list((tmp_path / "untraced").glob("trace_*.csv"))
        assert (tmp_path / "untraced" / "summary.csv").read_bytes() == (
            tmp_path / "traced" / "summary.csv"
        ).read_bytes()


class TestChunkedTraces:
    """A trial is stepped one chunk of records at a time, and a traced
    trial writes each chunk's rows before it steps on."""

    def test_a_traced_trial_holds_one_chunk_of_records(self, tmp_path, monkeypatch):
        # a trial that kept every record would hold 2^16 of them, about
        # 12 MB, as its stream is freed; the peak counts from the stream's
        # generation on, after a warm-up run fills the module caches
        spec = spec_for("naive", n=1024, m=64, trials=1, checkpoints=(1, 1 << 15, 1 << 16))

        def generate_then_reset(*args):
            events = generate(*args)
            tracemalloc.reset_peak()
            return events

        monkeypatch.setattr(harness, "generate", generate_then_reset)

        def stepping_to_first_record(config):
            # the baseline: every step returns the trial's first record, so
            # however many a run holds, they take no memory.  ``run`` reads
            # only ``step`` of an estimator
            step, first = make_estimator(config).step, []

            def step_to_first(event):
                record = step(event)
                if not first:
                    first.append(record)
                return first[0]

            return SimpleNamespace(step=step_to_first)

        def peak(out_dir, write_traces):
            tracemalloc.start()
            try:
                run(spec, out_dir, write_traces=write_traces)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(spec, out_dir=None)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "make_estimator", stepping_to_first_record)
            baseline = peak(tmp_path / "baseline", False)
        traced = peak(tmp_path / "traced", True)
        assert traced - baseline <= harness._TRACE_CHUNK * 200 + (256 << 10)

    def test_an_untraced_trial_holds_one_chunk_of_records(self, monkeypatch):
        # the twin of the traced test: a trial that drains its records
        # without writing them holds one chunk of them too
        spec = spec_for("naive", n=1024, m=64, trials=1, checkpoints=(1, 1 << 15, 1 << 16))

        def generate_then_reset(*args):
            events = generate(*args)
            tracemalloc.reset_peak()
            return events

        monkeypatch.setattr(harness, "generate", generate_then_reset)

        def stepping_to_first_record(config):
            step, first = make_estimator(config).step, []

            def step_to_first(event):
                record = step(event)
                if not first:
                    first.append(record)
                return first[0]

            return SimpleNamespace(step=step_to_first)

        def peak():
            tracemalloc.start()
            try:
                run(spec, out_dir=None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(spec, out_dir=None)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "make_estimator", stepping_to_first_record)
            baseline = peak()
        assert peak() - baseline <= harness._TRACE_CHUNK * 200 + (256 << 10)

    def test_a_failed_trial_leaves_no_trace(self, tmp_path, monkeypatch):
        # the second trial's step raises at t = 8, after two chunks of 3
        # records are written
        monkeypatch.setattr(harness, "_TRACE_CHUNK", 3)
        built = []

        def make_failing(config):
            # ``run`` reads only ``step`` of an estimator
            est = make_estimator(config)
            built.append(est)
            if len(built) == 2:
                step = est.step

                def step_until_eight(event):
                    if event.t == 8:
                        raise RuntimeError("step failed")
                    return step(event)

                return SimpleNamespace(step=step_until_eight)
            return est

        monkeypatch.setattr(harness, "make_estimator", make_failing)
        with pytest.raises(RuntimeError, match="step failed"):
            run(spec_for("multi", trials=3), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace_0000.csv"]

    def test_an_ordering_error_leaves_no_trace(self, tmp_path, monkeypatch):
        # user 2 arrives at t = 8 while user 1's batch is open
        monkeypatch.setattr(harness, "_TRACE_CHUNK", 3)
        spec = dataclasses.replace(
            spec_for("wishful", trials=1, checkpoints=(4, 16)),
            ordering=OrderingSpec("single_user_prefix", prefix_len=7),
        )
        with pytest.raises(estimators.OrderingError):
            run(spec, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_grid_of_one_matches_run(self, tmp_path):
        base = spec_for("naive", trials=2)
        results = sweep(base, {"eps": [1.0]}, tmp_path)
        assert len(results) == 1
        direct = run(base)
        assert results[0][1].median_abs_error == direct.median_abs_error

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(spec_for(), {})
        with pytest.raises(ValueError):
            sweep(spec_for(), {"eps": []})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep key"):
            sweep(spec_for(), {"zeta": [1]})

    def test_ordering_kinds_rejected_before_any_trial(self, tmp_path, monkeypatch):
        # sweeping orderings is not supported: a grid value is a kind
        # string, not an OrderingSpec
        monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a grid point ran"))
        with pytest.raises(ValueError, match="^ordering: 'round_robin' is not an OrderingSpec"):
            sweep(spec_for(), {"ordering": ["round_robin", "contiguous"]}, tmp_path)

    def test_privacy_error_decreases_with_eps(self):
        # median error at the final checkpoint shrinks as the budget grows
        base = spec_for("naive", n=8, m=64, trials=40, checkpoints=(64,), T=64)
        results = sweep(base, {"eps": [0.5, 2.0, 8.0]})
        finals = [summary.median_abs_error[-1] for _, summary in results]
        assert finals[0] > finals[1] > finals[2]

    @pytest.mark.parametrize("numpy_priors, priors", [
        (np.linspace(0.25, 0.75, 2), [0.25, 0.75]),
        (np.array([0, 1]), [0, 1]),
    ])
    def test_numpy_prior_traces_as_python_number(self, tmp_path, numpy_priors, priors):
        # an np.float64 prior used to be published, and written, as
        # ``np.float64(0.25)``; an int prior is still published as given
        base = dataclasses.replace(
            spec_for("wishful", trials=1, checkpoints=(4, 16)), ordering=OrderingSpec("contiguous")
        )
        sweep(base, {"prior": numpy_priors}, tmp_path / "numpy", write_traces=True)
        sweep(base, {"prior": priors}, tmp_path / "python", write_traces=True)
        traces = sorted((tmp_path / "numpy").glob("point_*/trace_*.csv"))
        assert len(traces) == 2
        for path in traces:
            assert path.read_bytes() == (tmp_path / "python" / path.relative_to(tmp_path / "numpy")).read_bytes()

    def test_combined_csv_layout(self, tmp_path):
        base = spec_for("naive", trials=1, checkpoints=(4,))
        sweep(base, {"eps": [0.5, 1.0]}, tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,t,median_abs_error,q10_abs_error,q90_abs_error"
        assert len(lines) == 3


def flip_stream(users, values):
    return [StreamEvent(t=i + 1, user=u, value=v) for i, (u, v) in enumerate(zip(users, values))]


class TestAudit:
    def test_identical_streams_zero_diff(self):
        # user 3 never appears, so the only neighbor is the stream itself
        config = EstimatorConfig(algorithm="naive", n=3, m=2, eps=1, delta=0.1, T=4)
        stream = flip_stream([1, 2, 1, 2], [0.0, 1.0, 1.0, 0.0])
        report = audit_sensitivity(config, stream, changed_user=3)
        assert report.changed_partial_sum_count == 0
        assert report.max_l1_shift == 0.0
        assert report.passed

    def test_naive_small_instance_bounds(self):
        # n=2, m=2, T=4: flipping both samples of user 1 moves few entries,
        # each by at most 1
        config = EstimatorConfig(algorithm="naive", n=2, m=2, eps=1, delta=0.1, T=4)
        stream = flip_stream([1, 2, 1, 2], [0.0, 0.0, 0.0, 0.0])
        report = audit_sensitivity(config, stream, changed_user=1)
        assert report.passed
        assert report.changed_partial_sum_count <= 2 * (1 + 2)
        assert report.max_l1_shift <= report.theoretical_bound

    def test_single_counter_exhaustive_small_instance(self):
        config = EstimatorConfig(
            algorithm="single", n=2, m=2, eps=1, delta=0.1, prior=0.5
        )
        report = audit_value_grid(config, [1, 2, 1, 2], changed_user=1)
        assert report.passed
        bound = (1 + math.log2(2)) * math.log2(1 + 2 * (1 + math.log2(2)))
        assert report.changed_partial_sum_count <= bound

    @pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
    def test_all_algorithms_pass_on_mixed_ordering(self, algorithm):
        config = EstimatorConfig(
            algorithm=algorithm,
            n=3,
            m=4,
            eps=1.0,
            delta=0.1,
            T=10 if algorithm == "naive" else None,
            prior=0.5 if algorithm in ("single", "multi") else None,
        )
        report = audit_value_grid(config, [1, 2, 2, 3, 1, 2, 2, 3, 1, 1], changed_user=2)
        assert report.passed, report

    @pytest.mark.parametrize("algorithm", ["naive", "wishful", "single", "multi", "full"])
    def test_plain_tuples_audit_as_events(self, algorithm):
        # an event is read by position, as ``step`` reads it
        config = EstimatorConfig(
            algorithm=algorithm, n=2, m=2, eps=1.0, delta=0.1,
            T=3 if algorithm in ("naive", "wishful") else None,
            prior=0.5 if algorithm in ("wishful", "single", "multi") else None,
        )
        users = [1, 1, 2] if algorithm == "wishful" else [1, 2, 1]
        events = flip_stream(users, [0.0, 1.0, 1.0])
        report = audit_sensitivity(config, [tuple(ev) for ev in events], 1)
        assert repr(report) == repr(audit_sensitivity(config, events, 1))

    @pytest.mark.parametrize("changed_user", [7, 0, 1.5, True])
    def test_changed_user_outside_the_stream_refused(self, changed_user, monkeypatch):
        # unchecked, users 7, 0 and 1.5 would audit nothing and pass, and
        # True would audit user 1
        config = EstimatorConfig(algorithm="multi", n=3, m=4, eps=1.0, delta=0.1, prior=0.5)
        users = [1, 2, 1, 3, 2, 1]

        def replay(*args):
            raise AssertionError("replayed before the changed user was checked")

        monkeypatch.setattr(harness, "_value_grid_runs", replay)
        with pytest.raises(ValueError, match="changed_user"):
            audit_value_grid(config, users, changed_user)
        with pytest.raises(ValueError, match="changed_user"):
            audit_sensitivity(config, flip_stream(users, [0.0] * len(users)), changed_user)

    def test_unknown_user_rejected(self):
        config = EstimatorConfig(algorithm="naive", n=2, m=2, eps=1, delta=0.1, T=2)
        with pytest.raises(ValueError):
            audit_sensitivity(config, flip_stream([1, 2], [0.0, 0.0]), changed_user=5)


@st.composite
def audit_cases(draw):
    """(config, events, changed user): n <= 4, m <= 8, at most 14 events."""
    algorithm = draw(st.sampled_from(["naive", "single", "multi", "full"]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 8))
    users, counts = [], {}
    length = draw(st.integers(0, 14))
    for u in draw(st.lists(st.integers(1, n), min_size=length, max_size=length)):
        if counts.get(u, 0) < m:
            counts[u] = counts.get(u, 0) + 1
            users.append(u)
    # tenths leave rounding residues in block sums, so a changed order of
    # additions shows in the shifts
    value = st.sampled_from([0.0, 1.0]) | st.integers(0, 10).map(lambda k: k / 10) | st.floats(0.0, 1.0)
    values = draw(st.lists(value, min_size=len(users), max_size=len(users)))
    config = EstimatorConfig(
        algorithm=algorithm, n=n, m=m, eps=draw(st.sampled_from([0.5, 1.0, 4.0])), delta=0.1,
        T=max(len(users), 1) if algorithm == "naive" else None,
        prior=0.5 if algorithm in ("single", "multi") else None,
        prior_override=draw(st.none() | st.floats(0.0, 1.0)) if algorithm == "full" else None,
    )
    return config, flip_stream(users, values), draw(st.integers(1, n))


@st.composite
def order_sensitive_cases(draw):
    """(config, events, changed user) whose l1 shifts show the order of
    additions: thousandths leave rounding residues in the partial sums.
    Either naive, whose one counter holds an entry per event, 8 to 20, and
    user 1's samples move overlapping runs of them; or multi at m = 256,
    with nine counters: user 1's 8 samples move the first four, and user
    2's 128 reach all but the last, so eight counters hold entries."""
    if draw(st.booleans()):
        config = EstimatorConfig(algorithm="naive", n=2, m=12, eps=1.0, delta=0.1, T=20)
        users = [1] * draw(st.integers(4, 8)) + [2] * draw(st.integers(4, 12))
    else:
        config = EstimatorConfig(algorithm="multi", n=2, m=256, eps=1.0, delta=0.1, prior=0.5)
        users = [1] * 8 + [2] * 128
    # drawn from a seed, so that every example has its own arrival order
    # and values; Hypothesis's own draws vary little between examples
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(users)
    values = [rng.randint(1, 999) / 1000 for _ in users]
    return config, flip_stream(users, values), 1


def _case(algorithm, users, changed_user, values=None, n=3, m=4):
    values = values or [(i % 3) / 2 for i in range(len(users))]
    config = EstimatorConfig(
        algorithm=algorithm, n=n, m=m, eps=1.0, delta=0.1,
        T=len(users) if algorithm == "naive" else None,
        prior=0.5 if algorithm in ("single", "multi") else None,
    )
    return config, flip_stream(users, values), changed_user


# naive's one counter holds an entry per event, here 10
WIDE_NAIVE = _case(
    "naive", [2, 1, 1, 1, 1, 2, 2, 2, 2, 1], 1, [0.1, 0.8, 0.5, 0.1, 0.8, 1.0, 0.2, 0.2, 0.2, 0.2], m=8
)
# multi at m = 256 has 9 counters; user 2's 130 samples reach all but the
# last, and user 1's 8 samples move the first four
MANY_COUNTERS = _case(
    "multi", [1, 1, 1, 1, 1, 1, 2, 2, 1, 2, 1] + [2] * 127, 1, [(i * 7 % 11) / 10 for i in range(138)], m=256
)


def contiguous_orderings(n, m):
    """Every user-contiguous ordering of users 1..n at cap m: distinct
    users one after another, each giving its m samples together, the last
    one possibly fewer."""
    for k in range(1, n + 1):
        for order in itertools.permutations(range(1, n + 1), k):
            for last in range(1, m + 1):
                yield [u for u in order[:-1] for _ in range(m)] + [order[-1]] * last


def wishful_config(users, m):
    return EstimatorConfig(algorithm="wishful", n=3, m=m, eps=1.0, delta=0.1, T=len(users), prior=0.5)


class TestWishfulAudit:
    """``wishful`` is audited like the other four on the arrival order it
    requires, and refuses any other."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reports_equal_reference_and_pass(self, m):
        for users in contiguous_orderings(3, m):
            config = wishful_config(users, m)
            events = flip_stream(users, [(i % 3) / 2 for i in range(len(users))])
            for changed_user in (1, 2, 3):
                for got, want in [
                    (audit_value_grid(config, users, changed_user),
                     reference_audit_value_grid(config, users, changed_user)),
                    (audit_sensitivity(config, events, changed_user),
                     reference_audit_sensitivity(config, events, changed_user)),
                ]:
                    assert repr(got) == repr(want)
                    assert got.passed, got

    def test_non_contiguous_ordering_refused(self):
        users = [1, 2, 1, 2]
        config = wishful_config(users, 2)
        with pytest.raises(OrderingError):
            audit_value_grid(config, users, 1)
        with pytest.raises(OrderingError):
            audit_sensitivity(config, flip_stream(users, [0.5] * len(users)), 1)

    def test_cli_audit_exits_zero(self, tmp_path, capsys):
        users = [2, 2, 2, 1, 1, 1, 3]
        stream_path = tmp_path / "s.csv"
        write_stream(flip_stream(users, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0]), stream_path)
        audit_spec = {
            "algorithm": "wishful", "n": 3, "m": 3, "eps": 1.0, "delta": 0.1, "T": len(users),
            "prior": 0.5, "stream": str(stream_path), "changed_user": 1,
        }
        spec_path = tmp_path / "audit.json"
        spec_path.write_text(json.dumps(audit_spec))
        assert main(["audit", "--spec", str(spec_path)]) == 0
        assert "passed=True" in capsys.readouterr().out


class TestAuditOracle:
    """The array comparison reports what the pair-at-a-time one does,
    every field and every float equal."""

    @staticmethod
    def assert_identical(got, want):
        assert got == want
        assert repr(got) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(audit_cases())
    @example(_case("multi", [1, 2, 1, 2, 1], 3))  # no sample: one variant, paired with itself
    @example(_case("full", [1, 2, 1, 3, 1], 2))  # one sample
    @example(_case("naive", [1, 2, 1, 3, 1], 3))
    @example(_case("single", [], 1))
    @example(_case("naive", [1, 3, 3, 3, 2, 3, 2, 1, 1], 1, [0.6, 0.9, 0.6, 0.5, 0.7, 1.0, 0.9, 0.8, 0.1]))
    # numpy sums a row of 8 or more entries pairwise: summed left to right,
    # this counter's l1 shift ends on another last bit
    @example(WIDE_NAIVE)
    def test_reports_equal_reference(self, case):
        config, events, changed_user = case
        users = [ev.user for ev in events]
        self.assert_identical(
            audit_value_grid(config, users, changed_user),
            reference_audit_value_grid(config, users, changed_user),
        )
        self.assert_identical(
            audit_sensitivity(config, events, changed_user),
            reference_audit_sensitivity(config, events, changed_user),
        )

    def test_sensitivity_adds_counters_in_order(self):
        # a pair's shift adds the counters one by one; with 8 counters
        # holding entries, pairwise addition over counters would end on
        # another last bit.  Only a stream with fractional values shows the
        # order: the value grid fixes the other users at 0.0, so its shifts
        # are exact.  The value-grid reference of this case is too slow for
        # ``test_reports_equal_reference``
        config, events, changed_user = MANY_COUNTERS
        self.assert_identical(
            audit_sensitivity(config, events, changed_user),
            reference_audit_sensitivity(config, events, changed_user),
        )

    @settings(max_examples=40, deadline=None)
    @given(order_sensitive_cases())
    def test_drawn_sensitivity_shows_summation_order(self, case):
        # no pinned example: drawn streams alone must tell a counter summed
        # left to right from 8 entries, or counters added pairwise, apart
        config, events, changed_user = case
        self.assert_identical(
            audit_sensitivity(config, events, changed_user),
            reference_audit_sensitivity(config, events, changed_user),
        )

    @pytest.mark.parametrize(
        "case, block",
        [
            # 32 runs of naive's one 10-entry counter: 3 left runs a tile
            (WIDE_NAIVE, 960),
            # 7 right runs a tile, the last tile of each row short
            (WIDE_NAIVE, 70),
            # one pair a tile, wider than the block
            (WIDE_NAIVE, 9),
            # 32 runs of multi's counters of 3, 2, 1 and 0 entries
            (_case("multi", [1, 2, 1, 3, 1, 1, 2, 1], 1, m=8), 960),
            (_case("multi", [1, 2, 1, 3, 1, 1, 2, 1], 1, m=8), 54),
        ],
    )
    def test_reports_equal_reference_across_tiles(self, case, block):
        config, events, changed_user = case
        users = [ev.user for ev in events]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BLOCK_ENTRIES", block)
            self.assert_identical(
                audit_value_grid(config, users, changed_user),
                reference_audit_value_grid(config, users, changed_user),
            )
            self.assert_identical(
                audit_sensitivity(config, events, changed_user),
                reference_audit_sensitivity(config, events, changed_user),
            )

    @settings(max_examples=40, deadline=None)
    @given(audit_cases())
    @example(_case("full", [1, 2, 1, 3, 1], 2))  # one pair: the indices built once
    @example(_case("multi", [1, 2, 1, 3, 1], 1, m=8))  # 28 pairs, built block by block
    def test_reports_equal_reference_in_small_blocks(self, case):
        # a few differences per block, so most audits cross block boundaries
        config, events, changed_user = case
        users = [ev.user for ev in events]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BLOCK_ENTRIES", 5)
            self.assert_identical(
                audit_value_grid(config, users, changed_user),
                reference_audit_value_grid(config, users, changed_user),
            )
            self.assert_identical(
                audit_sensitivity(config, events, changed_user),
                reference_audit_sensitivity(config, events, changed_user),
            )

    @staticmethod
    def assert_grid_fits(users, samples):
        config = EstimatorConfig(algorithm="multi", n=3, m=16, eps=1.0, delta=0.1, prior=0.5)
        assert users.count(2) == samples
        tracemalloc.start()
        try:
            report = audit_value_grid(config, users, changed_user=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 32 * 2**20

    def test_ten_sample_grid_memory(self):
        # 2^10 replays and 523,776 pairs; a Python list of the pairs alone
        # takes 33 MiB
        self.assert_grid_fits([2, 1, 2, 3] * 5, 10)

    def test_twelve_sample_grid_memory(self):
        # 2^12 replays and 8.4 M pairs, the most an audit attempts: the two
        # index arrays of every pair at once would take 128 MiB
        self.assert_grid_fits([2, 1, 2, 3] * 6, 12)


class TestAuditReplays:
    """Neighbor replays share their prefixes, and an oversized grid is
    refused before any replay."""

    def test_thirteen_samples_refused_before_any_replay(self, monkeypatch):
        config = EstimatorConfig(algorithm="multi", n=3, m=16, eps=1.0, delta=0.1, prior=0.5)
        users = [2, 1, 2, 3] * 6 + [2]
        assert users.count(2) == 13
        built = []
        monkeypatch.setattr(harness, "make_estimator", lambda cfg: built.append(cfg))
        with pytest.raises(ValueError, match="too large"):
            audit_value_grid(config, users, changed_user=2)
        with pytest.raises(ValueError, match="too large"):
            audit_sensitivity(config, flip_stream(users, [0.5] * len(users)), changed_user=2)
        assert built == []

    @pytest.mark.parametrize("algorithm", ["naive", "single", "multi", "full"])
    def test_row_mask_is_the_assignment(self, algorithm):
        # row ``mask`` holds the replay that gives the changed user's j-th
        # of k samples bit k - 1 - j of ``mask``, replayed here from t = 1
        config, events, changed = _case(algorithm, [2, 1, 2, 3, 1, 2, 2, 3, 1], 2, m=8)
        root, _ = harness._audit_root(config)
        assert root.config == audit_config(config)
        positions = [i for i, ev in enumerate(events) if ev.user == changed]
        runs = harness._value_grid_runs(root, events, positions)
        assert runs.sums.shape == (1 << len(positions), sum(runs.widths))
        ends = list(itertools.accumulate(runs.widths))
        for mask in range(1 << len(positions)):
            variant = list(events)
            for bit, pos in enumerate(positions):
                variant[pos] = variant[pos]._replace(value=float((mask >> (len(positions) - 1 - bit)) & 1))
            est = make_estimator(root.config)
            for mech in est.mechanisms:
                mech.store_nodes()  # as the auditor's root does
            est.run(variant)
            # counter i's partial sums fill the columns after counters 0..i-1
            for w, e, mech in zip(runs.widths, ends, est.mechanisms, strict=True):
                assert runs.sums[mask, e - w : e].tolist() == list(partial_sums(mech))

    def test_steps_follow_the_shared_prefixes(self, monkeypatch):
        # an event after c of the changed user's samples (its own included)
        # is stepped once per branch so far, 2^c times; every replay from
        # t = 1 would step each of the 6 events 2^k times
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import audit_grid

        steps = 0
        step = estimators._EstimatorBase.step

        def counted(est, event):
            nonlocal steps
            steps += 1
            return step(est, event)

        monkeypatch.setattr(estimators._EstimatorBase, "step", counted)
        pairs = audit_grid.grid_orderings(3)
        assert len(pairs) == 690
        config = audit_grid.config_for("full", 3, 4, 6)
        every_replay = 0
        for users, changed in pairs:
            before = steps
            audit_value_grid(config, users, changed)
            c = list(itertools.accumulate(u == changed for u in users))
            assert steps - before == sum(1 << ci for ci in c)
            every_replay += (1 << c[-1]) * len(users)
        assert (steps, every_replay) == (12_548, 22_074)

    def test_one_construction_per_audited_config(self, monkeypatch):
        # every walk starts from a copy of its config's cached root, which
        # stays as built: no audit steps it
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import audit_grid

        built = []
        make = harness.make_estimator

        def counted(config):
            built.append(config)
            return make(config)

        monkeypatch.setattr(harness, "make_estimator", counted)
        harness._audit_root.cache_clear()
        configs = [audit_grid.config_for(a, 3, 4, 6) for a in audit_grid.ALGORITHMS]
        for users, changed in audit_grid.grid_orderings(3):
            for config in configs:
                audit_value_grid(config, users, changed)
        assert built == [audit_config(config) for config in configs]
        for config in configs:
            (root, _), fresh = harness._audit_root(config), make(audit_config(config))
            assert (root.t, root.counts, root.ledger.pending) == (0, {}, {})
            assert [len(mech) for mech in root.mechanisms] == [0] * len(fresh.mechanisms)
            assert root.budget.entries == fresh.budget.entries
        assert len(built) == len(configs)


class TestCli:
    def test_generate_and_audit_roundtrip(self, tmp_path, capsys):
        stream_path = tmp_path / "s.csv"
        rc = main(
            [
                "generate", "--mu", "0.5", "--n", "3", "--m", "4", "--T", "10",
                "--ordering", "round_robin", "--seed", "3", "--out", str(stream_path),
            ]
        )
        assert rc == 0
        audit_spec = {
            "algorithm": "multi", "n": 3, "m": 4, "eps": 1.0, "delta": 0.1,
            "prior": 0.5, "stream": str(stream_path), "changed_user": 1,
        }
        spec_path = tmp_path / "audit.json"
        spec_path.write_text(json.dumps(audit_spec))
        rc = main(["audit", "--spec", str(spec_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passed=True" in out

    def test_run_command_writes_summary(self, tmp_path):
        run_spec = {
            "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1, "T": 16,
            "seed": 1, "mu": 0.5, "ordering": "round_robin", "trials": 2,
            "checkpoints": [4, 16],
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        rc = main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("algorithm,ordering", [("naive", "round_robin"), ("wishful", "contiguous")])
    def test_run_command_at_one_sample_per_user(self, tmp_path, algorithm, ordering):
        run_spec = {
            "algorithm": algorithm, "n": 4, "m": 1, "eps": 1.0, "delta": 0.1, "T": 4,
            "seed": 1, "mu": 0.5, "ordering": ordering, "trials": 2, "checkpoints": [1, 4],
        }
        if algorithm == "wishful":
            run_spec["prior"] = 0.5
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0

    def test_sweep_command(self, tmp_path):
        sweep_spec = {
            "base": {
                "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1,
                "T": 8, "seed": 1, "mu": 0.5, "ordering": "round_robin",
                "trials": 1, "checkpoints": [8],
            },
            "grid": {"eps": [0.5, 1.0]},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_spec))
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_over_orderings_exit_code_two(self, tmp_path, capsys):
        sweep_spec = {
            "base": {
                "algorithm": "naive", "n": 4, "m": 8, "eps": 1.0, "delta": 0.1,
                "T": 8, "seed": 1, "mu": 0.5, "ordering": "round_robin",
                "trials": 1, "checkpoints": [8],
            },
            "grid": {"ordering": ["round_robin", "contiguous"]},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert "precondition violation: ordering: 'round_robin' is not an OrderingSpec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code_one(self):
        assert main(["frobnicate"]) == 1
        assert main(["run"]) == 1  # missing --spec

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        stream = tmp_path / "s.csv"
        argvs = [
            ["frobnicate"],
            ["generate", "--mu", "0.5", "--n", "3", "--m", "4", "--T", "10", "--out", str(stream)],
        ]
        outputs = []
        for _ in range(2):
            for argv in argvs:
                code = main(argv)
                captured = capsys.readouterr()
                outputs.append((code, captured.out, captured.err))
        assert builds == [1]
        assert outputs[:2] == outputs[2:]
        assert outputs[0][0] == 1 and outputs[0][2].startswith("usage error: argument command: invalid choice")
        assert outputs[1] == (0, f"wrote 10 events to {stream}\n", "")

    def test_precondition_violation_exit_code_two(self, tmp_path):
        bad = {
            "algorithm": "naive", "n": 2, "m": 2, "eps": -1.0, "delta": 0.1, "T": 4,
            "mu": 0.5, "ordering": "round_robin", "trials": 1, "checkpoints": [4],
        }
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        assert main(["run", "--spec", str(spec_path)]) == 2

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_nonfinite_eps_exit_code_two(self, tmp_path, eps):
        spec = {
            "algorithm": "naive", "n": 2, "m": 2, "eps": eps, "delta": 0.1, "T": 4,
            "mu": 0.5, "ordering": "round_robin", "trials": 1, "checkpoints": [4],
        }
        spec_path = tmp_path / "bad.json"
        # json writes NaN and Infinity, and reads them back as floats
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_malformed_stream_exit_code_two(self, tmp_path, capsys):
        stream_path = tmp_path / "s.csv"
        stream_path.write_text("t,user,value\n1,1,0.5\n2,x,0.5\n")
        audit_spec = {
            "algorithm": "naive", "n": 2, "m": 2, "eps": 1.0, "delta": 0.1,
            "T": 2, "stream": str(stream_path), "changed_user": 1,
        }
        spec_path = tmp_path / "audit.json"
        spec_path.write_text(json.dumps(audit_spec))
        assert main(["audit", "--spec", str(spec_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_fractional_changed_user_exit_code_two(self, tmp_path, capsys):
        stream_path = tmp_path / "s.csv"
        write_stream(generate(0.5, 3, 4, 6, OrderingSpec("round_robin"), seed=1), stream_path)
        audit_spec = {
            "algorithm": "multi", "n": 3, "m": 4, "eps": 1.0, "delta": 0.1,
            "prior": 0.5, "stream": str(stream_path), "changed_user": 1.5,
        }
        spec_path = tmp_path / "audit.json"
        spec_path.write_text(json.dumps(audit_spec))
        assert main(["audit", "--spec", str(spec_path)]) == 2
        assert "changed_user: 1.5 is not an integer" in capsys.readouterr().err

    def test_ordering_violation_exit_code_two(self, tmp_path, capsys):
        run_spec = {
            "algorithm": "wishful", "n": 2, "m": 2, "eps": 1.0, "delta": 0.1, "T": 4,
            "prior": 0.5, "mu": 0.5, "ordering": "round_robin", "trials": 1,
            "checkpoints": [4],
        }
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(run_spec))
        assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        assert "user-contiguous" in capsys.readouterr().err

    def test_audit_failure_exit_code_three(self, tmp_path, monkeypatch):
        # force a failing audit by sabotaging the bounds of the audit's set-up
        import contmean.harness as harness_mod

        stream_path = tmp_path / "s.csv"
        write_stream(
            generate(0.5, 2, 2, 4, OrderingSpec("round_robin"), seed=1), stream_path
        )
        audit_spec = {
            "algorithm": "naive", "n": 2, "m": 2, "eps": 1.0, "delta": 0.1,
            "T": 4, "stream": str(stream_path), "changed_user": 1,
        }
        spec_path = tmp_path / "audit.json"
        spec_path.write_text(json.dumps(audit_spec))

        real = harness_mod._audit_root

        def sabotaged(config):
            root, bounds = real(config)
            return root, tuple((label, -1.0, -1.0) for label, _, _ in bounds)

        monkeypatch.setattr(harness_mod, "_audit_root", sabotaged)
        assert main(["audit", "--spec", str(spec_path)]) == 3

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTMEAN_OUTDIR", str(tmp_path))
        rc = main(["generate", "--mu", "0.0", "--n", "2", "--m", "2", "--T", "4"])
        assert rc == 0
        assert (tmp_path / "stream.csv").exists()


class TestCalibration:
    """Noise scales, ledger shares and audit bounds agree for every counter."""

    GRID = [
        (1, 2, 1.0, 0.1, 1),
        (3, 4, 0.5, 0.05, 6),
        (7, 7, 2.0, 1e-6, 100),
        (50, 64, 1.0, 0.1, 8192),
        (1000, 1000, 0.1, 1.0, 5),
    ]

    @staticmethod
    def public_scales(algorithm, n, m, eps, delta, T):
        levels = range(math.ceil(math.log2(m)) + 1)
        if algorithm == "naive":
            return [naive_noise_scale(m, T, eps)]
        if algorithm == "wishful":
            return [wishful_noise_scale(m, n, eps, delta)]
        if algorithm == "single":
            return [single_noise_scale(m, n, eps, delta)]
        scale = multi_noise_scale if algorithm == "multi" else full_noise_scale
        return [scale(m, n, lv, eps, delta) for lv in levels]

    @pytest.mark.parametrize("algorithm", ["naive", "wishful", "single", "multi", "full"])
    @pytest.mark.parametrize("n,m,eps,delta,T", GRID)
    def test_eta_share_bound_and_budget_agree(self, algorithm, n, m, eps, delta, T):
        config = EstimatorConfig(
            algorithm=algorithm, n=n, m=m, eps=eps, delta=delta,
            T=T if algorithm in ("naive", "wishful") else None,
            prior=0.5 if algorithm in ("wishful", "single", "multi") else None,
        )
        est = make_estimator(config)
        shares = [e for label, e in est.budget.entries if label.startswith("mech")]
        rows = [row for row in privacy_table(config) if row.counter is not None]
        assert len(shares) == len(rows) == len(est.mechanisms)
        for mech, share, row in zip(est.mechanisms, shares, rows):
            assert mech.label == row.counter
            assert mech.eta * share == pytest.approx(row.sensitivity, rel=1e-12)
        assert est.budget.spent == pytest.approx(est.budget.total_eps, rel=1e-12)
        assert [mech.eta for mech in est.mechanisms] == self.public_scales(algorithm, n, m, eps, delta, T)
