"""Instruments the benchmark installs from outside the package.

Each replaces an attribute where callers look it up (a module global, or a
method on the class that defines it), so nothing under ``src/`` changes.
``Tracer`` records one span per call and aggregates call counts and self
times per layer name; self time is a span's duration minus the time covered
by its child spans.  ``time_steps`` is the only instrument in timed runs:
it feeds per-step latencies to ``RoundLatencies``, which summarises them
round by round.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from common import SpeedTrack

_clock = time.perf_counter_ns


class Tracer:
    """Span wrappers with per-name call counts and self times (ns)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        calls, self_ns, open_spans = self.calls, self.self_ns, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                calls[name] += 1
                self_ns[name] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return span

    def hook(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` (defined on ``owner`` itself) as span ``name``.

        ``observe(args, result)`` runs after the span closes.  A missing
        attribute is recorded in ``missing`` rather than raised, so a
        renamed function reads as zero calls instead of stopping the run.
        """
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(name, original, observe))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mean_self(self, name: str, unit_ns: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / unit_ns if calls else 0.0


def step_classes(estimators_module) -> list[type]:
    """Classes in the estimators module that define ``step`` themselves."""
    return [
        obj
        for obj in vars(estimators_module).values()
        if isinstance(obj, type) and "step" in vars(obj)
    ]


def install_layer_hooks(tracer: Tracer, extra: dict) -> None:
    """Wrap the public functions of every layer where they are looked up.

    ``extra`` collects what the spans alone do not give: releases per
    ``on_sample`` call and the history length each private median reads.
    """
    import contmean
    from contmean import binmech, cli, estimators, harness, median, noise, streams, withhold

    extra.setdefault("releases", 0)
    extra.setdefault("history_events", 0)

    def count_release(_args, decision):
        extra["releases"] += bool(decision.released)

    def note_history(args, _result):
        extra["history_events"] = len(args[0].history)

    hook = tracer.hook
    hook(binmech, "laplace", "noise.laplace")
    for module in (estimators, streams):
        hook(module, "spawn_rng", "noise.spawn_rng")
    hook(noise.BudgetLedger, "charge", "noise.ledger_charge")
    for module in (contmean, estimators, harness):
        hook(module, "make_estimator", "estimators.construct")
    hook(binmech.BinaryMechanism, "append", "binmech.append")
    hook(binmech.BinaryMechanism, "sum", "binmech.sum")
    hook(withhold.UserLedger, "on_sample", "withhold.on_sample", observe=count_release)
    for cls in step_classes(estimators):
        hook(cls, "step", "estimators.step")
    hook(estimators, "private_median", "median.private_median", observe=note_history)
    hook(median, "pack_arrays", "median.pack_arrays")
    for attr in ("interval_single", "interval_full"):
        hook(estimators, attr, "truncate.interval")
    for module in (harness, cli):
        hook(module, "generate", "streams.generate")
    hook(cli, "read_stream", "streams.read_stream")
    hook(harness, "write_trace", "harness.write_trace")
    hook(harness, "audit_value_grid", "harness.audit")
    hook(cli, "audit_sensitivity", "harness.audit")
    hook(cli, "main", "cli.main")


class RoundLatencies:
    """Per-step latencies, summarised round by round.

    Each round's p50 and p99 are kept and its raw latencies dropped, so
    memory stays at one round's worth however many rounds a fast program
    runs.  The reported figures are medians over rounds, which a burst of
    load on the machine moves less than percentiles of the pooled steps.
    """

    def __init__(self) -> None:
        self.current: list[int] = []  # ns, this round
        self.p50: list[float] = []
        self.p99: list[float] = []
        self.steps = 0
        self.max_us = 0.0  # raw

    def end_round(self, scale: float) -> None:
        """Close the round; ``scale`` converts its times to reference speed."""
        us = np.asarray(self.current, dtype=float) / 1e3
        self.current.clear()
        self.p50.append(float(np.percentile(us, 50)) * scale)
        self.p99.append(float(np.percentile(us, 99)) * scale)
        self.steps += us.size
        self.max_us = max(self.max_us, float(us.max()))

    def p50_us(self) -> float:
        return statistics.median(self.p50)

    def p99_us(self) -> float:
        return statistics.median(self.p99)


def time_steps(latencies: RoundLatencies, estimators_module) -> list:
    """Time every ``step`` call into ``latencies``; returns the undo list.

    This is the one probe in timed runs: two clock reads per published
    estimate, no spans.
    """
    undo = []
    for cls in step_classes(estimators_module):
        original = vars(cls)["step"]

        def timed(self, event, _step=original, _record=latencies.current.append):
            start = _clock()
            record = _step(self, event)
            _record(_clock() - start)
            return record

        setattr(cls, "step", timed)
        undo.append((cls, original))
    return undo


def untime_steps(undo) -> None:
    for cls, original in undo:
        setattr(cls, "step", original)


@dataclass
class TracedRun:
    """Results of the fixed work done once untraced and once traced."""

    plain: object
    traced: object
    tracer: Tracer
    extra: dict
    scale: float  # reference-speed factor of the traced pass
    overhead: float
    step_nodiv_us: float


def run_traced(one_pass, nodiv_pass=None) -> TracedRun:
    """Run ``one_pass(traced)`` plain, then under the layer hooks; the ratio
    of their reference-speed wall times is the tracing overhead.
    ``nodiv_pass`` (the same work with the diversity flag off) runs traced
    for the step self time without the flag; when it is None the work
    already runs with the flag off."""
    speed = SpeedTrack()
    start = time.perf_counter()
    plain = one_pass(False)
    plain_wall = (time.perf_counter() - start) * speed.scale()

    tracer, extra = Tracer(), {}
    install_layer_hooks(tracer, extra)
    start = time.perf_counter()
    try:
        traced = one_pass(True)
    finally:
        tracer.restore()
    traced_wall = time.perf_counter() - start
    scale = speed.scale()

    nodiv, nodiv_scale = tracer, scale
    if nodiv_pass is not None:
        nodiv = Tracer()
        install_layer_hooks(nodiv, {})
        try:
            nodiv_pass()
        finally:
            nodiv.restore()
        nodiv_scale = speed.scale()
    return TracedRun(
        plain, traced, tracer, extra, scale,
        overhead=traced_wall * scale / plain_wall,
        step_nodiv_us=nodiv.mean_self("estimators.step", 1e3) * nodiv_scale,
    )


def state_kib(estimators_module, config, events) -> float:
    """KiB that one estimator holds after stepping through ``events``
    (tracemalloc; the events themselves are allocated beforehand)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        est = estimators_module.make_estimator(config)
        for ev in events:
            est.step(ev)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / 1024.0


_TIMED_LAYERS = (
    "noise.laplace", "noise.spawn_rng", "noise.ledger_charge", "estimators.construct",
    "binmech.append", "binmech.sum", "withhold.on_sample", "estimators.step",
)


def report_layers(out, run: TracedRun, *, state_kib: float, trace_bytes: int,
                  abs_dev_final: float) -> None:
    """Every per-layer metric from one traced run, into ``out``; self times
    are at reference speed."""
    t, us, ms = run.tracer, 1e3 / run.scale, 1e6 / run.scale
    for name in _TIMED_LAYERS:
        out.metric(f"{name}.calls", t.calls[name], "count")
        out.metric(f"{name}.self_us", t.mean_self(name, us), "us")
    samples = t.calls["withhold.on_sample"]
    out.metric("withhold.release_ratio", run.extra["releases"] / samples if samples else 0.0, "ratio")
    out.metric("estimators.step_nodiv.self_us", run.step_nodiv_us, "us")
    out.metric("median.private_median.calls", t.calls["median.private_median"], "count")
    out.metric("median.private_median.self_ms", t.mean_self("median.private_median", ms), "ms")
    out.metric("median.pack_arrays.self_ms", t.mean_self("median.pack_arrays", ms), "ms")
    out.metric("median.history_events", run.extra["history_events"], "count")
    out.metric("truncate.interval.calls", t.calls["truncate.interval"], "count")
    out.metric("estimators.state_kib", state_kib, "KiB")
    out.metric("streams.generate.calls", t.calls["streams.generate"], "count")
    out.metric("streams.generate.self_ms", t.mean_self("streams.generate", ms), "ms")
    out.metric("streams.read_stream.self_ms", t.mean_self("streams.read_stream", ms), "ms")
    out.metric("harness.write_trace.self_ms", t.mean_self("harness.write_trace", ms), "ms")
    out.metric("harness.trace_bytes", trace_bytes, "B")
    out.metric("harness.audit.calls", t.calls["harness.audit"], "count")
    out.metric("harness.audit.self_ms", t.mean_self("harness.audit", ms), "ms")
    out.metric("cli.main.self_ms", t.mean_self("cli.main", ms), "ms")
    out.metric("trace.overhead_ratio", run.overhead, "ratio")
    out.metric("estimators.abs_dev_final", abs_dev_final, "1")
    if t.missing:
        out.notes["unhooked"] = t.missing
