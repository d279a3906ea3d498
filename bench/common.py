"""Pieces shared by the three workloads: seeded inputs, reference-speed
readings, the set-up probe runner, peak RSS and the result record."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 7
_PROBE_TIMEOUT_S = 60

# Timings are reported at reference speed.  The vCPU of the 2-vCPU virtual
# machine the reference figures come from switches, over seconds to minutes, between a fast state
# and one about 1.65x slower (load from other tenants), and a whole run can
# fall in either: per-run medians of raw round times spread by 23% across
# runs, while round times divided by a reference loop timed around each
# round spread by 3.5%.  So each round is bracketed by ``reference_seconds``
# readings and its times are multiplied by REFERENCE_S / (their mean); raw
# figures go to standard error.
REFERENCE_S = 0.018


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and small-array work, like the
    program's own (about REFERENCE_S at full speed here)."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(80_000):
        acc += i * i
        table[i & 255] = acc
    small = np.arange(200)
    for _ in range(4_000):
        np.minimum(small, 50).sum()
    return time.perf_counter() - start


class SpeedTrack:
    """Reference readings between rounds; ``scale()`` after each round gives
    the factor that turns that round's times into reference-speed times."""

    def __init__(self) -> None:
        self._last = reference_seconds()
        self.scales: list[float] = []

    def scale(self) -> float:
        now = reference_seconds()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        self.scales.append(factor)
        return factor


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a key path."""
    seq = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *key])
    return int(seq.generate_state(1)[0])


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(derive(seed, *key))


def weighted_order(rng: np.random.Generator, n: int, m: int, T: int, zipf_s: float) -> np.ndarray:
    """User ids (1-based) of T arrivals: weighted sampling without
    replacement of each user's m slots, user u weighted 1/rank(u)^zipf_s.

    Every slot gets an exponential arrival time with rate equal to its
    user's weight; the T earliest slots, in time order, are the stream.
    This keeps every user within the cap m by construction.
    """
    if T > n * m:
        raise ValueError(f"T={T} exceeds n*m={n * m}")
    weights = (1.0 / np.arange(1, n + 1) ** zipf_s)[rng.permutation(n)]
    arrival = rng.exponential(size=n * m) / np.repeat(weights, m)
    first = np.argpartition(arrival, T - 1)[:T]
    first = first[np.argsort(arrival[first], kind="stable")]
    return first // m + 1


def bernoulli(rng: np.random.Generator, T: int, mu: float) -> np.ndarray:
    return (rng.random(T) < mu).astype(float)


def fresh_dir(*parts: str) -> Path:
    path = OUT.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(job: dict, workdir: Path) -> float:
    """Median over child processes of import-plus-set-up seconds, at
    reference speed.

    ``job`` is handed to ``setup_probe.py`` as JSON; each child imports
    ``contmean`` afresh, so import time is measured as a user pays
    it.  The children run one after another and each is waited for.
    """
    job_path = workdir / "setup_job.json"
    job_path.write_text(json.dumps(job))
    speed = SpeedTrack()
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(job_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=_PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) * speed.scale())
    return statistics.median(samples)


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        # a systematic fault repeats on every step; keep the report short
        if len(self.problems) < 20:
            self.problems.append(message)

    def extend(self, messages) -> None:
        for message in messages:
            self.problem(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
