"""Measure one workload's set-up time in a fresh interpreter.

Usage: python3 bench/setup_probe.py JOB.json

Prints the seconds from just before ``import contmean`` until the program
is ready to consume its first event.  JOB.json holds either
``{"config": {...}}`` (construct that estimator) or ``{"cli": [argv, ...]}``
(run each ``contmean`` command line until its first ``step``).  Time the
program spends generating its own input stream is left out, so the figure
covers import, argument and spec parsing, stream-CSV reading and estimator
construction.  Nothing but the standard library is imported before the
clock starts.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


class _Ready(Exception):
    """Raised by the first ``step`` call: set-up is over."""


def _stop_at_first_step(estimators_module) -> None:
    def ready(self, event):
        raise _Ready

    for obj in list(vars(estimators_module).values()):
        if isinstance(obj, type) and "step" in vars(obj):
            obj.step = ready


def main(job_path: str) -> float:
    job = json.loads(Path(job_path).read_text())
    start = time.perf_counter()
    import contmean  # noqa: F401  (the import is what is being timed)
    from contmean import cli, estimators, harness

    if "config" in job:
        estimators.make_estimator(estimators.EstimatorConfig(**job["config"]))
        return time.perf_counter() - start

    _stop_at_first_step(estimators)
    generating = 0.0
    generate = harness.generate

    def timed_generate(*args, **kwargs):
        nonlocal generating
        begin = time.perf_counter()
        try:
            return generate(*args, **kwargs)
        finally:
            generating += time.perf_counter() - begin

    harness.generate = timed_generate
    elapsed = 0.0
    for argv in job["cli"]:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except _Ready:
                pass
            else:
                raise SystemExit(f"{argv} ended with exit code {code} before its first step")
        elapsed = time.perf_counter() - start
    return elapsed - generating


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
