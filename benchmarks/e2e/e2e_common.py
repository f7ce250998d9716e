"""Shared plumbing of the end-to-end benchmark: paths, sizes, statistics, host block.

:func:`require_program` puts ``src/`` on ``sys.path`` (the benchmark is run
as a plain script from a checkout that has no installed package) and
raises :class:`BenchmarkUnavailable` when the program under test is not
there — the benchmark never measures anything but the checkout it sits in.
"""

from __future__ import annotations

import functools
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


class BenchmarkUnavailable(RuntimeError):
    """The checkout does not hold the program this benchmark measures."""


def require_program() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkUnavailable(
            f"{SRC / 'repro'} is missing: the benchmark only measures the "
            "checkout it is part of"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metrics, units and bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; ``SMOKE`` is the self-test size."""

    experiments: int = 100  # per scenario, so the base campaign is 4x this
    storm_ops: int = 200_000  # messages per link phase, and timers
    storm_burst: int = 1_000  # messages (or timers) in flight at once
    archive_passes: int = 4
    setup_repeats: int = 3
    warmup_experiments: int = 10  # per scenario, inside every set-up
    min_runs: int = 3
    profile_experiments: int = 25  # per scenario, in the cProfile pass
    fixed_cost_repeats: int = 10
    codec_samples: int = 100  # results pushed through the JSONL codec / a frame


FULL = Sizes()
SMOKE = Sizes(
    experiments=2,
    storm_ops=2_000,
    storm_burst=500,
    archive_passes=1,
    setup_repeats=1,
    warmup_experiments=1,
    min_runs=1,
    profile_experiments=1,
    fixed_cost_repeats=1,
    codec_samples=4,
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: list[float], unit: str) -> dict:
    """One metric's record in a result file."""
    q1, median, q3 = quartiles(values)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@functools.cache
def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python + numpy loop, once per process.

    The loop never changes, so the ratio of two hosts' calibration times
    is the factor by which to scale one host's numbers to the other's.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += (value * value) % 7
        array = np.arange(1_000_000, dtype=np.float64)
        for _ in range(10):
            array = np.sqrt(array * 1.0001 + 1.0)
        total += int(array[-1])
        best = min(best, time.perf_counter() - start)
    return best


def _installed_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_sha() -> str:
    """Short commit hash of the checkout, ``"unknown"`` outside a git repository."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return output.stdout.strip() if output.returncode == 0 else "unknown"


def host_block(seed: int) -> dict:
    """What another machine needs to normalise these numbers against its own."""
    return {
        "cpus": usable_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _installed_version("numpy"),
        "scipy": _installed_version("scipy"),
        "pyarrow": _installed_version("pyarrow"),
        "git_sha": git_sha(),
        "seed": seed,
        "calibration_s": calibration_s(),
    }
