"""Statistics, units, host facts, memory readers and failure accounting."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: The checkout the benchmark runs in: the directory holding ``perfbench/``.
CHECKOUT = Path(__file__).resolve().parent.parent

#: Scratch space for artifacts; removed when a run ends.
WORK_ROOT = CHECKOUT / ".perfbench_work"
#: Span dumps of traced runs (kept after the run; see README).
OUT_ROOT = CHECKOUT / ".perfbench_out"

#: 10**6 bytes: sizes and memory are reported in decimal megabytes.
MB = 1_000_000

#: Seconds-to-unit factors of every time unit the benchmark prints.
TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}

#: Environment variables that size BLAS / OpenMP thread pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def to_unit(seconds: float, unit: str) -> float:
    """Convert a duration in seconds to ``unit`` (``s``, ``ms`` or ``us``)."""
    try:
        return seconds * TIME_UNITS[unit]
    except KeyError:
        raise ValueError(f"not a time unit: {unit!r}") from None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Raises on an empty sample: a metric with no samples is a failed run,
    never a zero.
    """
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_block_p90(values: Sequence[float], block: int) -> float:
    """Median, over consecutive blocks of ``block`` samples, of each block's p90.

    A trailing partial block is left out; fewer than ``block`` samples make
    one block.  A run in which the host is slow for a few seconds then
    reports the p90 of its usual seconds, not of the slow ones.
    """
    blocks = [values[start : start + block] for start in range(0, len(values) - block + 1, block)]
    return float(np.median([percentile(part, 90) for part in blocks or [values]]))


def mean(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise ValueError("mean of an empty sample")
    return float(np.mean(np.asarray(values, dtype=float)))


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result's ``metrics`` object, unrounded."""
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------- host
def calibrate() -> float:
    """Seconds for a fixed pure-Python + SHA-256 kernel.

    Timed before and after every run so a reader can tell host speed drift
    from a program change.  Never used to rescale a metric.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    digest = hashlib.sha256()
    block = acc.to_bytes(8, "little") * 8
    for _ in range(30_000):
        digest.update(block)
    digest.digest()
    return time.perf_counter() - started


def blas_name() -> Optional[str]:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError, AttributeError):  # older numpy layouts
        return None


def host_block(seed: int, calib_ms: Sequence[float]) -> Dict[str, object]:
    """The host facts every report carries."""
    from repro.core.parallel import available_cores

    return {
        "available_cores": available_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "calib_ms": list(calib_ms),
    }


# --------------------------------------------------------------- memory
def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def pss_mb(pid: int) -> float:
    """Proportional set size of one process; shared pages are split between sharers."""
    rollup = Path(f"/proc/{pid}/smaps_rollup")
    for line in rollup.read_text().splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) * 1024 / MB
    raise ValueError(f"no Pss line in {rollup}")


# ------------------------------------------------------------- failures
@dataclass
class Tally:
    """Operations attempted and failed, with each failure named."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failures[reason] += 1

    def named(self) -> List[str]:
        return [f"{reason}: {count}" for reason, count in sorted(self.failures.items())]


def require_samples(samples: Sequence, tally: Tally, what: str) -> None:
    """Refuse to report a metric that has no sample, naming the failures instead."""
    if len(samples) == 0:
        failures = "; ".join(tally.named()) or "none recorded"
        raise RuntimeError(f"no {what} succeeded (failures: {failures})")


def verdict_reason(report) -> str:
    """Failure name of a rejected verification report."""
    return "verification failed (" + ",".join(report.failed_checks()) + ")"


# ------------------------------------------------------------ work dirs
class WorkDir:
    """A per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self, tag: str):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

