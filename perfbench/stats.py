"""Percentiles with their sample counts, and the machine fingerprint."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import statistics
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0-100) and the sample count.

    Linear interpolation between the two nearest ranks, so the 50th
    percentile is the median.  An empty sample gives NaN.
    """
    n = len(values)
    if n == 0:
        return math.nan, 0
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprint() -> dict[str, object]:
    """CPU model, usable cores, Python, NumPy and whether Numba is present."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def read_cpu_ns(pid: int) -> int:
    """CPU time a live process has run, all its threads, in nanoseconds.

    The first field of each thread's ``/proc/<pid>/task/<tid>/schedstat``
    is its time on a CPU, the same clock ``time.process_time_ns`` reads
    for the calling process.  On a guest kernel that accounts steal time
    (``CONFIG_PARAVIRT_TIME_ACCOUNTING``), time the host gave to other
    guests is not in it, which is why the gated ``cpu_ms`` reads steadier
    than any wall time on a shared machine.
    """
    total = 0
    for task in os.scandir(f"/proc/{pid}/task"):
        try:
            with open(os.path.join(task.path, "schedstat")) as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended after the listing
            pass
    return total


def cpu_ticks() -> tuple[int, int]:
    """(stolen, all) CPU ticks of the machine so far, from ``/proc/stat``.

    Stolen ticks are those the host gave another guest while this one
    had work; their share over a run says how busy the host was.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def peak_rss_mib() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    return read_peak_rss_mib(os.getpid())


def read_peak_rss_mib(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """Everything one workload run measured.

    ``values`` holds every metric by name, with its unit and sample count
    beside it; the benchmark prints all of them and reports the subset
    that ``BENCHMARK.json`` names.  ``layers`` is the traced run's
    per-span table (see :func:`spans.layer_table`).
    """

    values: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.values[name] = float(value)
        self.units[name] = unit
        self.samples[name] = n

    def put_percentiles(
        self, suffix: str, values: list[float], qs=(50, 90, 99)
    ) -> None:
        """``p<q>_ms<suffix>`` for each q, each with its sample count."""
        for q in qs:
            value, n = percentile(values, q)
            self.put(f"p{q}_ms{suffix}", value, "ms", n)
