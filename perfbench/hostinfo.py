"""Host block recorded beside every benchmark result (never gated).

It lets later comparisons normalize cost across hosts: interpreter and
numpy versions, CPU count, the load average when the run started, and the
time of a fixed calibration microkernel — a pure-Python loop plus a small
numpy scan, the two kinds of work the simulator's host time is made of.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

_LOOP_N = 200_000
_SCAN_ROWS = 4096
_SCAN_REPS = 200


def _python_loop(n: int = _LOOP_N) -> int:
    acc = 0
    for i in range(n):
        acc += i * i & 0xFF
    return acc


def _numpy_scan(values: np.ndarray, reps: int = _SCAN_REPS) -> int:
    best = 0
    for k in range(reps):
        best += int(np.argmin(values + k))
    return best


def calibration_ns(trials: int = 5) -> Dict[str, float]:
    """Median ns of the calibration kernels over ``trials`` runs each."""
    values = np.random.default_rng(0).random(_SCAN_ROWS)
    loop, scan = [], []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        _python_loop()
        t1 = time.perf_counter_ns()
        _numpy_scan(values)
        t2 = time.perf_counter_ns()
        loop.append(t1 - t0)
        scan.append(t2 - t1)
    return {"python_loop_ns": float(statistics.median(loop)),
            "numpy_scan_ns": float(statistics.median(scan))}


#: Calibration time of the reference host, in ns: normalized throughput is
#: what a run would do on a host whose calibration mark reads this long.
CAL_REF_NS = 7_000_000
#: A mark runs a third of the kernel this many times and keeps the fastest,
#: so a mark that was itself preempted does not count.
_MARK_TRIALS = 3


class Calibrator:
    """One-shot calibration kernels interleaved with the measured work.

    Host speed on a shared machine drifts by tens of percent within
    seconds.  Timing the kernel at the boundaries of every throughput
    sample, and scaling the sample by the kernel's time over the
    reference, takes most of that drift out of the normalized figure.
    """

    def __init__(self) -> None:
        self._values = np.random.default_rng(0).random(_SCAN_ROWS)
        self.log: List[Tuple[float, int]] = []

    def mark(self, at: Optional[float] = None) -> float:
        """Time the kernel; returns the host seconds the mark took."""
        t0 = time.perf_counter()
        best = None
        for _ in range(_MARK_TRIALS):
            n0 = time.perf_counter_ns()
            _python_loop(_LOOP_N // 3)
            _numpy_scan(self._values, _SCAN_REPS // 3)
            ns = time.perf_counter_ns() - n0
            best = ns if best is None else min(best, ns)
        self.log.append((t0 if at is None else at, best))
        return time.perf_counter() - t0

    def factor(self, t_start: float, t_end: float) -> float:
        """Median calibration ns around ``[t_start, t_end]`` over the reference.

        The marks counted are the last one at or before ``t_start``, the
        first one at or after ``t_end`` and every one in between; the median
        keeps a mark that was itself preempted from skewing the factor.
        """
        times = [t for t, _ in self.log]
        lo = max(bisect.bisect_right(times, t_start) - 1, 0)
        hi = min(bisect.bisect_left(times, t_end), len(times) - 1)
        picked = [ns for _, ns in self.log[lo:hi + 1]]
        return statistics.median(picked) / CAL_REF_NS


def host_block(load_at_start) -> Dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_at_start),
        "calibration": calibration_ns(),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise OSError("VmHWM not found in /proc/self/status")
