"""Host-speed calibration: times scaled to a nominal host speed.

The hosts this benchmark runs on share their cores, and their speed drifts
by up to 1.7x in regimes that last from seconds to minutes; a run's raw
wall-clock figures then measure the host more than the program.  So every
time the benchmark reports is scaled by the host's speed at that moment,
measured by a fixed reference that is run between operations, outside their
timed spans:

    reported time = measured time * nominal reference time / (median reference time nearby)

Two references, for two kinds of work:

- in-process operations are scaled by a pure-Python kernel (float
  arithmetic, ``math.exp`` and a loop, the instruction mix of hexlat's
  series code), sampled every 20 ms (``Paced``);
- process launches (set-up, cli commands), which are mostly interpreter
  start and imports, are scaled by a reference launch of the same
  interpreter that imports numpy and nothing of hexlat.  Launch times drift
  less than the kernel does (a 25% kernel swing moved them by about 10%),
  so the kernel over-corrected them.

The references are benchmark code, so a change to hexlat moves the reported
times exactly as it moves the raw ones; only the host's drift cancels.
Raw times are kept next to the scaled ones in the detail output.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter_ns

#: Loop length of one kernel sample (about 1 ms).
KERNEL_LOOPS = 6000
#: About one kernel sample on a 2-vCPU Intel Xeon host under CPython 3.11,
#: where samples range over 0.7-1.3 ms as the host drifts.  It sets the
#: scale of every reported time; any constant would do, as it cancels in the
#: ratio of two runs.
NOMINAL_NS = 1_000_000

#: A kernel sample is taken once at least this long has passed since the last.
SAMPLE_EVERY_NS = 20_000_000
#: Operations are scaled in segments of at least this length.
SEGMENT_NS = 500_000_000

#: The reference launch: interpreter start plus numpy's import.
REFERENCE_ARGS = ("-c", "import numpy")
#: About one reference launch on the host of NOMINAL_NS (0.14-0.17 s as it drifts).
NOMINAL_LAUNCH_NS = 150_000_000


def kernel(n: int = KERNEL_LOOPS) -> float:
    s = 0.0
    x = 0.0
    for k in range(n):
        x += 1.0e-4
        s += math.exp(-x) * (k & 7) + x * x
    return s


def sample() -> int:
    """Nanoseconds one kernel run takes now."""
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def factor(samples: list[int]) -> float:
    """Scale from measured to nominal time, from kernel samples of one stretch."""
    return NOMINAL_NS / statistics.median(samples)


def launch_sample(env: dict) -> int:
    """Nanoseconds one reference launch takes now."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, *REFERENCE_ARGS], env=env, capture_output=True, check=True,
                   timeout=60)
    return perf_counter_ns() - t0


def launch_factor(samples: list[int]) -> float:
    """Scale from measured to nominal time for launches, from reference launches."""
    return NOMINAL_LAUNCH_NS / statistics.median(samples)


class Paced:
    """Scales a stream of operation latencies segment by segment.

    Call ``op(kind, ns)`` after each operation; between operations it takes
    a kernel sample every SAMPLE_EVERY_NS and closes a segment every
    SEGMENT_NS, scaling that segment's latencies by the median of the
    segment's samples.  Scaled latencies go to ``sink(kind, ns)``.
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.kinds: list[int] = []
        self.lats: list[int] = []
        self.samples: list[int] = []
        self.factors: list[float] = []
        self.raw_op_ns = 0
        self.scaled_op_ns = 0.0
        self.last_sample = self.seg_start = perf_counter_ns()

    def op(self, kind: int, ns: int) -> None:
        self.kinds.append(kind)
        self.lats.append(ns)
        now = perf_counter_ns()
        if now - self.last_sample >= SAMPLE_EVERY_NS:
            self.samples.append(sample())
            self.last_sample = now = perf_counter_ns()
        if now - self.seg_start >= SEGMENT_NS:
            self.close()

    def close(self) -> None:
        """Scale the open segment; call once more when the loop ends."""
        if not self.samples:
            self.samples.append(sample())
        f = factor(self.samples)
        raw = sum(self.lats)
        self.raw_op_ns += raw
        self.scaled_op_ns += raw * f
        self.factors.append(f)
        if self.sink is not None:
            for kind, ns in zip(self.kinds, self.lats):
                self.sink(kind, ns * f)
        self.kinds.clear()
        self.lats.clear()
        self.samples.clear()
        self.seg_start = perf_counter_ns()

    def summary(self) -> dict:
        """Op time raw and scaled, and the spread of the segment scales."""
        f = self.factors
        return {"op_time_raw_s": self.raw_op_ns / 1e9, "op_time_scaled_s": self.scaled_op_ns / 1e9,
                "segments": len(f), "scale_min": min(f), "scale_median": statistics.median(f),
                "scale_max": max(f)}
