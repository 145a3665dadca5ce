"""One workload process: set up, run the closed loop, check, report.

Launched by run.py as a fresh interpreter, so set-up (interpreter start,
``import hexlat``, input generation) is paid here exactly as a user pays it.
The last line of standard output is a JSON record for run.py.

Modes:
  probe  set up, report when set-up ended, exit
  run    set up, run the timed loop for --seconds, check every output
  trace  as run, then run the same inputs again with the span tracer on
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from array import array

import pace


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class Latencies:
    """Log-binned latency histogram: fixed memory however many operations run.

    Bins are 0.115% wide (2000 per decade from 100 ns); percentiles are
    interpolated within a bin by rank.  Per-kind sums give per-kind means.
    """

    PER_DECADE = 2000
    LOW_NS = 100.0
    BINS = 10 * PER_DECADE

    def __init__(self, kinds: int) -> None:
        self.counts = array("q", [0]) * self.BINS
        self.kind_ns = [0] * kinds
        self.kind_n = [0] * kinds
        self.n = 0
        self.total_ns = 0

    def add(self, kind: int, ns: int) -> None:
        b = int(math.log10(max(ns, self.LOW_NS) / self.LOW_NS) * self.PER_DECADE)
        self.counts[min(b, self.BINS - 1)] += 1
        self.kind_ns[kind] += ns
        self.kind_n[kind] += 1
        self.n += 1
        self.total_ns += ns

    def percentile_ms(self, pct: float) -> float:
        rank = pct / 100.0 * self.n
        seen = 0
        for b, c in enumerate(self.counts):
            if c and seen + c >= rank:
                frac = (rank - seen) / c
                return self.LOW_NS * 10.0 ** ((b + frac) / self.PER_DECADE) / 1e6
            seen += c
        return math.nan

    def stats(self, tail_pct: float) -> dict:
        return {"op_mean_ms": self.total_ns / self.n / 1e6, "op_p50_ms": self.percentile_ms(50.0),
                "op_tail_ms": self.percentile_ms(tail_pct), "tail_pct": tail_pct,
                "tail_samples_beyond": self.n - math.ceil(tail_pct / 100.0 * self.n),
                "samples": self.n,
                "kind_mean_us": [t / c / 1e3 if c else 0.0 for t, c in zip(self.kind_ns, self.kind_n)]}


def _timed_loop(wl, seconds: float, lat: Latencies | None = None):
    """Run whole cycles of operations until `seconds` have passed.

    Returns (ops, the pace.Paced that timed them); per-op latencies, scaled
    to nominal machine speed, go to `lat`.
    """
    now = time.perf_counter_ns
    cycle = wl.cycle
    paced = pace.Paced(lat.add if lat is not None else None)
    i = 0
    deadline = now() + int(seconds * 1e9)
    while True:
        for k in range(cycle):
            t0 = now()
            try:
                result = wl.call(i)
            except Exception:  # an operation that raises counts as failed
                dt = now() - t0
                wl.fail(i)
            else:
                dt = now() - t0
                wl.store(i, result)
            paced.op(k, dt)
            i += 1
        if now() >= deadline:
            break
    paced.close()
    return i, paced


def run_library(name: str, seed: int, seconds: float, mode: str) -> dict:
    import hexlat  # noqa: F401  (its import is part of set-up)
    import workloads

    wl = workloads.LIBRARY[name](seed)
    first = time.perf_counter_ns()
    if mode == "probe":
        return {"first_op_ns": first}
    lat = Latencies(wl.cycle)
    n, paced = _timed_loop(wl, seconds, lat)
    timing = paced.summary()
    rec = {"first_op_ns": first, "ops": n,
           "ops_per_s": n / timing["op_time_scaled_s"], "ops_per_s_raw": n / timing["op_time_raw_s"],
           "pace": timing, "passes": n / wl.pool_size,
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    rec.update(lat.stats(wl.tail_pct))
    attempted = n
    failed = 0
    if mode == "trace":
        rec["trace"] = _traced_pass(wl, name, seed, seconds)
        attempted += rec["trace"]["ops"]
        if name == "laplace":
            # Each slow-corner input once (one cycle), untraced.
            corner = workloads.LaplaceCorner(seed)
            ops, paced = _timed_loop(corner, 0.0)
            rec["trace"]["refs"]["laplace_corner_ms"] = paced.summary()["op_time_scaled_s"] / ops * 1e3
            attempted += ops
            failed += corner.failed_ops()
    rec["attempted"] = attempted
    rec["failed"] = failed + wl.failed_ops()
    return rec


def _traced_pass(wl, name: str, seed: int, seconds: float) -> dict:
    """Re-run the same inputs from operation 0 with every layer wrapped."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.start()
    n, paced = _timed_loop(_Rooted(wl, tracer), seconds)
    tracer.stop()
    tracer.uninstall()
    timing = paced.summary()
    wall = timing["op_time_raw_s"]
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{name}-seed{seed}.json"),
                 {"workload": name, "seed": seed, "ops": n, "wall_s": wall})
    agg, counts = tracer.totals()
    rec = {"ops": n, "wall_s": wall, "ops_per_s": n / timing["op_time_scaled_s"],
           "by_name": agg, "counters": counts,
           "layer_self_s": tracer.layer_self_s(), "refs": _reference_calls(name)}
    if hasattr(wl, "witness_frac"):
        rec["witness_frac"] = wl.witness_frac()
    return rec


class _Rooted:
    """The workload with each operation recorded as a root span."""

    def __init__(self, wl, tracer) -> None:
        self._wl, self._tracer = wl, tracer
        self.cycle, self.pool_size = wl.cycle, wl.pool_size
        self.fail, self.store = wl.fail, wl.store

    def call(self, i: int):
        self._tracer.op_id = i
        return self._tracer.root("op", self._wl.call, i)


def _reference_calls(name: str) -> dict:
    """minimize_w(1, 0), a fixed call the baseline list cites; timed untraced."""
    if name != "classify":
        return {}
    import hexlat

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        hexlat.minimize_w(1.0, 0.0)
        times.append(time.perf_counter() - t0)
    return {"minimize_w_1_0_s": sum(times) / len(times)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = ap.parse_args()
    if args.workload == "cli":
        import cliload

        rec = cliload.run(args.seed, args.seconds, args.mode)
    else:
        rec = run_library(args.workload, args.seed, args.seconds, args.mode)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
