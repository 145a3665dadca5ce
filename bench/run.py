"""hexlat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is series-sweep, laplace, classify, cli, or all.  With --trace 0 the
end-to-end metrics are measured with tracing off; with --trace 1 the same
workload runs once untraced and once with every layer wrapped, and the
per-layer metrics come from the traced pass.  Every output is checked
against an independent oracle after the timed window.  The last line of
standard output is a JSON object {correct, attempted, failed, metrics}.

Each workload runs in a fresh worker process (bench/worker.py), so set-up
is measured as a user pays it: interpreter start, ``import hexlat`` and
input generation.  The checkout's own src/ is put on PYTHONPATH; the
package does not need to be installed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import pace  # noqa: E402
from cliload import child_env  # noqa: E402
from spans import LAYERS, MODULES  # noqa: E402

WORKLOADS = ("series-sweep", "laplace", "classify", "cli")
#: Set-up-only launches per untraced run, besides the measured one.
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "theta1d.calls": "count", "theta1d.self_s": "s", "theta1d.per_call_us": "us",
    "energy.self_s": "s",
    **{f"energy.{f}.{k}": u for f in ("theta_lattice", "w_b", "dx_w", "dy_w")
       for k, u in (("calls", "count"), ("per_call_us", "us"))},
    "energy.laplace_energy.theta_calls_per_op": "count", "energy.laplace_energy.corner_op_ms": "ms",
    "quadrature.integrate.calls": "count", "quadrature.gauss_panel.calls": "count",
    "quadrature.self_s": "s", "quadrature.useful_panel_frac": "fraction",
    "moduli.lattice_norms.calls": "count", "moduli.lattice_norms.points": "count",
    "moduli.reduce.calls": "count", "moduli.self_s": "s",
    "minimize.calls": "count", "minimize.energy_evals_per_op": "count",
    "minimize.optimizer_s": "s", "minimize.witness_frac": "fraction", "minimize.self_s": "s",
    "verify.run_checks.calls": "count", "verify.reports": "count", "verify.per_run_s": "s",
    "verify.self_s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.main_self_s": "s", "cli.process_s": "s",
    "trace.overhead_frac": "fraction",
    **{f"{m}.self_share": "fraction" for m in MODULES},
    "ref.jacobi_theta_us": "us", "ref.theta_lattice_us": "us", "ref.w_b_us": "us",
    "ref.dy_w_us": "us", "ref.laplace_energy_ms": "ms", "ref.minimize_w_1_0_ms": "ms",
    "ref.run_checks_s": "s",
}


def run_worker(name: str, seed: int, seconds: float, mode: str) -> tuple[int, dict]:
    """Launch one worker process; returns (launch time in ns, its record)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t_launch = time.perf_counter_ns()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {name} ({mode}) exited with {proc.returncode}")
    return t_launch, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    raw, refs = [], []
    env = child_env()
    for k in range(SETUP_PROBES + 1):
        # Set-up is mostly interpreter start and imports, so a reference
        # launch before each one gives the host's speed for it (pace.py).
        refs.append(pace.launch_sample(env))
        t_launch, rec = run_worker(name, seed, seconds, "probe" if k < SETUP_PROBES else "run")
        raw.append((rec["first_op_ns"] - t_launch) / 1e9)
    scale = pace.launch_factor(refs)
    scaled = [s * scale for s in raw]
    metrics = {"setup_s": statistics.median(scaled)}
    metrics.update({k: rec[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")})
    rec["setup_samples_s"] = scaled
    rec["setup_samples_raw_s"] = raw
    rec["setup_reference_ns"] = refs
    return {"metrics": metrics, "units": END_TO_END_UNITS, "record": rec}


def per_layer(name: str, seed: int, seconds: float) -> dict:
    _t, rec = run_worker(name, seed, seconds, "trace")
    tr = rec["trace"]
    agg, cnt = tr["by_name"], tr["counters"]

    def calls(*names: str) -> int:
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def per_call(n: str, scale: float) -> float:
        c, tot, _own = agg.get(n, (0, 0, 0))
        return tot / c * scale if c else 0.0

    self_s = tr["layer_self_s"]
    ops = tr["ops"]
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    theta_calls = calls(*LAYERS["theta1d"][1])
    m["theta1d.calls"] = theta_calls
    m["theta1d.self_s"] = self_s["theta1d"]
    m["theta1d.per_call_us"] = self_s["theta1d"] / theta_calls * 1e6 if theta_calls else 0.0
    m["energy.self_s"] = self_s["energy"]
    for f in ("theta_lattice", "w_b", "dx_w", "dy_w"):
        m[f"energy.{f}.calls"] = calls(f)
        m[f"energy.{f}.per_call_us"] = per_call(f, 1e-3)
    lap = calls("laplace_energy")
    m["energy.laplace_energy.theta_calls_per_op"] = (
        cnt.get("energy.laplace_energy.theta_calls", 0) / lap if lap else 0.0)
    integ, computed = calls("integrate"), cnt.get("quadrature.panels_computed", 0)
    m["quadrature.integrate.calls"] = integ
    m["quadrature.gauss_panel.calls"] = calls("gauss_panel")
    m["quadrature.self_s"] = self_s["quadrature"]
    # Panel doubling computes 1 + 2 + ... + 2^k panels and accepts the last 2^k.
    m["quadrature.useful_panel_frac"] = (computed + integ) / 2 / computed if computed else 0.0
    m["moduli.lattice_norms.calls"] = calls("lattice_norms")
    m["moduli.lattice_norms.points"] = cnt.get("moduli.lattice_norms.points", 0)
    m["moduli.reduce.calls"] = calls("reduce_to_fundamental")
    m["moduli.self_s"] = self_s["moduli"]
    m["minimize.calls"] = calls(*LAYERS["minimize"][1])
    m["minimize.energy_evals_per_op"] = cnt.get("minimize.energy_evals", 0) / ops if ops else 0.0
    m["minimize.optimizer_s"] = sum(agg.get("scipy." + n, (0, 0, 0))[2] for n in ("minimize", "minimize_scalar")) / 1e9
    m["minimize.witness_frac"] = tr.get("witness_frac", 0.0)
    m["minimize.self_s"] = self_s["minimize"]
    runs = calls("run_checks")
    m["verify.run_checks.calls"] = runs
    m["verify.reports"] = cnt.get("verify.reports", 0)
    m["verify.per_run_s"] = per_call("run_checks", 1e-9)
    m["verify.self_s"] = self_s["verify"]
    wall = tr["wall_s"]
    if "cli" in tr:
        c = tr["cli"]
        m["cli.interpreter_s"] = c["interpreter_s"] / ops
        m["cli.import_s"] = c["import_s"] / ops
        m["cli.main_self_s"] = agg.get("main", (0, 0, 0))[2] / 1e9 / ops
        m["cli.process_s"] = c["process_s"] / ops
        wall = c["process_s"]
    m["trace.overhead_frac"] = rec["ops_per_s"] / tr["ops_per_s"] - 1.0
    for mod in MODULES:
        m[f"{mod}.self_share"] = self_s.get(mod, 0.0) / wall
    kinds = rec.get("kind_mean_us")
    m["ref.jacobi_theta_us"] = per_call("jacobi_theta", 1e-3)
    if name == "series-sweep":
        import workloads

        for f in ("theta_lattice", "w_b", "dy_w"):
            m[f"ref.{f}_us"] = kinds[workloads.SERIES_KINDS.index(f)]
    if name == "laplace":
        m["ref.laplace_energy_ms"] = rec["op_mean_ms"]
        m["energy.laplace_energy.corner_op_ms"] = tr["refs"]["laplace_corner_ms"]
    m["ref.minimize_w_1_0_ms"] = tr["refs"].get("minimize_w_1_0_s", 0.0) * 1e3
    m["ref.run_checks_s"] = tr["refs"].get("run_checks_s", 0.0)
    return {"metrics": m, "units": PER_LAYER_UNITS, "record": rec}


def run_record() -> dict:
    """Machine, toolchain and source identity of this run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rec = {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            rec[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            rec[pkg] = None
    rec["git_sha"] = rec["git_dirty"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        rec["git_sha"] = git("rev-parse", "HEAD") or None
        rec["git_dirty"] = bool(git("status", "--porcelain", "--", "src"))
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hexlat", "__init__.py")):
        print(f"bench: no hexlat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = run_record()
    print("# run " + json.dumps(record))
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    details = {}
    for name in names:
        res = (per_layer if args.trace else end_to_end)(name, args.seed, args.seconds)
        rec = res["record"]
        attempted += rec["attempted"]
        failed += rec["failed"]
        details[name] = rec
        print(f"# {name}: {rec['attempted']} ops attempted, {rec['failed']} failed "
              f"(failed_frac {rec['failed'] / rec['attempted']:.3g}); "
              f"op_tail_ms is p{rec['tail_pct']:g} of {rec['samples']} untraced samples, "
              f"{rec['tail_samples_beyond']} beyond it")
        raw_setup = rec.get("setup_samples_raw_s")
        print(f"# {name}: times are scaled to nominal host speed (bench/pace.py); unscaled "
              f"ops_per_s {rec['ops_per_s_raw']:.6g}"
              + (f", setup_s {statistics.median(raw_setup):.6g}" if raw_setup else ""))
        for key, value in res["metrics"].items():
            unit = res["units"][key]
            print(f"{name:>13s}  {key:<42s} {value:>14.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}/{key}"] = {"value": value, "unit": unit}
    out = os.path.join(BENCH, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"run": record, "args": vars(args), "metrics": metrics, "details": details}, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
