"""cli workload: fresh ``python -m hexlat.cli`` processes in a seeded sequence.

Each cycle launches four short commands (theta, reduce, energy, minimize w
above b_c) and one verify command; the verify command rotates through a
full run and then the five thematic id groups, from a seeded offset.  Interpreter start, imports and the
verify runner dominate here, unlike the in-process workloads, which pay the
import once inside setup_s.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

import pace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

B_C = 1.0 / (2.0 * math.pi)
TAIL_PCT = 55.0
CYCLE = 5

#: The thematic report-id groups of hexlat.verify (verify_constants, ...).
VERIFY_GROUPS = {
    "constants": ("HHH", "HHH-dsum", "L44-limit", "L47-limit", "Gaa4", "P1a", "P1b", "P2",
                  "L24-root", "fa1"),
    "error-terms": ("P3-sigma1", "P3-sigma2", "P5-sigma3", "P5-sigma4", "L413-eps1",
                    "L413-eps3", "L414-eps2", "L414-eps4", "L425-epsd1", "L426-epsd2",
                    "B100", "B100-tail"),
    "regions": ("L44-floor", "L43-bound", "L412-floor", "L422-Ld", "L422-caseb", "L431-La",
                "L39", "L421-bound", "L430-bound"),
    "double-sums": ("L423", "L424", "L425", "L426", "L432", "L433", "L310", "L311",
                    "L47-Bn", "L47-floor", "L48-n2", "L48-n4"),
    "identities": ("Thaaa", "L35", "W1", "L419", "L420", "L429", "Wdeform", "Eq319", "aaF4",
                   "L45", "L46", "L33", "L34", "L32"),
}
_JSON = ("--format", "json", "--precision", "17")


def child_env() -> dict:
    """The checkout's own src on the path; math libraries single-threaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _g(x: float) -> str:
    return repr(float(x))


def commands(seed: int, count: int) -> list[list[str]]:
    """The first `count` argv lists of the seeded sequence."""
    rng = np.random.default_rng(seed)
    groups = list(VERIFY_GROUPS)
    offset = int(rng.integers(len(groups)))
    # The full run comes first, so every run has one to time run_checks() by.
    variants = ["full"] + groups[offset:] + groups[:offset]
    out: list[list[str]] = []
    for c in range(count // CYCLE + 1):
        al = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        out.append(["theta", _g(al), _g(rng.uniform(-1, 1)), _g(math.exp(rng.uniform(math.log(0.3), math.log(3.0)))), *_JSON])
        out.append(["reduce", _g(rng.uniform(-3, 3)), _g(math.exp(rng.uniform(math.log(0.05), math.log(3.0)))), *_JSON])
        family = ("gaussian", "gaussian-diff", "poly-gaussian")[c % 3]
        b = rng.uniform(0.0, 0.3) if family == "poly-gaussian" else rng.uniform(0.0, 1.5)
        out.append(["energy", family, "--alpha", _g(math.exp(rng.uniform(math.log(0.5), math.log(4.0)))),
                    "--a", _g(rng.uniform(1.5, 4.0)), "--b", _g(b), "--x", _g(rng.uniform(-1, 1)),
                    "--y", _g(math.exp(rng.uniform(math.log(0.3), math.log(3.0)))), *_JSON])
        out.append(["minimize", "w", "--alpha", _g(rng.uniform(1.0, 4.0)),
                    "--b", _g(B_C * rng.uniform(1.05, 2.0)), *_JSON])
        variant = variants[c % len(variants)]
        ids = [] if variant == "full" else ["--only", *VERIFY_GROUPS[variant]]
        out.append(["verify", *ids, "--format", "json"])
    return out[:count]


def _launch(argv: list[str], env: dict, traced_file: str | None):
    if traced_file is None:
        cmd = [sys.executable, "-m", "hexlat.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "cli_child.py"), traced_file, *argv]
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return t0, time.perf_counter_ns() - t0, proc


def _loop(cmds, seconds: float, env: dict, traced: bool):
    """Launch whole cycles of commands until `seconds` have passed.

    A reference launch (see pace.py) goes before each command and once after
    the last; each result carries the host's speed scale from the median of
    the five reference launches nearest to it.  One reference launch varies
    by ~10% on its own; five are steady while staying within a few seconds
    of the command.
    """
    launches, refs = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        for argv in cmds[k:k + CYCLE]:
            traced_file = os.path.join(OUT, f"cli-child-{len(launches)}.json") if traced else None
            refs.append(pace.launch_sample(env))
            t0, ns, proc = _launch(argv, env, traced_file)
            launches.append((argv, t0, ns, proc.returncode, proc.stdout, traced_file))
        k += CYCLE
    refs.append(pace.launch_sample(env))
    results = []
    for j, (argv, t0, ns, rc, out, path) in enumerate(launches):
        scale = pace.launch_factor(refs[max(j - 2, 0):j + 3])
        results.append((argv, t0, ns, scale, rc, out, path))
    return results


MAX_LAUNCHES = 400


def run(seed: int, seconds: float, mode: str) -> dict:
    cmds = commands(seed, MAX_LAUNCHES)
    env = child_env()
    first = time.perf_counter_ns()
    if mode == "probe":
        return {"first_op_ns": first}
    results = _loop(cmds, seconds, env, traced=False)
    raw = np.array([r[2] for r in results]) / 1e6
    lat = raw * np.array([r[3] for r in results])
    tail = float(np.percentile(lat, TAIL_PCT))
    rec = {"first_op_ns": first, "ops": len(results),
           "op_mean_ms": float(lat.mean()),
           "ops_per_s": len(results) / (lat.sum() / 1e3),
           "ops_per_s_raw": len(results) / (raw.sum() / 1e3),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
           "op_p50_ms": float(np.median(lat)), "op_tail_ms": tail, "tail_pct": TAIL_PCT,
           "tail_samples_beyond": int((lat > tail).sum()), "samples": int(lat.size),
           "launches": [[r[0][0], float(ms), float(r[3])] for r, ms in zip(results, lat)]}
    checked = list(results)
    if mode == "trace":
        os.makedirs(OUT, exist_ok=True)
        traced = _loop(cmds, seconds, env, traced=True)
        rec["trace"] = _trace_summary(traced)
        checked += traced
    rec["attempted"] = len(checked)
    rec["failed"] = sum(not _output_ok(argv, rc, out) for argv, _t0, _ns, _f, rc, out, _p in checked)
    return rec


def _trace_summary(results) -> dict:
    """Aggregate the span files the traced children wrote."""
    by_name: dict[str, list] = {}
    counters: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    cli = {"interpreter_s": 0.0, "import_s": 0.0, "process_s": 0.0}
    full_runs = []
    scaled_s = 0.0
    for argv, t0, ns, scale, _rc, _out, path in results:
        scaled_s += ns * scale / 1e9
        with open(path) as fh:
            doc = json.load(fh)
        cli["interpreter_s"] += (doc["boot_ns"] - t0) / 1e9
        cli["import_s"] += doc["import_s"]
        cli["process_s"] += ns / 1e9
        for name, (c, tot, own) in doc["by_name"].items():
            a = by_name.setdefault(name, [0, 0, 0])
            a[0] += c
            a[1] += tot
            a[2] += own
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in doc["layer_self_s"].items():
            layer_self[k] = layer_self.get(k, 0.0) + v
        if argv[0] == "verify" and "--only" not in argv and "run_checks" in doc["by_name"]:
            full_runs.append(doc["by_name"]["run_checks"][1] / 1e9)
    # Process start and imports happen before main(); they belong to the cli layer.
    layer_self["cli"] = layer_self.get("cli", 0.0) + cli["interpreter_s"] + cli["import_s"]
    refs = {"run_checks_s": sum(full_runs) / len(full_runs)} if full_runs else {}
    return {"ops": len(results), "wall_s": cli["process_s"], "ops_per_s": len(results) / scaled_s,
            "by_name": by_name, "counters": counters,
            "layer_self_s": layer_self, "cli": cli, "refs": refs}


def _output_ok(argv: list[str], rc: int, out: str) -> bool:
    """Exit code and output against the oracle; a full verify must fail
    exactly EXPECTED_FAILURES (those 7 are correct output, not failures)."""
    import workloads as W

    try:
        doc = json.loads(out)
    except ValueError:
        return False
    rows, meta = doc.get("rows", []), doc.get("meta", {})
    cmd = argv[0]
    if cmd == "verify":
        from hexlat.verify import EXPECTED_FAILURES, coverage_manifest

        wanted = set(argv[argv.index("--only") + 1:argv.index("--format")]) if "--only" in argv \
            else set(coverage_manifest())
        failing = {r["lemma_id"] for r in rows if not r["passed"]}
        expect = wanted & set(EXPECTED_FAILURES)
        return ({r["lemma_id"] for r in rows} == wanted and failing == expect
                and rc == (1 if expect else 0))
    if rc != 0 or not rows:
        return False
    opts = dict(zip(argv[2::2], argv[3::2])) if cmd in ("energy", "minimize") else {}
    if cmd == "theta":
        al, x, y = (float(v) for v in argv[1:4])
        q, _m, _u = W.brute_norms(x, y, al)
        e = np.exp(-math.pi * al * q)
        return W.close(rows[0]["theta"], float(e.sum()), float(e.sum()), W.SERIES_TOL)
    if cmd == "reduce":
        return W.SeriesSweep.reduced_ok(float(argv[1]), float(argv[2]), rows[0]["x"], rows[0]["y"])
    if cmd == "energy":
        al, a, b = float(opts["--alpha"]), float(opts["--a"]), float(opts["--b"])
        q, _m, _u = W.brute_norms(float(opts["--x"]), float(opts["--y"]), al)
        e = np.exp(-math.pi * al * q)
        t, origin = {"gaussian": (e, 1.0), "gaussian-diff": (e - b * np.exp(-math.pi * a * al * q), 1.0 + b),
                     "poly-gaussian": ((q - b / al) * e, b / al)}[argv[1]]
        return W.close(rows[0]["energy"], float(t[q > 0].sum()), float(np.abs(t).sum()) + origin,
                        W.SERIES_TOL)
    # minimize w above b_c: a strictly decreasing witness that ends below the hexagonal value
    vals = [r["witness_value"] for r in rows]
    al, b = float(opts["--alpha"]), float(opts["--b"])
    return (meta.get("outcome") == "no-minimizer" and all(v < u for u, v in zip(vals, vals[1:]))
            and vals[-1] < W.Classify.energy_at_hex("w", al, 0.0, b))
