"""Bit sweep of the lattice sums: one sha256 per function and point set.

Run it on two checkouts to compare their outputs bit for bit:

    PYTHONPATH=src python tests/bitsweep.py --dump /tmp/parent.json    # in one
    PYTHONPATH=src python tests/bitsweep.py --against /tmp/parent.json  # in the other

It evaluates theta_lattice, w_b, dx_w, dy_w, theta_difference and the
origin-free energies closed_form_energy of Gaussian, GaussianDiff and
PolyGaussian, through the public API only, the theta differences at a = 2
and the point's b, over two point sets:

- "workload": 3,000 seeded points in and beyond the benchmark's ranges,
  alpha in [0.05, 50] and y in [0.2, 1e6] log-uniform, x in [-0.6, 0.6]
  and a few couplings b;
- "float-range": a 61 x 61 grid of alpha, y in 10^{-300, -290, ..., 300}
  at x = 0.3, b = 0.3.

A third set, "laplace", holds laplace_energy at 320 seeded inputs drawn like
the benchmark's laplace box: families f and g, weights e^{rate x} with rate
in [-2, -1/4], alpha in [1, 3] (24 of them in [0.2, 1)), and 8 at y = 1e5,
where the walk passes energy._LAPLACE_WALK_CAP and each node takes the rows.

A fourth set, "verify", holds the "<report id> <repr of computed>" of every
run_checks() report at the default config and at rel_tol 1e-10 and 1e-12.

Each outcome is the repr of the value or "raises <exception type>", and
the sha256 is over the outcomes in order; the exceptions are counted by
type.  Equal hashes on two checkouts mean equal bits on every point.  With
--dump the outcomes are written as JSON, {set: {function: [outcome, ...]}};
with --against DUMP they are compared with such a file from another
checkout: the first differing points of each function are printed (set,
point, both outcomes), and the exit status is 1 where any outcome differs.
A set or function the file lacks is named and not compared.  Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import random
import struct
import sys

from hexlat import (B_CRITICAL, DEFAULT_CONFIG, Gaussian, GaussianDiff, LaplaceWeighted, PolyGaussian, SeriesConfig,
                    UpperHalfPoint, closed_form_energy, dx_w, dy_w, laplace_energy, theta_difference, theta_lattice,
                    w_b)
from hexlat.verify import run_checks

#: Differing points printed per function with --against.
SHOWN = 5

FUNCTIONS = {
    "theta_lattice": lambda a, b, z: theta_lattice(a, z),
    "w_b": lambda a, b, z: w_b(a, b, z),
    "dx_w": lambda a, b, z: dx_w(a, z),
    "dy_w": lambda a, b, z: dy_w(a, z),
    "theta_difference": lambda a, b, z: theta_difference(a, 2.0, b, z),
    "gaussian_energy": lambda a, b, z: closed_form_energy(Gaussian(a), z),
    "gaussian_diff_energy": lambda a, b, z: closed_form_energy(GaussianDiff(a, 2.0, b), z),
    "poly_gaussian_energy": lambda a, b, z: closed_form_energy(PolyGaussian(a, b), z),
}

LAPLACE_FUNCTIONS = {
    "laplace_energy": lambda alpha, b, z, family, a, rate: laplace_energy(
        LaplaceWeighted(alpha, a, b, weight=lambda t: math.exp(rate * t), family=family), z),
}


def workload_points() -> list[tuple[float, float, UpperHalfPoint]]:
    """(alpha, b, z) at 3,000 seeded points in and beyond the workloads' ranges."""
    rng = random.Random(1)
    points = []
    for _ in range(3000):
        alpha = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        y = math.exp(rng.uniform(math.log(0.2), math.log(1e6)))
        b = rng.choice([0.0, 0.1, B_CRITICAL, 0.3, 1.0])
        points.append((alpha, b, UpperHalfPoint(rng.uniform(-0.6, 0.6), y)))
    return points


def float_range_points() -> list[tuple[float, float, UpperHalfPoint]]:
    """(alpha, 0.3, (0.3, y)) on the grid alpha, y in 10^{-300..300}, step 10^10."""
    powers = [float(f"1e{k}") for k in range(-300, 301, 10)]
    return [(alpha, 0.3, UpperHalfPoint(0.3, y)) for alpha in powers for y in powers]


def laplace_points() -> list[tuple]:
    """(alpha, b, z, family, a, rate) at 320 seeded laplace_energy inputs:
    288 in the box alpha in [1, 3], 24 with alpha in [0.2, 1), 8 at y = 1e5."""
    rng = random.Random(35)
    points = []
    for i in range(320):
        x = rng.uniform(0.0, 0.5)
        y = 1e5 if i >= 312 else math.exp(rng.uniform(math.log(math.sqrt(1.0 - x * x)), math.log(2.5)))
        alpha = rng.uniform(0.2, 1.0) if 288 <= i < 312 else rng.uniform(1.0, 3.0)
        points.append((alpha, rng.uniform(0.0, 1.0), UpperHalfPoint(x, y), "fg"[i % 2],
                       rng.uniform(1.0 + 1e-9, 4.0), -rng.uniform(0.25, 2.0)))
    return points


def outcome(f, *point) -> str:
    try:
        return repr(f(*point))
    except Exception as e:  # noqa: BLE001 - the type is the outcome
        return f"raises {type(e).__name__}"


def sweep(points, functions=FUNCTIONS) -> dict[str, list[str]]:
    return {name: [outcome(f, *p) for p in points] for name, f in functions.items()}


def verify_outcomes() -> dict[str, list[str]]:
    """"<id> <repr of computed>" of every run_checks() report, per config."""
    configs = {"default": DEFAULT_CONFIG, "rel_tol=1e-10": SeriesConfig(rel_tol=1e-10),
               "rel_tol=1e-12": SeriesConfig(rel_tol=1e-12)}
    return {name: [f"{r.lemma_id} {r.computed!r}" for r in run_checks(cfg=cfg)] for name, cfg in configs.items()}


def ulps(ours: str, theirs: str) -> int | None:
    """How many floats lie between two outcomes, counting one end; None
    unless both are finite floats of one sign."""
    try:
        a, b = float(ours), float(theirs)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)) or (a < 0.0) != (b < 0.0):
        return None
    bits = [struct.unpack("<q", struct.pack("<d", abs(v)))[0] for v in (a, b)]
    return abs(bits[0] - bits[1])


def compare(dump: dict, other: dict, sets: dict) -> int:
    """Print the first SHOWN differing outcomes of each function of dump
    against other, with their points and, where both are floats of one sign,
    the most ulps between two; return how many outcomes differ."""
    total = 0
    for set_name, outcomes in dump.items():
        for name, ours in outcomes.items():
            theirs = other.get(set_name, {}).get(name)
            if theirs is None:
                print(f"{set_name} {name}: not in the other dump, not compared")
                continue
            if len(theirs) != len(ours):
                print(f"{set_name} {name}: {len(ours)} outcomes here, {len(theirs)} in the other dump")
                total += 1
                continue
            diffs = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
            total += len(diffs)
            if diffs:
                apart = [ulps(ours[i], theirs[i]) for i in diffs]
                by = f", by at most {max(apart)} ulps" if None not in apart else ""
                print(f"{set_name} {name}: {len(diffs)} of {len(ours)} outcomes differ{by}")
            for i in diffs[:SHOWN]:
                point = f"#{i}"
                if set_name in sets:
                    alpha, b, z, *rest = sets[set_name][i]
                    point = " ".join([f"alpha={alpha!r} y={z.y!r} x={z.x!r} b={b!r}", *map(repr, rest)])
                print(f"  {set_name} {point}: here {ours[i]}, other {theirs[i]}")
    print(f"{total} outcomes differ" if total else "every compared outcome equals the other dump's")
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", help="write every outcome to this JSON file")
    parser.add_argument("--against", metavar="DUMP", help="compare every outcome with this --dump file")
    args = parser.parse_args()
    sets = {"workload": workload_points(), "float-range": float_range_points()}
    dump = {set_name: sweep(points) for set_name, points in sets.items()}
    sets["laplace"] = laplace_points()
    dump["laplace"] = sweep(sets["laplace"], LAPLACE_FUNCTIONS)
    dump["verify"] = verify_outcomes()
    for set_name, outcomes in dump.items():
        for name, out in outcomes.items():
            digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
            errors = collections.Counter(o.split()[1] for o in out if o.startswith("raises "))
            counts = ", ".join(f"{k} {v}" for k, v in sorted(errors.items())) or "no exceptions"
            print(f"{set_name:12} {name:21} {digest}  ({len(out)} points; {counts})")
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(dump, fh)
    if args.against:
        with open(args.against) as fh:
            return 1 if compare(dump, json.load(fh), sets) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
