"""Command-line front end: evaluation, minimization, phase scans, reduction,
and the verification suite, with CSV/JSON output.

Exit codes: 0 success; 1 verification ran and at least one report failed;
2 invalid arguments (including unknown lemma ids, a spec file that is not
a JSON object of finite numbers, and a file that cannot be read or
written); 3 energy-evaluation failure (tail/truncation/quadrature errors,
a reduction that cannot proceed, or a minimization that did not converge).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any

from .config import DEFAULT_CONFIG, DEFAULT_SEED, SeriesConfig
from .energy import (
    Gaussian,
    GaussianDiff,
    LaplaceWeighted,
    PolyGaussian,
    PotentialSpec,
    YukawaDiff,
    closed_form_energy,
    lattice_energy,
    theta_lattice,
)
from .errors import (
    HexlatError,
    InvalidParameter,
    OptimizerDivergence,
    QuadratureDivergence,
    TailTooLarge,
    TruncationFailure,
)
from .minimize import (
    Minimizer,
    ThetaDiffProblem,
    WProblem,
    minimize_generic,
    minimize_theta_difference,
    minimize_w,
    phase_scan,
)
from .moduli import UpperHalfPoint, reduce_to_fundamental

#: OverflowError: a spec-file weight e^{rate x} that outgrows double range.
_EVAL_ERRORS = (TailTooLarge, TruncationFailure, QuadratureDivergence, OptimizerDivergence,
                OverflowError)

#: Potential family -> spec class, whose record fields are its numeric
#: parameters.  Spec files name the families with "_", the energy command with "-".
_FAMILIES = {
    "gaussian": Gaussian,
    "gaussian_diff": GaussianDiff,
    "poly_gaussian": PolyGaussian,
    "yukawa_diff": YukawaDiff,
}

#: Most b values one phase scan accepts; each costs a minimization per alpha.
_MAX_B_CELLS = 10_000


def _fmt(value: Any, precision: int) -> str:
    return f"{value:.{precision}g}" if isinstance(value, float) else str(value)


def _round(value: Any, precision: int) -> Any:
    """A float rounded to `precision` digits ("inf"/"nan" for JSON); anything else as is."""
    if not isinstance(value, float):
        return value
    return float(f"{value:.{precision}g}") if math.isfinite(value) else str(value)


def _emit(args, meta: dict, rows: list[dict], plain: str) -> None:
    """Render rows (one or more) or plain (no final newline) to --out or stdout."""
    p = args.precision
    if args.format == "json":
        doc = {"meta": meta, "rows": [{k: _round(v, p) for k, v in r.items()} for r in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        for k, v in meta.items():
            buf.write(f"# {k}={_fmt(v, p)}\n")
        writer = csv.writer(buf)
        writer.writerow(rows[0].keys())
        for r in rows:
            writer.writerow([_fmt(v, p) for v in r.values()])
        text = buf.getvalue()
    else:
        text = plain + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_config(args) -> SeriesConfig:
    if args.tol is None:
        return DEFAULT_CONFIG
    return SeriesConfig(rel_tol=args.tol)


def _number(doc: dict, key: str, default: float | None = None) -> float:
    """The finite number doc[key]; spec files are parsed with every number a float."""
    value = doc.get(key, default)
    if not (isinstance(value, float) and math.isfinite(value)):
        raise InvalidParameter(f"{key!r} must be a finite number, got {value!r}")
    return value


def _family_spec(family: Any, params: dict) -> PotentialSpec:
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InvalidParameter(f"unknown potential family {family!r}")
    cls = _FAMILIES[family]
    return cls(**{name: _number(params, name) for name in cls._fields})


def _potential_from_file(path: str) -> PotentialSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=float)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise InvalidParameter(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParameter(f"spec file {path} must hold a JSON object")
    if doc.get("family") != "laplace_weighted":
        return _family_spec(doc.get("family"), doc)
    wdoc = doc.get("weight", {"kind": "constant", "value": 1.0})
    kind = wdoc.get("kind") if isinstance(wdoc, dict) else None
    if kind == "constant":
        c = _number(wdoc, "value", 1.0)
        weight = lambda x, c=c: c
    elif kind == "exponential":
        k = _number(wdoc, "rate")
        weight = lambda x, k=k: math.exp(k * x)
    else:
        raise InvalidParameter(f"unknown weight {wdoc!r}")
    return LaplaceWeighted(
        alpha=_number(doc, "alpha"), a=_number(doc, "a"), b=_number(doc, "b"), weight=weight,
        family=doc.get("weight_family", "f"),
    )


def _outcome_rows(outcome) -> tuple[dict, list[dict], str]:
    if isinstance(outcome, Minimizer):
        row = {
            "outcome": "minimizer",
            "x": outcome.z_star.x,
            "y": outcome.z_star.y,
            "value": outcome.value,
            "distance_to_hex": outcome.distance_to_hex,
            "advisory": outcome.advisory,
        }
        plain = (
            f"minimizer at z = ({outcome.z_star.x:.12g}, {outcome.z_star.y:.12g})\n"
            f"value = {outcome.value:.12g}\n"
            f"distance to hexagonal point = {outcome.distance_to_hex:.3g}"
            + ("\n(advisory: alpha < 1 lies outside the theorem hypotheses)" if outcome.advisory else "")
        )
        return {"outcome": "minimizer"}, [row], plain
    rows = [
        {"outcome": "no-minimizer", "witness_y": y, "witness_value": v,
         "asymptotic_slope_sign": outcome.asymptotic_slope_sign}
        for y, v in zip(outcome.witness_y, outcome.witness_values)
    ]
    plain = "no minimizer (energy unbounded below along x = 1/2)\n" + "\n".join(
        f"  y = {y:<14.6g} energy = {v:.12g}" for y, v in zip(outcome.witness_y, outcome.witness_values)
    )
    return {"outcome": "no-minimizer"}, rows, plain


def _cmd_theta(args) -> int:
    cfg = _series_config(args)
    value = theta_lattice(args.alpha, UpperHalfPoint(args.x, args.y), cfg)
    meta = {"command": "theta", "alpha": args.alpha, "x": args.x, "y": args.y,
            "precision": args.precision}
    _emit(args, meta, [{"alpha": args.alpha, "x": args.x, "y": args.y, "theta": value}],
          _fmt(value, args.precision))
    return 0


def _cmd_energy(args) -> int:
    if args.spec_file:
        spec = _potential_from_file(args.spec_file)
    elif args.family:
        spec = _family_spec(args.family.replace("-", "_"), vars(args))
    else:
        raise InvalidParameter("give a potential family or --spec-file")
    z = UpperHalfPoint(args.x, args.y)
    if args.cutoff is not None:
        value = lattice_energy(spec, z, cutoff_radius=args.cutoff)
        route = f"direct summation, cutoff radius {args.cutoff}"
    else:
        value = closed_form_energy(spec, z, _series_config(args))
        route = "closed form"
    meta = {"command": "energy", "route": route, "x": args.x, "y": args.y,
            "precision": args.precision}
    _emit(args, meta, [{"x": args.x, "y": args.y, "energy": value}], _fmt(value, args.precision))
    return 0


def _cmd_minimize(args) -> int:
    cfg = _series_config(args)
    if args.problem == "w":
        outcome = minimize_w(args.alpha, args.b, cfg)
    elif args.problem == "thetadiff":
        if args.a is None:
            raise InvalidParameter("thetadiff needs --a")
        outcome = minimize_theta_difference(args.alpha, args.a, args.b, cfg)
    else:  # potential
        if not args.spec_file:
            raise InvalidParameter("minimize potential needs --spec-file")
        outcome = minimize_generic(_potential_from_file(args.spec_file), cfg)
    meta, rows, plain = _outcome_rows(outcome)
    meta.update({"command": "minimize", "problem": args.problem, "precision": args.precision})
    _emit(args, meta, rows, plain)
    return 0


def _parse_alpha_list(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParameter(f"bad alpha list {text!r}") from exc
    if not vals:
        raise InvalidParameter("empty alpha list")
    return vals


def _cmd_phase_scan(args) -> int:
    alphas = _parse_alpha_list(args.alphas)
    if args.b_step <= 0 or args.b_max < args.b_min:
        raise InvalidParameter("need b-min <= b-max and b-step > 0")
    if args.problem == "thetadiff" and args.a is None:
        raise InvalidParameter("thetadiff needs --a")
    span = (args.b_max + 1e-15 - args.b_min) / args.b_step
    if not span < _MAX_B_CELLS:  # also rejects nan and inf
        raise InvalidParameter(f"the b grid must have at most {_MAX_B_CELLS} cells")
    bs = [round(args.b_min + k * args.b_step, 12) for k in range(math.floor(span) + 1)]
    problem = WProblem() if args.problem == "w" else ThetaDiffProblem(a=args.a)
    result = phase_scan(alphas, bs, problem, _series_config(args))
    rows: list[dict] = [
        {"alpha": c.alpha, "b": c.b, "classification": c.classification,
         "distance_to_hex": "" if c.distance_to_hex is None else c.distance_to_hex}
        for c in result.rows
    ]
    for alpha, boundary in result.boundaries.items():
        rows.append({"alpha": alpha, "b": "" if boundary is None else boundary,
                     "classification": "boundary", "distance_to_hex": ""})
    meta = {"command": "phase-scan", "problem": args.problem, "precision": args.precision}
    if args.problem == "thetadiff":
        meta["a"] = args.a
    plain_lines = [
        f"alpha={c.alpha:<8g} b={c.b:<12g} {c.classification}" for c in result.rows
    ] + [
        f"boundary alpha={a:<8g} last hexagonal b = {b}" for a, b in result.boundaries.items()
    ]
    _emit(args, meta, rows, "\n".join(plain_lines))
    return 0


def _cmd_verify(args) -> int:
    # Imported here: verify loads numpy, which no other command needs.
    from .verify import coverage_manifest, run_checks

    reports = run_checks(only=args.only or None, seed=args.seed, cfg=_series_config(args))
    rows = [r.as_dict() for r in reports]
    n_fail = sum(1 for r in reports if not r.passed)
    meta = {"command": "verify", "seed": args.seed, "reports": len(reports),
            "failed": n_fail, "precision": args.precision,
            "manifest_size": len(coverage_manifest())}
    plain_lines = [f"# seed={args.seed}"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        plain_lines.append(
            f"{status}  {r.lemma_id:<14s} claimed {_fmt(r.claimed, 6):>12s}  "
            f"computed {_fmt(r.computed, 6):>12s}  ({r.comparison})"
        )
    plain_lines.append(f"{len(reports) - n_fail} passed, {n_fail} failed")
    _emit(args, meta, rows, "\n".join(plain_lines))
    return 1 if n_fail else 0


def _cmd_reduce(args) -> int:
    reduced, word = reduce_to_fundamental(UpperHalfPoint(args.x, args.y))
    word_names = [g.value for g in word]
    meta = {"command": "reduce", "precision": args.precision}
    rows = [{"x": reduced.x, "y": reduced.y, "word": " ".join(word_names) or "identity"}]
    plain = (
        f"reduced point: ({_fmt(reduced.x, args.precision)}, {_fmt(reduced.y, args.precision)})\n"
        f"word: {' '.join(word_names) or 'identity'}"
    )
    _emit(args, meta, rows, plain)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexlat",
        description="Lattice energy sums, hexagonal phase classification, and "
        "numerical verification of the underlying bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol: bool = True) -> None:
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="structured output format (default: plain text)")
        p.add_argument("--precision", type=int, default=12,
                       help="significant digits for printed floats (6..17)")
        p.add_argument("--out", default=None, help="write output to FILE")
        if tol:  # only the commands that evaluate a series take --tol
            p.add_argument("--tol", type=float, default=None,
                           help="series truncation tolerance override")

    p = sub.add_parser("theta", help="evaluate theta(alpha; x + iy)")
    p.add_argument("alpha", type=float)
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    common(p)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("energy", help="evaluate a lattice energy at x + iy")
    p.add_argument("family", nargs="?", default=None,
                   choices=[name.replace("_", "-") for name in _FAMILIES])
    p.add_argument("--spec-file", default=None, help="JSON potential spec file")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--cutoff", type=float, default=None,
                   help="force direct summation with this cutoff radius")
    common(p)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("minimize", help="locate the minimizer or a divergence witness")
    p.add_argument("problem", choices=["w", "thetadiff", "potential"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--spec-file", default=None)
    common(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("phase-scan", help="classify a grid of (alpha, b) cells")
    p.add_argument("--problem", choices=["w", "thetadiff"], required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--b-min", type=float, required=True)
    p.add_argument("--b-max", type=float, required=True)
    p.add_argument("--b-step", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_phase_scan)

    p = sub.add_parser("verify", help="run the lemma verification suite")
    p.add_argument("--only", nargs="*", default=None, help="restrict to these report ids")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized grids (printed in the output header)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="reduce x + iy to the fundamental domain")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    common(p, tol=False)
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 6 <= args.precision <= 17:
        parser.error("--precision must lie in [6, 17]")  # exits 2
    try:
        return args.func(args)
    except (InvalidParameter, OSError) as exc:
        print(f"hexlat: error: {exc}", file=sys.stderr)
        return 2
    except _EVAL_ERRORS as exc:
        print(f"hexlat: energy evaluation failed: {exc}", file=sys.stderr)
        return 3
    except HexlatError as exc:
        print(f"hexlat: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
