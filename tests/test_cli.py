"""Tests for the command-line interface: outputs, formats, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mp_lattice_sums, unconverged_refinement
from hexlat import PolyGaussian, UpperHalfPoint, closed_form_energy
from hexlat.cli import _fmt, _round, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_plain_value(capsys):
    code, out, _ = run_cli(capsys, "theta", "1", "0", "1")
    assert code == 0
    val = float(out.strip())
    # square-lattice theta, cross-checked by direct summation
    ref = sum(
        math.exp(-math.pi * (m * m + n * n))
        for m in range(-10, 11)
        for n in range(-10, 11)
    )
    assert abs(val - ref) < 1e-10


def test_theta_duality_through_cli(capsys):
    y = "0.8660254037844386"
    _, out1, _ = run_cli(capsys, "theta", "2", "0.5", y, "--precision", "15")
    _, out2, _ = run_cli(capsys, "theta", "0.5", "0.5", y, "--precision", "15")
    assert abs(float(out1) - float(out2) / 2.0) < 1e-13


def test_theta_shift_invariance_cli(capsys):
    _, out1, _ = run_cli(capsys, "theta", "1", "1.2", "1.0", "--precision", "15")
    _, out2, _ = run_cli(capsys, "theta", "1", "0.2", "1.0", "--precision", "15")
    assert out1 == out2


def test_csv_json_numeric_parity(capsys):
    code, jout, _ = run_cli(capsys, "theta", "1.3", "0.2", "1.1", "--format", "json")
    assert code == 0
    jdoc = json.loads(jout)
    code, cout, _ = run_cli(capsys, "theta", "1.3", "0.2", "1.1", "--format", "csv")
    assert code == 0
    lines = [ln for ln in cout.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert float(rows[0]["theta"]) == jdoc["rows"][0]["theta"]


@pytest.mark.parametrize("value, rounded, shown", [
    (math.inf, "inf", "inf"),
    (-math.inf, "-inf", "-inf"),
    (math.nan, "nan", "nan"),
    (True, True, "True"),
    (3, 3, "3"),
    (np.int64(7), np.int64(7), "7"),
    (1.0 / 3.0, 0.333, "0.333"),
    (np.float64(1.0 / 3.0), 0.333, "0.333"),
    ("hexagonal", "hexagonal", "hexagonal"),
])
def test_fmt_and_round_by_type(value, rounded, shown):
    # only floats (np.float64 included) are rounded; JSON gets a non-finite
    # float as its string, and every other value as it is
    out = _round(value, 3)
    assert type(out) is type(rounded) and out == rounded
    assert _fmt(value, 3) == shown


def test_invalid_arguments_exit_2(capsys):
    assert run_cli(capsys, "theta", "1", "0", "-1")[0] == 2
    assert run_cli(capsys, "theta", "-1", "0", "1")[0] == 2
    assert run_cli(capsys, "reduce", "0.3", "0")[0] == 2
    for argv, message in (
        (("energy", "--x", "0", "--y", "1"), "give a potential family or --spec-file"),
        (("energy", "gaussian", "--x", "0", "--y", "1", "--cutoff", "0"), "cutoff_radius must be > 0"),
        (("energy", "gaussian", "--x", "0", "--y", "1", "--cutoff", "inf"), "cutoff_radius must be > 0"),
        (("phase-scan", "--problem", "w", "--alphas", ",", "--b-min", "0", "--b-max", "0.1",
          "--b-step", "0.05"), "empty alpha list"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and message in err, argv
    for argv in (
        ["theta", "1", "0", "1", "--precision", "22"],
        ["theta", "1", "0", "1", "--format", "xml"],
        ["reduce", "0.3", "1.2", "--tol", "1e-10"],  # reduce evaluates no series
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_reduce_examples(capsys):
    code, out, _ = run_cli(capsys, "reduce", "0.25", "2.0")
    assert code == 0 and "identity" in out
    code, out, _ = run_cli(capsys, "reduce", "5", "1")
    assert code == 0
    assert out.count("shift-") == 5
    code, out, _ = run_cli(capsys, "reduce", "-0.3", "0.4", "--format", "json")
    doc = json.loads(out)
    x, y = doc["rows"][0]["x"], doc["rows"][0]["y"]
    assert x * x + y * y >= 1.0 - 1e-9 and 0.0 <= x <= 0.5


def test_minimize_w_hexagonal_record(capsys):
    code, out, _ = run_cli(capsys, "minimize", "w", "--alpha", "1", "--b", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["outcome"] == "minimizer"
    row = doc["rows"][0]
    assert abs(row["x"] - 0.5) < 1e-5 and abs(row["y"] - 0.8660254) < 1e-5
    assert row["distance_to_hex"] < 1e-5


def test_minimize_w_no_minimizer_record(capsys):
    code, out, _ = run_cli(capsys, "minimize", "w", "--alpha", "1", "--b", "0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["outcome"] == "no-minimizer"
    vals = [r["witness_value"] for r in doc["rows"]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_minimize_thetadiff_boundary(capsys):
    code, out, _ = run_cli(
        capsys, "minimize", "thetadiff", "--alpha", "1", "--a", "2", "--b", "1.4142135",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["meta"]["outcome"] == "minimizer"


def test_minimize_potential_spec_file(capsys, tmp_path):
    spec = tmp_path / "pot.json"
    spec.write_text(json.dumps({"family": "gaussian_diff", "alpha": 1.0, "a": 2.0, "b": 1.0}))
    code, out, _ = run_cli(
        capsys, "minimize", "potential", "--spec-file", str(spec), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["outcome"] == "minimizer"
    assert doc["rows"][0]["distance_to_hex"] < 1e-4


def test_minimize_missing_args_exit_2(capsys):
    assert run_cli(capsys, "minimize", "thetadiff", "--alpha", "1", "--b", "1")[0] == 2
    assert run_cli(capsys, "minimize", "potential")[0] == 2
    assert run_cli(capsys, "minimize", "potential", "--spec-file", "/nonexistent.json")[0] == 2


def test_energy_inline_and_spec_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "energy", "gaussian", "--alpha", "1", "--x", "0", "--y", "1",
        "--precision", "14",
    )
    assert code == 0
    direct = float(out)
    code, out, _ = run_cli(
        capsys, "energy", "gaussian", "--alpha", "1", "--x", "0", "--y", "1",
        "--cutoff", "8", "--precision", "14",
    )
    assert abs(float(out) - direct) < 1e-11
    spec = tmp_path / "pot.json"
    spec.write_text(json.dumps({
        "family": "laplace_weighted", "alpha": 1.0, "a": 2.0, "b": 0.0,
        "weight": {"kind": "exponential", "rate": -1.0}, "weight_family": "f",
    }))
    code, out, _ = run_cli(capsys, "energy", "--spec-file", str(spec), "--x", "0.5",
                           "--y", "0.8660254037844386")
    assert code == 0 and float(out) > 0


def test_energy_eval_failure_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "energy", "gaussian", "--alpha", "1", "--x", "0", "--y", "1",
        "--cutoff", "1.2",
    )
    assert code == 3
    assert "energy evaluation failed" in err


def test_theta_truncation_failure_exit_3(capsys):
    # alpha y = 1e-4 needs ~320 outer terms, above the default cap of 256
    code, _, err = run_cli(capsys, "theta", "0.0001", "0", "1")
    assert code == 3
    assert "energy evaluation failed" in err and "Traceback" not in err


@pytest.mark.parametrize("x", ["0.3", "1000000.3"])
def test_theta_small_y_exit_0(capsys, x):
    # alpha y = 1e-4 on the lattice of (0.3, 100): the rows would need more than
    # 256, the direct sum walks ~16,000 point pairs
    code, out, _ = run_cli(capsys, "theta", "1", x, "1e-4", "--precision", "17")
    assert code == 0
    ref = mp_lattice_sums(1.0, 0.0, UpperHalfPoint(float(x), 1e-4))[0]
    assert abs(float(out) - ref) <= 1e-13 * ref


def test_poly_gaussian_off_the_domain_exit_0(capsys):
    # (0, 1/2) lies off the domain, where the row expansion was off by 1.4e-10
    # of sum |terms|; y/alpha = 1/8, so the energy is one direct sum
    code, out, _ = run_cli(capsys, "energy", "poly-gaussian", "--alpha", "4", "--b", "2", "--x", "0", "--y", "0.5",
                           "--format", "json")
    assert code == 0
    energy = json.loads(out)["rows"][0]["energy"]
    assert energy == _round(closed_form_energy(PolyGaussian(4.0, 2.0), UpperHalfPoint(0.0, 0.5)), 12)
    ref = mp_lattice_sums(4.0, 2.0, UpperHalfPoint(0.0, 0.5))[1] + 0.5  # without the origin's -b/alpha
    assert abs(energy - ref) <= 1e-11 * ref


@pytest.mark.parametrize("argv", [
    lambda x: ["theta", "2", x, "3"],
    lambda x: ["energy", "poly-gaussian", "--alpha", "2", "--b", "0.1", "--x", x, "--y", "3"],
], ids=["theta", "energy"])
def test_x_past_2_53_exit_0(capsys, argv):
    # x = 1e308 is an integer, whose lattice is that of x = 0
    code, out, _ = run_cli(capsys, *argv("1e308"), "--precision", "17")
    assert code == 0 and out == run_cli(capsys, *argv("0"), "--precision", "17")[1]


def test_theta_past_both_routes_exit_3(capsys):
    # the direct sum would pass MAX_TERMS^2 points and the rows MAX_TERMS rows
    code, _, err = run_cli(capsys, "theta", "1e-8", "0.3", "1e-9")
    assert code == 3
    assert "theta_lattice not converged" in err


def test_minimize_at_huge_alpha_exit_0(capsys):
    # (pi alpha)^2 overflows: the Newton walk's tail skips the terms it would make nan
    code, out, _ = run_cli(capsys, "minimize", "w", "--alpha", "1e308", "--b", "0")
    assert code == 0
    assert "distance to hexagonal point = 0" in out


def test_minimize_unconverged_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("hexlat._newton.newton", unconverged_refinement(-1e9))
    code, _, err = run_cli(capsys, "minimize", "w", "--alpha", "1", "--b", "0")
    assert code == 3
    assert "energy evaluation failed" in err and "Traceback" not in err


def test_phase_scan_runaway_refinement_exit_3(capsys):
    # The 12-digit b grid makes sqrt(3) into sqrt(3) + 2.3e-13, where the
    # energy falls toward y = inf; this was an input error (exit 2) before.
    code, out, err = run_cli(capsys, "phase-scan", "--problem", "thetadiff", "--a", "3",
                             "--alphas", "0.3", "--b-min", "1.7320508075688772",
                             "--b-max", "1.7320508075688772", "--b-step", "0.1")
    assert code == 3 and out == ""
    assert "Newton did not converge" in err and "Traceback" not in err


#: Run in a fresh interpreter: the scalar commands, the modules they left
#: loaded, then the two kinds of command that do load numpy.  The records are
#: built without dataclasses, and so without inspect; numpy imports inspect.
_SCALAR_CHILD = """
import contextlib, io, json, sys
from hexlat.cli import main

scalar = [
    ["theta", "1", "0.3", "1"],
    ["reduce", "0.3", "0.5"],
    ["energy", "gaussian", "--x", "0.1", "--y", "1.2"],
    ["energy", "gaussian-diff", "--a", "2", "--b", "1", "--x", "0.1", "--y", "1.2"],
    ["energy", "poly-gaussian", "--b", "0.1", "--x", "0.1", "--y", "1.2"],
    ["energy", "yukawa-diff", "--a", "2", "--b", "0.5", "--x", "0.1", "--y", "1.2"],
    ["energy", "yukawa-diff", "--a", "2", "--b", "0.5", "--x", "0.1", "--y", "1.2", "--cutoff", "8"],
    ["energy", "poly-gaussian", "--b", "0.1", "--x", "0.5", "--y", "1.2", "--cutoff", "8"],
    ["minimize", "w", "--alpha", "1", "--b", "0"],
    ["minimize", "thetadiff", "--alpha", "1", "--a", "2", "--b", "1"],
    ["phase-scan", "--problem", "w", "--alphas", "1", "--b-min", "0.1", "--b-max", "0.2",
     "--b-step", "0.1"],
]
array = [
    ["verify", "--only", "HHH"],
    ["energy", "--spec-file", sys.argv[1], "--x", "0.5", "--y", "0.8660254037844386"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in scalar]
    loaded = sorted(m for m in ("numpy", "scipy", "hexlat.verify", "dataclasses", "inspect")
                    if m in sys.modules)
    array_codes = [main(argv) for argv in array]
print(json.dumps({"codes": codes, "loaded": loaded, "array_codes": array_codes,
                  "array_dataclasses": "dataclasses" in sys.modules}))
"""


def test_scalar_commands_load_no_numpy(tmp_path):
    # numpy, the only runtime dependency, loads only where array code runs;
    # scipy is a test-only reference.  One process keeps the test cheap.
    spec = tmp_path / "laplace.json"
    spec.write_text(json.dumps({**_LAPLACE, "weight": {"kind": "exponential", "rate": -1.0}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCALAR_CHILD, str(spec)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result == {"codes": [0] * 11, "loaded": [], "array_codes": [0, 0],
                      "array_dataclasses": False}


def test_phase_scan_contract(capsys):
    code, out, _ = run_cli(
        capsys, "phase-scan", "--problem", "w", "--alphas", "1,2",
        "--b-min", "0.10", "--b-max", "0.17", "--b-step", "0.059",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    boundary_rows = [r for r in doc["rows"] if r["classification"] == "boundary"]
    assert len({r["b"] for r in boundary_rows}) == 1  # boundary independent of alpha
    code, out, _ = run_cli(
        capsys, "phase-scan", "--problem", "thetadiff", "--a", "4", "--alphas", "1",
        "--b-min", "1.9", "--b-max", "2.1", "--b-step", "0.1", "--format", "json",
    )
    doc = json.loads(out)
    cells = {r["b"]: r["classification"] for r in doc["rows"] if r["classification"] != "boundary"}
    assert cells[1.9] == "hexagonal" and cells[2.0] == "hexagonal"
    assert cells[2.1] == "no-minimizer"


def test_phase_scan_bad_range_exit_2(capsys):
    assert run_cli(capsys, "phase-scan", "--problem", "w", "--alphas", "1",
                   "--b-min", "0.2", "--b-max", "0.1", "--b-step", "0.05")[0] == 2
    assert run_cli(capsys, "phase-scan", "--problem", "w", "--alphas", "x,y",
                   "--b-min", "0.1", "--b-max", "0.2", "--b-step", "0.05")[0] == 2


def test_phase_scan_thetadiff_without_a_exit_2(capsys):
    code, _, err = run_cli(capsys, "phase-scan", "--problem", "thetadiff", "--alphas", "1",
                           "--b-min", "0", "--b-max", "0.1", "--b-step", "0.05")
    assert code == 2
    assert "needs --a" in err and "Traceback" not in err


@pytest.mark.parametrize("b_max,b_step", [("0.1", "1e-300"), ("0.1", "nan"), ("1", "1e-4")])
def test_phase_scan_oversized_grid_exit_2(capsys, b_max, b_step):
    # [0, 1] in steps of 1e-4 is one cell over the cap; the others never end
    code, _, err = run_cli(capsys, "phase-scan", "--problem", "w", "--alphas", "1",
                           "--b-min", "0", "--b-max", b_max, "--b-step", b_step)
    assert code == 2
    assert "at most" in err and "Traceback" not in err


def test_verify_single_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "HHH", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["failed"] == 0
    assert doc["rows"][0]["lemma_id"] == "HHH" and doc["rows"][0]["passed"]


def test_verify_unknown_id_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "NOPE")
    assert code == 2
    assert "unknown lemma" in err


def test_verify_seed_in_header_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--only", "L35", "Thaaa", "--format", "csv",
                            "--seed", "99")
    assert code == 0
    assert "# seed=99" in out1
    code, out2, _ = run_cli(capsys, "verify", "--only", "L35", "Thaaa", "--format", "csv",
                            "--seed", "99")
    assert out1 == out2  # bit-identical re-run


def test_verify_known_failure_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "L412-floor", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["meta"]["failed"] == 1
    assert not doc["rows"][0]["passed"]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "theta", "1", "0", "1", "--format", "json",
                           "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["command"] == "theta"


_LAPLACE = {"family": "laplace_weighted", "alpha": 1.0, "a": 2.0, "b": 0.0}


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "gaussian", "alpha": ',
        "[1.0, 2.0]",
        json.dumps({"family": "gaussian", "alpha": "abc"}),
        json.dumps({"family": "gaussian_diff", "alpha": 1.0, "a": 2.0}),
        json.dumps({**_LAPLACE, "weight": {"kind": "exponential", "rate": "fast"}}),
        json.dumps({**_LAPLACE, "weight": {"kind": "constant", "value": math.nan}}),
        json.dumps({"family": "coulomb", "alpha": 1.0}),
        json.dumps({**_LAPLACE, "weight": {"kind": "linear"}}),
    ],
    ids=["malformed", "not-an-object", "alpha-abc", "missing-b", "rate-abc", "value-nan",
         "unknown-family", "unknown-weight"],
)
def test_bad_spec_file_exit_2(capsys, tmp_path, text):
    spec = tmp_path / "pot.json"
    spec.write_text(text)
    code, _, err = run_cli(capsys, "energy", "--spec-file", str(spec), "--x", "0.5", "--y", "1")
    assert code == 2
    assert err.startswith("hexlat: error:")


@pytest.mark.parametrize("rate", [800, 5])
def test_overflowing_spec_weight_exit_3(capsys, tmp_path, rate):
    # e^{800 x} overflows at the first node; e^{5 x} outgrows the theta decay
    # e^{-pi x} and the quadrature refuses it without a deep search.
    spec = tmp_path / "pot.json"
    spec.write_text(json.dumps({**_LAPLACE, "weight": {"kind": "exponential", "rate": rate}}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "energy", "--spec-file", str(spec), "--x", "0.5", "--y", "1")
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert "energy evaluation failed: integrand does not decay" in err


@pytest.mark.parametrize("route", [[], ["--cutoff", "6"]], ids=["closed-form", "cutoff"])
def test_negative_spec_weight_exit_2(capsys, tmp_path, route):
    spec = tmp_path / "pot.json"
    spec.write_text(json.dumps({**_LAPLACE, "weight": {"kind": "constant", "value": -1.0}}))
    code, out, err = run_cli(capsys, "energy", "--spec-file", str(spec), "--x", "0.5",
                             "--y", "0.866", *route)
    assert code == 2 and out == ""
    assert "weight must be nonnegative" in err


#: energy argvs whose tail estimates underflow; each once raised out of main()
_UNDERFLOWING_TAILS = [
    # alpha^2 underflows to 0 in the direct-sum tail estimate
    (("poly-gaussian", "--alpha", "1e-300", "--x", "1", "--y", "1", "--cutoff", "1e-300"),
     "energy evaluation failed"),
    # cutoff^2 underflows to 0, where YukawaDiff's 1/q bounds nothing
    (("--x=0.5", "--y=0.8660254037844386", "--cutoff=1e-200", "--", "yukawa-diff"),
     "energy evaluation failed"),
    (("--x=0.0", "--y=1e+300", "--cutoff=1e-300", "--", "yukawa-diff"), "energy evaluation failed"),
    # |z|^2/y underflows to 0; the walk is refused before f is evaluated there
    (("--x=0.0", "--y=1e-300", "--", "yukawa-diff"), "the proven tail needs more than"),
]


@pytest.mark.parametrize("argv, message", _UNDERFLOWING_TAILS,
                         ids=["poly-gaussian-alpha", "yukawa-cutoff-1e-200", "yukawa-cutoff-1e-300",
                              "yukawa-y-1e-300"])
def test_underflowing_alpha_tail_exit_3(capsys, argv, message):
    code, _, err = run_cli(capsys, "energy", *argv)
    assert code == 3
    assert message in err and "Traceback" not in err


def test_theta_prefactor_overflow_exit_3(capsys):
    # y/alpha = 1e-220: the row expansion's theta prefactor X^{-5/2} overflows
    code, _, err = run_cli(capsys, "energy", "poly-gaussian", "--alpha", "1e110", "--b", "0.5",
                           "--x", "0.2", "--y", "1e-110")
    assert code == 3
    assert err == "hexlat: error: theta's Poisson prefactor overflows at X = y/alpha = 1e-220\n"


def test_minimize_underflowing_alpha_cube_exit_3(capsys):
    # alpha^3 underflows to 0: the Newton walk's dual W_b terms would divide by it
    code, out, err = run_cli(capsys, "minimize", "w", "--alpha", "1e-110", "--b", "0.1")
    assert code == 3 and out == ""
    assert err == "hexlat: error: the dual W_b terms' factor 1/alpha^3 overflows at alpha = 1e-110\n"


def test_out_directory_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "theta", "1", "0", "1", "--out", str(tmp_path))
    assert code == 2
    assert out == "" and err.startswith("hexlat: error:")


def test_reduce_underflowing_modulus_exit_3(capsys):
    code, _, err = run_cli(capsys, "reduce", "0", "1e-300")
    assert code == 3
    assert "underflows" in err


@pytest.mark.parametrize("argv", [("w", "--b", "nan"), ("thetadiff", "--a", "2", "--b", "inf")])
def test_minimize_non_finite_b_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, "minimize", *argv)
    assert code == 2
    assert "b must be finite" in err


# ------------------------- the exit-code contract ---------------------------

_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300)
# Ordinary values stay in [1/4, 4] and well-formed laplace_weighted specs
# are left out: yukawa-diff sums ~2e7 lattice points at alpha = 1e-5 (about
# three minutes) and a Laplace quadrature can take seconds, while the
# contract is about exit codes.
_ordinary = st.floats(0.25, 4.0)
_numbers = st.one_of(st.sampled_from(_SPECIAL), _ordinary)
_text = st.one_of(st.sampled_from([*map(repr, _SPECIAL), "abc", "1e400"]), _ordinary.map(repr))
_bad_number = st.sampled_from(["abc", None, True, [1.0], math.nan, math.inf])
_spec_value = st.one_of(_numbers, _bad_number)
_spec_doc = st.one_of(
    st.fixed_dictionaries(
        {"family": st.sampled_from(["gaussian", "gaussian_diff", "poly_gaussian",
                                    "yukawa_diff", "coulomb", 3.0])},
        optional={"alpha": _spec_value, "a": _spec_value, "b": _spec_value},
    ),
    st.fixed_dictionaries({  # every weight here is malformed
        "family": st.just("laplace_weighted"), "alpha": _spec_value, "a": _spec_value,
        "b": _spec_value,
        "weight": st.one_of(
            _bad_number, st.just({}),
            st.builds(lambda k, v: {"kind": k, "rate": v, "value": v},
                      st.sampled_from(["constant", "exponential", "linear"]), _bad_number),
        ),
    }),
    st.lists(_numbers, max_size=2),
    _numbers,
)
_spec_text = st.one_of(
    _spec_doc.map(json.dumps),
    _spec_doc.map(lambda d: json.dumps(d)[:-1]),  # truncated
    st.sampled_from(["", "not json", "\x00\xff"]),
)
_options = st.lists(
    st.tuples(st.sampled_from(["alpha", "a", "b", "cutoff", "tol"]), _text), max_size=3
).map(lambda pairs: [f"--{name}={value}" for name, value in pairs])
# Options are spelled --name=value and positionals follow "--", so that
# values such as -inf reach the program instead of argparse's flag parser.
_argv = st.one_of(
    st.builds(lambda t, o: ["theta", *o, "--", *t], st.tuples(_text, _text, _text),
              _options.map(lambda o: [v for v in o if v.startswith("--tol")])),
    st.builds(lambda t: ["reduce", "--", *t], st.tuples(_text, _text)),
    st.builds(lambda f, x, y, o: ["energy", f"--x={x}", f"--y={y}", *o, "--", f],
              st.sampled_from(["gaussian", "gaussian-diff", "poly-gaussian", "yukawa-diff"]),
              _text, _text, _options),
    st.builds(lambda x, y: ["energy", "--spec-file", "{spec}", f"--x={x}", f"--y={y}"],
              _text, _text),
)


def _with_known_faults(test):
    """The contract test with one explicit example per argv that once broke
    it, so that its verdict on them does not hang on Hypothesis's draw."""
    for argv, _ in _UNDERFLOWING_TAILS:
        test = example(argv=["energy", *argv], spec="")(test)
    return test


@settings(max_examples=150, deadline=None)
@_with_known_faults
@given(argv=_argv, spec=_spec_text)
def test_exit_code_contract(tmp_path_factory, argv, spec):
    """Any argv for theta, reduce or energy ends in exit code 0-3 or an
    argparse SystemExit(2); no other exception escapes main()."""
    path = tmp_path_factory.getbasetemp() / "contract-spec.json"
    path.write_text(spec)
    argv = [str(path) if a == "{spec}" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
