"""Tests for the lemma verification suite.

The suite's outcome is itself part of the contract: the documented set of
printed-claim discrepancies must be detected (reports fail with the frozen
computed values), and everything else must pass.
"""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hexlat import verify
from hexlat.config import DEFAULT_CONFIG, SeriesConfig
from hexlat.errors import UnknownLemma
from hexlat.verify import (
    DEFAULT_SEED,
    EXPECTED_FAILURES,
    _Ctx,
    check,
    coverage_manifest,
    dw_mixed_operator,
    dw_radial_operator,
    eps_c_terms,
    eps_d1,
    eps_d2,
    geometric_tail_constant,
    la_function,
    lb_lower_bound,
    lb_printed,
    ld_function,
    rc_inner_expression,
    run_checks,
)

PI = math.pi
RT3_2 = math.sqrt(3.0) / 2.0


@pytest.fixture(scope="module")
def reports():
    return run_checks()


def test_manifest_matches_emitted_ids(reports):
    assert sorted(r.lemma_id for r in reports) == coverage_manifest()
    assert len(set(r.lemma_id for r in reports)) == len(reports)


def test_failing_set_is_exactly_the_documented_one(reports):
    # a looser --tol reaches every series of the suite and must flip no verdict
    for run in (reports, run_checks(cfg=SeriesConfig(rel_tol=1e-10))):
        assert [r.lemma_id for r in run] == coverage_manifest()
        failing = sorted(r.lemma_id for r in run if not r.passed)
        assert failing == sorted(EXPECTED_FAILURES)


def test_every_failure_carries_a_note(reports):
    for r in reports:
        if not r.passed:
            assert r.note, r.lemma_id


def test_reports_match_the_snapshot(reports):
    # "Same results" of the roadmap: the default run keeps every verdict of
    # verify_snapshot.json, and every computed value to 1e-15 relative.  A
    # change that rewrites the snapshot names the changed ids in CHANGES.md.
    snapshot = json.loads((Path(__file__).parent / "verify_snapshot.json").read_text())
    assert [r.lemma_id for r in reports] == list(snapshot)
    for r in reports:
        passed, computed = snapshot[r.lemma_id]
        assert r.passed is passed, r.lemma_id
        assert r.computed == pytest.approx(computed, rel=1e-15, abs=0.0), r.lemma_id


def test_frozen_discrepancy_values(reports):
    by_id = {r.lemma_id: r for r in reports}
    # the printed R_c floor of 1/2 fails: it bottoms out just above 0.45 at the region corner
    assert abs(by_id["L412-floor"].computed - 0.451057) < 1e-4
    # the "floor 7" explicit function actually bottoms out near 2.05
    assert abs(by_id["L422-caseb"].computed - 2.05184) < 1e-3
    # corner violations of the double-sum upper bounds
    assert -1.2e-4 < by_id["L425"].computed < -5e-5
    assert -1.2e-4 < by_id["L426"].computed < -3e-5
    assert -6e-3 < by_id["L433"].computed < -1e-3
    assert by_id["L430-bound"].computed < -0.1
    assert by_id["L421-bound"].computed < -0.05


def test_key_constants(reports):
    by_id = {r.lemma_id: r for r in reports}
    assert abs(by_id["HHH"].computed - 1.127521373) < 1e-5
    assert abs(by_id["HHH-dsum"].computed - 1.127521373) < 1e-6
    assert abs(by_id["L44-limit"].computed - 0.374030114) < 1e-9
    assert abs(by_id["L47-limit"].computed - 81.84546604) < 1e-3
    assert abs(by_id["L24-root"].computed - 0.2989938127) < 1e-9
    assert abs(by_id["P3-sigma1"].computed - 2.168420e-3) < 1e-8
    assert abs(by_id["P5-sigma3"].computed - 1.776089e-5) < 1e-10
    assert abs(by_id["P5-sigma4"].computed - 2.727005e-5) < 1e-10
    assert by_id["Gaa4"].computed <= 1.27e-3


def test_determinism():
    a = run_checks(only=["L35", "G111", "L44-floor"])
    b = run_checks(only=["L35", "G111", "L44-floor"])
    assert [(r.lemma_id, r.computed) for r in a] == [(r.lemma_id, r.computed) for r in b]


def test_seed_changes_random_grids():
    a = run_checks(only=["L35"], seed=1)
    b = run_checks(only=["L35"], seed=2)
    assert a[0].computed != b[0].computed
    assert a[0].passed and b[0].passed


def test_only_filter_and_unknown_id():
    subset = run_checks(only=["Thaaa", "W1"])
    assert [r.lemma_id for r in subset] == ["Thaaa", "W1"]
    with pytest.raises(UnknownLemma):
        run_checks(only=["NOPE"])


def test_each_check_emits_exactly_its_declared_ids():
    ctx = _Ctx(cfg=DEFAULT_CONFIG, seed=DEFAULT_SEED)
    for fn in set(verify._EMITTERS.values()):
        declared = {i for i, owner in verify._EMITTERS.items() if owner is fn}
        emitted = [r.lemma_id for r in fn(ctx)]
        assert sorted(emitted) == sorted(declared), fn.__name__


def test_registering_an_id_twice_fails():
    manifest = coverage_manifest()
    with pytest.raises(ValueError, match="HHH"):
        check("NEW", "HHH")(lambda ctx: [])
    with pytest.raises(ValueError, match="NEW"):
        check("NEW", "NEW")(lambda ctx: [])
    assert coverage_manifest() == manifest


#: Thematic report-id groups, the same as the benchmark's verify groups.
_GROUPS = {
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


@pytest.mark.parametrize("group", list(_GROUPS.values()), ids=list(_GROUPS))
def test_group_run_calls_only_its_checks(group, reports, monkeypatch):
    owners = {fn for lemma_id, fn in verify._EMITTERS.items() if lemma_id in group}
    called = []

    def spy(fn):
        def wrapped(ctx):
            called.append(fn)
            return fn(ctx)
        return wrapped

    spies = {fn: spy(fn) for fn in set(verify._EMITTERS.values())}
    monkeypatch.setattr(
        verify, "_EMITTERS", {i: spies[fn] for i, fn in verify._EMITTERS.items()}
    )
    subset = run_checks(only=group)
    assert subset == [r for r in reports if r.lemma_id in group]
    assert len(called) == len(owners) and set(called) == owners


#: (report ids, the last_index series names their checks must request)
_RULED_SERIES = [
    (["L413-ineq", "L414-ineq", "L46"], {"mu", "nu", "theta_weighted_sums", "comb sum"}),
    (["L413-eps1", "L414-eps2", "L413-eps3", "L414-eps4"], {"mu", "nu", "comb sum", "P0"}),
    (["L45", "L48-n2", "L48-n4"], {"alternating sums"}),
    (["HHH-dsum", "L419", "L420", "L429", "L421-bound", "L423", "L432", "L430-bound"],
     {"lattice grid"}),
    (["L39"], {"dx_w_double_sum"}),
    (["L310", "L311"], {"L310/L311 sums"}),
    (["LLL7"], {"LLL7 sums"}),
    (["B100-tail"], {"B100 tail"}),
]


def test_weighted_theta_sums_follow_the_truncation_rule(monkeypatch):
    # verify's series take their term counts from SeriesConfig.last_index, so
    # --tol and the MAX_TERMS cap reach them like every other series
    requested = []
    last_index = SeriesConfig.last_index

    def spy(self, d, p, start, name):
        requested.append(name)
        return last_index(self, d, p, start, name)

    monkeypatch.setattr(SeriesConfig, "last_index", spy)
    for ids, names in _RULED_SERIES:
        requested.clear()
        run_checks(only=ids)
        assert names <= set(requested), ids


def test_every_theta1d_call_carries_the_run_config(monkeypatch):
    # run_checks(cfg=C) hands C itself to each theta1d function verify calls,
    # PXY's two branch row kernels included
    cfg = SeriesConfig(rel_tol=1e-10)
    seen = {}

    def spy(name, fn):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append(sig.bind(*args, **kwargs).arguments.get("cfg"))
            return fn(*args, **kwargs)
        return wrapped

    spied = [
        name for name, fn in vars(verify).items()
        if inspect.isfunction(fn) and fn.__module__ == "hexlat.theta1d"
        and "cfg" in inspect.signature(fn).parameters
    ]
    for name in spied:
        monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
    run_checks(cfg=cfg)
    assert {"mu", "nu", "theta_envelope", "theta_rows", "_fourier_rows",
            "_poisson_rows"} <= set(spied)
    assert set(seen) == set(spied)
    for name, cfgs in seen.items():
        assert all(c == cfg for c in cfgs), name


#: theta_rows calls each group of reports may make: one per scanned X (plus
#: one per (X, k) in the quotient scans), one per (alpha, y) sample of the
#: theta-weighted sums, one per point of the L415 and L416 samples, one per
#: TXY-period/parity sample and three per TXY-partials sample (X - h, X, X + h).
_ROW_CALL_BUDGETS = {
    ("L23-1", "L23-2"): 5 * (1 + 4) + 3 * (1 + 4),
    ("L24-1", "L24-2", "L24-3"): 5 * (1 + 4) + 4 * (1 + 4) + 4 * (1 + 1),
    ("L25-1", "L25-2"): 4 * (1 + 1) + 4 * (1 + 3),
    ("T1", "T2", "Envelope"): 4 + 3 + 5,
    ("L413-ineq", "L414-ineq"): 6,
    ("L415", "L416"): 4 + 30,
    ("L46",): 4,
    ("TXY-period", "TXY-parity"): 200,
    ("TXY-partials",): 60 * 3,
}


@pytest.mark.parametrize("ids", list(_ROW_CALL_BUDGETS), ids=lambda ids: ids[0])
def test_theta_grids_take_one_row_call_per_x(monkeypatch, ids):
    # verify reads theta only through theta_rows (PXY's branch kernels aside),
    # one call per scanned X or sample point, never point by point
    assert not hasattr(verify, "jacobi_theta")
    assert not hasattr(verify, "jacobi_theta_partial")
    calls = 0
    theta_rows = verify.theta_rows

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return theta_rows(*args, **kwargs)

    monkeypatch.setattr(verify, "theta_rows", counting)
    run_checks(only=list(ids))
    assert 0 < calls <= _ROW_CALL_BUDGETS[ids]


def test_report_serialization(reports):
    d = reports[0].as_dict()
    assert set(d) == {
        "lemma_id", "claimed", "computed", "comparison", "tolerance", "grid",
        "passed", "note",
    }
    assert isinstance(d["claimed"], float) and isinstance(d["computed"], float)


# ------------------- region minima: stability under refinement --------------


def _grid_min(fn, a_lo, a_hi, y_lo, y_hi, n, y_of_alpha=None):
    worst = math.inf
    for a in np.linspace(a_lo, a_hi, n):
        lo = y_lo(a) if callable(y_lo) else y_lo
        hi = y_hi(a) if callable(y_hi) else y_hi
        vals = fn(float(a), np.linspace(lo, hi, n))
        worst = min(worst, float(np.min(vals)))
    return worst


def test_region_minima_stable_under_refinement():
    def lb_gap(a, ys):
        bmax = np.maximum(geometric_tail_constant(ys, 1.0 / a), geometric_tail_constant(ys, a))
        return lb_lower_bound(a, ys, bmax) - 0.316 * (a * a - 1.0)

    def rc(a, ys):
        return rc_inner_expression(a, ys)

    for fn, lims in (
        (lb_gap, (1.0, 1.2, 1.0, 6.0)),
        (rc, (1.2, 6.0, lambda a: 5.0 * a / 6.0, 8.0)),
        (ld_function, (1.2, 6.0, RT3_2, lambda a: 5.0 * a / 6.0)),
        (la_function, (1.0, 1.2, RT3_2, 1.0)),
    ):
        coarse = _grid_min(fn, lims[0], lims[1], lims[2], lims[3], 60)
        fine = _grid_min(fn, lims[0], lims[1], lims[2], lims[3], 120)
        scale = max(abs(coarse), abs(fine), 1e-12)
        assert abs(fine - coarse) / scale < 0.10


def test_rc_inner_expression_scalar_matches_array_rows():
    # L412-floor scans rc_inner_expression one y-row per alpha; a per-cell
    # scan (or interval arithmetic on the same formula) relies on the scalar
    # call giving the row's value bit for bit.  Sub-grid of its 60x60 grid.
    idx = [*range(0, 60, 7), 59]
    for a in np.linspace(1.2, 6.0, 60)[idx]:
        ys = np.linspace(5.0 * a / 6.0, 8.0, 60)
        row = rc_inner_expression(a, ys)
        assert [float(rc_inner_expression(a, float(ys[i]))) for i in idx] == row[idx].tolist()


def test_printed_lb_form_misses_its_floor():
    # documented discrepancy: the double-sum contribution as printed bottoms
    # out below 0.316 at (alpha, y) = (1.2, 1)
    bmax = max(geometric_tail_constant(1.0, 1.0 / 1.2), geometric_tail_constant(1.0, 1.2))
    ratio = float(lb_printed(1.2, 1.0, bmax)) / (1.2**2 - 1.0)
    assert ratio < 0.316
    assert ratio > 0.0  # positivity, the load-bearing part, still holds
    # while the expansion-consistent form clears the floor
    ratio2 = float(lb_lower_bound(1.2, 1.0, bmax)) / (1.2**2 - 1.0)
    assert ratio2 >= 0.316


def test_rd_ra_bounds_hold_with_remainder_corrections():
    # The printed lower-bound functions for the radial/mixed operators omit
    # the remainder corrections of their own ingredient bounds; with them
    # restored the derivative inequalities hold (up to the known ~1e-4-scale
    # corner defects of L425/L426 themselves).
    def ld_chain(a, y):
        q1 = y + 0.25 / y
        extra = (-10.0 * (y * y - 0.25) ** 2 + 12.0 * y**3 / (PI * a)) * math.exp(
            -PI * a * (y - 3.0 / (4.0 * y))
        )
        return float(ld_function(a, y)) + extra

    worst = math.inf
    for a in np.linspace(1.2, 3.0, 8):
        for y in np.linspace(RT3_2, 5.0 * a / 6.0, 6):
            lhs = dw_radial_operator(float(a), float(y))
            rhs = PI * a * y**-4.0 * math.exp(-PI * a / y) * ld_chain(float(a), float(y))
            worst = min(worst, lhs - rhs)
    assert worst > -2e-3

    def la_chain(a, y):
        q1 = y + 0.25 / y
        expfac = math.exp(-PI * a * (y - 3.0 / (4.0 * y)))
        corr = (
            5.0 * float(eps_d1(a, y))
            + 20.0 * y**3 * q1 * float(eps_d2(a, y)) * expfac
            + 768.0 * PI**2 * a * a * y**4 * math.exp(-PI * a * (4.0 * y - 1.0 / y))
        )
        return float(la_function(a, y)) - corr

    worst = math.inf
    for a in np.linspace(1.0, 1.2, 8):
        for y in np.linspace(RT3_2, 1.0, 8):
            lhs = dw_mixed_operator(float(a), float(y))
            rhs = PI / y**4 * math.exp(-PI * a / y) * la_chain(float(a), float(y))
            worst = min(worst, lhs - rhs)
    # the residual defect is the L433 ingredient's own missing (1,1)-type
    # points (about -3.5e-3 at its corner), 27x smaller than the printed
    # bound's -0.17 violation
    assert worst > -1e-2


def test_eps_terms_peak_at_region_corner():
    e1c, e2c, e3c, e4c = (float(v) for v in eps_c_terms(1.2, 1.0))
    for a, y in ((1.3, 1.2), (2.0, 2.0), (1.2, 1.5)):
        e1, e2, e3, e4 = (float(v) for v in eps_c_terms(a, y))
        assert e1 <= e1c and e2 <= e2c and e3 <= e3c and e4 <= e4c
