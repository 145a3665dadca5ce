"""The value-record contract shared by hexlat's public records: construction,
immutability, equality and hash, repr, pickling and copying."""

import copy
import math
import pickle
import re

import pytest

from hexlat import (
    Gaussian,
    GaussianDiff,
    LaplaceWeighted,
    Minimizer,
    NoMinimizer,
    PolyGaussian,
    SeriesConfig,
    ThetaDiffProblem,
    UpperHalfPoint,
    WProblem,
    YukawaDiff,
)
from hexlat.errors import InvalidParameter, NonPositiveAlpha
from hexlat.minimize import PhaseCell, PhaseScanResult
from hexlat.verify import LemmaReport, _Ctx

_CELL = PhaseCell(1.0, 0.1, "hexagonal", 0.0)

#: Each record class with its field values, keyword by keyword in field order,
#: and the repr they give.
RECORDS = [
    (SeriesConfig, {"rel_tol": 1e-12}, "SeriesConfig(rel_tol=1e-12)"),
    (UpperHalfPoint, {"x": 0.5, "y": 1.0}, "UpperHalfPoint(x=0.5, y=1.0)"),
    (Gaussian, {"alpha": 1.5}, "Gaussian(alpha=1.5)"),
    (GaussianDiff, {"alpha": 1.0, "a": 2.0, "b": 0.5}, "GaussianDiff(alpha=1.0, a=2.0, b=0.5)"),
    (PolyGaussian, {"alpha": 1.0, "b": 0.1}, "PolyGaussian(alpha=1.0, b=0.1)"),
    (YukawaDiff, {"alpha": 1.0, "a": 2.0, "b": 0.5}, "YukawaDiff(alpha=1.0, a=2.0, b=0.5)"),
    (LaplaceWeighted, {"alpha": 1.0, "a": 2.0, "b": 0.5, "weight": math.sqrt, "family": "g"},
     "LaplaceWeighted(alpha=1.0, a=2.0, b=0.5, weight=<built-in function sqrt>, family='g')"),
    (Minimizer, {"z_star": UpperHalfPoint(0.5, 1.0), "value": -0.25, "distance_to_hex": 0.1,
                 "advisory": True},
     "Minimizer(z_star=UpperHalfPoint(x=0.5, y=1.0), value=-0.25, distance_to_hex=0.1, "
     "advisory=True)"),
    (NoMinimizer, {"witness_y": (1.0, 2.0), "witness_values": (0.0, -1.0),
                   "asymptotic_slope_sign": -1},
     "NoMinimizer(witness_y=(1.0, 2.0), witness_values=(0.0, -1.0), asymptotic_slope_sign=-1)"),
    (WProblem, {}, "WProblem()"),
    (ThetaDiffProblem, {"a": 2.0}, "ThetaDiffProblem(a=2.0)"),
    (PhaseCell, {"alpha": 1.0, "b": 0.1, "classification": "hexagonal", "distance_to_hex": 0.0},
     "PhaseCell(alpha=1.0, b=0.1, classification='hexagonal', distance_to_hex=0.0)"),
    (PhaseScanResult, {"rows": (_CELL,), "boundaries": {1.0: 0.1}},
     "PhaseScanResult(rows=(PhaseCell(alpha=1.0, b=0.1, classification='hexagonal', "
     "distance_to_hex=0.0),), boundaries={1.0: 0.1})"),
    (LemmaReport, {"lemma_id": "L1", "claimed": 0.5, "computed": 0.625, "comparison": ">=",
                   "tolerance": 0.0, "grid": "3 points", "passed": True, "note": "n"},
     "LemmaReport(lemma_id='L1', claimed=0.5, computed=0.625, comparison='>=', tolerance=0.0, "
     "grid='3 points', passed=True, note='n')"),
    (_Ctx, {"cfg": SeriesConfig(), "seed": 7}, "_Ctx(cfg=SeriesConfig(rel_tol=1e-14), seed=7)"),
]

_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
def test_construction_fields_and_repr(cls, fields, text):
    rec = cls(**fields)
    assert rec == cls(*fields.values())
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    assert repr(rec) == text


def test_defaults():
    assert SeriesConfig() == SeriesConfig(1e-14)
    assert Minimizer(UpperHalfPoint(0.5, 1.0), 0.0, 0.0).advisory is False
    assert LaplaceWeighted(1.0, 2.0, 0.5, math.sqrt).family == "f"
    assert LemmaReport("L1", 0.5, 0.5, "~", 0.0, "g", True).note == ""


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, text):
    rec = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
def test_equality_and_hash_by_type_and_values(cls, fields, text):
    rec, twin = cls(**fields), cls(**fields)
    assert rec == twin and not rec != twin
    assert rec != tuple(fields.values())
    if cls is not PhaseScanResult:  # its boundaries dict is unhashable
        assert hash(rec) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(rec)


def test_records_of_different_types_differ():
    assert GaussianDiff(1.0, 2.0, 0.5) != YukawaDiff(1.0, 2.0, 0.5)
    assert UpperHalfPoint(0.5, 1.0) != UpperHalfPoint(0.5, 1.5)
    assert WProblem() == WProblem() and WProblem() != ThetaDiffProblem(2.0)
    assert len({UpperHalfPoint(0.5, 1.0), UpperHalfPoint(0.5, 1.0), UpperHalfPoint(0.0, 1.0)}) == 2


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
def test_pickle_and_copy_round_trip(cls, fields, text):
    rec = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(clone) is cls
        assert clone == rec
        assert repr(clone) == text


def test_lemma_report_as_dict_keeps_field_order():
    cls, fields, _ = next(r for r in RECORDS if r[0] is LemmaReport)
    doc = cls(**fields).as_dict()
    assert list(doc) == list(fields)
    assert doc == fields


@pytest.mark.parametrize("make, error, message", [
    (lambda: SeriesConfig(0.5), InvalidParameter, "rel_tol must lie in (0, 1e-6), got 0.5"),
    (lambda: UpperHalfPoint(0.0, -1.0), InvalidParameter,
     "upper half-plane point needs finite x, y > 0; got (0.0, -1.0)"),
    (lambda: UpperHalfPoint(math.nan, 1.0), InvalidParameter,
     "upper half-plane point needs finite x, y > 0; got (nan, 1.0)"),
    (lambda: GaussianDiff(0.0, 1.0, math.nan), NonPositiveAlpha,
     "alpha must be finite and > 0, got 0.0"),
    (lambda: YukawaDiff(1.0, 1.0, math.nan), InvalidParameter, "a must be finite and > 1, got 1.0"),
    (lambda: PolyGaussian(1.0, math.inf), InvalidParameter, "b must be finite, got inf"),
    (lambda: LaplaceWeighted(1.0, 1.0, 0.0, math.sqrt, "h"), InvalidParameter,
     "a must be finite and > 1, got 1.0"),
    (lambda: LaplaceWeighted(1.0, 2.0, 0.0, math.sqrt, "h"), InvalidParameter,
     "family must be 'f' or 'g', got 'h'"),
    (lambda: NoMinimizer((2.0, 1.0), (0.0, 0.0), -1), InvalidParameter,
     "witness_y must be increasing"),
    (lambda: NoMinimizer((1.0, 2.0), (0.0, 0.0), -1), InvalidParameter,
     "witness_values must be strictly decreasing"),
    (lambda: ThetaDiffProblem(1.0), InvalidParameter,
     "theta-difference problem requires a > 1, got 1.0"),
])
def test_invalid_parameters_name_the_first_bad_one(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
