"""Tests for the one-dimensional theta function and its companions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import (
    DEFAULT_CONFIG,
    SeriesConfig,
    jacobi_theta,
    jacobi_theta_partial,
    mu,
    nu,
    theta1d,
    theta_envelope,
)
from hexlat.errors import InvalidParameter, NonPositiveX, TruncationFailure, UnsupportedOrder
from hexlat.theta1d import _fourier_rows, theta_rows

PI = math.pi


def mp_theta(X: float, Y: float) -> float:
    """Independent oracle: theta(X;Y) = jtheta_3(pi Y, e^{-pi X})."""
    mpmath.mp.dps = 30
    return float(mpmath.jtheta(3, mpmath.pi * Y, mpmath.exp(-mpmath.pi * X)))


def test_large_x_value():
    # tail is ~2e^{-10 pi} = 5e-14, so the value is 1 to within 1e-12
    assert abs(jacobi_theta(10.0, 0.0) - 1.0) < 1e-12
    assert jacobi_theta(10.0, 0.0) > 1.0


def test_periodicity_exact():
    assert jacobi_theta(0.5, 0.3) == jacobi_theta(0.5, 1.3)
    assert jacobi_theta(2.0, -0.7) == jacobi_theta(2.0, 0.3)


def test_direct_sum_value():
    # sum e^{-pi n^2}, |n| <= 10, computed independently of the Poisson branch
    expected = sum(math.exp(-PI * n * n) for n in range(-10, 11))
    assert abs(jacobi_theta(1.0, 0.0) - expected) < 1e-14
    assert abs(jacobi_theta(1.0, 0.0) - 1.0864348112) < 1e-10


@pytest.mark.parametrize("X", [0.07, 0.3, 0.9, 1.0, 2.5, 8.0])
@pytest.mark.parametrize("Y", [0.0, 0.13, 0.37, 0.75])
def test_mpmath_oracle(X, Y):
    ref = mp_theta(X, Y)
    assert abs(jacobi_theta(X, Y) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=150, deadline=None)
@given(log_x=st.floats(math.log(0.05), math.log(20.0)),
       Y=st.floats(allow_nan=False, allow_infinity=False))
def test_mpmath_oracle_property(log_x, Y):
    # X straddles the Fourier/Poisson switch at 1.  mpmath takes Y mod 1 exactly
    # (mpf(Y) is exact); jacobi_theta's own reduction may round for Y in
    # (-1, 0), which moves theta by far less than 1e-13 of its value.
    X = math.exp(log_x)
    with mpmath.workdps(30):
        frac = mpmath.mpf(Y) - mpmath.floor(mpmath.mpf(Y))
        ref = float(mpmath.jtheta(3, mpmath.pi * frac, mpmath.exp(-mpmath.pi * X)))
    assert abs(jacobi_theta(X, Y) - ref) <= 1e-13 * abs(ref)


def test_partial_against_mpmath():
    mpmath.mp.dps = 30
    X, Y = 0.7, 0.23

    def f(x, y):
        return mpmath.jtheta(3, mpmath.pi * y, mpmath.exp(-mpmath.pi * x))

    ref_x = float(mpmath.diff(f, (X, Y), (1, 0)))
    ref_y = float(mpmath.diff(f, (X, Y), (0, 1)))
    ref_xy = float(mpmath.diff(f, (X, Y), (1, 1)))
    ref_xx = float(mpmath.diff(f, (X, Y), (2, 0)))
    assert abs(jacobi_theta_partial(X, Y, 1, 0) - ref_x) < 1e-11 * abs(ref_x)
    assert abs(jacobi_theta_partial(X, Y, 0, 1) - ref_y) < 1e-11 * abs(ref_y)
    assert abs(jacobi_theta_partial(X, Y, 1, 1) - ref_xy) < 1e-11 * abs(ref_xy)
    assert abs(jacobi_theta_partial(X, Y, 2, 0) - ref_xx) < 1e-11 * abs(ref_xx)


def test_theta_y_vanishes_at_symmetry_points():
    for X in (0.3, 1.0, 4.0):
        assert abs(jacobi_theta_partial(X, 0.0, 0, 1)) < 1e-15
        assert abs(jacobi_theta_partial(X, 0.5, 0, 1)) < 1e-15


def test_partial_fd_cross_check():
    # central difference of theta_Y in X reproduces theta_XY (derived oracle)
    X, Y, h = 0.5, 0.25, 1e-6
    fd = (jacobi_theta_partial(X + h, Y, 0, 1) - jacobi_theta_partial(X - h, Y, 0, 1)) / (2 * h)
    v = jacobi_theta_partial(X, Y, 1, 1)
    assert abs(v - fd) < 1e-6 * abs(v)


def test_unsupported_orders():
    for bad in ((0, 0), (2, 1), (0, 2), (3, 0)):
        with pytest.raises(UnsupportedOrder):
            jacobi_theta_partial(1.0, 0.1, *bad)
    # theta_rows checks its orders against the term table, after X
    for bad in ([(3, 0)], [(0, 2)], [(0, 0), (2, 1)]):
        with pytest.raises(UnsupportedOrder):
            theta_rows(1.0, [0.0], bad)
    with pytest.raises(NonPositiveX):
        theta_rows(0.0, [0.0], [(3, 0)])
    with pytest.raises(NonPositiveX):
        jacobi_theta_partial(0.0, 0.1, 0, 0)


@pytest.mark.parametrize("X", [0.5, 2.0], ids=["poisson", "fourier"])
@pytest.mark.parametrize(
    "point", [lambda X: jacobi_theta(X, 0.3), lambda X: jacobi_theta_partial(X, 0.3, 1, 1)],
    ids=["theta", "partial"],
)
def test_point_functions_take_one_theta_rows_call(monkeypatch, X, point):
    # theta_rows is the one entry point into the row kernels
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return theta_rows(*args, **kwargs)

    monkeypatch.setattr(theta1d, "theta_rows", spy)
    point(X)
    assert len(calls) == 1


def test_nonpositive_x():
    with pytest.raises(NonPositiveX):
        jacobi_theta(0.0, 0.1)
    with pytest.raises(NonPositiveX):
        jacobi_theta(-1.0, 0.1)
    with pytest.raises(NonPositiveX):
        mu(-0.5)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(NonPositiveX):
            nu(np.array([0.5, bad]))


def test_truncation_failure_when_capped():
    # the Fourier row kernel at X = 1e-5 needs ~1,000 terms against MAX_TERMS = 256;
    # jacobi_theta itself switches to the Poisson comb there
    with pytest.raises(TruncationFailure, match=r"^Fourier theta series "):
        _fourier_rows(1e-5, [0.2], 0, 0, DEFAULT_CONFIG)


def test_mu_truncation_failure_when_capped():
    with pytest.raises(TruncationFailure, match=r"^mu "):
        mu(1e-5)


def test_config_validation():
    # the term cap and the branch switch are constants; rel_tol is the one setting
    assert SeriesConfig._fields == ("rel_tol",)
    with pytest.raises(InvalidParameter):
        SeriesConfig(rel_tol=0.5)


def test_mu_nu_against_direct_sums():
    xs = (0.2, 0.5, 1.0, 3.0)
    m = np.array([sum(n * n * math.exp(-PI * (n * n - 1) * X) for n in range(2, 120)) for X in xs])
    n4 = np.array([sum(n**4 * math.exp(-PI * (n * n - 1) * X) for n in range(2, 120)) for X in xs])
    for i, X in enumerate(xs):
        assert abs(mu(X) - m[i]) <= 1e-13 * m[i]
        assert abs(nu(X) - n4[i]) <= 1e-13 * n4[i]
    # an array X, summed to the term count of its smallest entry
    assert np.all(np.abs(mu(np.array(xs)) - m) <= 1e-13 * m)
    assert np.all(np.abs(nu(np.array(xs)) - n4) <= 1e-13 * n4)


def test_mu_monotone_and_negligible_at_large_x():
    xs = [0.2, 0.3, 0.5, 1.0, 2.0, 5.0]
    vals = [mu(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert mu(10.0) < 1e-40


def test_ratio_constants():
    m, n = mu(0.5), nu(0.5)
    assert abs((1 + m) / (1 - m) - 1.074612508) < 1e-8
    assert abs((1 + n) / (1 - m) - 1.186694067) < 1e-8
    assert abs((1 + n) / (1 + m) - 1.104299511) < 1e-8


def test_envelope_formulas_large_x():
    X = 1.0
    lo, hi = theta_envelope(X)
    base = 4 * PI * math.exp(-PI)
    assert abs(lo - base * (1 - mu(1.0))) < 1e-15
    assert abs(hi - base * (1 + mu(1.0))) < 1e-15


def test_envelope_overlap_takes_tighter():
    X = 0.3
    lo, hi = theta_envelope(X)
    lo1 = 4 * PI * math.exp(-PI * X) * (1 - mu(X))
    lo2 = PI * math.exp(-PI / (4 * X)) * X**-1.5
    assert lo >= lo1 - 1e-15 and lo >= lo2 - 1e-15
    assert hi <= X**-1.5 + 1e-15


def test_envelope_brackets_theta_y():
    for X in (0.25, 0.5, 1.0, 2.0):
        lo, hi = theta_envelope(X)
        for j in range(1, 50):
            Y = j / 100.0
            ratio = -jacobi_theta_partial(X, Y, 0, 1) / math.sin(2 * PI * Y)
            assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_theta_y_envelope_at_specific_point():
    X, Y = 0.6, 0.2
    lo, hi = theta_envelope(X)
    s = math.sin(2 * PI * Y)
    v = jacobi_theta_partial(X, Y, 0, 1)
    assert -hi * s <= v <= -lo * s


def test_quotient_bound_spot():
    # |theta_Y(X;kY)/theta_Y(X;Y)| <= k (1+mu)/(1-mu) for X > 1/5
    X, k = 0.5, 3
    cap = k * (1 + mu(X)) / (1 - mu(X))
    for j in (3, 11, 17, 31):
        Y = j / 100.0
        r = jacobi_theta_partial(X, k * Y, 0, 1) / jacobi_theta_partial(X, Y, 0, 1)
        assert abs(r) <= cap + 1e-12


def test_small_x_quotient_spot():
    # |theta_XY / theta_Y| <= (3/2) X^{-1} (1 + pi/(6X)) for X <= 1/2
    X = 0.4
    cap = 1.5 / X * (1 + PI / (6 * X))
    for j in (7, 19, 33):
        Y = j / 100.0
        r = jacobi_theta_partial(X, Y, 1, 1) / jacobi_theta_partial(X, Y, 0, 1)
        assert abs(r) <= cap + 1e-12
