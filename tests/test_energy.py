"""Tests for lattice theta, W_b, their derivatives and the potential energies."""

import hashlib
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_energy, brute_theta, brute_w, mp_critical_gradient, mp_lattice_sums, mp_nonzero_sums
from hexlat import (
    B_CRITICAL,
    DEFAULT_CONFIG,
    Gaussian,
    GaussianDiff,
    LaplaceWeighted,
    PolyGaussian,
    UpperHalfPoint,
    YukawaDiff,
    apply_word,
    closed_form_energy,
    dx_w,
    dx_w_double_sum,
    dy_w,
    hexagonal_point,
    laplace_energy,
    lattice_energy,
    lattice_norms,
    theta_difference,
    theta_lattice,
    w_b,
    w_b_via_theta_derivative,
)
from hexlat._newton import hessian_walk, walk_terms
from hexlat.energy import b_crit, potential_value, theta_difference_via_w_integral
from hexlat import energy, moduli, quadrature
from hexlat.errors import (
    InvalidParameter,
    NonPositiveAlpha,
    NonPositiveX,
    QuadratureDivergence,
    RadiusTooLarge,
    TailTooLarge,
    ThetaOverflow,
    TruncationFailure,
)
from hexlat.moduli import Generator
from hexlat.theta1d import theta_rows

PI = math.pi
RT3_2 = math.sqrt(3.0) / 2.0
HEX = hexagonal_point()


# ----------------------------- theta(alpha; z) -----------------------------


def test_theta_brute_force(sample_points):
    for alpha in (1.0, 1.6, 3.0):
        for z in sample_points:
            ref = brute_theta(alpha, z)
            assert abs(theta_lattice(alpha, z) - ref) <= 1e-12 * ref


def test_theta_shift_invariance():
    z = UpperHalfPoint(0.2, 1.1)
    zz = UpperHalfPoint(1.2, 1.1)
    assert abs(theta_lattice(1.3, z) - theta_lattice(1.3, zz)) < 1e-13


def test_theta_duality():
    for alpha in (0.1, 0.5, 2.0, 7.0):
        t = theta_lattice(alpha, HEX)
        assert abs(theta_lattice(1.0 / alpha, HEX) - alpha * t) <= 1e-12 * alpha * t


def test_theta_invalid_alpha():
    with pytest.raises(NonPositiveAlpha):
        theta_lattice(0.0, HEX)
    with pytest.raises(NonPositiveAlpha):
        theta_lattice(-2.0, HEX)


@settings(max_examples=150, deadline=None)
@given(alpha=st.floats(math.log(0.5), math.log(4.0)).map(math.exp),
       ratio=st.one_of(st.just(1.0), st.floats(math.log(0.25), math.log(4.0)).map(math.exp)),
       x=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
def test_theta_and_w_b_match_40_digit_sums(alpha, ratio, x, b):
    # y = ratio alpha: below y = alpha the sums walk the lattice to a radius
    # whose proven tail is under 2^-54 of sum |terms|, and add up to 4 ulps of
    # it in rounding; from y = alpha on they take the row expansion, whose
    # truncation rule is rel_tol = 1e-14 of the largest term.
    z = UpperHalfPoint(x, ratio * alpha)
    theta, w, theta_abs, w_abs = mp_lattice_sums(alpha, b, z)
    tol = 2.0**-54 + 4.0 * 2.0**-52 if z.y / alpha < 1.0 else 1e-14
    assert abs(theta_lattice(alpha, z) - theta) <= tol * theta_abs
    assert abs(w_b(alpha, b, z) - w) <= tol * w_abs


@pytest.mark.parametrize("x", [0.3, 1e6 + 0.3], ids=["0.3", "1e6+0.3"])
def test_theta_far_off_the_domain_matches_a_40_digit_sum(x):
    # the row expansion would need more than MAX_TERMS rows at alpha y = 1e-4;
    # the lattice is that of (0.3, 100), theta about 10
    z = UpperHalfPoint(x, 1e-4)
    assert abs(theta_lattice(1.0, z) - mp_lattice_sums(1.0, 0.0, z)[0]) <= 1e-13 * 10.0


def test_yukawa_diff_radius_past_the_enumeration_cap():
    # the proven tail asks for ~45/alpha points, above MAX_ENUMERATION
    with pytest.raises(RadiusTooLarge):
        closed_form_energy(YukawaDiff(1e-5, 2.0, 0.5), HEX)


# --------------------------------- W_b --------------------------------------


def test_w_vanishing_identity():
    for z in (UpperHalfPoint(0.3, 1.2), UpperHalfPoint(0.05, 4.0), HEX):
        assert abs(w_b(1.0, B_CRITICAL, z)) < 1e-12


def test_w_deformation_identity(sample_points):
    alpha, b, b0 = 1.5, 0.05, B_CRITICAL
    for z in sample_points:
        lhs = w_b(alpha, b, z)
        rhs = w_b(alpha, b0, z) + (b0 - b) / alpha * theta_lattice(alpha, z)
        assert abs(lhs - rhs) < 1e-12


def test_w_brute_force(sample_points):
    for alpha, b in ((1.0, 0.0), (1.7, 0.1), (2.0, B_CRITICAL)):
        for z in sample_points:
            assert abs(w_b(alpha, b, z) - brute_w(alpha, b, z)) < 1e-12
    # 2 pi b overflows a double here, but W_b and the origin-free energy do not
    for b in (1e308, -1e308):
        assert w_b(1.0, b, HEX) == pytest.approx(brute_w(1.0, b, HEX), rel=1e-13)
        assert closed_form_energy(PolyGaussian(1.0, b), HEX) == pytest.approx(
            brute_energy(lambda q: (q - b) * math.exp(-PI * q), HEX), rel=1e-13)


def _origin_row(alpha, b, y):
    """W_b + b/alpha where only the points n (on the row through the origin),
    |P|^2 = n^2/y, have terms within the float range: alpha y beyond it."""
    return 2.0 * sum((n * n / y - b / alpha) * math.exp(-PI * alpha * n * n / y) for n in range(1, 6))


def _origin_row_w(alpha, b, y):
    return _origin_row(alpha, b, y) - b / alpha


@pytest.mark.parametrize("alpha, b, z", [
    (1e160, 0.5, UpperHalfPoint(0.2, 1e155)),  # alpha^{5/2}, pi alpha^2 and y^2 overflow
    (1e200, 0.0, UpperHalfPoint(0.3, 1e199)),
    (1e130, 0.5, UpperHalfPoint(0.2, 1e131)),  # alpha^{5/2} alone overflows
    (1e154, 0.5, UpperHalfPoint(0.2, 1.5e154)),  # pi alpha^2 overflows, alpha y does not
    (1e160, 0.5, UpperHalfPoint(0.2, 1e-140)),  # y below the direct sum's reach
    # there the row is taken in alpha/y, which carries no power of X = y/alpha;
    # the rows' X^{-5/2} overflows at all but the second
    (1e100, 0.3, UpperHalfPoint(0.3, 1e-30)),
    (1e100, 0.3, UpperHalfPoint(0.3, 1e-10)),
    (1e150, 0.3, UpperHalfPoint(0.3, 1e-30)),
    (1e150, 0.3, UpperHalfPoint(0.3, 1e-10)),
])
def test_w_b_where_powers_of_alpha_overflow(alpha, b, z):
    assert w_b(alpha, b, z) == pytest.approx(_origin_row_w(alpha, b, z.y), rel=1e-14)
    # the origin-free sum takes the same row, without the origin's -b/alpha
    assert closed_form_energy(PolyGaussian(alpha, b), z) == pytest.approx(
        _origin_row(alpha, b, z.y), rel=1e-14)


@pytest.mark.parametrize("alpha, y", [
    (1e110, 1e111),  # alpha^3 overflows
    (3e102, 1e103),  # pi^2 alpha^3 overflows, alpha^3 does not
    (1e150, 1e151),
])
def test_dy_w_where_powers_of_alpha_overflow(alpha, y):
    # d/dy of the row through the origin, by a central difference of its
    # 50-digit sum; the other points' terms are below the float range
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(1) / (2 * mpmath.pi)

        def row(t):
            return 2 * sum((n * n / t - b / a) * mpmath.exp(-mpmath.pi * a * n * n / t) for n in range(1, 8))
        h = mpmath.mpf(y) * mpmath.mpf("1e-15")
        want = float((row(y + h) - row(y - h)) / (2 * h))
    assert want != 0.0
    assert dy_w(alpha, UpperHalfPoint(0.2, y)) == pytest.approx(want, rel=1e-13)


def test_origin_row_closed_form_where_pi_alpha_squared_overflows():
    # e^{-alpha pi y} is 0.0, so only the row through the origin is left, and
    # at X = y/alpha = 1e10 it is y^{3/2}/(pi alpha^{5/2}) (c0 - 2 pi e^{-pi X})
    # though pi alpha^2 overflows; its sum in alpha/y would need 1e5 terms
    alpha, b, y = 1e160, 0.3, 1e170
    with mpmath.workdps(40):
        a, X = mpmath.mpf(alpha), mpmath.mpf(y) / mpmath.mpf(alpha)
        c0 = (1 - 2 * mpmath.pi * mpmath.mpf(b)) / (2 * X)
        want = float(mpmath.mpf(y) ** 1.5 / (mpmath.pi * a**2.5) * (c0 - 2 * mpmath.pi * mpmath.exp(-mpmath.pi * X)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w_b(alpha, b, UpperHalfPoint(0.3, y)) == pytest.approx(want, rel=1e-14)
        # pi^2 alpha^3 overflows too; theta_X and theta_XX at X = 1e50 are 0.0
        assert dy_w(1e150, UpperHalfPoint(0.3, 1e200)) == 0.0


@pytest.mark.parametrize("alpha, y", [(1e130, 1e131), (1e154, 1.5e154), (1e160, 1e161)])
def test_dx_w_where_powers_of_alpha_overflow(alpha, y):
    # x moves only the points off the row through the origin, whose terms,
    # at |P|^2 >= y, are below the float range
    assert dx_w(alpha, UpperHalfPoint(0.2, y)) == 0.0


@pytest.mark.parametrize("call", [
    lambda: dy_w(1e160, UpperHalfPoint(0.3, 3e-157)),
    lambda: dy_w(1e165, UpperHalfPoint(0.3, 1e-162)),  # y^2 underflows too
    lambda: w_b(1e160, 0.0, UpperHalfPoint(0.3, 3e-157)),
    lambda: closed_form_energy(PolyGaussian(1e160, 0.0), UpperHalfPoint(0.3, 3e-157)),
    lambda: closed_form_energy(PolyGaussian(1e305, 1.0), UpperHalfPoint(0.0, 1e-3)),  # pi alpha/y overflows
    # alpha/y = 1e50: the Poisson rows at X = 1e-50 left -3.7e-27 of two terms
    # of +-7.5e64 that cancel
    lambda: dy_w(1e30, UpperHalfPoint(0.3, 1e-20)),
], ids=["dy_w", "dy_w-y-squared", "w_b", "poly-gaussian-energy", "poly-gaussian-energy-pi-d", "dy_w-1e50"])
def test_origin_row_where_alpha_over_y_overflows(call):
    # alpha/y = inf, or pi alpha/y overflows: every exponential of the row
    # through the origin is 0, where its terms would be inf * 0 = nan, and the
    # other rows underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() == 0.0


@pytest.mark.parametrize("alpha, y", [(1e-110, 1e110), (1e-140, 1e140), (1e-20, 1e250)])
def test_w_rows_at_tiny_alpha_and_huge_y(alpha, y):
    # the rows' factor y^{3/2}/(pi alpha^{5/2}) passes the float range, or
    # alpha^{5/2} is 0.0, where W_b does not: it is applied by powers of 2
    z = UpperHalfPoint(0.3, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = w_b(alpha, 0.1, z)
        assert w == pytest.approx(w_b(alpha, 0.0, z) - 0.1 / alpha * theta_lattice(alpha, z), rel=1e-14)
        assert w == pytest.approx(w_b_via_theta_derivative(alpha, 0.1, z), rel=1e-8)
        assert closed_form_energy(PolyGaussian(alpha, 0.1), z) == pytest.approx(w + 0.1 / alpha, rel=1e-15)
        # theta_Y at X = y/alpha is below the float range, so the rows sum to 0
        assert dx_w(alpha, z) == 0.0


def test_dx_w_rows_where_pi_alpha_squared_is_subnormal():
    # below alpha ~ 1.5e-154 pi alpha^2 is subnormal.  The rows need alpha y
    # >= ~1.9e-4 (MAX_TERMS rows at the default rel_tol), so X = y/alpha >=
    # ~8e303, where every theta_Y and theta_XY term is 0.0: the rows sum to
    # 0.0, and the coefficient's rounding reaches no value
    assert dx_w(1e-155, UpperHalfPoint(0.3, 1e153)) == 0.0
    assert dx_w(1e-155, UpperHalfPoint(0.3, 2e151)) == 0.0
    with pytest.raises(TruncationFailure):
        dx_w(1e-155, UpperHalfPoint(0.3, 1e150))
    with pytest.raises(NonPositiveX):  # X = y/alpha overflows
        dx_w(1e-160, UpperHalfPoint(0.3, 1e158))


@pytest.mark.parametrize("alpha, y", [(1e-110, 1e110), (1e-140, 1e140), (1e-105, 3e104), (1e-102, 1e102),
                                      (1e-20, 1e250)])
def test_dy_w_at_tiny_alpha_and_huge_y(alpha, y):
    # Below alpha ~ 6e-103 pi^2 alpha^3 is below the normal range and d/dy W
    # raises ThetaOverflow; above, where alpha^{5/2} is tiny or y^{3/2}
    # overflows, it agrees with a central difference of W at the critical
    # coupling.  Neither gives a bare arithmetic error or a warning.
    z = UpperHalfPoint(0.3, y)
    h = 1e-6 * y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if alpha < 6e-103:
            with pytest.raises(ThetaOverflow, match=r"pi\^2 alpha\^3"):
                dy_w(alpha, z)
        else:
            want = (w_b(alpha, B_CRITICAL, UpperHalfPoint(0.3, y + h))
                    - w_b(alpha, B_CRITICAL, UpperHalfPoint(0.3, y - h))) / (2.0 * h)
            assert dy_w(alpha, z) == pytest.approx(want, rel=1e-8)
        # the double sum's factor -8 pi alpha^{-5/2} y^{3/2} passes the float range
        assert dx_w_double_sum(alpha, z) == 0.0 == dx_w(alpha, z)


def test_dx_w_double_sum_raises_where_its_coupling_coefficients_overflow():
    # alpha^2 overflows in A_(n,m) and meets e^{...} = 0.0: the sum is nan
    with pytest.raises(ThetaOverflow, match="coupling coefficients"):
        dx_w_double_sum(1e160, UpperHalfPoint(0.3, 1e200))


def test_w_rows_raise_where_w_b_passes_the_float_range():
    z = UpperHalfPoint(0.3, 1e153)
    assert math.isfinite(w_b(1e-154, 0.0, z))  # 3.2e307
    with pytest.raises(ThetaOverflow, match="leaves the float range"):
        w_b(1e-154, -100.0, z)


@pytest.mark.parametrize("x", [2.0**53, -2.0**53, 1e308, -1e308])
@pytest.mark.parametrize("y", [3.0, 1e4])
def test_row_sums_where_x_is_an_integer(x, y):
    # from 2^53 on x is an integer, whose lattice is that of x = 0: the rows
    # take x = 0, where n x cannot overflow
    z, z0 = UpperHalfPoint(x, y), UpperHalfPoint(0.0, y)
    for f in (lambda z: theta_lattice(2.0, z), lambda z: w_b(2.0, 0.1, z), lambda z: dx_w(2.0, z),
              lambda z: dy_w(2.0, z), lambda z: closed_form_energy(PolyGaussian(2.0, 0.1), z)):
        assert repr(f(z)) == repr(f(z0))


def test_theta_where_y_over_alpha_is_subnormal():
    # X = y/alpha = 3e-317: the Poisson comb's decay 1/X is inf, where every
    # term past the first is 0.0, and theta is 1 to rounding
    z = UpperHalfPoint(0.3, 3e-157)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert DEFAULT_CONFIG.last_index(math.inf, 4, 0, "comb") == 0
        assert DEFAULT_CONFIG.last_index(math.inf, 2, 1, "rows") == 1
        assert theta_lattice(1e160, z) == pytest.approx(1.0, rel=2.0**-52, abs=0.0)
        assert w_b(1e160, 0.3, z) == pytest.approx(-0.3 / 1e160, rel=2.0**-51)


@pytest.mark.parametrize("call", [
    lambda: w_b(1e110, 0.5, UpperHalfPoint(0.2, 1e-110)),
    lambda: closed_form_energy(PolyGaussian(1e110, 0.5), UpperHalfPoint(0.2, 1e-110)),
    lambda: dy_w(3e102, UpperHalfPoint(0.2, 1e-101)),
], ids=["w_b", "poly-gaussian-energy", "dy_w"])
def test_theta_prefactor_overflow_names_x(call):
    # past the direct sum's point cap the rows take theta at X = y/alpha below
    # ~1e-123, where the Poisson prefactor X^{-5/2} passes the float range
    with pytest.raises(ThetaOverflow, match=r"overflows at X = y/alpha = \d"):
        call()


def _first_point_laplace(family, alpha, b):
    """int_1^inf e^{-x} v(x) dx where alpha/y = 10 leaves the first point of
    the row through the origin alone: v(x) = 2 e^{-10 pi x} - 2 b e^{-20 pi x}
    (family f, a = 2) or 2 (10 x - b) e^{-10 pi x}/alpha (family g)."""
    r = 1.0 + 10.0 * PI
    if family == "f":
        return 2.0 * math.exp(-r) / r - 2.0 * b * math.exp(-2.0 * r + 1.0) / (2.0 * r - 1.0)
    return 2.0 * math.exp(-r) * (10.0 * (1.0 / r + 1.0 / r**2) - b / r) / alpha


@pytest.mark.parametrize("family", ["f", "g"])
@pytest.mark.parametrize("alpha, z, first_point", [(1e160, UpperHalfPoint(0.2, 1e155), False),
                                                   (1e200, UpperHalfPoint(0.3, 1e199), True)])
def test_laplace_energy_where_powers_of_alpha_overflow(family, alpha, z, first_point):
    # pi alpha^2 overflows at every node; the walk's radius holds only the
    # first points of the row through the origin, and nodes far past the
    # rule's stop overflow alpha x, with no warning
    p = LaplaceWeighted(alpha, 2.0, 0.05, weight=lambda x: math.exp(-x), family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = laplace_energy(p, z)
    if first_point:
        assert value == pytest.approx(_first_point_laplace(family, alpha, 0.05), rel=1e-12)
    else:
        assert value == 0.0


def test_direct_sums_where_y_squared_overflows(monkeypatch):
    # y = 1e199: the proven tail and the basis norm |z|^2/y are formed
    # without y^2, so the walks hold the first points of the row through the
    # origin, pi alpha |P|^2 = 10 pi n^2, and the rows are not taken
    z = UpperHalfPoint(0.3, 1e199)
    monkeypatch.setattr("hexlat.energy.theta_rows", None)
    monkeypatch.setattr("hexlat.energy._node_integrand", None)
    e1, e2 = math.exp(-10.0 * PI), math.exp(-40.0 * PI)
    assert theta_lattice(1e200, z) == pytest.approx(1.0 + 2.0 * (e1 + e2), rel=2.0**-52, abs=0.0)
    assert w_b(1e200, 0.5, z) == pytest.approx(_origin_row_w(1e200, 0.5, z.y), rel=1e-14)
    p = LaplaceWeighted(1e200, 2.0, 0.05, weight=lambda x: math.exp(-x), family="g")
    assert laplace_energy(p, z) == pytest.approx(_first_point_laplace("g", 1e200, 0.05), rel=1e-12)


@pytest.mark.parametrize("alpha, b, z, expected", [
    # b/alpha overflows (with 2 pi b, or alone): W_b + b/alpha would be -inf + inf
    (0.1, 1e308, HEX, -math.inf),
    (0.01, 1e307, HEX, -math.inf),
    (0.1, -1e308, HEX, math.inf),
    # 2 pi b overflows where 4 alpha < y; the energy itself is finite
    (1.0, 1e308, UpperHalfPoint(0.0, 5.0), None),
    (1.0, -1e308, UpperHalfPoint(0.0, 5.0), None),
], ids=["b-over-alpha", "b-over-alpha-alone", "negative-b", "tall-z", "tall-z-negative-b"])
def test_poly_gaussian_energy_at_the_float_range(alpha, b, z, expected):
    val = closed_form_energy(PolyGaussian(alpha, b), z)
    if expected is None:
        expected = pytest.approx(brute_energy(lambda q: (q - b) * math.exp(-PI * q), z), rel=1e-13)
    assert val == expected


def test_w0_positive_at_hexagonal():
    val = w_b(2.0, 0.0, HEX)
    assert val > 0
    assert abs(val - brute_w(2.0, 0.0, HEX)) < 1e-12


def test_w_via_theta_derivative():
    for alpha, b, z in (
        (1.7, 0.1, UpperHalfPoint(0.4, 1.3)),
        (1.2, 0.0, UpperHalfPoint(0.1, 1.8)),
    ):
        a_val = w_b(alpha, b, z)
        b_val = w_b_via_theta_derivative(alpha, b, z)
        assert abs(a_val - b_val) <= 1e-6 * abs(a_val)
    # at b = 0 the value is (1/pi) sum pi |P|^2 e^{-pi alpha |P|^2} > 0
    assert w_b_via_theta_derivative(1.3, 0.0, HEX) > 0
    # at alpha = 1, b = 1/(2 pi) the structure identity gives ~0
    assert abs(w_b_via_theta_derivative(1.0, B_CRITICAL, UpperHalfPoint(0.2, 1.5))) < 1e-7


# ------------------------------ derivatives ---------------------------------


def test_dx_vanishes_at_critical_alpha(sample_points):
    for z in sample_points:
        assert abs(dx_w(1.0, z)) < 1e-10


def test_dx_negative_inside_domain():
    assert dx_w(1.5, UpperHalfPoint(0.25, 1.0)) < 0
    assert dx_w(5.0, UpperHalfPoint(0.1, 1.4)) < 0


def test_dx_matches_finite_difference():
    h = 1e-6
    for alpha, z in ((1.5, UpperHalfPoint(0.25, 1.0)), (2.5, UpperHalfPoint(0.37, 1.6))):
        fd = (
            w_b(alpha, B_CRITICAL, UpperHalfPoint(z.x + h, z.y))
            - w_b(alpha, B_CRITICAL, UpperHalfPoint(z.x - h, z.y))
        ) / (2 * h)
        v = dx_w(alpha, z)
        assert abs(v - fd) <= 1e-6 * abs(v)


@pytest.mark.parametrize("x", [1e300, 1e308])
def test_dx_double_sum_where_x_is_an_integer(x):
    # the lattice of x = 0, where d/dx W is 0; sin(2 m n pi x) at x = 1e300
    # was rounding noise and at 1e308 its argument overflowed
    z = UpperHalfPoint(x, 3.0)
    assert dx_w_double_sum(2.0, z) == 0.0 == dx_w(2.0, z)


def test_dx_double_sum_path(sample_points):
    for alpha in (1.05, 1.5, 3.0):
        for z in sample_points:
            a_val = dx_w(alpha, z)
            b_val = dx_w_double_sum(alpha, z)
            scale = max(abs(a_val), abs(b_val))
            if scale > 1e-13:
                assert abs(a_val - b_val) <= 1e-10 * scale


def test_dy_zero_at_hexagonal_point():
    for alpha in (1.7, 1.0, 3.0):
        assert abs(dy_w(alpha, HEX)) < 1e-9


def test_dy_nonnegative_on_gamma():
    assert dy_w(1.3, UpperHalfPoint(0.5, 1.5)) >= 0


# The half-plane walk behind the Newton refinement: value, gradient and
# Hessian in (x, y) at seeded points with alpha on both sides of 1, where the
# Gaussian terms take the dual walk below alpha = 1.


def _walk_points(seed, n=8):
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(0.2), math.log(8.0))),
             UpperHalfPoint(rng.uniform(0.0, 0.5), rng.uniform(0.8, 2.5))) for _ in range(n)]


def _family_derivatives(p):
    """q -> (f, f', f'') of the potential of p, written out directly."""
    ca = PI * p.alpha
    if isinstance(p, PolyGaussian):
        s = p.b / p.alpha
        return lambda q: ((q - s) * math.exp(-ca * q), (1.0 - ca * (q - s)) * math.exp(-ca * q),
                          ca * (ca * (q - s) - 2.0) * math.exp(-ca * q))
    cb = ca * p.a
    if isinstance(p, GaussianDiff):
        return lambda q: (math.exp(-ca * q) - p.b * math.exp(-cb * q),
                          -ca * math.exp(-ca * q) + p.b * cb * math.exp(-cb * q),
                          ca * ca * math.exp(-ca * q) - p.b * cb * cb * math.exp(-cb * q))
    return lambda q: ((math.exp(-ca * q) - p.b * math.exp(-cb * q)) / q,
                      -(math.exp(-ca * q) * (ca + 1 / q) - p.b * math.exp(-cb * q) * (cb + 1 / q)) / q,
                      (math.exp(-ca * q) * (ca * ca + 2 * ca / q + 2 / q / q)
                       - p.b * math.exp(-cb * q) * (cb * cb + 2 * cb / q + 2 / q / q)) / q)


def _abs_terms(p, z):
    """sum over the nonzero lattice points of |f| + |f'| |dq| + |f''| |dq|^2
    + |f'| |d^2 q|, over both coordinates and every Hessian entry: the moduli
    of the terms of the value, the gradient and the Hessian."""
    derivs, x, y = _family_derivatives(p), z.x, z.y
    total = 0.0
    for q, (m, n) in lattice_norms(z, math.sqrt(60.0 / (PI * p.alpha))):
        if q:
            f0, f1, f2 = map(abs, derivs(q))
            u = m * x + n
            qx, qy = 2 * m * u / y, m * m - u * u / (y * y)
            total += (f0 + f1 * (abs(qx) + abs(qy) + 2 * m * m / y + abs(qx) / y + 2 * u * u / y**3)
                      + f2 * (qx * qx + abs(qx * qy) + qy * qy))
    return total


@pytest.mark.parametrize("seed", range(3))
def test_walk_gradient_matches_dx_dy_w(seed):
    # against the row expansions, which dx_w and dy_w take from y/alpha = 1 on
    points = _walk_points(seed)
    assert min(a for a, _ in points) < 1.0 < max(a for a, _ in points)
    for alpha, z in points:
        p = PolyGaussian(alpha, B_CRITICAL)
        _, (gx, gy), _, _ = hessian_walk(p, z)
        scale = _abs_terms(p, z) + B_CRITICAL / alpha  # W_b's origin term
        assert abs(gx - energy._rows("dx_w", alpha, 0.0, z, False, DEFAULT_CONFIG)) <= 1e-12 * scale
        assert abs(gy - energy._rows("dy_w", alpha, 0.0, z, True, DEFAULT_CONFIG)) <= 1e-12 * scale


def test_dx_dy_w_below_the_switch_match_40_digit_sums():
    # Below y/alpha = 1 dx_w and dy_w walk the lattice to a radius cut against
    # their own terms.  A term's exponential carries the rounding of its norm
    # q, pi alpha q times over, and q_y's two parts may cancel, so the error
    # is held to 8 ulps of sum |f'(q)| |dq| (1 + pi alpha q), |dq| = |q_x| or
    # m^2 + u^2/y^2 (conftest.mp_critical_gradient).  A fifth of the points
    # lie far up the cusp, alpha in [5, 8] and y/alpha in [0.8, 1), where
    # d/dx W, carried by points with |P|^2 >= y alone, is below 1e-20.
    rng = random.Random(29)
    far = 0
    for i in range(120):
        if i % 5 == 4:
            alpha = rng.uniform(5.0, 8.0)
            y = alpha * rng.uniform(0.8, 0.99)
        else:
            alpha = math.exp(rng.uniform(math.log(0.25), math.log(8.0)))
            y = alpha * math.exp(rng.uniform(math.log(0.05), 0.0))
        z = UpperHalfPoint((0.0, 0.5, -0.7, rng.uniform(-1.0, 1.0))[i % 4], y)
        gx, gy, _, _, kx, ky = mp_critical_gradient(alpha, z)
        assert abs(dx_w(alpha, z) - gx) <= 8.0 * 2.0**-52 * kx
        assert abs(dy_w(alpha, z) - gy) <= 8.0 * 2.0**-52 * ky
        far += 0.0 < abs(gx) < 1e-20
    assert far >= 12


def _theta_rows_spy(monkeypatch):
    """The X of each theta_rows call the lattice sums make from here on."""
    calls = []

    def spy(X, Ys, orders, cfg=DEFAULT_CONFIG):
        calls.append(X)
        return theta_rows(X, Ys, orders, cfg)

    monkeypatch.setattr("hexlat.energy.theta_rows", spy)
    return calls


def test_dx_dy_w_take_the_rows_from_the_switch_on(monkeypatch):
    calls = _theta_rows_spy(monkeypatch)
    for y in (0.1, 1.0, 1.999):
        dx_w(2.0, UpperHalfPoint(0.3, y))
        dy_w(2.0, UpperHalfPoint(0.3, y))
    assert calls == []
    for y in (2.0, 4.0):
        dx_w(2.0, UpperHalfPoint(0.3, y))
        dy_w(2.0, UpperHalfPoint(0.3, y))
    assert calls == [1.0, 1.0, 2.0, 2.0]


@pytest.mark.parametrize("name", ["dx_w", "dy_w"])
def test_dx_dy_w_take_the_rows_past_the_walk_cap(name, monkeypatch):
    # y/alpha = 1e-8, but the walk would visit ~5e5 points: the rows answer,
    # and raise where they would need more than MAX_TERMS rows too
    public = getattr(energy, name)
    z = UpperHalfPoint(0.3, 1e-5)
    with pytest.raises(RadiusTooLarge):
        energy._walk(*energy._terms(PolyGaussian(1e3, B_CRITICAL), True), z, 0)
    calls = _theta_rows_spy(monkeypatch)
    assert public(1e3, z) == energy._rows(name, 1e3, 0.0, z, name == "dy_w", DEFAULT_CONFIG)
    assert calls == [1e-8, 1e-8]
    with pytest.raises(TruncationFailure, match=rf"^{name} "):
        public(1e-8, UpperHalfPoint(0.3, 1e-9))


def test_origin_free_direct_sums_match_40_digit_sums():
    # Below y/alpha = 1 the Gaussian, GaussianDiff and PolyGaussian energies
    # and theta_difference are each one direct sum over the nonzero points.
    # A term's exponential carries the rounding of its norm q pi s q times
    # over, and a PolyGaussian term's two parts may cancel, so the error is
    # held to 2 ulps of sum (|A| + |B q|) e^{-pi s q} (1 + pi s q) over the
    # terms (A + B q) e^{-pi s q} of every point (conftest.mp_nonzero_sums),
    # plus |1 - b| for theta_difference's origin.
    rng = random.Random(34)
    for i in range(60):
        alpha = math.exp(rng.uniform(math.log(0.25), math.log(8.0)))
        y = alpha * math.exp(rng.uniform(math.log(0.05), 0.0))
        z = UpperHalfPoint((0.0, 0.5, -0.5, rng.uniform(-1.0, 1.0))[i % 4], y)
        b, a = rng.choice([0.0, B_CRITICAL, 1.0, -1.0]), rng.uniform(1.1, 4.0)
        gauss = mp_nonzero_sums([(1.0, 0.0, alpha)], z)
        diff = mp_nonzero_sums([(1.0, 0.0, alpha), (-b, 0.0, a * alpha)], z)
        poly = mp_nonzero_sums([(-b / alpha, 1.0, alpha)], z)
        for value, (want, scale), origin in ((closed_form_energy(Gaussian(alpha), z), gauss, 0.0),
                                             (closed_form_energy(GaussianDiff(alpha, a, b), z), diff, 0.0),
                                             (closed_form_energy(PolyGaussian(alpha, b), z), poly, 0.0),
                                             (theta_difference(alpha, a, b, z), diff, 1.0 - b)):
            assert abs(value - (want + origin)) <= 2.0 * 2.0**-52 * (scale + abs(origin))


def test_origin_free_energies_below_the_switch_walk_once(monkeypatch):
    # Below y/alpha = 1 each energy walks the half plane once and takes no
    # theta row; past the walk's point cap it takes the rows as before.
    walks = []
    half_plane = moduli._half_plane
    monkeypatch.setattr(moduli, "_half_plane", lambda *args: walks.append(args) or half_plane(*args))
    rows = _theta_rows_spy(monkeypatch)
    energies = (lambda al, z: closed_form_energy(Gaussian(al), z),
                lambda al, z: closed_form_energy(GaussianDiff(al, 2.0, 0.5), z),
                lambda al, z: closed_form_energy(PolyGaussian(al, 0.3), z),
                lambda al, z: theta_difference(al, 2.0, 0.5, z))
    for f in energies:
        walks.clear()
        f(2.0, UpperHalfPoint(0.3, 1.5))
        assert len(walks) == 1
    assert rows == []
    # y/alpha = 1e-8 puts ~5e5 points within the first radius at alpha = 1e3
    z, cfg = UpperHalfPoint(0.3, 1e-5), DEFAULT_CONFIG
    theta_minus_one = energy._theta_minus_one(1e3, z, cfg)
    assert [f(1e3, z) for f in energies] == [
        theta_minus_one, theta_minus_one - 0.5 * energy._theta_minus_one(2e3, z, cfg),
        energy._w_b_minus_origin(1e3, 0.3, z, cfg), theta_lattice(1e3, z) - 0.5 * theta_lattice(2e3, z)]
    assert rows


@pytest.mark.parametrize("family", ["f", "g"])
def test_laplace_nodes_take_the_rows_below_the_switch(monkeypatch, family):
    # Past laplace_energy's walk cap every node takes the origin-free row
    # sums, also where y/(alpha x) < 1: at y = 1e-3 a direct sum per node
    # would walk ~pi/y points, at 230 nodes per energy.
    walks, rows = [], []
    half_plane = moduli._half_plane  # the direct sums' walk; the Laplace walk holds its own name
    row_sums = energy._theta_minus_one if family == "f" else energy._w_b_minus_origin
    monkeypatch.setattr(moduli, "_half_plane", lambda *args: walks.append(args) or half_plane(*args))
    monkeypatch.setattr(energy, row_sums.__name__, lambda *args: rows.append(args) or row_sums(*args))
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.3, weight=lambda x: math.exp(-x), family=family)
    laplace_energy(p, UpperHalfPoint(0.3, 1e-3))
    assert walks == [] and len(rows) >= 13


def test_theta_differences_where_a_alpha_overflows():
    # a alpha overflows to inf, whose theta is 1: the one direct sum has a
    # value, where theta_lattice(a alpha) would raise NonPositiveAlpha
    z = UpperHalfPoint(0.3, 1.0)
    assert theta_difference(1e308, 2.0, 0.5, z) == 0.5
    assert closed_form_energy(GaussianDiff(1e308, 2.0, 0.5), z) == 0.0


def test_poly_gaussian_off_the_domain_matches_a_40_digit_sum():
    # At (0, 1/2), off the domain, a row n >= 1 of the expansion cancels:
    # b/alpha = 1/2 is the norm |z|^2/y of the points +-z, and the rows were off
    # by 1.4e-10 of sum |terms|.  y/alpha = 1/8, so the energy is one direct sum.
    z = UpperHalfPoint(0.0, 0.5)
    _, w, _, w_abs = mp_lattice_sums(4.0, 2.0, z)
    assert abs(closed_form_energy(PolyGaussian(4.0, 2.0), z) - (w + 0.5)) <= 4e-15 * (w_abs - 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_walk_hessian_matches_central_differences_of_dx_dy_w(seed):
    h = 1e-5
    for alpha, z in _walk_points(seed):
        p = PolyGaussian(alpha, B_CRITICAL)
        _, _, (hxx, hxy, hyy), _ = hessian_walk(p, z)
        scale = _abs_terms(p, z) + B_CRITICAL / alpha

        def central(d, dx, dy):
            return (d(alpha, UpperHalfPoint(z.x + dx, z.y + dy))
                    - d(alpha, UpperHalfPoint(z.x - dx, z.y - dy))) / (2 * h)
        for got, want in ((hxx, central(dx_w, h, 0)), (hxy, central(dx_w, 0, h)),
                          (hxy, central(dy_w, h, 0)), (hyy, central(dy_w, 0, h))):
            assert abs(got - want) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", [GaussianDiff, YukawaDiff])
def test_walk_derivatives_match_central_differences_of_energy(family, seed):
    rng = random.Random(100 + seed)
    for alpha, z in _walk_points(seed, 5):
        p = family(alpha, 2.0, rng.uniform(0.0, 1.2))
        value, (gx, gy), (hxx, hxy, hyy), _ = hessian_walk(p, z)
        scale = _abs_terms(p, z)

        def e(dx, dy):
            return closed_form_energy(p, UpperHalfPoint(z.x + dx, z.y + dy))
        h = 1e-5
        assert abs(gx - (e(h, 0) - e(-h, 0)) / (2 * h)) <= 1e-9 * scale
        assert abs(gy - (e(0, h) - e(0, -h)) / (2 * h)) <= 1e-9 * scale
        h, e0 = 1e-4, e(0, 0)
        assert abs(hxx - (e(h, 0) - 2 * e0 + e(-h, 0)) / h**2) <= 1e-6 * scale
        assert abs(hyy - (e(0, h) - 2 * e0 + e(0, -h)) / h**2) <= 1e-6 * scale
        assert abs(hxy - (e(h, h) - e(h, -h) - e(-h, h) + e(-h, -h)) / (4 * h * h)) <= 1e-6 * scale
        # the value is E_f up to a constant of p alone
        at_hex = hessian_walk(p, HEX)[0]
        assert abs((value - at_hex) - (e0 - closed_form_energy(p, HEX))) <= 1e-13 * scale


@pytest.mark.parametrize("p", [
    LaplaceWeighted(0.6, 2.0, 0.5, weight=lambda x: math.exp(-x / 2), family="f"),
    LaplaceWeighted(1.7, 2.0, 0.1, weight=lambda x: math.exp(-x / 2), family="g"),
], ids=["f", "g"])
def test_laplace_walk_gradient_matches_central_differences_of_energy(p):
    # the walk of the exp-sinh mixture against the public Fubini energy, at a
    # point off every mirror line of the lattice
    z, h = UpperHalfPoint(0.31, 1.17), 1e-5
    _, (gx, gy), _, scale = hessian_walk(p, z)

    def e(dx, dy):
        return laplace_energy(p, UpperHalfPoint(z.x + dx, z.y + dy))
    assert abs(gx - (e(h, 0) - e(-h, 0)) / (2 * h)) <= 1e-8 * scale
    assert abs(gy - (e(0, h) - e(0, -h)) / (2 * h)) <= 1e-8 * scale
    assert abs(gx) > 1e-3 * scale and abs(gy) > 1e-3 * scale


def test_dy_matches_finite_difference():
    h = 1e-6
    for alpha, z in ((1.3, UpperHalfPoint(0.5, 1.5)), (1.5, UpperHalfPoint(0.25, 1.0))):
        fd = (
            w_b(alpha, B_CRITICAL, UpperHalfPoint(z.x, z.y + h))
            - w_b(alpha, B_CRITICAL, UpperHalfPoint(z.x, z.y - h))
        ) / (2 * h)
        v = dy_w(alpha, z)
        assert abs(v - fd) <= 1e-6 * abs(v)


# --------------------------- theta difference -------------------------------


def test_theta_difference_reduces_at_b_zero():
    z = UpperHalfPoint(0.3, 1.4)
    assert theta_difference(1.2, 2.0, 0.0, z) == theta_lattice(1.2, z)


def test_theta_difference_requires_a_above_one():
    with pytest.raises(InvalidParameter):
        theta_difference(1.0, 1.0, 0.5, HEX)
    with pytest.raises(InvalidParameter):
        theta_difference_via_w_integral(1.0, 1.0, HEX)


def test_theta_difference_brute():
    z = UpperHalfPoint(0.0, 1.0)
    ref = brute_energy(lambda q: math.exp(-PI * q) - math.exp(-2 * PI * q), z) + (1 - 1)
    # origin contributes 1 - b to theta difference with b = 1
    assert abs(theta_difference(1.0, 2.0, 1.0, z) - ref) < 1e-12


def test_w_integral_identity(sample_points):
    for alpha, a in ((1.0, 2.0), (1.3, 3.0)):
        for z in sample_points[:3]:
            lhs = theta_difference(alpha, a, math.sqrt(a), z)
            rhs = theta_difference_via_w_integral(alpha, a, z)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


# ------------------------------ potentials ----------------------------------


def test_potential_validation():
    with pytest.raises(InvalidParameter):
        GaussianDiff(alpha=1.0, a=1.0, b=0.5)
    with pytest.raises(NonPositiveAlpha):
        Gaussian(alpha=0.0)
    with pytest.raises(InvalidParameter):
        LaplaceWeighted(alpha=1.0, a=2.0, b=0.0, weight=lambda x: 1.0, family="h")
    with pytest.raises(InvalidParameter, match="requires a LaplaceWeighted spec"):
        laplace_energy(GaussianDiff(alpha=1.0, a=2.0, b=0.5), HEX)
    for bad in (math.nan, math.inf, -math.inf):
        for make in (
            lambda v: GaussianDiff(alpha=1.0, a=2.0, b=v),
            lambda v: GaussianDiff(alpha=1.0, a=v, b=1.0),
            lambda v: PolyGaussian(alpha=1.0, b=v),
            lambda v: YukawaDiff(alpha=1.0, a=2.0, b=v),
            lambda v: LaplaceWeighted(alpha=1.0, a=2.0, b=v, weight=lambda x: 1.0),
        ):
            with pytest.raises(InvalidParameter):
                make(bad)
        # the point functions refuse them too, naming the parameter
        for call, name in (
            (lambda v: theta_difference(1.0, v, 1.0, HEX), "a"),
            (lambda v: theta_difference(1.0, 2.0, v, HEX), "b"),
            (lambda v: theta_difference_via_w_integral(1.0, v, HEX), "a"),
            (lambda v: w_b(1.0, v, HEX), "b"),
            (lambda v: w_b_via_theta_derivative(1.0, v, HEX), "b"),
        ):
            with pytest.raises(InvalidParameter, match=f"^{name} must be finite"):
                call(bad)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (Gaussian(alpha=1.0), math.inf),
        (GaussianDiff(alpha=1.0, a=4.0, b=0.0), 2.0),
        (PolyGaussian(alpha=1.0, b=0.0), B_CRITICAL),
        (YukawaDiff(alpha=1.0, a=4.0, b=0.0), 1.0),
        # a decaying weight keeps int P(x) x^{-1/2} dx finite
        (LaplaceWeighted(1.0, 4.0, 0.0, weight=lambda x: math.exp(-x)), 2.0),
        (LaplaceWeighted(1.0, 4.0, 0.0, weight=lambda x: math.exp(-x), family="g"), B_CRITICAL),
        # a flat weight makes family f the YukawaDiff with coupling b/a
        (LaplaceWeighted(1.0, 4.0, 0.0, weight=lambda x: 1.0), 4.0),
        (LaplaceWeighted(1.0, 4.0, 0.0, weight=lambda x: 1.0, family="g"), 1.0 / PI),
        (LaplaceWeighted(1.0, 4.0, 0.0, weight=lambda x: x**-0.3), 4.0**0.7),
    ],
    ids=["gaussian", "gaussian-diff", "poly-gaussian", "yukawa-diff", "laplace-f-exp",
         "laplace-g-exp", "laplace-f-flat", "laplace-g-flat", "laplace-f-power"],
)
def test_critical_coupling(spec, expected):
    assert b_crit(spec) == pytest.approx(expected, rel=1e-12)


def test_gaussian_energy_is_theta_minus_one():
    val = lattice_energy(Gaussian(alpha=1.0), UpperHalfPoint(0.0, 1.0), cutoff_radius=8.0)
    assert abs(val - (theta_lattice(1.0, UpperHalfPoint(0.0, 1.0)) - 1.0)) < 1e-12


def test_poly_gaussian_energy_matches_w():
    z = UpperHalfPoint(0.3, 1.2)
    p = PolyGaussian(alpha=1.5, b=0.1)
    val = lattice_energy(p, z, cutoff_radius=8.0)
    assert abs(val - (w_b(1.5, 0.1, z) + 0.1 / 1.5)) < 1e-12


def test_yukawa_prefers_hexagonal():
    p = YukawaDiff(alpha=1.0, a=2.0, b=0.5)
    assert lattice_energy(p, HEX, 8.0) < lattice_energy(p, UpperHalfPoint(0.0, 1.0), 8.0)


def _yukawa_split_reference(alpha, a, b):
    # mpmath, 30 digits, at the hexagonal point: with I(s) = sum_{P != 0}
    # e^{-pi s |P|^2}/|P|^2 = pi int_s^inf (theta - 1) and theta(s) = theta(1/s)/s,
    # I(s) = pi [sum e^{-pi q}/(pi q) + sum (E1(pi q) - E1(pi q/s)) - ln s - 1 + s]
    # for s < 1, each sum over the norms q = |P|^2 (Ewald's split at s = 1).
    with mpmath.workdps(30):
        x, y = mpmath.mpf(HEX.x), mpmath.mpf(HEX.y)
        qs = [((m * x + n) ** 2 + (m * y) ** 2) / y
              for m in range(-8, 9) for n in range(-8, 9) if (m, n) != (0, 0)]
        head = mpmath.fsum(mpmath.exp(-mpmath.pi * q) / (mpmath.pi * q) for q in qs)

        def split(s):
            s = mpmath.mpf(s)
            tail = mpmath.fsum(mpmath.e1(mpmath.pi * q) - mpmath.e1(mpmath.pi * q / s) for q in qs)
            return mpmath.pi * (head + tail - mpmath.log(s) - 1 + s)

        return float(split(alpha) - mpmath.mpf(b) * split(a * alpha))


@pytest.mark.parametrize("alpha, reference", [(1e-2, 6.8769903959486833), (1e-3, 10.493882602156416)])
def test_yukawa_diff_small_alpha_matches_the_split_reference(alpha, reference):
    # The references are the split above; the direct sum behind closed_form_energy
    # meets them to 4e-16 and 8e-16 (alpha = 1e-4: 3.5e-16 in ~0.15 s).
    assert _yukawa_split_reference(alpha, 2.0, 0.5) == pytest.approx(reference, rel=1e-15)
    value = closed_form_energy(YukawaDiff(alpha=alpha, a=2.0, b=0.5), HEX)
    assert abs(value - reference) <= 1e-13 * reference


def test_tail_guard():
    with pytest.raises(TailTooLarge):
        lattice_energy(Gaussian(alpha=1.0), HEX, cutoff_radius=1.5)


def test_gaussian_diff_brute(sample_points):
    p = GaussianDiff(alpha=1.0, a=2.0, b=1.0)
    for z in sample_points[:3]:
        ref = brute_energy(lambda q: math.exp(-PI * q) - math.exp(-2 * PI * q), z)
        assert abs(lattice_energy(p, z, 8.0) - ref) <= 1e-11 * max(abs(ref), 1e-6)


def test_laplace_energy_flat_weight_equals_yukawa_route():
    # For P = 1 the x-integral evaluates in closed form:
    #   E_f(alpha, a, b) = (1/(pi alpha)) E_yukawa(alpha, a, b/a)
    alpha, a, b = 1.0, 2.0, 0.5
    p = LaplaceWeighted(alpha=alpha, a=a, b=b, weight=lambda x: 1.0, family="f")
    for z in (HEX, UpperHalfPoint(0.0, 1.0)):
        lhs = laplace_energy(p, z)
        rhs = lattice_energy(YukawaDiff(alpha=alpha, a=a, b=b / a), z, 8.0) / (PI * alpha)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_poly_gaussian_energy_where_b_over_alpha_meets_the_first_norm():
    # b/alpha = 0.4023 lies next to the first norm 1/y = 0.4034, so the nonzero
    # terms sum to 3.1e-4 while W_b carries the origin's -b/alpha = -0.40:
    # adding b/alpha back to W_b lost 3.7e-13 of that sum.
    alpha, b = 1.9480538567807881, 0.7837194743447324
    z = UpperHalfPoint(-0.33107787885947626, 2.4788117509073966)
    with mpmath.workdps(40):
        x, y = mpmath.mpf(z.x), mpmath.mpf(z.y)
        norms = [((m + n * x) ** 2 + (n * y) ** 2) / y
                 for m in range(-12, 13) for n in range(-12, 13) if (m, n) != (0, 0)]
        exact = mpmath.fsum((q - mpmath.mpf(b) / alpha) * mpmath.exp(-mpmath.pi * alpha * q)
                            for q in norms)
    assert abs(closed_form_energy(PolyGaussian(alpha, b), z) - exact) <= 1e-14 * exact


def flat_weight_terms(p, z):
    """The terms of E_f for a LaplaceWeighted spec with P = 1, point by point:
    with c = pi alpha |P|^2, int_1^inf e^{-c x} dx = e^{-c}/c and
    int_1^inf (|P|^2 x - b/alpha) e^{-c x} dx = |P|^2 e^{-c}(1/c + 1/c^2) - (b/alpha) e^{-c}/c."""
    terms = []
    for q, _ in lattice_norms(z, 8.0):
        if q == 0.0:
            continue
        c = PI * p.alpha * q
        if p.family == "f":
            terms += [math.exp(-c) / c, -p.b * math.exp(-p.a * c) / (p.a * c)]
        else:
            terms += [q * math.exp(-c) * (1.0 / c + 1.0 / c**2), -(p.b / p.alpha) * math.exp(-c) / c]
    return terms


@pytest.mark.parametrize("family", ["f", "g"])
@pytest.mark.parametrize("alpha", [2.5, 2.99, 4.0, 6.0])
def test_flat_weight_laplace_energy_matches_direct_sum(alpha, family):
    # At large alpha theta(alpha x) - 1 is far below 1e-16 over most of the
    # x-range; formed by subtraction it was rounding noise there.
    p = LaplaceWeighted(alpha=alpha, a=2.0, b=0.5 if family == "f" else 0.1,
                        weight=lambda x: 1.0, family=family)
    for z in (UpperHalfPoint(0.5, 1.04), UpperHalfPoint(0.2, 1.1), HEX):
        terms = flat_weight_terms(p, z)
        error = abs(laplace_energy(p, z) - math.fsum(terms))
        assert error <= 1e-13 * math.fsum(map(abs, terms)), z


def test_flat_weight_laplace_energy_at_its_zero_crossing():
    # Above b_crit = 2 the energy along x = 1/2 falls through 0 near y = 21.41
    # on its way to -infinity; the quadrature's level test must not demand
    # relative agreement with a value that is 0 to rounding.
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=2.5, weight=lambda x: 1.0, family="f")
    z = UpperHalfPoint(0.5, 21.409322153779797)
    terms = flat_weight_terms(p, z)
    assert abs(laplace_energy(p, z) - math.fsum(terms)) <= 1e-13 * math.fsum(map(abs, terms))


def test_laplace_energy_matches_pointwise_route():
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.3, weight=lambda x: math.exp(-x), family="f")
    z = HEX
    fast = laplace_energy(p, z)
    slow = lattice_energy(p, z, cutoff_radius=6.0)
    assert abs(fast - slow) <= 1e-8 * abs(fast)


def test_laplace_family_g_route():
    p = LaplaceWeighted(alpha=1.2, a=2.0, b=0.1, weight=lambda x: 1.0, family="g")
    z = UpperHalfPoint(0.2, 1.3)
    fast = laplace_energy(p, z)
    slow = lattice_energy(p, z, cutoff_radius=6.0)
    assert abs(fast - slow) <= 1e-7 * max(abs(fast), 1e-9)


def test_laplace_decaying_weight_positive():
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.0, weight=lambda x: math.exp(-x), family="f")
    assert laplace_energy(p, HEX) > 0


def test_laplace_prefers_hexagonal():
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.0, weight=lambda x: 1.0, family="f")
    assert laplace_energy(p, HEX) < laplace_energy(p, UpperHalfPoint(0.0, 1.0))


def test_laplace_negative_weight_rejected():
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.0, weight=lambda x: -1.0, family="f")
    with pytest.raises(InvalidParameter):
        laplace_energy(p, HEX)


def test_laplace_divergence_guard():
    with pytest.raises(QuadratureDivergence):
        quadrature.integrate(lambda x: 1.0, 1.0)


def test_exp_sinh_rule_ignores_values_past_its_stop():
    # e^{-x} underflows long before x = 1e100 (t ~ 5.7), so the unit walk stops
    # first and never sums the nan; a nan at x > 10 lies on the walk (t = 2).
    def cut_at(x_max):
        return lambda x: np.where(x <= x_max, np.exp(-x), np.nan)

    assert abs(quadrature.integrate(cut_at(1e100), 1.0) - math.exp(-1.0)) <= 1e-14 * math.exp(-1.0)
    with pytest.raises(QuadratureDivergence):
        quadrature.integrate(cut_at(10.0), 1.0)


def test_exp_sinh_rule_near_the_float_limit():
    # The level sums reach 2^9 times the integral; near the float limit they
    # are carried scaled by a power of 2, which leaves every rounding as it is.
    base = quadrature.integrate(lambda x: np.exp(1.0 - x), 1.0)
    for k in (1000, 1023):
        assert quadrature.integrate(lambda x: 2.0**k * np.exp(1.0 - x), 1.0) == 2.0**k * base


def test_exp_sinh_nodes_and_weights_are_the_rule_integrate_stops_at():
    # the rule chosen for f gives integrate(f) up to the order of summation,
    # and serves an integrand that decays faster, as the Laplace walk uses it
    f = lambda x: np.exp(3.0 * np.log(x) - 0.1 * x)
    xs, ws = quadrature.exp_sinh_rule(f, 1.0)
    assert xs == sorted(xs) and xs[0] >= 1.0 and min(ws) > 0.0
    assert math.fsum(w * f(x) for x, w in zip(xs, ws)) == pytest.approx(quadrature.integrate(f, 1.0), rel=1e-14)
    assert math.fsum(w * math.exp(-2.0 * x) for x, w in zip(xs, ws)) == pytest.approx(
        math.exp(-2.0) / 2.0, rel=1e-12)


def _spied(f, sizes):
    """f, recording the node count of each call in sizes."""
    return lambda x: sizes.append(len(x)) or f(x)


@pytest.mark.parametrize("family", ["f", "g"])
def test_laplace_energy_calls_its_integrand_twice(monkeypatch, family):
    # The unit steps t = -6..6, then the midpoints of the levels h = 1/2 ..
    # 1/16 on the unit walk's span [t_lo, t_hi], 1 + 2 + 4 + 8 per unit of t.
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.3, weight=lambda x: math.exp(-x), family=family)
    _, h, (t_lo, t_hi) = quadrature._exp_sinh(energy._walk_integrand(p, HEX), 1.0)
    sizes = []
    walk_integrand = energy._walk_integrand
    monkeypatch.setattr(energy, "_walk_integrand", lambda *args: _spied(walk_integrand(*args), sizes))
    laplace_energy(p, HEX)
    assert h == 1.0 / 16.0 and sizes == [13, 15 * (t_hi - t_lo)]


def test_exp_sinh_rule_calls_once_per_level_past_one_sixteenth():
    sizes = []
    _, h, (t_lo, t_hi) = quadrature._exp_sinh(_spied(lambda x: np.exp(-x), sizes), 1.0)
    assert h == 1.0 / 32.0 and sizes == [13, 15 * (t_hi - t_lo), 16 * (t_hi - t_lo)]


def test_exp_sinh_rule_ignores_the_levels_it_does_not_reach():
    # 1/(1 + x^2) stops at h = 1/8, so a nan at every node of level 1/16,
    # which the call of levels 1/2 .. 1/16 evaluates last, changes nothing.
    # The nan goes by position: near t_lo, 1 + u rounds to 1.0 at every level.
    f = lambda x: 1.0 / (1.0 + x * x)
    value, h, (t_lo, t_hi) = quadrature._exp_sinh(f, 1.0)
    assert (value, h) == (0.7853981633974483, 1.0 / 8.0)
    assert quadrature.integrate(f, 1.0) == value
    level = 1.0 + quadrature._level_nodes(t_lo, t_hi, 1.0 / 16.0)[0]
    planted = []

    def with_nans(x):
        v = f(x)
        if len(x) == 15 * (t_hi - t_lo):
            assert np.array_equal(x[-len(level):], level)
            v[-len(level):] = np.nan
            planted.append(len(level))
        return v

    assert quadrature.integrate(with_nans, 1.0) == value and planted == [8 * (t_hi - t_lo)]


@pytest.mark.parametrize("z", [HEX, UpperHalfPoint(0.0, 5.0)], ids=["hex", "tall-z"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_laplace_energy_at_the_float_range(z, sign):
    # b/(alpha x) is near the float limit at every node, where the energy is
    # linear in b; the row sums at each node, where 2 pi b overflows, take W_b +
    # b/alpha as W_0 - (b/alpha)(theta - 1) and agree with the walk.
    def spec(b):
        return LaplaceWeighted(1.0, 2.0, b, weight=lambda x: math.exp(-x), family="g")

    ref = 1e8 * laplace_energy(spec(sign * 1e300), z)
    value = laplace_energy(spec(sign * 1e308), z)
    assert abs(value - ref) <= 1e-12 * abs(ref)
    rows = quadrature.integrate(energy._node_integrand(spec(sign * 1e308), z, DEFAULT_CONFIG), 1.0)
    assert abs(rows - value) <= 1e-14 * abs(value)


@pytest.mark.parametrize("family", ["f", "g"])
def test_laplace_energy_walks_once_below_its_point_cap(monkeypatch, family):
    # One half-plane walk serves every node of every quadrature level; past
    # the walk's point cap each node takes the origin-free row sums instead.
    walks, rows = [], []
    half_plane = energy._half_plane
    row_sums = energy._theta_minus_one if family == "f" else energy._w_b_minus_origin

    monkeypatch.setattr(energy, "_half_plane", lambda *args: walks.append(args) or half_plane(*args))
    monkeypatch.setattr(energy, row_sums.__name__, lambda *args: rows.append(args) or row_sums(*args))
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.3, weight=lambda x: math.exp(-x), family=family)
    laplace_energy(p, HEX)
    assert len(walks) == 1 and not rows
    laplace_energy(p, UpperHalfPoint(0.5, 1e6))
    assert len(walks) == 2 and len(rows) >= 13  # at least the unit steps t = -6..6


def test_group_invariance_of_energies():
    rng = np.random.default_rng(11)
    gens = list(Generator)
    z = UpperHalfPoint(0.31, 1.21)
    for _ in range(10):
        word = [gens[int(rng.integers(0, 4))] for _ in range(int(rng.integers(1, 7)))]
        zz = apply_word(word, z)
        t0 = theta_lattice(1.4, z)
        assert abs(theta_lattice(1.4, zz) - t0) <= 1e-11 * t0
        w0 = w_b(1.4, 0.1, z)
        assert abs(w_b(1.4, 0.1, zz) - w0) <= 1e-11 * max(abs(w0), 1e-12)
        d0 = theta_difference(1.0, 2.0, 1.2, z)
        assert abs(theta_difference(1.0, 2.0, 1.2, zz) - d0) <= 1e-11 * abs(d0)


def test_potential_value_laplace_flat_closed_form():
    # int_1^inf e^{-pi alpha x q} dx = e^{-pi alpha q}/(pi alpha q)
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.0, weight=lambda x: 1.0, family="f")
    q = 1.3
    ref = math.exp(-PI * q) / (PI * q)
    assert abs(potential_value(p, q) - ref) <= 1e-10 * ref


@pytest.mark.parametrize(
    "name, call",
    [
        ("theta_lattice", lambda z: theta_lattice(1e-5, z)),
        # y/alpha < 1, but the direct sum would pass MAX_TERMS^2 points
        ("theta_lattice", lambda z: theta_lattice(1e-8, UpperHalfPoint(z.x, 1e-9))),
        ("w_b", lambda z: w_b(1e-5, 0.0, z)),
        ("dx_w", lambda z: dx_w(1e-5, z)),
        ("dy_w", lambda z: dy_w(1e-5, z)),
        ("dx_w_double_sum", lambda z: dx_w_double_sum(1e-5, z)),
    ],
    ids=["theta_lattice", "theta_lattice-direct-side", "w_b", "dx_w", "dy_w", "dx_w_double_sum"],
)
def test_energy_truncation_failure_when_capped(name, call):
    # alpha y = 1e-5 needs ~1,000 outer terms against MAX_TERMS = 256
    with pytest.raises(TruncationFailure, match=rf"^{name} "):
        call(UpperHalfPoint(0.3, 1.0))


@pytest.mark.parametrize("family", ["f", "g"])
def test_laplace_energy_at_small_alpha(family):
    # Below A = alpha x = 1 the walk takes the dual slices, whose rate pi/A
    # keeps it short where the row sums need more than MAX_TERMS terms (the
    # family f case) or many rows of them (family g).  With P = 1, E_f(alpha,
    # a, b) = E_Yukawa(alpha, a, b/a)/(pi alpha), here the split reference of
    # test_yukawa_diff_small_alpha_matches_the_split_reference at alpha = 1e-4.
    if family == "f":
        p = LaplaceWeighted(1e-4, 2.0, 1.0, weight=lambda x: 1.0, family="f")
        expected = 14.110774808364148 / (PI * 1e-4)
        assert abs(laplace_energy(p, HEX) - expected) <= 1e-13 * expected
    else:
        p = LaplaceWeighted(1e-3, 2.0, 0.1, weight=lambda x: math.exp(-x), family="g")
        rows = quadrature.integrate(energy._node_integrand(p, HEX, DEFAULT_CONFIG), 1.0)
        assert abs(laplace_energy(p, HEX) - rows) <= 1e-14 * rows


def _recorded_laplace_inputs():
    """(family, alpha, a, b, rate, x, y): 22 seeded inputs with alpha on both
    sides of 1, so that the walk takes dual slices at the nodes x < 1/alpha
    and, for family f, dual second terms at x < 1/(a alpha); then one input
    per family past the walk's point cap, where each node takes the rows."""
    rng = np.random.default_rng(30)
    cases = []
    for family in "fg" * 11:
        alpha = math.exp(rng.uniform(math.log(0.15), math.log(3.0)))
        a, b, rate = rng.uniform(1.2, 4.0), rng.uniform(-1.0, 1.0), -rng.uniform(0.25, 2.0)
        x = rng.uniform(0.0, 0.5)
        y = math.exp(rng.uniform(math.log(math.sqrt(1.0 - x * x)), math.log(3.0)))
        cases.append((family, alpha, a, b, rate, x, y))
    return cases + [("f", 1.5, 2.0, 0.3, -1.0, 0.5, 8e4), ("g", 0.5, 3.0, -0.4, -0.5, 0.2, 3e5)]


#: laplace_energy at _recorded_laplace_inputs(), recorded when each node's
#: slice terms were built one node at a time.
_RECORDED_LAPLACE = [
    0.39927247063912563, 0.315667188815529, 0.0036934993394062525, 0.21308102169856,
    0.02718361365506759, 1.563793322867935, 0.76678971120793, 0.053852206222011825,
    0.0009754720536099575, 1.5028251907278392, 0.015074273642814521, 0.12433560297971524,
    0.0033262265047495163, 0.0001740689550213331, 0.18922583027379164, 1.9985772825756971,
    0.012879895905759078, 0.006178974462205456, 0.0007431547276749202, 0.00035231689907531754,
    0.00025504957135167596, 1.0967283839956349e-05, 50.47124784901169, 688.0183756080464,
]

#: potential_value of LaplaceWeighted(0.7, 2.5, 0.4, e^{-x/2}) at q = 0.3, 1,
#: 2.7, families f then g, recorded likewise.
_RECORDED_POTENTIAL = [
    0.2486878129052872, 0.024755465001877655, 0.00024856896415384396,
    -0.003446989012764536, 0.019913569170419552, 0.0006333635836278889,
]

#: md5 of the repr of walk_terms(p, 64) for the four specs of the test,
#: 193-449 terms each, recorded likewise.
_RECORDED_WALK_TERMS = [
    "b70d910072222f9cb51f7f8c4370f8c7", "24a68182f20be45c234da7e23c5d9672",
    "0e9c26f06e95d671531d0a68ac6337b6", "9ae6617422408e7c977ef39e3ea7b405",
]


def _slice_terms_per_node(p, x, dual):
    """The slice terms of _slice_terms, node by node from _terms of each
    node's GaussianDiff or PolyGaussian, with the blank node where that
    raises, as laplace_energy and the Newton walks once built them."""
    f = p.family == "f"
    terms, const = [], []
    for t in x.tolist():
        A = p.alpha * t
        try:
            gauss, _ = energy._terms(GaussianDiff(A, p.a, p.b) if f else PolyGaussian(A, p.b), dual)
        except (NonPositiveAlpha, ThetaOverflow):
            terms += [(math.nan, 0.0, 0.0)] * (2 if f else 1)
            const.append(math.nan)
            continue
        terms += gauss
        const.append(sum(k0 for k0, _, _ in gauss) - (1.0 - p.b if f else -p.b / A))
    return [list(c) for c in zip(*terms)], const


@pytest.mark.parametrize("family", ["f", "g"])
@pytest.mark.parametrize("alpha, x", [
    (0.3, [1.0, 1.5, 2.0, 3.3, 3.4, 17.0, 1e300]),  # A < 1, then a A < 1 (a = 2.5), on both sides
    (1e-110, [1.0, 2.0, 1e90, 1e150]),  # a dual g slice's A^3 is 0.0 below A ~ 2e-108
    (1e10, [1.0, 1e290, 1e300]),  # A = alpha x overflows
])
@pytest.mark.parametrize("dual", [False, True])
def test_slice_terms_equal_the_terms_of_each_slice(family, alpha, x, dual):
    p = LaplaceWeighted(alpha, 2.5, 0.4, weight=lambda t: 1.0, family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k0, k1, rates, const = energy._slice_terms(p, np.array(x), dual)
    (r0, r1, rr), rc = _slice_terms_per_node(p, np.array(x), dual)
    assert repr((k0.tolist(), k1.tolist(), rates.tolist())) == repr((r0, r1, rr))
    if dual:
        assert repr(const.tolist()) == repr(rc)


def test_laplace_walk_terms_raise_where_a_dual_slice_overflows():
    # below A = alpha x ~ 2e-108 the dual g slice's factor 1/A^3 overflows
    p = LaplaceWeighted(1e-110, 2.0, 0.1, weight=lambda t: math.exp(-t), family="g")
    with pytest.raises(ThetaOverflow, match="overflows at alpha = 1e-110$"):
        walk_terms(p, 64.0)


def test_laplace_energy_equals_recorded_values():
    # the slice terms of every node come from one array pass, read by the
    # energy, the pointwise potential and the Newton walks' terms alike; each
    # keeps the bits it had when the terms were built node by node
    inputs = _recorded_laplace_inputs()
    assert any(alpha * a < 1.0 for family, alpha, a, *_ in inputs if family == "f")
    values = []
    for family, alpha, a, b, rate, x, y in inputs:
        p = LaplaceWeighted(alpha, a, b, weight=lambda t, r=rate: math.exp(r * t), family=family)
        values.append(laplace_energy(p, UpperHalfPoint(x, y)))
    assert values == _RECORDED_LAPLACE
    potentials = []
    for family in "fg":
        p = LaplaceWeighted(0.7, 2.5, 0.4, weight=lambda t: math.exp(-0.5 * t), family=family)
        potentials += [potential_value(p, q) for q in (0.3, 1.0, 2.7)]
    assert potentials == _RECORDED_POTENTIAL
    specs = [LaplaceWeighted(1.5, 2.0, 0.3, lambda t: math.exp(-t), "f"),
             LaplaceWeighted(0.4, 3.0, 0.05, lambda t: 1.0, "g"),
             LaplaceWeighted(0.3, 2.0, 0.5, lambda t: math.exp(-0.5 * t), "f"),
             LaplaceWeighted(2.0, 2.0, 0.1, lambda t: math.exp(-t), "g")]
    digests = [hashlib.md5(repr(walk_terms(p, 64.0)).encode()).hexdigest() for p in specs]
    assert digests == _RECORDED_WALK_TERMS
