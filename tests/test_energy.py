"""Tests for lattice theta, W_b, their derivatives and the potential energies."""

import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_energy, brute_theta, brute_w, mp_lattice_sums
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
from hexlat._newton import hessian_walk
from hexlat.energy import b_crit, potential_value, theta_difference_via_w_integral
from hexlat import energy, quadrature
from hexlat.errors import (
    InvalidParameter,
    NonPositiveAlpha,
    QuadratureDivergence,
    RadiusTooLarge,
    TailTooLarge,
    ThetaOverflow,
    TruncationFailure,
)
from hexlat.moduli import Generator

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


@pytest.mark.parametrize("alpha, y", [(1e130, 1e131), (1e154, 1.5e154), (1e160, 1e161)])
def test_dx_w_where_powers_of_alpha_overflow(alpha, y):
    # x moves only the points off the row through the origin, whose terms,
    # at |P|^2 >= y, are below the float range
    assert dx_w(alpha, UpperHalfPoint(0.2, y)) == 0.0


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
    # pi alpha^2 overflows at every node and the batched origin-free sums take
    # the row through the origin alone, as the scalar sums do, with no warning
    p = LaplaceWeighted(alpha, 2.0, 0.05, weight=lambda x: math.exp(-x), family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = laplace_energy(p, z)
    if first_point:
        assert value == pytest.approx(_first_point_laplace(family, alpha, 0.05), rel=1e-12)
    else:
        assert value == 0.0


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
    points = _walk_points(seed)
    assert min(a for a, _ in points) < 1.0 < max(a for a, _ in points)
    for alpha, z in points:
        p = PolyGaussian(alpha, B_CRITICAL)
        _, (gx, gy), _, _ = hessian_walk(p, z)
        scale = _abs_terms(p, z) + B_CRITICAL / alpha  # W_b's origin term
        assert abs(gx - dx_w(alpha, z)) <= 1e-12 * scale
        assert abs(gy - dy_w(alpha, z)) <= 1e-12 * scale


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


@pytest.mark.parametrize("z", [HEX, UpperHalfPoint(0.0, 5.0)], ids=["hex", "tall-z"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_laplace_energy_at_the_float_range(z, sign):
    # 2 pi b overflows at every node: W_b + b/alpha is W_0 - (b/alpha)(theta - 1)
    # there, as in the scalar sum, and at this size the energy is linear in b.
    def energy_at(b):
        return laplace_energy(LaplaceWeighted(1.0, 2.0, b, weight=lambda x: math.exp(-x),
                                              family="g"), z)

    ref = 1e8 * energy_at(sign * 1e300)
    assert abs(energy_at(sign * 1e308) - ref) <= 1e-12 * abs(ref)
    # The batch splits node by node where the scalar sum does: at b = 3e306,
    # b/alpha overflows at the first node and c0 at the last, and the nodes
    # between keep the plain sum.
    alphas = np.array([1e-2, 0.5, 1.0, 4.0, 30.0])
    for b in (sign * 1e308, sign * 3e306):
        with np.errstate(over="ignore", invalid="ignore"):
            batch = energy._w_b_minus_origin_batch(alphas, b, z, DEFAULT_CONFIG)
        for alpha, value in zip(alphas.tolist(), batch.tolist()):
            scalar = energy._w_b_minus_origin(alpha, b, z, DEFAULT_CONFIG)
            assert value == scalar or abs(value - scalar) <= 1e-14 * abs(scalar)


@pytest.mark.parametrize("family, kernel", [("f", "_theta_minus_one_batch"),
                                            ("g", "_w_b_minus_origin_batch")])
def test_laplace_energy_batches_each_quadrature_level(monkeypatch, family, kernel):
    # One kernel call for the unit walk and one per halving level (at most
    # nine); evaluating the nodes one at a time would make ~100.
    calls = []
    batch = getattr(energy, kernel)

    def counting(alphas, *args):
        calls.append(len(alphas))
        return batch(alphas, *args)

    monkeypatch.setattr(energy, kernel, counting)
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.3, weight=lambda x: math.exp(-x), family=family)
    laplace_energy(p, HEX)
    assert 0 < len(calls) <= 12


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


def _laplace_at(alpha, family):
    return LaplaceWeighted(alpha=alpha, a=2.0, b=0.1, weight=lambda x: math.exp(-x), family=family)


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
        ("theta_lattice", lambda z: laplace_energy(_laplace_at(1e-5, "f"), z)),
        ("w_b", lambda z: laplace_energy(_laplace_at(1e-5, "g"), z)),
    ],
    ids=["theta_lattice", "theta_lattice-direct-side", "w_b", "dx_w", "dy_w", "dx_w_double_sum",
         "laplace-f", "laplace-g"],
)
def test_energy_truncation_failure_when_capped(name, call):
    # alpha y = 1e-5 needs ~1,000 outer terms against MAX_TERMS = 256
    with pytest.raises(TruncationFailure, match=rf"^{name} "):
        call(UpperHalfPoint(0.3, 1.0))
