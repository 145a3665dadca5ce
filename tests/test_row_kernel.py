"""Frozen reference for the theta row kernels and the lattice row sums.

The lattice sums in hexlat.energy read one term table: a float loop takes
the inner factors theta(y/alpha; n x) for all rows n from one
theta1d.theta_rows call.  The per-point series sums and the per-row lattice
loops below add each term in the order those kernels must keep, with their
own copy of the term table; jacobi_theta, its partials, theta_rows and the
row expansions must equal them under ==, not merely to a tolerance.
theta_lattice and w_b take the expansion only from y/alpha = 1 on, so their
expansions are called through energy._theta_rows and _w_rows.  The
origin-free sums add the row n = 0 without the origin (alpha >= y for theta,
alpha >= y/4 for W_b) to the rows n >= 1.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import (
    DEFAULT_CONFIG,
    SeriesConfig,
    UpperHalfPoint,
    dx_w,
    dy_w,
    jacobi_theta,
    jacobi_theta_partial,
    theta_lattice,
    w_b,
)
from hexlat.energy import _theta_minus_one, _theta_rows, _w_b_minus_origin, _w_rows
from hexlat.theta1d import theta_rows

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# (c(n), trig, comb term (X, d, e)), each term as one expression.
_REF_TERMS = {
    (0, 0): (lambda n: 2.0, "cos", lambda X, d, e: X**-0.5 * e),
    (1, 0): (
        lambda n: -_TWO_PI * n * n, "cos",
        lambda X, d, e: X**-2.5 * (_PI * d * d - 0.5 * X) * e,
    ),
    (0, 1): (lambda n: -4.0 * _PI * n, "sin", lambda X, d, e: _TWO_PI * X**-1.5 * d * e),
    (1, 1): (
        lambda n: 4.0 * _PI * _PI * n**3, "sin",
        lambda X, d, e: _PI * X**-3.5 * (2.0 * _PI * d**3 - 3.0 * X * d) * e,
    ),
    (2, 0): (
        lambda n: 2.0 * _PI * _PI * n**4, "cos",
        lambda X, d, e: X**-4.5 * (_PI * _PI * d**4 - 3.0 * _PI * X * d * d + 0.75 * X * X) * e,
    ),
}
ORDERS = tuple(_REF_TERMS)
CONFIGS = (DEFAULT_CONFIG, SeriesConfig(rel_tol=1e-10))


def ref_fourier(X, Y, xo, yo, cfg):
    last = cfg.last_index(X, 2 * xo + yo, 1, "Fourier theta series")
    coef, trig_name, _ = _REF_TERMS[xo, yo]
    trig = getattr(math, trig_name)
    acc = 0.5 * coef(0) * trig(0.0)
    for n in range(1, last + 1):
        acc += coef(n) * math.exp(-_PI * n * n * X) * trig(_TWO_PI * n * Y)
    return acc


def ref_poisson(X, Y, xo, yo, cfg):
    last = cfg.last_index(1.0 / X, 2 * xo + yo, 0, "Poisson theta series")
    term = _REF_TERMS[xo, yo][2]
    acc = 0.0
    for j in range(last + 1):
        d1, d2 = 1 + j - Y, -j - Y
        acc += term(X, d1, math.exp(-_PI * d1 * d1 / X)) + term(X, d2, math.exp(-_PI * d2 * d2 / X))
    return acc


def ref_theta(X, Y, order, cfg):
    series = ref_poisson if X < 1.0 else ref_fourier
    return series(X, Y - math.floor(Y), *order, cfg)


def ref_theta_lattice(alpha, z, cfg, origin=True):
    x, y = z.x, z.y
    X0 = y / alpha
    acc = ref_theta(X0, 0.0, (0, 0), cfg) if origin else 0.0
    for n in range(1, cfg.last_index(alpha * y, 0, 1, "theta_lattice") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        acc += w * ref_theta(X0, n * x, (0, 0), cfg)
    return math.sqrt(X0) * acc


def ref_w_b(alpha, b, z, cfg, origin=True):
    x, y = z.x, z.y
    X0 = y / alpha
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    c2 = _PI * alpha * alpha
    acc = c0 * ref_theta(X0, 0.0, (0, 0), cfg) + ref_theta(X0, 0.0, (1, 0), cfg) if origin else 0.0
    for n in range(1, cfg.last_index(alpha * y, 2, 1, "w_b") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        th = ref_theta(X0, n * x, (0, 0), cfg)
        thx = ref_theta(X0, n * x, (1, 0), cfg)
        acc += w * ((c0 + c2 * n * n) * th + thx)
    return y**1.5 / (_PI * alpha**2.5) * acc


def ref_theta_minus_one(alpha, z, cfg):
    # alpha >= y: the row n = 0 is theta(alpha/y; 0) by Poisson, without the origin
    d = alpha / z.y
    acc = 0.0
    for k in range(1, cfg.last_index(d, 0, 1, "theta_lattice") + 1):
        acc += math.exp(-_PI * d * k * k)
    return 2.0 * acc + ref_theta_lattice(alpha, z, cfg, origin=False)


def ref_w_b_minus_origin(alpha, b, z, cfg):
    # alpha >= y/4
    d = alpha / z.y
    acc = 0.0
    for k in range(1, cfg.last_index(d, 2, 1, "w_b") + 1):
        acc += (k * k * d - b) * math.exp(-_PI * d * k * k)
    return 2.0 * acc / alpha + ref_w_b(alpha, b, z, cfg, origin=False)


def ref_dx_w(alpha, z, cfg):
    x, y = z.x, z.y
    X0 = y / alpha
    c3 = _PI * alpha * alpha
    acc = 0.0
    for n in range(1, cfg.last_index(alpha * y, 3, 1, "dx_w") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        thy = ref_theta(X0, n * x, (0, 1), cfg)
        thxy = ref_theta(X0, n * x, (1, 1), cfg)
        acc += w * (c3 * n**3 * thy + n * thxy)
    return y**1.5 / (_PI * alpha**2.5) * acc


def ref_dy_w(alpha, z, cfg):
    x, y = z.x, z.y
    X0 = y / alpha
    c2 = _PI * alpha * alpha
    c4 = _PI * _PI * alpha**3
    s_low = ref_theta(X0, 0.0, (1, 0), cfg)
    s_high = ref_theta(X0, 0.0, (2, 0), cfg) / alpha
    for n in range(1, cfg.last_index(alpha * y, 4, 1, "dy_w") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        th = ref_theta(X0, n * x, (0, 0), cfg)
        thx = ref_theta(X0, n * x, (1, 0), cfg)
        thxx = ref_theta(X0, n * x, (2, 0), cfg)
        s_low += w * (c2 * n * n * th + thx)
        s_high += w * (-c4 * n**4 * th + thxx / alpha)
    return (1.5 * math.sqrt(y) * s_low + y**1.5 * s_high) / (_PI * alpha**2.5)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


inner_ys = st.one_of(st.floats(-2.0, 2.0), st.just(-0.0))


@settings(max_examples=300, deadline=None)
@given(X=log_uniform(1e-3, 1e3), Y=inner_ys, order=st.sampled_from(ORDERS),
       cfg=st.sampled_from(CONFIGS))
def test_theta_equals_frozen_reference(X, Y, order, cfg):
    # X straddles POISSON_SWITCH = 1, so both branches are drawn.
    if order == (0, 0):
        assert jacobi_theta(X, Y, cfg) == ref_theta(X, Y, order, cfg)
    else:
        assert jacobi_theta_partial(X, Y, *order, cfg) == ref_theta(X, Y, order, cfg)


@settings(max_examples=100, deadline=None)
@given(X=log_uniform(1e-3, 1e3), Ys=st.lists(inner_ys, min_size=1, max_size=8),
       orders=st.lists(st.sampled_from(ORDERS), min_size=1, max_size=5))
def test_theta_rows_equals_frozen_reference(X, Ys, orders):
    rows = theta_rows(X, Ys, orders)
    assert rows == [[ref_theta(X, Y, order, DEFAULT_CONFIG) for Y in Ys] for order in orders]


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=log_uniform(0.2, 6.0), alpha=log_uniform(0.25, 8.0),
       b=st.floats(-1.0, 1.0), cfg=st.sampled_from(CONFIGS))
def test_lattice_sums_equal_frozen_reference(x, y, alpha, b, cfg):
    z = UpperHalfPoint(x, y)
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    assert _theta_rows(alpha, z, True, cfg) == ref_theta_lattice(alpha, z, cfg)
    assert _w_rows(alpha, c0, z, True, cfg) == ref_w_b(alpha, b, z, cfg)
    assert dx_w(alpha, z, cfg) == ref_dx_w(alpha, z, cfg)
    assert dy_w(alpha, z, cfg) == ref_dy_w(alpha, z, cfg)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=log_uniform(0.2, 6.0), t=log_uniform(1.0, 16.0),
       b=st.floats(-1.0, 1.0), cfg=st.sampled_from(CONFIGS))
def test_origin_free_sums_equal_frozen_reference(x, y, t, b, cfg):
    # t >= 1 puts alpha = t y and t y / 4 on the branches that drop the origin
    z = UpperHalfPoint(x, y)
    assert _theta_minus_one(t * y, z, cfg) == ref_theta_minus_one(t * y, z, cfg)
    assert _w_b_minus_origin(t * y / 4.0, b, z, cfg) == ref_w_b_minus_origin(t * y / 4.0, b, z, cfg)
