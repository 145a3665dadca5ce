"""Property tests for the series truncation rule (SeriesConfig.last_index).

Each property compares two evaluations that the rule truncates differently:
the Fourier and Poisson representations of theta(X; Y), the two sides of
alpha-duality, and a tighter rel_tol against the default.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import (
    DEFAULT_CONFIG,
    SeriesConfig,
    UpperHalfPoint,
    dy_w,
    jacobi_theta,
    jacobi_theta_partial,
    theta_lattice,
    w_b,
)
from hexlat.theta1d import SUPPORTED_ORDERS, _poisson_term

FOURIER = SeriesConfig(poisson_switch=1e-9)
POISSON = SeriesConfig(poisson_switch=1e9)
TIGHT = SeriesConfig(rel_tol=1e-15)
ORDERS = ((0, 0),) + SUPPORTED_ORDERS

alphas = st.floats(0.2, 5.0)
points = st.builds(UpperHalfPoint, st.floats(-0.5, 0.5), st.floats(0.5, 3.0))


def theta_of_order(X, Y, order, cfg):
    if order == (0, 0):
        return jacobi_theta(X, Y, cfg)
    return jacobi_theta_partial(X, Y, *order, cfg)


def abs_term_sum(X, Y, order, branch):
    """Sum of |terms| of one representation, with far more terms than needed.

    The Fourier terms are those of sum_n (-pi n^2)^xo (2 pi i n)^yo
    e^{-pi n^2 X} e^{2 pi i n Y}, whose moduli do not depend on Y.
    """
    xo, yo = order
    if branch == "fourier":
        return sum(
            (math.pi * n * n) ** xo * (2.0 * math.pi * abs(n)) ** yo * math.exp(-math.pi * n * n * X)
            for n in range(-80, 81)
        )
    Y = Y - math.floor(Y)
    return sum(
        abs(_poisson_term(X, Y, xo, yo, 1 + j)) + abs(_poisson_term(X, Y, xo, yo, -j))
        for j in range(80)
    )


@settings(max_examples=200, deadline=None)
@given(d=st.floats(0.01, 20.0), p=st.integers(0, 4), start=st.integers(0, 2))
def test_last_index_is_first_small_bound_plus_two_guards(d, p, start):
    cfg = DEFAULT_CONFIG
    last = cfg.last_index(d, p, start, "probe")
    assert last - start + 1 <= cfg.max_terms
    bounds = [n**p * math.exp(-math.pi * d * n * n) for n in range(start, last + 1)]
    cut = last - 2 - start
    assert bounds[cut] <= cfg.rel_tol * max(bounds[:cut])
    assert all(bounds[k] > cfg.rel_tol * max(bounds[:k]) for k in range(1, cut))


@settings(max_examples=200, deadline=None)
@given(X=st.floats(0.1, 10.0), Y=st.floats(-2.0, 2.0))
def test_forced_fourier_equals_forced_poisson(X, Y):
    # Each branch is truncated at rel_tol of its largest term; the two agree
    # to a few rel_tol of the larger branch's absolute term sum.
    for order in ORDERS:
        f = theta_of_order(X, Y, order, FOURIER)
        p = theta_of_order(X, Y, order, POISSON)
        scale = max(abs_term_sum(X, Y, order, "fourier"), abs_term_sum(X, Y, order, "poisson"))
        assert abs(f - p) <= 4.0 * DEFAULT_CONFIG.rel_tol * scale, order


@settings(max_examples=200, deadline=None)
@given(alpha=alphas, z=points)
def test_alpha_duality(alpha, z):
    lhs = theta_lattice(alpha, z)
    assert abs(lhs - theta_lattice(1.0 / alpha, z) / alpha) <= 1e-14 * lhs


@settings(max_examples=100, deadline=None)
@given(alpha=alphas, b=st.floats(-1.0, 1.0), z=points)
def test_tighter_rel_tol_agrees_with_default(alpha, b, z):
    for value in (
        lambda cfg: theta_lattice(alpha, z, cfg),
        lambda cfg: w_b(alpha, b, z, cfg),
        lambda cfg: dy_w(alpha, z, cfg),
    ):
        v = value(DEFAULT_CONFIG)
        assert abs(value(TIGHT) - v) <= 1e-13 * abs(v)
