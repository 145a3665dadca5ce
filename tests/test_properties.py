"""Property tests for the series truncation rule (SeriesConfig.last_index),
the origin-free closed-form energies, the two routes of the Laplace energies
and the exp-sinh quadrature.

The truncation properties compare two evaluations that the rule truncates
differently: the Fourier and Poisson representations of theta(X; Y), the two
sides of alpha-duality and a tighter rel_tol against the default.  The
energies are checked against direct lattice sums, the Laplace walk against
the origin-free row sums at each node, the quadrature against exact
exponential integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexlat import (
    B_CRITICAL,
    DEFAULT_CONFIG,
    Gaussian,
    GaussianDiff,
    LaplaceWeighted,
    PolyGaussian,
    SeriesConfig,
    UpperHalfPoint,
    YukawaDiff,
    apply_word,
    closed_form_energy,
    dy_w,
    jacobi_theta,
    jacobi_theta_partial,
    laplace_energy,
    lattice_energy,
    lattice_norms,
    theta_lattice,
    w_b,
)
from hexlat import energy
from hexlat.config import MAX_TERMS
from hexlat.energy import _tail, _tail_bound, _terms, potential_value
from hexlat.errors import TailTooLarge
from hexlat.moduli import MAX_ENUMERATION, Generator
from hexlat.quadrature import integrate
from hexlat.theta1d import _TERMS, SUPPORTED_ORDERS, _fourier_rows, _poisson_rows, _reduce_y

# Each branch's row kernel, at reduced Ys: FOURIER(X, Ys, xo, yo, cfg)[i] is
# the Fourier series of order (xo, yo) at Ys[i].
FOURIER, POISSON = _fourier_rows, _poisson_rows
TIGHT = SeriesConfig(rel_tol=1e-15)
ORDERS = ((0, 0),) + SUPPORTED_ORDERS

alphas = st.floats(0.2, 5.0)
points = st.builds(UpperHalfPoint, st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
domain_points = st.floats(-0.5, 0.5).flatmap(
    lambda x: st.builds(UpperHalfPoint, st.just(x), st.floats(math.sqrt(1.0 - x * x), 4.0))
)


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
    prefactor, poly = _TERMS[order][2:]

    def comb(d):  # the comb term at d = n - Y
        return abs(prefactor(X) * poly(X, d) * math.exp(-math.pi * d * d / X))

    return sum(comb(1 + j - Y) + comb(-j - Y) for j in range(80))


@settings(max_examples=200, deadline=None)
@given(d=st.floats(0.01, 20.0), p=st.integers(0, 4), start=st.integers(0, 2))
def test_last_index_is_first_small_bound_plus_two_guards(d, p, start):
    cfg = DEFAULT_CONFIG
    last = cfg.last_index(d, p, start, "probe")
    assert last - start + 1 <= MAX_TERMS
    bounds = [n**p * math.exp(-math.pi * d * n * n) for n in range(start, last + 1)]
    cut = last - 2 - start
    assert bounds[cut] <= cfg.rel_tol * max(bounds[:cut])
    assert all(bounds[k] > cfg.rel_tol * max(bounds[:k]) for k in range(1, cut))


@settings(max_examples=200, deadline=None)
@given(d=st.floats(-3.0, 6.0), ratio=st.floats(0.0, 3.0), p=st.integers(0, 4),
       start=st.sampled_from((0, 1, 2)))
def test_last_index_non_increasing_in_decay(d, ratio, p, start):
    # This lets one last_index call at a batch's smallest decay cover the batch.
    lo, hi = 10.0**d, 10.0 ** (d + ratio)
    assert DEFAULT_CONFIG.last_index(hi, p, start, "probe") <= DEFAULT_CONFIG.last_index(lo, p, start, "probe")


@settings(max_examples=200, deadline=None)
@given(X=st.floats(0.1, 10.0), Y=st.floats(-2.0, 2.0))
def test_forced_fourier_equals_forced_poisson(X, Y):
    # Each branch is truncated at rel_tol of its largest term; the two agree
    # to a few rel_tol of the larger branch's absolute term sum.
    Yr = _reduce_y(Y)
    for order in ORDERS:
        (f,) = FOURIER(X, [Yr], *order, DEFAULT_CONFIG)
        (p,) = POISSON(X, [Yr], *order, DEFAULT_CONFIG)
        scale = max(abs_term_sum(X, Y, order, "fourier"), abs_term_sum(X, Y, order, "poisson"))
        assert abs(f - p) <= 4.0 * DEFAULT_CONFIG.rel_tol * scale, order


@settings(max_examples=200, deadline=None)
@given(log_x=st.floats(-6.0, 6.0), Y=st.floats(allow_nan=False, allow_infinity=False),
       cfg=st.sampled_from((DEFAULT_CONFIG, SeriesConfig(rel_tol=1e-300))))
def test_theta_never_reaches_the_term_cap(log_x, Y, cfg):
    # Each branch runs at decay >= 1 (X on the Fourier side, 1/X on the
    # Poisson side), where last_index stays far below MAX_TERMS at any
    # rel_tol, so no TruncationFailure can come out of theta itself.
    X = 10.0**log_x
    for order in ORDERS:
        assert math.isfinite(theta_of_order(X, Y, order, cfg)), order


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


def test_laplace_walk_matches_the_per_node_row_sums(monkeypatch):
    # The walk against the origin-free row sums at each node, on both families
    # and both sides of alpha = 1, up to y = 1e4 and just past the walk's
    # point cap, where laplace_energy takes the row sums.  Each is held to the
    # size of its terms: the energy with b -> -|b|, whose terms are all >= 0.
    rng = np.random.default_rng(27)
    cases = []
    for family in "fgfgfgfgfg":
        x = rng.uniform(0.0, 0.5)
        y = math.exp(rng.uniform(math.log(math.sqrt(1.0 - x * x)), math.log(1e4)))
        cases.append((family, math.exp(rng.uniform(math.log(0.3), math.log(3.0))), x, y))
    cases += [("f", 1.5, 0.5, 8e4), ("g", 3.0, 0.2, 5e5)]  # 1,859 and 3,775 points
    for family, alpha, x, y in cases:
        a, b, rate = rng.uniform(1.01, 4.0), rng.uniform(-1.0, 1.0), -rng.uniform(0.25, 2.0)
        z = UpperHalfPoint(x, y)

        def spec(b):
            return LaplaceWeighted(alpha, a, b, weight=lambda t: math.exp(rate * t), family=family)

        rows = integrate(energy._node_integrand(spec(b), z, DEFAULT_CONFIG), 1.0)
        past = y > 1e4
        assert (energy._walk_integrand(spec(b), z) is None) == past
        with monkeypatch.context() as m:
            m.setattr(energy, "_LAPLACE_WALK_CAP", MAX_ENUMERATION)
            walk = integrate(energy._walk_integrand(spec(b), z), 1.0)
            scale = integrate(energy._walk_integrand(spec(-abs(b)), z), 1.0)
        assert laplace_energy(spec(b), z) == (rows if past else walk)
        assert abs(walk - rows) <= 1e-14 * scale, (family, alpha, x, y)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.25, 64.0), a=st.floats(1.01, 4.0), b=st.floats(-2.0, 2.0), z=domain_points)
def test_closed_form_energy_matches_direct_sum(alpha, a, b, z):
    # The smallest nonzero norm is at most 2/sqrt(3), so this radius keeps every
    # term above e^{-45} of the largest.  At large alpha the energies are far
    # below the 1e-16 that subtracting the origin term from theta would leave.
    # Each exponential term of f counts apart (b e^{-pi a alpha q}, (b/alpha)
    # e^{-pi alpha q}): where they cancel at a point or across the lattice, the
    # energy is as ill-conditioned as its inputs' last bits.
    radius = math.sqrt(2.0 + 45.0 / (math.pi * alpha))
    qs = [q for q, _ in lattice_norms(z, radius) if q > 0.0]
    e = [math.exp(-math.pi * alpha * q) for q in qs]
    for spec, terms in (
        (Gaussian(alpha), e),
        (GaussianDiff(alpha, a, b), e + [-b * math.exp(-math.pi * a * alpha * q) for q in qs]),
        (PolyGaussian(alpha, b), [q * v for q, v in zip(qs, e)] + [-b / alpha * v for v in e]),
    ):
        error = abs(closed_form_energy(spec, z) - math.fsum(terms))
        assert error <= 1e-13 * math.fsum(map(abs, terms)), spec


def _full_plane_norms(z, radius):
    """(norm^2, (m, n)) for every lattice point within radius, walking all rows
    m = -mmax..mmax and every admissible n, sorted."""
    x, y = z.x, z.y
    r2 = radius * radius
    mmax = int(math.floor(radius / math.sqrt(y)))
    out = []
    for m in range(-mmax, mmax + 1):
        rem = y * (r2 - m * m * y)
        if rem >= 0.0:
            half = math.sqrt(rem)
            for n in range(math.ceil(-m * x - half), math.floor(-m * x + half) + 1):
                u = m * x + n
                q = (u * u + m * m * y * y) / y
                if q <= r2 * (1.0 + 1e-12):
                    out.append((q, (m, n)))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.just(0.0), st.just(0.5), st.floats(-10.0, 10.0)), y=st.floats(0.05, 100.0),
       radius=st.floats(0.5, 10.0), alpha=st.floats(0.1, 10.0), a=st.floats(1.01, 4.0),
       b=st.floats(-2.0, 2.0))
# so far from the y axis that rounding puts one point of the walk past the radius
@example(x=17087873257110.307, y=0.4844858734837559, radius=3.9313043798626492, alpha=1.0,
         a=2.0, b=0.5)
def test_lattice_energy_is_the_ascending_sum_over_lattice_norms(x, y, radius, alpha, a, b):
    # lattice_norms walks half the plane and mirrors it; lattice_energy sums
    # one potential value per distinct norm.  Both must give what a per-point
    # walk over the full plane gives, bit for bit: x = 0 and x = 1/2 make ties.
    z = UpperHalfPoint(x, y)
    norms = lattice_norms(z, radius)
    assert norms == _full_plane_norms(z, radius)
    for spec in (Gaussian(alpha), GaussianDiff(alpha, a, b), PolyGaussian(alpha, b),
                 YukawaDiff(alpha, a, b)):
        total = total_abs = 0.0
        for q, _ in norms:
            if q > 0.0:
                v = potential_value(spec, q)
                total += v
                total_abs += abs(v)
        tail = _tail_bound(spec, z, radius * radius)
        if not tail <= 1e-12 * max(total_abs, 1e-300):
            message = f"tail bound {tail:.3g} exceeds 1e-12 of the summed magnitude {total_abs:.3g}"
            with pytest.raises(TailTooLarge) as raised:
                lattice_energy(spec, z, radius)
            assert str(raised.value) == message
        else:
            assert lattice_energy(spec, z, radius).hex() == total.hex(), spec


def _term_derivatives(gauss, yukawa, q):
    """(f, f', f'') at q of the sum of the terms (A + B q) e^{-c q} and w e^{-c q}/q."""
    f0 = f1 = f2 = 0.0
    for A, B, c in gauss:
        e, v = math.exp(-c * q), A + B * q
        f0, f1, f2 = f0 + v * e, f1 + (B - c * v) * e, f2 + c * (c * v - 2.0 * B) * e
    for w, c in yukawa:
        e = w * math.exp(-c * q)
        f0, f1, f2 = f0 + e / q, f1 - e * (c / q + 1 / q**2), f2 + e * (c * c / q + 2 * c / q**2 + 2 / q**3)
    return f0, f1, f2


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from([Gaussian, GaussianDiff, PolyGaussian, YukawaDiff]), dual=st.booleans(),
       alpha=st.floats(0.3, 3.0), a=st.floats(1.5, 4.0), b=st.floats(-1.5, 1.5),
       x=st.floats(0.0, 0.5), y=st.floats(0.5, 3.0), t=st.floats(0.5, 20.0))
@example(family=GaussianDiff, dual=True, alpha=0.4, a=2.0, b=1.0, x=0.5, y=0.5, t=0.5)
@example(family=PolyGaussian, dual=True, alpha=0.5, a=2.0, b=0.1, x=0.0, y=3.0, t=1.0)
@example(family=YukawaDiff, dual=False, alpha=2.5, a=2.0, b=0.5, x=0.25, y=1.0, t=2.0)
def test_tail_bounds_the_lattice_sum_beyond_its_radius(family, dual, alpha, a, b, x, y, t):
    # The tail of the terms of each closed family beyond r2 = t/c, c the
    # slowest rate, summed over lattice_norms out to where the terms fell by
    # e^-60 more: in value mode of |f|, in derivative mode of |f| + |f'| |dq|
    # + |f''| |dq|^2 + |f'| |d^2 q|, dq and d^2 q the largest first and second
    # partials of q over x and y.
    spec = family(alpha) if family is Gaussian else (
        family(alpha, b) if family is PolyGaussian else family(alpha, a, b))
    gauss, yukawa = _terms(spec, dual)
    c = min(term[-1] for term in gauss + yukawa)
    r2 = t / c
    z = UpperHalfPoint(x, y)
    value = derivs = 0.0
    for q, (m, n) in lattice_norms(z, math.sqrt(r2 + 60.0 / c)):
        if q > r2:
            f0, f1, f2 = map(abs, _term_derivatives(gauss, yukawa, q))
            u = m * x + n
            dq = max(abs(2 * m * u / y), abs(m * m - u * u / (y * y)))
            d2q = max(2 * m * m / y, abs(2 * m * u / (y * y)), 2 * u * u / y**3)
            value += f0
            derivs += f0 + f1 * dq + f2 * dq * dq + f1 * d2q
    assert 0.0 < value <= _tail(gauss, yukawa, z, r2)
    assert derivs <= _tail(gauss, yukawa, z, r2, derivatives=True)


@settings(max_examples=200, deadline=None)
@given(z=domain_points, word=st.lists(st.sampled_from(list(Generator)), min_size=1, max_size=6),
       alpha=st.floats(0.5, 4.0), b=st.floats(0.0, B_CRITICAL))
def test_theta_and_w_b_invariant_under_group_words(z, word, alpha, b):
    # word.z spans the same lattice as z, so theta and W_b must not move.  The
    # brute-force sums keep every point with pi alpha |P|^2 <= 60.
    moved = apply_word(word, z)
    qs = [q for q, _ in lattice_norms(z, math.sqrt(60.0 / (math.pi * alpha)))]
    e = [math.exp(-math.pi * alpha * q) for q in qs]
    theta_scale = math.fsum(e)
    w_scale = math.fsum(abs(q - b / alpha) * v for q, v in zip(qs, e))
    assert abs(theta_lattice(alpha, moved) - theta_lattice(alpha, z)) <= 1e-11 * theta_scale
    assert abs(w_b(alpha, b, moved) - w_b(alpha, b, z)) <= 1e-11 * w_scale


@settings(max_examples=100, deadline=None)
@given(c=st.floats(1e-3, 50.0))
def test_exp_sinh_rule_integrates_exponentials(c):
    # int_1^inf e^{-c x} dx = e^{-c}/c and int_1^inf x e^{-c x} dx = e^{-c}(1/c + 1/c^2)
    e = math.exp(-c)
    for f, exact in ((lambda x: np.exp(-c * x), e / c),
                     (lambda x: x * np.exp(-c * x), e * (1.0 / c + 1.0 / c**2))):
        assert abs(integrate(f, 1.0) - exact) <= 1e-14 * exact
