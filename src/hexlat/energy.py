"""Lattice theta function, the polynomial-Gaussian energy W_b, their
derivatives, and the generic potential energies.

The two-dimensional sums are evaluated through the one-dimensional theta
expansion

    theta(alpha; z) = sqrt(y/alpha) sum_n e^{-alpha pi y n^2} theta(y/alpha; n x)

and its kin for W_b, d/dx W and d/dy W, each written once, with its
prefactor and its row through the origin in alpha/y, in the term table
_SUMS, which one function reads (:func:`_rows`): a float loop over one
theta1d.theta_rows call at X = y/alpha.  e^{-alpha pi y} = 0.0 is the one
test for "only the row n = 0, through the origin, is left": that call then
takes it alone, with 0.0 for the coefficients of n^2 and n^4, and where
also 2 e^{-pi X} <= 2^-53 theta_lattice and w_b take it in closed form,
with no call (:func:`_origin_row_alone`).  Where the call would take the Poisson comb
(y/alpha < POISSON_SWITCH), the lattice is walked instead: theta_lattice and
w_b sum its points directly, and dx_w and dy_w take the gradient of the
half-plane walk that gives the Newton steps their values, gradients and
Hessians (:func:`_walk`), each to a radius that one proven tail sets
(:func:`_radius`).  Only where the walk would pass its point cap do they
take the rows; there, where e^{-alpha pi y} is 0.0, w_b and dy_w take the
lone origin row in alpha/y, which carries no power of X.  theta and W_b
include the origin (1 to theta, -b/alpha to W_b); the energies E_f exclude
it, summing the row n = 0 in alpha/y without it where subtracting it would
cancel.  A Laplace energy integrates the Gaussian-family energies over its
transform variable, from one walk of the half plane where that walk is
short and from the origin-free row sums at each node past it
(:func:`laplace_energy`); every node's slice terms come from one array
pass (:func:`_slice_terms`), which the Newton walks' mixture terms read
too.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Union

from ._record import Record
from .config import DEFAULT_CONFIG, MAX_TERMS, SeriesConfig
from .errors import (InvalidParameter, NonPositiveAlpha, NonPositiveX, RadiusTooLarge, TailTooLarge,
                     ThetaOverflow)
from .moduli import MAX_ENUMERATION, UpperHalfPoint, _half_plane, enumeration_estimate, half_plane_norms
from .quadrature import gauss_panel, integrate
from .theta1d import POISSON_SWITCH, theta_rows

# numpy is imported inside the functions that use it, not at module load.
if TYPE_CHECKING:
    import numpy as np

_PI = math.pi

#: Critical coupling of the polynomial-Gaussian problem, b_c = 1/(2 pi).
B_CRITICAL = 1.0 / (2.0 * math.pi)

#: A direct sum stops where its proven tail is below this share of the sum of
#: its terms' moduli: half an ulp, so the tail cannot move the rounded sum.
_DIRECT_TOL = 2.0**-54

#: theta_lattice and w_b walk at most this many points, the most the row
#: expansion accepts (MAX_TERMS rows of MAX_TERMS terms); past it they take
#: the rows, which raise TruncationFailure only where alpha y leaves more
#: rows than MAX_TERMS.
_DIRECT_CAP = MAX_TERMS * MAX_TERMS


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise NonPositiveAlpha(f"alpha must be finite and > 0, got {alpha}")


def _check_a_b(a: float = 2.0, b: float = 0.0) -> None:
    # a default stands in for a parameter the caller does not take
    if not 1.0 < a < math.inf:
        raise InvalidParameter(f"a must be finite and > 1, got {a}")
    if not math.isfinite(b):
        raise InvalidParameter(f"b must be finite, got {b}")


# ---------------------------------------------------------------------------
# theta(alpha; z) and W_b(alpha; z)
# ---------------------------------------------------------------------------


def _dy_c4(alpha: float) -> float:
    """pi^2 alpha^3, the d/dy W rows' largest coefficient; inf where it overflows."""
    try:
        return _PI * _PI * alpha**3
    except OverflowError:
        return math.inf


def _dy_terms(alpha, c0, c2):
    # for pi a^2 S2 + SX and -pi^2 a^3 S4 + SXX/alpha; c2 is 0.0 where row 0 is
    # alone (or pi a^2 underflows, and with it pi^2 a^3)
    c4 = _dy_c4(alpha) if c2 else 0.0
    return (lambda n, th, thx, thxx: c2 * n * n * th + thx,
            lambda n, th, thx, thxx: -c4 * n**4 * th + thxx / alpha)


def _w_scaled(acc: float, y: float, alpha: float) -> float:
    """acc y^{3/2}/(pi alpha^{5/2}): a sum of W rows times their factor.
    Where a power or the product is not finite (alpha^{5/2} overflows from
    alpha ~ 2e123; at tiny alpha and huge y the factor passes the float
    range, alpha^{5/2} may be 0.0) the powers of 2 of acc, y and alpha are
    taken apart, and ThetaOverflow is raised where the product itself
    passes the float range."""
    try:
        v = y**1.5 / (_PI * alpha**2.5) * acc
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if math.isfinite(v):
        return v
    (mc, ec), (my, ey), (ma, ea) = math.frexp(acc), math.frexp(y), math.frexp(alpha)
    if ey % 2:  # even exponents, whose 3/2 and 5/2 powers are whole
        my, ey = 2.0 * my, ey - 1
    if ea % 2:
        ma, ea = 2.0 * ma, ea - 1
    try:
        v = math.ldexp(mc * my * math.sqrt(my) / (_PI * ma * ma * math.sqrt(ma)), ec + 3 * ey // 2 - 5 * ea // 2)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ThetaOverflow(f"a W row sum times y^1.5/alpha^2.5 leaves the float range at alpha = {alpha:.3g}, "
                            f"y = {y:.3g}")
    return v


def _dy_scaled(s_low: float, s_high: float, y: float, alpha: float) -> float:
    """(1.5 sqrt(y) s_low + y^{3/2} s_high)/(pi alpha^{5/2}), the d/dy W rows
    times their factor; where a power or that value is not finite, s_high +
    1.5 s_low/y goes through :func:`_w_scaled`'s powers of 2, which raise
    ThetaOverflow where the value passes the float range."""
    try:
        v = (1.5 * math.sqrt(y) * s_low + y**1.5 * s_high) / (_PI * alpha**2.5)
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    return v if math.isfinite(v) else _w_scaled(s_high + 1.5 * s_low / y, y, alpha)


#: One entry per lattice row sum, keyed by the name its term count carries:
#: (power, orders, row0, terms, scale, row0_scale).  Row n is bounded by n^power
#: e^{-alpha pi y n^2} and takes the theta orders at X0 = y/alpha, Y = n x.
#: row0(k, d, b) is the k-th term of half the row n = 0 without the origin,
#: d = alpha/y (times alpha for W_b; for d/dy W, y^2 times the y-derivative of
#: W_b's over alpha), and row0_scale(s, y, alpha) turns twice their sum s into
#: the entry's value.  terms(alpha, c0, c2) binds the coefficients (c2 = pi
#: alpha^2, 0.0 where the row n = 0 is alone) into the row terms term(n, *rows),
#: one per accumulator, and scale(*accumulators, y, alpha) is the prefactor.
_SUMS = {
    "theta_lattice": (0, ((0, 0),), lambda k, d, b: math.exp(-_PI * d * k * k),
                      lambda alpha, c0, c2: (lambda n, th: th,),
                      lambda acc, y, alpha: math.sqrt(y / alpha) * acc, lambda s, y, alpha: s),
    "w_b": (2, ((0, 0), (1, 0)), lambda k, d, b: (k * k * d - b) * math.exp(-_PI * d * k * k),
            lambda alpha, c0, c2: (lambda n, th, thx: (c0 + c2 * n * n) * th + thx,),
            _w_scaled, lambda s, y, alpha: s / alpha),
    "dx_w": (3, ((0, 1), (1, 1)), None,
             lambda alpha, c0, c3: (lambda n, thy, thxy: c3 * n**3 * thy + n * thxy,),
             _w_scaled, None),
    "dy_w": (4, ((0, 0), (1, 0), (2, 0)),
             lambda k, d, b: k * k * (_PI * (k * k * d - b) - 1.0) * math.exp(-_PI * d * k * k), _dy_terms,
             _dy_scaled, lambda s, y, alpha: s / (y * y) if s else 0.0),  # y^2 may underflow where s is 0
}


def _rows(name: str, alpha: float, c0: float, z: UpperHalfPoint, origin: bool, cfg: SeriesConfig,
          b: float = 0.0, e1: float | None = None) -> float:
    """The row expansion of the table entry name: its scale of sum_n w_n
    term(n, rows at n) for each row term, over n = 0 (only when origin is
    set) and n = 1..last_index, with w_0 = 1, w_n = 2 e^{-alpha pi y n^2} and
    every row from one theta_rows call.  Without origin, the row n = 0 is
    first summed in d = alpha/y without the origin, its terms row0(k, d, b)
    added in order from 0.0 (the built-in sum compensates from Python 3.12
    on), and row0_scale of twice that sum is added to the value: 0.0 where
    e^{-pi d} is 0.0, as every term is then a finite factor times 0.0, or,
    where pi d k^2 overflows (d from ~5.7e307), inf times 0.0 = nan.
    Where w_1 underflows to 0 so does every w_n, and only the row n = 0 is
    taken: the others would add 0.0 t for a finite t.  The coefficients of n^2
    and n^4 (pi alpha^2, pi^2 alpha^3) are then 0.0: they multiply n = 0, so
    no bit moves, and at huge alpha, where they overflow, inf 0 is never
    formed.  e1 is e^{-alpha pi y} where the caller has it."""
    power, orders, row0, terms, scale, row0_scale = _SUMS[name]
    # from 2^53 on x is an integer: the lattice of x = 0, where n x cannot overflow
    x, y = (z.x if abs(z.x) < 2.0**53 else 0.0), z.y
    s = 0.0
    if not origin and row0 and math.exp(-_PI * (d := alpha / y)):
        for k in range(1, cfg.last_index(d, power, 1, name) + 1):
            s += row0(k, d, b)
    a = -alpha * _PI * y  # -alpha pi y n^2 multiplies left to right, so w_n keeps its bits
    if e1 is None:
        e1 = math.exp(a)
    last = cfg.last_index(alpha * y, power, 1, name) if e1 else 0
    ns = range(0 if origin else 1, last + 1)
    ws = [2.0 * math.exp(a * n * n) if n else 1.0 for n in ns]
    rows = theta_rows(y / alpha, [n * x for n in ns], orders, cfg) if ns else ()
    out = []
    for term in terms(alpha, c0, _PI * alpha * alpha if last else 0.0):
        acc = 0.0
        for w, t in zip(ws, map(term, ns, *rows)):
            acc += w * t
        out.append(acc)
    v = scale(*out, y, alpha)
    return v if origin or not row0 else row0_scale(2.0 * s, y, alpha) + v


def theta_lattice(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """theta(alpha; z) = sum over the full lattice of e^{-pi alpha |P|^2}.

    Below y/alpha = POISSON_SWITCH a direct sum (:func:`_direct_sum`), from
    there on the row expansion at cfg's rel_tol.  Where e^{-alpha pi y} is
    0.0 and 2 e^{-pi y/alpha} <= 2^-53 that expansion is its origin row,
    sqrt(y/alpha) theta(y/alpha; 0), and theta(y/alpha; 0) rounds to 1.0
    under any cfg: sqrt(y/alpha) is returned (:func:`_origin_row_alone`)."""
    _check_alpha(alpha)
    X = z.y / alpha
    if X < POISSON_SWITCH:
        total = _direct_sum(Gaussian(alpha), z, 1.0)
        if total is not None:
            return 1.0 + total
    e1 = math.exp(-alpha * _PI * z.y)
    if _origin_row_alone(e1, X):
        return math.sqrt(X)
    return _rows("theta_lattice", alpha, 0.0, z, True, cfg, e1=e1)


def _origin_row_alone(e1: float, X: float) -> bool:
    """Whether the row expansions of theta and W_b at X = y/alpha, e1 =
    e^{-alpha pi y}, are their origin row in closed form, bit for bit: e1 is
    0.0, so every w_n, n >= 1, is 0.0, and 2 e^{-pi X} <= 2^-53 (X >= ~11.9),
    so the Fourier series theta(X; 0) = 1 + 2 e^{-pi X} + ... rounds to 1.0
    and theta_X(X; 0) to its n = 1 term -2 pi e^{-pi X}, the n = 0 term being
    -0.0 and the next at most 4 e^{-3 pi X} <= 2^-160 of it.  X = inf is left to
    theta_rows, which rejects it."""
    return not e1 and X < math.inf and 2.0 * math.exp(-_PI * X) <= 2.0**-53


def w_b(alpha: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """W_b(alpha; z) = sum over the full lattice of (|P|^2 - b/alpha) e^{-pi alpha |P|^2}.

    Below y/alpha = POISSON_SWITCH a direct sum (:func:`_direct_sum`), within
    its proven tail (under 2^-54) plus a few ulps of sum |terms| at any z.
    Where that sum would pass its point cap and e^{-alpha pi y} is 0.0, the
    row through the origin alone, -b/alpha + (2/alpha) sum_{k>=1} (k^2 d -
    b) e^{-pi d k^2} at d = alpha/y (:func:`_rows` without origin), which
    carries no power of y/alpha and so cannot overflow.  Elsewhere the
    exponential expansion

        (1/pi) alpha^{-5/2} y^{3/2} [ (1/2)(1 - 2 pi b)(alpha/y) S0
                                      + pi alpha^2 S2 + SX ]

    with S0 = sum_n e^{-alpha pi y n^2} theta(y/alpha; n x), S2 the same sum
    weighted by n^2, and SX the sum with theta replaced by theta_X.  Where
    only the origin row is left and theta(X; 0) rounds to 1.0, as in
    :func:`theta_lattice`, S0 = 1, S2 = 0 and SX = -2 pi e^{-pi X}, and that
    closed form is returned (:func:`_origin_row_alone`).

    The expansion is accurate on the fundamental domain, where the row
    through the origin dominates: closed_form_energy(PolyGaussian), which
    sums these rows, stayed within 4e-15 of sum |terms| in a seeded
    adversarial search.  Off it a row n >= 1 can cancel: where b/alpha equals
    the row's nearest norm its pieces are ~(b/alpha) e^{-pi alpha q} while its
    sum is near 0, so closed_form_energy(PolyGaussian(4, 2), (0, 1/2)), whose
    origin-free rows take no direct sum, is off by 1.4e-10 of sum |terms|
    against a 40-digit mpmath sum.  Reduce z first there.
    """
    _check_alpha(alpha)
    _check_a_b(b=b)
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    if math.isinf(c0) and b:  # 2 pi b overflows: W_0 - (b/alpha) theta stays finite
        return w_b(alpha, 0.0, z, cfg) - b / alpha * theta_lattice(alpha, z, cfg)
    X, e1 = z.y / alpha, math.exp(-alpha * _PI * z.y)
    if X < POISSON_SWITCH:
        if (total := _direct_sum(PolyGaussian(alpha, b), z, abs(b) / alpha)) is not None:
            return total - b / alpha
        if not e1:
            return _rows("w_b", alpha, c0, z, False, cfg, b, e1) - b / alpha
    if _origin_row_alone(e1, X):
        # the origin row's term (c0 + 0.0) 1.0 + theta_X, added to 0.0 as the row loop adds it
        return _w_scaled(0.0 + (c0 + -2.0 * _PI * math.exp(-_PI * X)), z.y, alpha)
    return _rows("w_b", alpha, c0, z, True, cfg, e1=e1)


def _theta_minus_one(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig) -> float:
    """theta(alpha; z) - 1.  For alpha >= y the n = 0 term, theta(alpha/y; 0) by
    Poisson, is summed without the origin; below, theta >= sqrt(y/alpha) > 1."""
    if alpha < z.y:
        return theta_lattice(alpha, z, cfg) - 1.0
    return _rows("theta_lattice", alpha, 0.0, z, False, cfg)


def _w_b_minus_origin(alpha: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig) -> float:
    """W_b(alpha; z) + b/alpha, summing the n = 0 row without the origin for
    alpha >= y/4.  Below, the nonzero points' theta mass sqrt(y/alpha) - 1 > 1
    keeps adding b/alpha to W_b from cancelling more than a few ulps."""
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    # 2 pi b or b/alpha overflows: as in w_b, with theta - 1 for theta, and on
    # both branches, since W_b + b/alpha would be -inf + inf
    if b and (math.isinf(c0) or math.isinf(b / alpha)):
        return _w_b_minus_origin(alpha, 0.0, z, cfg) - b / alpha * _theta_minus_one(alpha, z, cfg)
    if 4.0 * alpha < z.y:
        return w_b(alpha, b, z, cfg) + b / alpha
    return _rows("w_b", alpha, c0, z, False, cfg, b)


def w_b_via_theta_derivative(
    alpha: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """Independent route W_b = -(1/pi) d(theta)/d(alpha) - (b/alpha) theta.

    The alpha-derivative is a central finite difference with relative step
    1e-5; this cross-checks the exponential expansion in :func:`w_b`.
    """
    _check_alpha(alpha)
    _check_a_b(b=b)
    h = 1e-5 * alpha
    dtheta = (theta_lattice(alpha + h, z, cfg) - theta_lattice(alpha - h, z, cfg)) / (2.0 * h)
    return -dtheta / _PI - (b / alpha) * theta_lattice(alpha, z, cfg)


# ---------------------------------------------------------------------------
# Derivatives of W at the critical coupling b = 1/(2 pi)
# ---------------------------------------------------------------------------


def dx_w(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """d/dx of W_{1/(2 pi)}(alpha; z).

    Below y/alpha = POISSON_SWITCH from one walk of the half plane
    (:func:`_critical_gradient`), as theta_lattice and w_b sum directly
    there; from there on, and where the walk would pass its point cap, by
    the theta_Y / theta_XY row series (:func:`_rows`).  Against 40-digit
    sums the walk stayed within 1.6 ulps of sum |f'(q) q_x| (1 + pi alpha
    q), a term's exponential carrying the rounding of q pi alpha q times
    over (README, "Direct lattice sums"; for d/dy W with |q_y| taken as m^2
    + u^2/y^2, whose two parts may cancel)."""
    _check_alpha(alpha)
    if z.y / alpha < POISSON_SWITCH and (g := _critical_gradient(alpha, z, 0)) is not None:
        return g
    return _rows("dx_w", alpha, 0.0, z, False, cfg)


def coupling_coefficient(n: int, m: int, alpha: float, y: float) -> float:
    """A_{n,m}(alpha; y) = n^3 m (alpha^2 e^{-pi y(alpha n^2 + m^2/alpha)}
    - e^{-pi y(alpha m^2 + n^2/alpha)}), the coefficient of sin(2 m n pi x)
    in the double-sum form of -d/dx W_{1/(2 pi)}."""
    return n**3 * m * (
        alpha * alpha * math.exp(-_PI * y * (alpha * n * n + m * m / alpha))
        - math.exp(-_PI * y * (alpha * m * m + n * n / alpha))
    )


def dx_w_double_sum(
    alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """d/dx of W_{1/(2 pi)} by the A_{n,m} sin(2 m n pi x) double sum, on z
    moved by its nearest integer (:func:`_near_origin`), the same lattice:
    2 m n pi x is then formed without the rounding of a large x.  Where the
    factor -8 pi alpha^{-5/2} y^{3/2} leaves the float range, the product
    goes through :func:`_w_scaled`'s powers of 2 (0.0 where the sum is);
    ThetaOverflow where the sum is not finite (the alpha^2 of A_{n,m}
    overflows from alpha ~ 1.3e154, and meets a term's e^{...} = 0.0)."""
    _check_alpha(alpha)
    z = _near_origin(z)
    x, y = z.x, z.y
    nmax = cfg.last_index(y * min(alpha, 1.0 / alpha), 4, 1, "dx_w_double_sum")
    s = 0.0
    for n in range(1, nmax + 1):
        for m in range(1, nmax + 1):
            s += coupling_coefficient(n, m, alpha, y) * math.sin(2.0 * m * n * _PI * x)
    if not math.isfinite(s):
        raise ThetaOverflow(f"the coupling coefficients A_(n,m) of the d/dx W double sum leave the float range "
                            f"at alpha = {alpha:.3g}, y = {y:.3g}")
    try:
        v = -8.0 * _PI * alpha**-2.5 * y**1.5 * s
    except OverflowError:
        v = math.nan
    return v if math.isfinite(v) else _w_scaled(-8.0 * _PI * _PI * s, y, alpha)


def dy_w(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """d/dy of W_{1/(2 pi)}(alpha; z), valid for every z (not only on the
    vertical line x = 1/2 where the minimization uses it).

    Below y/alpha = POISSON_SWITCH from one walk of the half plane, to the
    accuracy :func:`dx_w` states; where that walk would pass its point cap
    and e^{-alpha pi y} is 0.0, from the row through the origin alone, in
    d = alpha/y, which carries no power of y/alpha.  Elsewhere by the theta,
    theta_X and theta_XX row series, (1.5 sqrt(y) s_low + y^{3/2}
    s_high)/(pi alpha^{5/2}) (:func:`_rows`, :func:`_dy_scaled`).  Off the
    walk ThetaOverflow where pi^2 alpha^3, the coefficient of s_high's rows
    n >= 1, is below the normal range (alpha < ~6e-103: its rounding, or
    0.0, would pass into the value)."""
    _check_alpha(alpha)
    below = z.y / alpha < POISSON_SWITCH
    if below and (g := _critical_gradient(alpha, z, 1)) is not None:
        return g
    if _dy_c4(alpha) < 2.0**-1022:  # the least normal float
        raise ThetaOverflow(f"d/dy W's pi^2 alpha^3 is below the normal range at alpha = {alpha:.3g}")
    e1 = math.exp(-alpha * _PI * z.y)
    return _rows("dy_w", alpha, 0.0, z, not (below and not e1), cfg, B_CRITICAL, e1)


def theta_difference(
    alpha: float, a: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """theta(alpha; z) - b * theta(a alpha; z), for finite a > 1 and finite b."""
    _check_alpha(alpha)
    _check_a_b(a, b)
    return theta_lattice(alpha, z, cfg) - b * theta_lattice(a * alpha, z, cfg)


def theta_difference_via_w_integral(
    alpha: float, a: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """theta(alpha;z) - sqrt(a) theta(a alpha;z) as pi alpha int_1^a sqrt(t) W_{1/(2pi)}(t alpha; z) dt.

    This is the exact form of the fundamental-theorem identity
    d/dt [sqrt(t) theta(t alpha; z)] = -pi alpha sqrt(t) W_{1/(2 pi)}(t alpha; z);
    the sqrt(t) weight and the alpha factor are required for it to hold.
    """
    _check_alpha(alpha)
    _check_a_b(a)
    val = gauss_panel(lambda t: math.sqrt(t) * w_b(t * alpha, B_CRITICAL, z, cfg), 1.0, a)
    return _PI * alpha * val


# ---------------------------------------------------------------------------
# Potential families and generic energies
# ---------------------------------------------------------------------------


class _Family(Record):
    """Base of the families with parameters (alpha, a, b): alpha > 0, finite a > 1, finite b."""

    __slots__ = ("alpha", "a", "b")

    def __init__(self, alpha: float, a: float, b: float) -> None:
        _check_alpha(alpha)
        _check_a_b(a, b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class Gaussian(Record):
    """f(r^2) = e^{-pi alpha r^2}."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float) -> None:
        _check_alpha(alpha)
        object.__setattr__(self, "alpha", alpha)


class GaussianDiff(_Family):
    """f(r^2) = e^{-pi alpha r^2} - b e^{-pi a alpha r^2}, a > 1."""

    __slots__ = ()


class PolyGaussian(Record):
    """f(r^2) = (r^2 - b/alpha) e^{-pi alpha r^2}."""

    __slots__ = ("alpha", "b")

    def __init__(self, alpha: float, b: float) -> None:
        _check_alpha(alpha)
        _check_a_b(b=b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b)


class YukawaDiff(_Family):
    """f applied at r^2: h(q) = e^{-pi alpha q}/q - b e^{-pi a alpha q}/q, a > 1."""

    __slots__ = ()


class LaplaceWeighted(_Family):
    """Laplace-transform family with nonnegative weight P on [1, inf).

    family "f": f(q) = int_1^inf (e^{-pi alpha x q} - b e^{-pi a alpha x q}) P(x) dx
    family "g": f(q) = int_1^inf (q x - b/alpha) e^{-pi alpha x q} P(x) dx
    """

    __slots__ = ("weight", "family")

    def __init__(self, alpha: float, a: float, b: float, weight: Callable[[float], float],
                 family: str = "f") -> None:
        super().__init__(alpha, a, b)
        if family not in ("f", "g"):
            raise InvalidParameter(f"family must be 'f' or 'g', got {family!r}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "family", family)


PotentialSpec = Union[Gaussian, GaussianDiff, PolyGaussian, YukawaDiff, LaplaceWeighted]


def b_crit(p: PotentialSpec) -> float:
    """Largest coupling b at which the energy of p is bounded below.

    Along x = 1/2 the row through the origin has spacing y^{-1/2}, so E ~
    sqrt(y) int f(t^2) dt as y -> infinity: alpha^{-1/2} (1 - b/sqrt(a)) for
    GaussianDiff, alpha^{-3/2} (1/(2 pi) - b) for PolyGaussian.  Where f(q) ~
    q^{-g} near 0 with g > 1/2, the row sum ~ y^g leads instead: f ~ (1 - b)/q
    for YukawaDiff, and a Laplace weight P(x) ~ x^{g-1} (g read off at x = 2^13
    and 2^14, 1/2 at least) gives f ~ q^{-g} (1 - b a^{-g}), resp. (g/pi - b).
    """
    if isinstance(p, Gaussian):
        return math.inf
    if isinstance(p, YukawaDiff):
        return 1.0
    if isinstance(p, PolyGaussian):
        return B_CRITICAL
    if isinstance(p, LaplaceWeighted):
        w1, w2 = p.weight(2.0**13), p.weight(2.0**14)
        g = max(0.5, math.log2(w2 / w1) + 1.0) if w1 > 0.0 and w2 > 0.0 else 0.5
        return g / _PI if p.family == "g" else p.a**g
    return math.sqrt(p.a)


def witness_y_max(p: PotentialSpec) -> float:
    """Largest y at which a divergence witness evaluates E_f along x = 1/2.

    No cap for the theta and W_b closed forms: past alpha pi y ~ 745 and
    y/alpha ~ 11.9 each energy is the origin row in closed form
    (:func:`_origin_row_alone`), cheaper than the rows below.  The direct
    sum behind YukawaDiff visits ~2 R sqrt(y) points on the row through the
    origin.  Its witness stops at (2.5e5/16)^2 min(alpha, 1), where a radius
    of 8/sqrt(min(alpha, 1)) would put 2.5e5 points on that row; the radius
    the proven tail sets there (pi alpha R^2 ~ 11-15) puts ~1.2e5 (~0.04 s
    per energy on a 2-CPU VM).  The cap keeps its value so that the witness
    grids stay as they were.  The Laplace integrand at x subtracts two
    energies of size ~sqrt(y); just above b_crit the quadrature's levels stop
    agreeing on that noise from y ~ 6e10 on.
    """
    if isinstance(p, YukawaDiff):
        return (2.5e5 / 16.0) ** 2 * min(p.alpha, 1.0)
    return 2.0**32 if isinstance(p, LaplaceWeighted) else math.inf


def _pointwise(p: PotentialSpec) -> Callable[[float], float]:
    """The potential of p as a function of the squared distance q > 0."""
    if isinstance(p, Gaussian):
        return lambda q: math.exp(-_PI * p.alpha * q)
    if isinstance(p, GaussianDiff):
        return lambda q: math.exp(-_PI * p.alpha * q) - p.b * math.exp(-_PI * p.a * p.alpha * q)
    if isinstance(p, PolyGaussian):
        return lambda q: (q - p.b / p.alpha) * math.exp(-_PI * p.alpha * q)
    if isinstance(p, YukawaDiff):
        return lambda q: (math.exp(-_PI * p.alpha * q) - p.b * math.exp(-_PI * p.a * p.alpha * q)) / q
    return lambda q: integrate(_slice_integrand(p, (q,), (1.0,), False), 1.0)


def potential_value(p: PotentialSpec, q: float) -> float:
    """Pointwise potential at squared distance q > 0."""
    return _pointwise(p)(q)


def _moment_tails(c: float, r2: float, d2: float, k: int = 4) -> list[float]:
    """T_j, j < k: bounds on sum_{|P|^2 > r2} |P|^{2j} e^{-c |P|^2} over a
    unit-density lattice whose cell diameter is sqrt(d2).  The cells of the
    points within r lie in the disc of radius r + sqrt(d2), so there are at
    most M(u) = pi (sqrt(u) + sqrt(d2))^2 <= 2 pi (u + d2) points with |P|^2
    <= u; the sum is int_{r2}^inf h dM <= int_{r2}^inf M (-h') du for h(u) =
    u^j e^{-c u}, by parts, and -h' <= c u^j e^{-c u} at every u > 0.  With
    I_j = int_{r2}^inf c u^j e^{-c u} du = r2^j e^{-c r2} + (j/c) I_{j-1},
    T_j = 2 pi (I_{j+1} + d2 I_j)."""
    e = math.exp(-c * r2)
    prev, cur = e, r2 * e + 1 / c * e  # I_0, I_1
    tails, j = [2.0 * _PI * (cur + d2 * prev)], 2
    while j <= k:  # not a range: setting one up costs about as much as a moment
        prev, cur = cur, r2**j * e + j / c * cur
        tails.append(2.0 * _PI * (cur + d2 * prev))
        j += 1
    return tails


def _terms(p: Gaussian | GaussianDiff | PolyGaussian | YukawaDiff, dual: bool):
    """The terms (A, B, c), read as (A + B q) e^{-c q}, and (w, c), read as
    w e^{-c q}/q, whose sum is f(q).  With dual set, a Gaussian of alpha < 1
    takes theta(alpha; z) = theta(1/alpha; z)/alpha, whose rate pi/alpha keeps
    a walk short; the terms then sum over the nonzero points of the lattice
    of z to E_f up to a constant that depends on p alone, W_b(alpha; z) being
    -alpha^{-3} sum_P (|P|^2 - alpha/pi + b alpha) e^{-pi |P|^2/alpha}."""
    if isinstance(p, YukawaDiff):
        return [], [(1.0, _PI * p.alpha), (-p.b, _PI * p.a * p.alpha)]
    al, flip = p.alpha, dual and p.alpha < 1.0
    if isinstance(p, PolyGaussian):
        if flip:
            if not (c3 := al**3):
                raise ThetaOverflow(f"the dual W_b terms' factor 1/alpha^3 overflows at alpha = {al:.3g}")
            return [((1.0 / _PI - p.b) / (al * al), -1.0 / c3, _PI / al)], []
        return [(-p.b / al, 1.0, _PI * al)], []
    gauss = [(1.0 / al, 0.0, _PI / al) if flip else (1.0, 0.0, _PI * al)]
    if isinstance(p, GaussianDiff):
        aa = p.a * al
        gauss.append((-p.b / aa, 0.0, _PI / aa) if dual and aa < 1.0 else (-p.b, 0.0, _PI * aa))
    return gauss, []


def _tail(gauss, yukawa, z: UpperHalfPoint, r2: float, derivatives: bool = False) -> float:
    """Proven bound on sum_{|P|^2 > r2} |f| over the lattice of z, f the sum of
    the terms of :func:`_terms`; with derivatives, on that of |f| + |f'| |dq| +
    |f''| |dq|^2 + |f'| |d^2 q|, which bounds each gradient and Hessian entry
    in (x, y) too, as |dq| <= q/y and |d^2 q| <= 2q/y^2.  Each is a sum of
    q^j e^{-c q}, j <= 3 (1/q at most s = 1/r2), bounded by :func:`_moment_tails`
    for the cell diameter sqrt(d2) = max |e1 +- e2| of the basis
    e1 = (1/sqrt(y), 0), e2 = (x/sqrt(y), sqrt(y))."""
    y = z.y
    d2 = (abs(z.x) + 1.0) ** 2 / y + y  # not over y^2, which overflows from y ~ 1.3e154
    tail = 0.0
    if not derivatives:
        for A, B, c in gauss:
            t = _moment_tails(c, r2, d2, 2 if B else 1)
            tail += abs(A) * t[0] + (abs(B) * t[1] if B else 0.0)
        for w, c in yukawa:  # 1/q <= 1/r2 bounds nothing at r2 = 0
            tail += abs(w) * _moment_tails(c, r2, d2, 1)[0] / r2 if r2 else math.inf
        return tail
    # a term whose moment tails are all 0.0 adds nothing, and is skipped: from
    # alpha ~ 4.3e153 on c c overflows, and inf 0 = nan would keep the radius growing
    s, k1, k2 = 1.0 / r2, 1.0 / y + 2.0 / (y * y), 1.0 / (y * y)
    for A, B, c in gauss:
        if not any(t := _moment_tails(c, r2, d2)):
            continue
        A, B = abs(A), abs(B)
        tail += (A * t[0] + (B + k1 * (B + c * A)) * t[1]
                 + (k1 * c * B + k2 * c * (c * A + 2.0 * B)) * t[2] + k2 * c * c * B * t[3])
    for w, c in yukawa:
        if not any(t := _moment_tails(c, r2, d2, 3)):
            continue
        tail += abs(w) * s * (t[0] + k1 * (c + s) * t[1] + k2 * (c * c + 2.0 * c * s + 2.0 * s * s) * t[2])
    return tail


def _radius(gauss, yukawa, z: UpperHalfPoint, bound: Callable[[], float],
            derivatives: bool = False) -> tuple[float, int]:
    """(R^2, cap) for a half-plane walk of the terms of :func:`_terms` over
    the lattice of z; RadiusTooLarge past cap, MAX_ENUMERATION for YukawaDiff
    terms, whose energy has no other route, else _DIRECT_CAP.  R^2 starts at
    max(1/y, 36/c), c the slowest rate, and steps until the proven tail
    (:func:`_tail`, in its mode) is at most _DIRECT_TOL times bound(), a lower
    bound on the sum of the moduli of what the walk adds
    (:func:`_value_bound`, :func:`_gradient_bound`), called only once the
    first walk fits in cap."""
    cap = MAX_ENUMERATION if yukawa else _DIRECT_CAP
    c = min(map(itemgetter(-1), gauss + yukawa))
    r2 = max(1.0 / z.y, 36.0 / c)
    target = None
    while True:
        if not (estimate := enumeration_estimate(z, math.sqrt(r2))) <= cap:  # nan too
            raise RadiusTooLarge(f"a Newton walk at ({z.x:.6g}, {z.y:.6g}) would visit "  # direct sums catch it
                                 f"~{estimate:.3g} points, above {cap}")
        if target is None:
            target = _DIRECT_TOL * bound()
        if (tail := _tail(gauss, yukawa, z, r2, derivatives)) <= target:
            return r2, cap
        # the tail falls as e^{-c r2} times a cubic: step past the exponential's share
        r2 += math.log(tail / target) / c + 1.0 / c if target > 0.0 else 0.25 * r2


def _value_bound(f: Callable[[float], float], z: UpperHalfPoint, origin: float = 0.0) -> float:
    """origin (|f(0)| where the sum counts it) plus the pairs at the basis
    norms 1/y and |z|^2/y = x^2/y + y (not over y^2, which overflows from y
    ~ 1.3e154): a lower bound on sum |f| over the lattice of z.  A walk
    passes 2 R/sqrt(y) >= 2/y rows, so once its first radius fits in its
    cap 1/y is far inside the float range."""
    return origin + 2.0 * (abs(f(1.0 / z.y)) + abs(f(z.x * z.x / z.y + z.y)))


def _gradient_bound(derivs, z: UpperHalfPoint, entry: int) -> float:
    """2 max |f'(q) dq| over the points (m, n) = (1, 0), (1, +-1), (0, 1), f'
    from derivs (:func:`_walk_derivatives`), dq = q_x (entry 0) or q_y (entry
    1): a lower bound on the sum of the moduli of that gradient entry's terms
    over the lattice of z, which far up the cusp is orders below sum |f|."""
    x, y = z.x, z.y
    top = 0.0
    for m, n in ((1, 0), (1, 1), (1, -1), (0, 1)):
        u = m * x + n
        dq = 2.0 * m * u / y if entry == 0 else m * m - u * u / (y * y)
        top = max(top, abs(derivs(u * u / y + m * m * y)[1] * dq))
    return 2.0 * top


def _walk_derivatives(gauss, yukawa) -> Callable[[float], tuple[float, float, float]]:
    """q -> (f(q), f'(q), f''(q)) for the terms of :func:`_terms`."""
    exp = math.exp

    def derivs(q: float) -> tuple[float, float, float]:
        f0 = f1 = f2 = 0.0
        for A, B, c in gauss:
            e = exp(-c * q)
            t = (A + B * q) * e
            be = B * e
            f0 += t
            f1 += be - c * t
            f2 += c * (c * t - 2.0 * be)
        for w, c in yukawa:
            t, s = w * exp(-c * q) / q, 1.0 / q
            f0 += t
            f1 -= t * (c + s)
            f2 += t * (c * c + 2.0 * s * (c + s))
        return f0, f1, f2
    return derivs


def _walk(gauss, yukawa, z: UpperHalfPoint, entry: int | None = None):
    """The sum of the terms of :func:`_terms` over the nonzero points of the
    lattice of z, with its gradient and Hessian in (x, y), from one walk of
    the half plane; or None where a sum is not finite.

    Returns (value, (E_x, E_y), (E_xx, E_xy, E_yy), sum |f|), the last a
    scale for the rounding of the value.  With u = m x + n and q = u^2/y +
    m^2 y, q_x = 2 m u/y, q_y = m^2 - u^2/y^2, q_xx = 2 m^2/y, q_xy = -2 m
    u/y^2 and q_yy = 2 u^2/y^3; f, f' and f'' are taken once per distinct
    norm and a pair +-P shares every term.  The radius and the point cap are
    :func:`_radius`'s, for the proven tail of the value, the gradient and the
    Hessian, against sum |f| (:func:`_value_bound`) or, given an entry k, the
    moduli of the terms of the k-th gradient entry (:func:`_gradient_bound`);
    a walk past the cap raises RadiusTooLarge."""
    derivs = _walk_derivatives(gauss, yukawa)
    bound = ((lambda: _value_bound(lambda q: derivs(q)[0], z)) if entry is None
             else (lambda: _gradient_bound(derivs, z, entry)))
    r2, cap = _radius(gauss, yukawa, z, bound, True)
    # the estimate counts a disc's area; at large y the row m = 0 alone can
    # pass the cap, which _half_plane's exact count catches
    rows = _half_plane(z, math.sqrt(r2), cap)
    x, y = z.x, z.y
    iy = 1.0 / y
    iy2 = iy * iy
    f = fs = gx = gy = hxx = hxy = hyy = 0.0
    seen: dict[float, tuple[float, float, float]] = {}
    for m, ns, qs in rows:
        mx, kx, mm = m * x, 2.0 * m * iy, m * m
        cxx = 2.0 * mm * iy
        for n, q in zip(ns, qs):
            v = seen.get(q)
            if v is None:
                v = seen[q] = derivs(q)
            f0, f1, f2 = v
            u = mx + n
            qx, w = kx * u, u * u * iy2
            qy = mm - w
            f += f0
            fs += abs(f0)
            gx += f1 * qx
            gy += f1 * qy
            hxx += f2 * qx * qx + f1 * cxx
            hxy += (f2 * qy - f1 * iy) * qx
            hyy += f2 * qy * qy + 2.0 * f1 * w * iy
    if not all(map(math.isfinite, (f, fs, gx, gy, hxx, hxy, hyy))):
        return None
    return 2.0 * f, (2.0 * gx, 2.0 * gy), (2.0 * hxx, 2.0 * hxy, 2.0 * hyy), 2.0 * fs


def _critical_gradient(alpha: float, z: UpperHalfPoint, entry: int) -> float | None:
    """d/dx (entry 0) or d/dy (entry 1) of W_{1/(2 pi)}(alpha; z) from one
    walk (:func:`_walk`) of the dual terms of PolyGaussian(alpha, 1/(2 pi)) on
    :func:`_near_origin` of z, cut against that entry's own terms; None where
    the walk would pass its cap, a sum is not finite or, below alpha ~ 2e-108,
    the dual terms' 1/alpha^3 overflows."""
    try:
        walk = _walk(*_terms(PolyGaussian(alpha, B_CRITICAL), True), _near_origin(z), entry)
    except (RadiusTooLarge, ThetaOverflow):
        return None
    return None if walk is None else walk[1][entry]


def _tail_bound(p: PotentialSpec, z: UpperHalfPoint, r2: float) -> float:
    """Bound on sum_{|P|^2 > r2} |f(|P|^2)| over the lattice of z: proven for the
    closed families (:func:`_tail`); for LaplaceWeighted a heuristic, the potential
    sampled at r2 with ~pi dt points per shell [t, t + dt] and a margin of 2."""
    if isinstance(p, LaplaceWeighted):
        g0 = abs(potential_value(p, r2))
        return 4.0 * g0 * (r2 / (_PI * p.alpha) + 1.0 / (_PI * p.alpha) ** 2) / max(r2, 1.0) * _PI
    return _tail(*_terms(p, False), z, r2)


def _nonzero_sum(f: Callable[[float], float], qs) -> tuple[float, float]:
    """(sum, sum of moduli) of f over the points whose half-plane norms^2 are
    qs, added in the order of qs.  Each norm^2 stands for the pair +-P and
    ties are adjacent, so f is evaluated once per distinct norm and added once
    per point.  In ascending order, norms of 0 (y so small that m^2 y^2
    underflows) come first and add v = 0.0 to 0.0, as if skipped."""
    total = total_abs = last = v = av = 0.0
    for q in qs:
        if q != last:
            last = q
            v = f(q)
            av = abs(v)
        total += v
        total += v
        total_abs += av
        total_abs += av
    return total, total_abs


def _near_origin(z: UpperHalfPoint) -> UpperHalfPoint:
    """z - k for the integer k nearest x where |x| > 1/2: exact, and it spans
    the same lattice, so a walk forms m x + n without the rounding of m k."""
    return UpperHalfPoint(z.x - round(z.x), z.y) if abs(z.x) > 0.5 else z


def _direct_sum(p: Gaussian | PolyGaussian | YukawaDiff, z: UpperHalfPoint,
                origin: float) -> float | None:
    """The sum of f over the nonzero lattice points within :func:`_radius`,
    given |f(0)| as origin (0 where the value excludes it), added from the
    largest norm down; None where the walk would pass its point cap."""
    z = _near_origin(z)
    f = _pointwise(p)
    try:
        r2, _ = _radius(*_terms(p, False), z, lambda: _value_bound(f, z, origin))
    except RadiusTooLarge:
        return None
    return _nonzero_sum(f, reversed(half_plane_norms(z, math.sqrt(r2))))[0]


def lattice_energy(p: PotentialSpec, z: UpperHalfPoint, cutoff_radius: float) -> float:
    """E_f(L) = sum over nonzero lattice points of f(|P|^2), by direct summation.

    Raises TailTooLarge when the tail bound beyond the cutoff
    (:func:`_tail_bound`: proven for the closed families, a sampled estimate
    for LaplaceWeighted) is not at most 1e-12 of the accumulated absolute sum.
    """
    if not 0.0 < cutoff_radius < math.inf:
        raise InvalidParameter(f"cutoff_radius must be > 0 and finite, got {cutoff_radius}")
    total, total_abs = _nonzero_sum(_pointwise(p), half_plane_norms(z, cutoff_radius))
    tail = _tail_bound(p, z, cutoff_radius * cutoff_radius)
    if not tail <= 1e-12 * max(total_abs, 1e-300):
        raise TailTooLarge(
            f"tail bound {tail:.3g} exceeds 1e-12 of the summed magnitude {total_abs:.3g}"
        )
    return total


def _slice_terms(p: LaplaceWeighted, x: np.ndarray, dual: bool):
    """(k0, k1, rates, const) at the nodes x: the terms (k0 + k1 q) e^{-rates
    q} of :func:`_terms` for the slice that p integrates at A = alpha x,
    GaussianDiff(A, a, b) for family f and PolyGaussian(A, b) for family g,
    node-major (two per node for family f, one for g), dual as given; and
    per node the dual terms' value at q = 0 less the slice's f(0), which the
    origin adds (0 where no term is dual).  A node is blank, (nan, 0, 0) with
    const nan, where A is not finite or a dual g slice's A^3 is 0.0; a blank
    node's rate is 0, no other's is.  Each term keeps the bits of _terms:
    A^3 is taken by Python's ** on the dual g nodes only."""
    import numpy as np
    b = p.b
    with np.errstate(all="ignore"):  # alpha x may overflow; blank nodes are set below
        A = p.alpha * x
        bad = ~np.isfinite(A)
        if p.family == "f":
            s = np.stack([A, p.a * A], axis=1)  # each Gaussian's scale
            k0, k1, rates = np.full(s.shape, (1.0, -b)), np.zeros(s.shape), _PI * s
            if dual and (flip := s < 1.0).any():  # c e^{-pi s q} -> (c/s) e^{-pi q/s}
                k0[flip] /= s[flip]
                rates[flip] = _PI / s[flip]
            const = k0[:, 0] + k0[:, 1] - (1.0 - b)
        else:
            origin = -b / A  # the slice's f(0), and its primal k0
            k0, k1, rates = origin.copy(), np.ones(A.shape), _PI * A
            if dual and (flip := A < 1.0).any():
                a = A[flip]
                c3 = np.array([t**3 for t in a.tolist()])
                bad[flip] |= c3 == 0.0
                k0[flip] = (1.0 / _PI - b) / (a * a)
                k1[flip] = -1.0 / c3
                rates[flip] = _PI / a
            const = k0 - origin
            k0, k1, rates = k0[:, None], k1[:, None], rates[:, None]
    if bad.any():
        k0[bad], k1[bad], rates[bad], const[bad] = math.nan, 0.0, 0.0, math.nan
    return k0.ravel(), k1.ravel(), rates.ravel(), const


def _slice_integrand(p: LaplaceWeighted, qs, ks, dual: bool) -> Callable[[np.ndarray], np.ndarray]:
    """x -> P(x) v(x) at an array of nodes x, with v(x) = sum_i ks[i] f_x(qs[i])
    for f_x the slice at A = alpha x (times x for family g) in the terms of
    :func:`_slice_terms`, dual as given.  The dual terms of a Gaussian of A < 1
    sum over every point of the lattice, the origin too; with dual set, v(x)
    adds the dual terms' value at q = 0 less f_x(0), so that the ks of the
    nonzero points give their energy.  E.g. theta(A) - 1 = 1/A - 1 + (1/A)
    sum_{P != 0} e^{-pi |P|^2/A}.

    Each call takes the terms of every node from one array pass, then one
    numpy pass over terms x norms.  The weight P is called once per node and
    checked to be nonnegative; where it or A = alpha x overflows, the node's
    value is not finite, which integrate ignores past its rule's stop."""
    import numpy as np
    q = np.array(qs, dtype=float)
    ks = np.array(ks, dtype=float)
    f = p.family == "f"

    def integrand(x: np.ndarray) -> np.ndarray:
        k0, k1, rates, const = _slice_terms(p, x, dual)
        w = np.array([_weight(p, t) * (1.0 if f else t) for t in x.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):
            e = (k0[:, None] + np.multiply.outer(k1, q)) * np.exp(np.multiply.outer(-rates, q))
            v = (e @ ks).reshape(len(w), -1).sum(axis=1)
            return w * (v + const if dual else v)

    return integrand


def _weight(p: LaplaceWeighted, x: float) -> float:
    try:
        w = p.weight(x)
    except OverflowError:
        return math.inf
    if w < 0.0:
        raise InvalidParameter(f"weight must be nonnegative, got P({x}) = {w}")
    return w


#: laplace_energy walks the lattice where the walk's points (as
#: moduli._half_plane counts them, both halves) times the terms of a slice (2
#: for family f, 1 for g) are at most this; past it each node takes the
#: origin-free row sums, whose cost does not grow with the walk.  Measured on a
#: 2-CPU VM at alpha in {0.5, 1, 2}, P in {1, e^-x}, x = 1/2: the walk costs
#: 0.25-0.45 ms per energy at 20-90 points x terms and as much as the row sums
#: (2.8-3.4 ms with P = e^-x, 11-13 ms with P = 1, by the node count) at
#: 2,700-3,300 for either family, 2,000 for family f at alpha = 0.5, P = 1.
_LAPLACE_WALK_CAP = 3600


def _walk_integrand(p: LaplaceWeighted, z: UpperHalfPoint) -> Callable[[np.ndarray], np.ndarray] | None:
    """:func:`_slice_integrand` over the distinct norms of the nonzero points
    within the radius of :func:`_radius`, each with its count of points, on
    the dual terms; None where that walk passes _LAPLACE_WALK_CAP.

    The radius is that of the slowest slice's lone q-moment term q e^{-c q}
    (family g; e^{-c q} for family f), c = pi alpha at x = 1 for alpha >= 1
    and c = pi at A = alpha x = 1 below, as every other slice decays at pi A >
    c or, dual, at pi/A > pi.  So each term of each slice, k q^j e^{-c' q}
    with c' >= c and j <= 1, has a tail within _DIRECT_TOL of its own moduli
    at the basis norms.  Each moment tail T_j of :func:`_moment_tails` is
    e^{-c' R^2} times a polynomial in 1/c' with nonnegative coefficients, so
    T_j(c') <= e^{-(c' - c) R^2} T_j(c), while the term at a basis norm q_b <=
    R^2 shrinks by e^{-(c' - c) q_b} >= e^{-(c' - c) R^2}; and T_0/S_0 <=
    T_1/S_1 for S_j the sum of q_b^j e^{-c q_b}, since T_1 >= R^2 T_0 and S_1 <=
    R^2 S_0.  Integrated against P >= 0, the truncation stays within
    _DIRECT_TOL of the moduli of the slices' terms."""
    import numpy as np
    c = _PI * max(p.alpha, 1.0)
    j = 0.0 if p.family == "f" else 1.0
    z = _near_origin(z)
    try:
        r2, _ = _radius([(1.0 - j, j, c)], [], z, lambda: _value_bound(lambda q: q**j * math.exp(-c * q), z))
        rows = _half_plane(z, math.sqrt(r2), _LAPLACE_WALK_CAP // (2 if p.family == "f" else 1))
    except RadiusTooLarge:
        return None
    norms, counts = np.unique(np.concatenate([qs for _, _, qs in rows]), return_counts=True)
    return _slice_integrand(p, norms, 2.0 * counts, True)


def _node_integrand(p: LaplaceWeighted, z: UpperHalfPoint,
                    cfg: SeriesConfig) -> Callable[[np.ndarray], np.ndarray]:
    """x -> P(x) v(x) as in :func:`_slice_integrand`, with v(x) the origin-free
    row sums of the closed forms at each node (:func:`_theta_minus_one`,
    :func:`_w_b_minus_origin`).  A node whose X = y/A leaves the float range,
    far past the rule's stop, has the value nan: theta's Poisson prefactor
    overflows from A ~ 1e123 y on (ThetaOverflow), and X underflows to 0 where
    A or alpha x passes the float range (NonPositiveX)."""
    import numpy as np
    f = p.family == "f"

    def v(t: float) -> float:
        A = p.alpha * t
        try:
            if f:
                return _theta_minus_one(A, z, cfg) - p.b * _theta_minus_one(p.a * A, z, cfg)
            return t * _w_b_minus_origin(A, p.b, z, cfg)
        except (ThetaOverflow, NonPositiveX):
            return math.nan

    return lambda x: np.array([_weight(p, t) * v(t) for t in x.tolist()])


def laplace_energy(
    p: LaplaceWeighted, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """E for a LaplaceWeighted potential, int_1^inf P(x) E_x dx (Fubini), E_x
    the energy of the slice at A = alpha x (GaussianDiff(A, a, b) for family
    f, x PolyGaussian(A, b) for family g), by quadrature.integrate.

    Where the walk of :func:`_walk_integrand` is within _LAPLACE_WALK_CAP,
    every node sums its slice's terms over the walk's norms, cut at a proven
    tail; past it, each node takes the origin-free row sums
    (:func:`_node_integrand`), which cfg truncates."""
    if not isinstance(p, LaplaceWeighted):
        raise InvalidParameter("laplace_energy requires a LaplaceWeighted spec")
    return integrate(_walk_integrand(p, z) or _node_integrand(p, z, cfg), 1.0)


def closed_form_energy(
    p: PotentialSpec, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """Origin-free energy E_f(L) via the theta / W_b closed forms where one
    exists, falling back to direct summation for YukawaDiff and to the
    Fubini route for LaplaceWeighted."""
    if isinstance(p, Gaussian):
        return _theta_minus_one(p.alpha, z, cfg)
    if isinstance(p, GaussianDiff):
        return _theta_minus_one(p.alpha, z, cfg) - p.b * _theta_minus_one(p.a * p.alpha, z, cfg)
    if isinstance(p, PolyGaussian):
        return _w_b_minus_origin(p.alpha, p.b, z, cfg)
    if isinstance(p, YukawaDiff):
        total = _direct_sum(p, z, 0.0)
        if total is None:
            raise RadiusTooLarge(f"the proven tail needs more than {MAX_ENUMERATION} points")
        return total
    return laplace_energy(p, z, cfg)
