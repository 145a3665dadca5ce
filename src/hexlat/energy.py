"""Lattice theta function, the polynomial-Gaussian energy W_b, their
derivatives, and the generic potential energies.

The two-dimensional sums are evaluated through the one-dimensional theta
expansion

    theta(alpha; z) = sqrt(y/alpha) sum_n e^{-alpha pi y n^2} theta(y/alpha; n x)

and its kin for W_b, d/dx W and d/dy W, each written once in the term table
_SUMS, read by a float loop over one theta1d.theta_rows call at X = y/alpha
and by a numpy reduction over theta_array.  Where that call would take the
Poisson comb (y/alpha < POISSON_SWITCH), theta_lattice and w_b sum the
lattice points directly, to the radius that the Newton walks take too
(:func:`_radius`).  theta and W_b include the origin (1 to theta,
-b/alpha to W_b); the energies E_f exclude it, summing the row n = 0
without it where subtracting it would cancel.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Union

from ._record import Record
from .config import DEFAULT_CONFIG, MAX_TERMS, SeriesConfig
from .errors import InvalidParameter, NonPositiveAlpha, RadiusTooLarge, TailTooLarge
from .moduli import MAX_ENUMERATION, UpperHalfPoint, enumeration_estimate, half_plane_norms
from .quadrature import gauss_panel, integrate
from .theta1d import POISSON_SWITCH, theta_array, theta_rows

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
#: the rows, which then raise TruncationFailure.
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
    c4 = _dy_c4(alpha)  # for pi a^2 S2 + SX and -pi^2 a^3 S4 + SXX/alpha
    return (lambda n, th, thx, thxx: c2 * n * n * th + thx,
            lambda n, th, thx, thxx: -c4 * n**4 * th + thxx / alpha)


#: One entry per lattice row sum, keyed by the name its term count carries:
#: (power, orders, row0, terms).  Row n is bounded by n^power e^{-alpha pi y n^2}
#: and takes the theta orders at X0 = y/alpha, Y = n x.  row0(k, d, b, exp) is
#: the k-th term of half the row n = 0 without the origin, d = alpha/y (times
#: alpha for W_b; for d/dy W, y^2 times the y-derivative of W_b's over alpha).
#: terms(alpha, c0, c2) binds the coefficients (c2 = pi alpha^2) into the row
#: terms term(n, *rows), one per accumulator.  Arithmetic operators only, so
#: the float loop and the numpy reduction share them.
_SUMS = {
    "theta_lattice": (0, ((0, 0),), lambda k, d, b, exp: exp(-_PI * d * k * k),
                      lambda alpha, c0, c2: (lambda n, th: th,)),
    "w_b": (2, ((0, 0), (1, 0)), lambda k, d, b, exp: (k * k * d - b) * exp(-_PI * d * k * k),
            lambda alpha, c0, c2: (lambda n, th, thx: (c0 + c2 * n * n) * th + thx,)),
    "dx_w": (3, ((0, 1), (1, 1)), None,
             lambda alpha, c0, c3: (lambda n, thy, thxy: c3 * n**3 * thy + n * thxy,)),
    "dy_w": (4, ((0, 0), (1, 0), (2, 0)),
             lambda k, d, b, exp: k * k * (_PI * (k * k * d - b) - 1.0) * exp(-_PI * d * k * k), _dy_terms),
}


def _row_sums(name: str, alpha: float, c0: float, z: UpperHalfPoint, origin: bool,
              cfg: SeriesConfig) -> list[float]:
    """sum_n w_n term(n, rows at n) for each row term of the table entry name,
    over n = 0 (only when origin is set) and n = 1..last_index, with w_0 = 1,
    w_n = 2 e^{-alpha pi y n^2} and every row from one theta_rows call."""
    power, orders, _, terms = _SUMS[name]
    x, y = z.x, z.y
    ns = range(0 if origin else 1, cfg.last_index(alpha * y, power, 1, name) + 1)
    a = -alpha * _PI * y  # -alpha pi y n^2 multiplies left to right, so w_n keeps its bits
    ws = [2.0 * math.exp(a * n * n) if n else 1.0 for n in ns]
    rows = theta_rows(y / alpha, [n * x for n in ns], orders, cfg)
    out = []
    for term in terms(alpha, c0, _PI * alpha * alpha):
        acc = 0.0
        for w, t in zip(ws, map(term, ns, *rows)):
            acc += w * t
        out.append(acc)
    return out


def _row0_sum(name: str, d: float, b: float, cfg: SeriesConfig) -> float:
    """sum_{k>=1} row0(k, d, b) of the table entry name at d = alpha/y, added
    in order from 0.0 (the built-in sum compensates from Python 3.12 on)."""
    power, _, row0, _ = _SUMS[name]
    acc = 0.0
    for k in range(1, cfg.last_index(d, power, 1, name) + 1):
        acc += row0(k, d, b, math.exp)
    return acc


def _row_sums_batch(name: str, alphas: np.ndarray, b: float, c0, z: UpperHalfPoint,
                    full: np.ndarray, cfg: SeriesConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`_row_sums` with the row n = 0 where full is set, and :func:`_row0_sum`
    where not (0.0 where full), at each alpha of an array.  Each series takes
    last_index at the smallest decay; the extra terms lie below rel_tol."""
    import numpy as np
    power, orders, _, terms = _SUMS[name]
    y = z.y
    n = np.arange(cfg.last_index(alphas.min() * y, power, 1, name) + 1.0)
    nc = n[:, None]
    w = 2.0 * np.exp(-alphas * _PI * y * nc * nc)
    w[0] = full
    rows = [theta_array(y / alphas, n * z.x, xo, cfg) for xo, _ in orders]
    sums = [(w * term(nc, *rows)).sum(axis=0) for term in terms(alphas, c0, _PI * alphas * alphas)]
    row0_sum = np.zeros(alphas.shape)
    if not full.all():
        row0_sum[~full] = _row0_sum_batch(name, alphas[~full] / y, b, cfg)
    return sums, row0_sum


def _row0_sum_batch(name: str, d: np.ndarray, b: float, cfg: SeriesConfig) -> np.ndarray:
    """:func:`_row0_sum` at each d of an array, to the last_index of the smallest."""
    import numpy as np
    power, _, row0, _ = _SUMS[name]
    k = np.arange(1.0, cfg.last_index(d.min(), power, 1, name) + 1.0)[:, None]
    return row0(k, d, b, np.exp).sum(axis=0)


def theta_lattice(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """theta(alpha; z) = sum over the full lattice of e^{-pi alpha |P|^2}.

    Below y/alpha = POISSON_SWITCH a direct sum (:func:`_direct_sum`), from
    there on the row expansion at cfg's rel_tol."""
    _check_alpha(alpha)
    if z.y / alpha < POISSON_SWITCH:
        total = _direct_sum(Gaussian(alpha), z, 1.0)
        if total is not None:
            return 1.0 + total
    return _theta_rows(alpha, z, True, cfg)


def _theta_rows(alpha: float, z: UpperHalfPoint, origin: bool, cfg: SeriesConfig) -> float:
    """The expansion of :func:`theta_lattice`; its n = 0 term is 0 unless origin is set."""
    (acc,) = _row_sums("theta_lattice", alpha, 0.0, z, origin, cfg)
    return math.sqrt(z.y / alpha) * acc


def w_b(alpha: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """W_b(alpha; z) = sum over the full lattice of (|P|^2 - b/alpha) e^{-pi alpha |P|^2}.

    Below y/alpha = POISSON_SWITCH a direct sum (:func:`_direct_sum`), within
    its proven tail (under 2^-54) plus a few ulps of sum |terms| at any z.
    From there on the exponential expansion

        (1/pi) alpha^{-5/2} y^{3/2} [ (1/2)(1 - 2 pi b)(alpha/y) S0
                                      + pi alpha^2 S2 + SX ]

    with S0 = sum_n e^{-alpha pi y n^2} theta(y/alpha; n x), S2 the same sum
    weighted by n^2, and SX the sum with theta replaced by theta_X.

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
    if z.y / alpha < POISSON_SWITCH:
        total = _direct_sum(PolyGaussian(alpha, b), z, abs(b) / alpha)
        if total is not None:
            return total - b / alpha
    if _off_row_underflows(_PI * alpha * alpha, alpha, z.y):
        return 2.0 * _row0_sum("w_b", alpha / z.y, b, cfg) / alpha - b / alpha
    return _w_rows(alpha, c0, z, True, cfg)


def _off_row_underflows(c: float, alpha: float, y: float) -> bool:
    """Whether c, the largest coefficient of a W row expansion (pi alpha^2,
    or :func:`_dy_c4` for d/dy W), overflows where every point off the row
    through the origin has a term below the float range: such a point has
    |P|^2 >= y, and pi alpha y > 800 puts |P|^2 e^{-pi alpha |P|^2} under
    2^-1074, e^{-pi alpha |P|^2} under e^-800 of b/alpha, and the
    y-derivative's (1 + pi alpha q + pi b)(q/y) e^{-pi alpha q}, q = |P|^2,
    under 2^-1074 too."""
    return math.isinf(c) and _PI * alpha * y > 800.0


def _w_scale(y: float, alpha: float) -> float:
    """y^{3/2}/(pi alpha^{5/2}), the factor of the W row expansions; by way of
    y/alpha where a power overflows (alpha^{5/2} does from alpha ~ 2e123)."""
    try:
        return y**1.5 / (_PI * alpha**2.5)
    except OverflowError:
        r = y / alpha
        return r * math.sqrt(r) / (_PI * alpha)


def _w_rows(alpha: float, c0: float, z: UpperHalfPoint, origin: bool, cfg: SeriesConfig) -> float:
    """The expansion of :func:`w_b`; its n = 0 term is 0 unless origin is set."""
    (acc,) = _row_sums("w_b", alpha, c0, z, origin, cfg)
    return _w_scale(z.y, alpha) * acc


def _theta_minus_one(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig) -> float:
    """theta(alpha; z) - 1.  For alpha >= y the n = 0 term, theta(alpha/y; 0) by
    Poisson, is summed without the origin; below, theta >= sqrt(y/alpha) > 1."""
    if alpha < z.y:
        return theta_lattice(alpha, z, cfg) - 1.0
    return 2.0 * _row0_sum("theta_lattice", alpha / z.y, 0.0, cfg) + _theta_rows(alpha, z, False, cfg)


def _w_b_minus_origin(alpha: float, b: float, z: UpperHalfPoint, cfg: SeriesConfig) -> float:
    """W_b(alpha; z) + b/alpha, summing the n = 0 row without the origin for
    alpha >= y/4.  Below, the nonzero points' theta mass sqrt(y/alpha) - 1 > 1
    keeps adding b/alpha to W_b from cancelling more than a few ulps."""
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    # 2 pi b or b/alpha overflows: as in w_b, with theta - 1 for theta, and on
    # both branches, since W_b + b/alpha would be -inf + inf
    if b and (math.isinf(c0) or math.isinf(b / alpha)):
        return _w_b_minus_origin(alpha, 0.0, z, cfg) - b / alpha * _theta_minus_one(alpha, z, cfg)
    if _off_row_underflows(_PI * alpha * alpha, alpha, z.y):  # as in w_b
        return 2.0 * _row0_sum("w_b", alpha / z.y, b, cfg) / alpha
    if 4.0 * alpha < z.y:
        return w_b(alpha, b, z, cfg) + b / alpha
    return 2.0 * _row0_sum("w_b", alpha / z.y, b, cfg) / alpha + _w_rows(alpha, c0, z, False, cfg)


def _theta_minus_one_batch(alphas: np.ndarray, z: UpperHalfPoint, cfg: SeriesConfig) -> np.ndarray:
    """:func:`_theta_minus_one` at each alpha of an array, by the same expansion
    and branch (:func:`_row_sums_batch`)."""
    import numpy as np
    full = alphas < z.y  # the n = 0 term theta(y/alpha; 0) where alpha < y
    (acc,), row0 = _row_sums_batch("theta_lattice", alphas, 0.0, 0.0, z, full, cfg)
    rows = np.sqrt(z.y / alphas) * acc
    return np.where(full, rows - 1.0, 2.0 * row0 + rows)


def _w_b_minus_origin_batch(alphas: np.ndarray, b: float, z: UpperHalfPoint,
                            cfg: SeriesConfig) -> np.ndarray:
    """:func:`_w_b_minus_origin` at each alpha of an array, by the same expansion,
    branch and overflow splits (:func:`_row_sums_batch`)."""
    import numpy as np
    top = float(alphas.max())
    if _off_row_underflows(_PI * top * top, top, z.y):  # as in _w_b_minus_origin: row n = 0 alone
        with np.errstate(over="ignore"):
            huge = np.isinf(_PI * alphas * alphas) & (_PI * alphas * z.y > 800.0)
        out = np.empty(alphas.shape)
        out[huge] = 2.0 * _row0_sum_batch("w_b", alphas[huge] / z.y, b, cfg) / alphas[huge]
        if not huge.all():
            out[~huge] = _w_b_minus_origin_batch(alphas[~huge], b, z, cfg)
        return out
    full = 4.0 * alphas < z.y  # the n = 0 term where 4 alpha < y
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alphas / z.y)
    (acc,), row0 = _row_sums_batch("w_b", alphas, b, c0, z, full, cfg)
    rows = z.y**1.5 / (_PI * alphas**2.5) * acc
    out = np.where(full, rows + b / alphas, 2.0 * row0 / alphas + rows)
    # as in _w_b_minus_origin: where 2 pi b or b/alpha overflows, W_0 - (b/alpha)(theta - 1);
    # |c0| is largest at the largest alpha, |b/alpha| at the smallest
    if b and (math.isinf(c0[alphas.argmax()]) or math.isinf(b / alphas.min())):
        over = np.isinf(c0) | np.isinf(b / alphas)
        a = alphas[over]
        out[over] = _w_b_minus_origin_batch(a, 0.0, z, cfg) - b / a * _theta_minus_one_batch(a, z, cfg)
    return out


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
    """d/dx of W_{1/(2 pi)}(alpha; z), by the theta_Y / theta_XY series."""
    _check_alpha(alpha)
    if _off_row_underflows(_PI * alpha * alpha, alpha, z.y):
        return 0.0  # x moves only the points off the row through the origin
    (acc,) = _row_sums("dx_w", alpha, 0.0, z, False, cfg)
    return _w_scale(z.y, alpha) * acc


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
    """d/dx of W_{1/(2 pi)} by the A_{n,m} sin(2 m n pi x) double sum."""
    _check_alpha(alpha)
    x, y = z.x, z.y
    nmax = cfg.last_index(y * min(alpha, 1.0 / alpha), 4, 1, "dx_w_double_sum")
    s = 0.0
    for n in range(1, nmax + 1):
        for m in range(1, nmax + 1):
            s += coupling_coefficient(n, m, alpha, y) * math.sin(2.0 * m * n * _PI * x)
    return -8.0 * _PI * alpha**-2.5 * y**1.5 * s


def dy_w(alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """d/dy of W_{1/(2 pi)}(alpha; z), valid for every z (not only on the
    vertical line x = 1/2 where the minimization uses it)."""
    _check_alpha(alpha)
    if _off_row_underflows(_dy_c4(alpha), alpha, z.y):
        return 2.0 * _row0_sum("dy_w", alpha / z.y, B_CRITICAL, cfg) / (z.y * z.y)
    s_low, s_high = _row_sums("dy_w", alpha, 0.0, z, True, cfg)
    return (1.5 * math.sqrt(z.y) * s_low + z.y**1.5 * s_high) / (_PI * alpha**2.5)


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

    The theta and W_b closed forms cost about the same at every y.  The direct
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
    import numpy as np
    return lambda q: _laplace_integral(
        p, lambda A: np.exp(-_PI * A * q), lambda A, b: (q - b / A) * np.exp(-_PI * A * q)
    )


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
            return [((1.0 / _PI - p.b) / (al * al), -1.0 / al**3, _PI / al)], []
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
    d2 = ((abs(z.x) + 1.0) ** 2 + y * y) / y
    tail = 0.0
    if not derivatives:
        for A, B, c in gauss:
            t = _moment_tails(c, r2, d2, 2 if B else 1)
            tail += abs(A) * t[0] + (abs(B) * t[1] if B else 0.0)
        for w, c in yukawa:  # 1/q <= 1/r2 bounds nothing at r2 = 0
            tail += abs(w) * _moment_tails(c, r2, d2, 1)[0] / r2 if r2 else math.inf
        return tail
    s, k1, k2 = 1.0 / r2, 1.0 / y + 2.0 / (y * y), 1.0 / (y * y)
    for A, B, c in gauss:
        A, B = abs(A), abs(B)
        t = _moment_tails(c, r2, d2)
        tail += (A * t[0] + (B + k1 * (B + c * A)) * t[1]
                 + (k1 * c * B + k2 * c * (c * A + 2.0 * B)) * t[2] + k2 * c * c * B * t[3])
    for w, c in yukawa:
        t = _moment_tails(c, r2, d2, 3)
        tail += abs(w) * s * (t[0] + k1 * (c + s) * t[1] + k2 * (c * c + 2.0 * c * s + 2.0 * s * s) * t[2])
    return tail


def _radius(gauss, yukawa, z: UpperHalfPoint, f: Callable[[float], float], origin: float = 0.0,
            derivatives: bool = False) -> tuple[float, int]:
    """(R^2, cap) for a half-plane walk of the terms of :func:`_terms`, f(q)
    their sum, over the lattice of z; RadiusTooLarge past cap, MAX_ENUMERATION
    for YukawaDiff terms, whose energy has no other route, else _DIRECT_CAP.
    R^2 starts at max(1/y, 36/c), c the slowest rate, and steps until the
    proven tail (:func:`_tail`, in its mode) is at most _DIRECT_TOL times a
    lower bound on sum |f|: origin (|f(0)| where the sum counts it) plus the
    pairs at the basis norms 1/y and |z|^2/y, where f is evaluated only once
    the first walk fits in cap.  That walk passes 2 R/sqrt(y) >= 2/y rows, so
    neither norm underflows to 0, as |z|^2/y does at x = 0, y = 1e-300."""
    cap = MAX_ENUMERATION if yukawa else _DIRECT_CAP
    c = min(map(itemgetter(-1), gauss + yukawa))
    iy = 1.0 / z.y
    r2 = max(iy, 36.0 / c)
    target = None
    while True:
        if not (estimate := enumeration_estimate(z, math.sqrt(r2))) <= cap:  # nan too
            raise RadiusTooLarge(f"a Newton walk at ({z.x:.6g}, {z.y:.6g}) would visit "  # direct sums catch it
                                 f"~{estimate:.3g} points, above {cap}")
        if target is None:
            target = _DIRECT_TOL * (origin + 2.0 * (abs(f(iy)) + abs(f(z.abs2() / z.y))))
        if (tail := _tail(gauss, yukawa, z, r2, derivatives)) <= target:
            return r2, cap
        # the tail falls as e^{-c r2} times a cubic: step past the exponential's share
        r2 += math.log(tail / target) / c + 1.0 / c if target > 0.0 else 0.25 * r2


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


def _direct_sum(p: Gaussian | PolyGaussian | YukawaDiff, z: UpperHalfPoint,
                origin: float) -> float | None:
    """The sum of f over the nonzero lattice points within :func:`_radius`,
    given |f(0)| as origin (0 where the value excludes it), added from the
    largest norm down; None where the walk would pass its point cap."""
    if abs(z.x) > 0.5:
        # z - k for the integer k nearest x is exact and spans the same
        # lattice; the walk then forms m x + n without the rounding of m k
        z = UpperHalfPoint(z.x - round(z.x), z.y)
    f = _pointwise(p)
    try:
        r2, _ = _radius(*_terms(p, False), z, f, origin)
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


def _laplace_integral(
    p: LaplaceWeighted,
    gauss: Callable[[np.ndarray], np.ndarray],
    poly: Callable[[np.ndarray, float], np.ndarray],
) -> float:
    """int_1^inf P(x) v(x) dx, where v(x) is gauss(alpha x) - b gauss(a alpha x)
    for family f and x poly(alpha x, b) for family g: the defining x-integral of
    p when gauss(A) and poly(A, b) give the Gaussian(A) and PolyGaussian(A, b)
    quantity at each element of an array A.

    Each quadrature call passes all its nodes through one call of gauss (at
    alpha x and a alpha x together) or poly.  The weight P is called once per
    node and checked to be nonnegative; where it overflows, the node's value
    is inf.
    """
    import numpy as np

    def integrand(x: np.ndarray) -> np.ndarray:
        w = np.array([_weight(p, t) for t in x.tolist()])
        # Nodes far past the walk's stop may overflow; integrate ignores them.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            A = x * p.alpha
            if p.family == "f":
                e = gauss(np.concatenate((A, p.a * A)))
                return w * (e[: len(A)] - p.b * e[len(A) :])
            return w * x * poly(A, p.b)

    return integrate(integrand, 1.0)


def _weight(p: LaplaceWeighted, x: float) -> float:
    try:
        w = p.weight(x)
    except OverflowError:
        return math.inf
    if w < 0.0:
        raise InvalidParameter(f"weight must be nonnegative, got P({x}) = {w}")
    return w


def laplace_energy(
    p: LaplaceWeighted, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """E for a LaplaceWeighted potential by integrating the origin-free
    closed-form energies over the transform variable (Fubini)."""
    if not isinstance(p, LaplaceWeighted):
        raise InvalidParameter("laplace_energy requires a LaplaceWeighted spec")
    return _laplace_integral(
        p,
        lambda A: _theta_minus_one_batch(A, z, cfg),
        lambda A, b: _w_b_minus_origin_batch(A, b, z, cfg),
    )


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
