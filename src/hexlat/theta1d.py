"""One-dimensional Jacobi theta function, selected partials, and tail majorants.

theta(X; Y) = sum_{n in Z} exp(-pi n^2 X) exp(2 pi i n Y) is real for real
arguments (cosine form).  Below X = POISSON_SWITCH the Poisson resummation

    theta(X; Y) = X^{-1/2} sum_{n in Z} exp(-pi (n - Y)^2 / X)

converges faster and is used instead; both branches are valid on all of
X > 0, which the consistency checks exploit.

Only the four partial derivatives the two-dimensional expansions actually
need are implemented: theta_X, theta_Y, theta_XY and theta_XX.  The lattice
sums evaluate them at one X and many Y with :func:`theta_rows`; the Laplace
quadrature evaluates theta and theta_X over arrays with :func:`theta_array`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .config import DEFAULT_CONFIG, SeriesConfig
from .errors import NonPositiveX, ThetaOverflow, UnsupportedOrder

# numpy is imported inside the functions that use it, not at module load:
# a process that only calls the scalar row kernels never loads it.
if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
_PI = math.pi

#: theta(X; Y) and its partials use the Fourier series for X >= POISSON_SWITCH
#: and the Poisson comb below it.  X = 1 is the self-dual point, where the
#: two decay rates (X and 1/X) coincide, so each branch runs at decay >= 1
#: and never needs more than last_index(1, ...) terms.
POISSON_SWITCH = 1.0

#: One entry per derivative order (x_order, y_order) of theta, holding each
#: series term once.  Fourier: (c, trig), the term at n >= 1 being
#: c(n) e^{-pi n^2 X} trig(2 pi n Y); c pairs n with -n, so the n = 0 term is
#: c(0)/2.  Poisson: (prefactor, poly), the comb term at d = n - Y being
#: prefactor(X) poly(X, d) e^{-pi d^2 / X}, multiplied left to right.
#: Arithmetic operators only, so the float rows and the array kernel share them.
_TERMS = {
    (0, 0): (lambda n: 2.0, "cos", lambda X: X**-0.5, lambda X, d: 1.0),
    (1, 0): (
        lambda n: -_TWO_PI * n * n, "cos",
        lambda X: X**-2.5, lambda X, d: _PI * d * d - 0.5 * X,
    ),
    (0, 1): (lambda n: -4.0 * _PI * n, "sin", lambda X: _TWO_PI * X**-1.5, lambda X, d: d),
    (1, 1): (
        lambda n: 4.0 * _PI * _PI * n**3, "sin",
        lambda X: _PI * X**-3.5, lambda X, d: 2.0 * _PI * d**3 - 3.0 * X * d,
    ),
    (2, 0): (
        lambda n: 2.0 * _PI * _PI * n**4, "cos",
        lambda X: X**-4.5, lambda X, d: _PI * _PI * d**4 - 3.0 * _PI * X * d * d + 0.75 * X * X,
    ),
}

#: Derivative orders supported by jacobi_theta_partial, as (x_order, y_order).
SUPPORTED_ORDERS = tuple(order for order in _TERMS if order != (0, 0))


def _check_x(X: float) -> None:
    if not (X > 0.0 and math.isfinite(X)):
        raise NonPositiveX(f"theta requires finite X > 0, got {X}")


def _reduce_y(Y: float) -> float:
    # Period-1 reduction; done up front so equal arguments mod 1 produce
    # bit-identical truncated series.
    return Y - math.floor(Y)


def theta_rows(X: float, Ys, orders, cfg: SeriesConfig = DEFAULT_CONFIG) -> list[list[float]]:
    """theta(X; Y) and its partials at one X and every Y of Ys: out[k][i] is
    the value of order orders[k] (a key of the term table, (0, 0) for theta
    itself) at Ys[i].  X is checked first, then the orders (UnsupportedOrder
    for any other); jacobi_theta and jacobi_theta_partial are the one-Y case.

    Each value equals the call with Ys = [Ys[i]] bit for bit.  Per order, the
    term count, the X-power and the Fourier weights c(n) e^{-pi n^2 X} are
    computed once and shared by every Y.
    """
    _check_x(X)
    if not _TERMS.keys() >= set(orders):
        raise UnsupportedOrder(f"orders {orders} not all in {tuple(_TERMS)}")
    Ys = [_reduce_y(Y) for Y in Ys]
    rows = _poisson_rows if X < POISSON_SWITCH else _fourier_rows
    return [rows(X, Ys, xo, yo, cfg) for xo, yo in orders]


def _fourier_rows(X: float, Ys: list[float], xo: int, yo: int, cfg: SeriesConfig) -> list[float]:
    """The Fourier series of order (xo, yo) at each reduced Y of Ys.  Its n-th
    term is bounded by n^(2 xo + yo) e^{-pi X n^2}."""
    last = cfg.last_index(X, 2 * xo + yo, 1, "Fourier theta series")
    coef, trig_name = _TERMS[xo, yo][:2]
    trig = getattr(math, trig_name)
    terms = [(_TWO_PI * n, coef(n) * math.exp(-_PI * n * n * X)) for n in range(1, last + 1)]
    first = 0.5 * coef(0) * trig(0.0)  # the n = 0 term
    out = []
    for Y in Ys:
        acc = first
        for freq, c in terms:
            acc += c * trig(freq * Y)
        out.append(acc)
    return out


def _poisson_rows(X: float, Ys: list[float], xo: int, yo: int, cfg: SeriesConfig) -> list[float]:
    """The Poisson comb sum of order (xo, yo) at each reduced Y of Ys, in
    [0, 1).  The dominant comb points are n = 0 and n = 1, so each sum runs
    outward in pairs (1 + j, -j), both at distance >= j from Y."""
    last = cfg.last_index(1.0 / X, 2 * xo + yo, 0, "Poisson theta series")
    prefactor, poly = _TERMS[xo, yo][2:]
    try:
        pre = prefactor(X)
    except OverflowError:
        raise ThetaOverflow(f"theta's Poisson prefactor overflows at X = y/alpha = {X:.3g}") from None
    out = []
    for Y in Ys:
        acc = 0.0
        for j in range(last + 1):
            d1, d2 = 1 + j - Y, -j - Y
            acc += (pre * poly(X, d1) * math.exp(-_PI * d1 * d1 / X)
                    + pre * poly(X, d2) * math.exp(-_PI * d2 * d2 / X))
        out.append(acc)
    return out


def _comb(order, X, d, exp):
    """Poisson comb term of the given order at d = n - Y, on floats (math.exp)
    or arrays (np.exp)."""
    prefactor, poly = _TERMS[order][2:]
    return prefactor(X) * poly(X, d) * exp(-_PI * d * d / X)


def jacobi_theta(X: float, Y: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """theta(X; Y), real cosine form; X > 0, Y arbitrary (period 1)."""
    return theta_rows(X, [Y], [(0, 0)], cfg)[0][0]


def jacobi_theta_partial(
    X: float, Y: float, x_order: int, y_order: int, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """Partial derivative of theta(X; Y) of order (x_order, y_order).

    Supported orders are exactly (1,0), (0,1), (1,1) and (2,0); anything
    else raises UnsupportedOrder (after X is checked, as in theta_rows).
    """
    order = (x_order, y_order)
    if order not in SUPPORTED_ORDERS:
        _check_x(X)
        raise UnsupportedOrder(f"order {order} not in {SUPPORTED_ORDERS}")
    return theta_rows(X, [Y], [order], cfg)[0][0]


def theta_array(X: np.ndarray, Y: np.ndarray, x_order: int, cfg: SeriesConfig) -> np.ndarray:
    """theta(X; Y) (x_order 0) or theta_X (x_order 1) at every pair of the 1-d
    arrays X > 0 and Y: out[k, i] is the value at (X[i], Y[k]), by the branch
    :func:`jacobi_theta` takes at X[i].

    Each branch sums as many terms as last_index gives at its smallest decay,
    so a pair may add terms past its own cut; they lie below rel_tol.
    """
    import numpy as np
    Y = (Y - np.floor(Y))[:, None]
    out = np.empty((len(Y), len(X)))
    low = X < POISSON_SWITCH
    for mask, series in ((low, _poisson_array), (~low, _fourier_array)):
        if mask.any():
            out[:, mask] = series(X[mask], Y, x_order, 0, cfg)
    return out


def _fourier_array(X: np.ndarray, Y: np.ndarray, xo: int, yo: int, cfg: SeriesConfig) -> np.ndarray:
    import numpy as np
    coef, trig_name = _TERMS[xo, yo][:2]
    n = np.arange(cfg.last_index(X.min(), 2 * xo + yo, 1, "Fourier theta series") + 1.0)[:, None, None]
    terms = coef(n) * np.exp(-_PI * n * n * X) * getattr(np, trig_name)(_TWO_PI * n * Y)
    terms[0] *= 0.5  # the n = 0 term, so the rows add up in the order of _fourier_rows
    return terms.sum(axis=0)


def _poisson_array(X: np.ndarray, Y: np.ndarray, xo: int, yo: int, cfg: SeriesConfig) -> np.ndarray:
    import numpy as np
    j = np.arange(cfg.last_index(1.0 / X.max(), 2 * xo + yo, 0, "Poisson theta series") + 1.0)[:, None, None]
    return (_comb((xo, yo), X, 1.0 + j - Y, np.exp) + _comb((xo, yo), X, -j - Y, np.exp)).sum(axis=0)


def _power_tail(X, power: int, cfg: SeriesConfig, name: str):
    """sum_{n>=2} n^power exp(-pi (n^2 - 1) X) at a float X or at each X of an array,
    to last_index's term count at the smallest X (as theta_array does)."""
    import numpy as np
    X = np.asarray(X, dtype=float)
    _check_x(X.min())
    _check_x(X.max())
    n = np.arange(2.0, cfg.last_index(X.min(), power, 2, name) + 1.0)
    out = (n**power * np.exp(np.multiply.outer(X, -_PI * (n * n - 1.0)))).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def mu(X, cfg: SeriesConfig = DEFAULT_CONFIG):
    """mu(X) = sum_{n>=2} n^2 exp(-pi (n^2 - 1) X); decreasing in X.  X may be an array."""
    return _power_tail(X, 2, cfg, "mu")


def nu(X, cfg: SeriesConfig = DEFAULT_CONFIG):
    """nu(X) = sum_{n>=2} n^4 exp(-pi (n^2 - 1) X); decreasing in X.  X may be an array."""
    return _power_tail(X, 4, cfg, "nu")


#: Validity thresholds of the two envelope estimates for -theta_Y / sin(2 pi Y).
ENVELOPE_LARGE_X = 0.2           # large-X envelope needs X > 1/5
ENVELOPE_SMALL_X = _PI / (_PI + 2.0)  # small-X envelope needs X below this


def _large_x_envelope(X: float, cfg: SeriesConfig) -> tuple[float, float]:
    """4 pi e^{-pi X} (1 -+ mu(X)), valid for X > 1/5."""
    m = mu(X, cfg)
    base = 4.0 * _PI * math.exp(-_PI * X)
    return base * (1.0 - m), base * (1.0 + m)


def _small_x_envelope(X: float) -> tuple[float, float]:
    """(pi e^{-pi/4X} X^{-3/2}, X^{-3/2}), valid for X < pi/(pi+2)."""
    return _PI * math.exp(-_PI / (4.0 * X)) * X**-1.5, X**-1.5


def theta_envelope(X: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Envelope (lower, upper) with lower*sin <= -theta_Y(X;Y) <= upper*sin.

    Here sin = sin(2 pi Y) > 0; for sin < 0 the inequalities flip.  Two
    estimates exist: 4 pi e^{-pi X} (1 -+ mu(X)) for X > 1/5 and
    (pi e^{-pi/4X} X^{-3/2}, X^{-3/2}) for X < pi/(pi+2).  On the overlap
    both hold simultaneously, so the pointwise tighter pair is returned.
    """
    _check_x(X)
    pairs = []
    if X > ENVELOPE_LARGE_X:
        pairs.append(_large_x_envelope(X, cfg))
    if X < ENVELOPE_SMALL_X:
        pairs.append(_small_x_envelope(X))
    return max(lo for lo, _ in pairs), min(hi for _, hi in pairs)
