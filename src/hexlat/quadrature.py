"""Quadrature: 64-point Gauss-Legendre on [a, b], and the exp-sinh rule
(Takahasi & Mori, Publ. RIMS 9, 1974) on [a, inf)."""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Callable

from .errors import QuadratureDivergence

# numpy is imported inside the functions that use it, not at module load.
if TYPE_CHECKING:
    import numpy as np

_HALF_PI = 0.5 * math.pi


@cache
def _nodes():
    """The 64-point Gauss-Legendre nodes and weights on [-1, 1], computed on
    first use: importing numpy.polynomial adds ~2 MB of peak RSS."""
    import numpy as np
    return np.polynomial.legendre.leggauss(64)


def gauss_panel(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * t) for t, w in zip(*_nodes()))


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float) -> float:
    """int_a^inf f(x) dx: x = a + e^{(pi/2) sinh t} and the trapezoid rule in t.

    f takes an array of nodes and returns their values: it is called once for
    the unit steps t = -6..6 and once for each level's midpoints.  The
    unit-step sum walks out from t = 0 until a term is below 1e-17 of the
    summed magnitude on each side; the terms past that stop are ignored,
    finite or not.  Each level then halves the step, down to 2^-9, until two
    levels agree to 1e-12 of the integral or 1e-14 of that of |f|.  An f
    whose terms have not decayed by |t| = 6.5 (e^{(pi/2) sinh t} ~ 1e227), or
    that is not finite at a node the sum uses, raises QuadratureDivergence.
    """
    return _exp_sinh(f, a)[0]


def exp_sinh_rule(f: Callable[[np.ndarray], np.ndarray], a: float) -> tuple[list[float], list[float]]:
    """The nodes x_j and weights w_j of the level at which integrate(f, a)
    stops, so that sum_j w_j g(x_j) applies the rule chosen for f to another
    integrand g.  Raises as integrate does."""
    _, h, (t_lo, t_hi) = _exp_sinh(f, a)
    u, du = _exp_sinh_nodes([t_lo + h * k for k in range(round((t_hi - t_lo) / h) + 1)])
    return [a + v for v in u], [h * d for d in du]


def _exp_sinh_nodes(ts: list[float]) -> tuple[list[float], list[float]]:
    """u = e^{(pi/2) sinh t} and du/dt at each t, placed by math: numpy's exp
    and sinh may differ in the last bit."""
    u = [math.exp(_HALF_PI * math.sinh(t)) for t in ts]
    return u, [_HALF_PI * math.cosh(t) * v for t, v in zip(ts, u)]


@cache
def _level_nodes(t_lo: int, t_hi: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_exp_sinh_nodes` as read-only arrays at the points that the
    level of step h adds on [t_lo, t_hi]: every integer for h = 1, else the
    midpoints t_lo + h (2k + 1).  Every energy takes the same few levels, so
    each is computed once; the keys are bounded, as -6 <= t_lo, t_hi <= 6 and
    h is 1 or 2^-1..2^-9."""
    import numpy as np
    if h == 1.0:
        ts = list(range(t_lo, t_hi + 1))
    else:
        ts = [t_lo + h * (2 * k + 1) for k in range(round((t_hi - t_lo) / (2 * h)))]
    out = tuple(map(np.array, _exp_sinh_nodes(ts)))
    for v in out:
        v.flags.writeable = False
    return out


def _exp_sinh(f: Callable[[np.ndarray], np.ndarray], a: float) -> tuple[float, float, list[int]]:
    """The stops and levels of :func:`integrate`: (the integral, the step h
    and the ends [t_lo, t_hi] of the level that stopped)."""

    def terms(t_lo: int, t_hi: int, h: float) -> list[float]:
        u, du = _level_nodes(t_lo, t_hi, h)
        return (du * f(a + u)).tolist()

    def used(v: float) -> float:
        if not math.isfinite(v):
            raise QuadratureDivergence(f"integrand does not decay on [{a}, inf)")
        return v

    unit = terms(-6, 6, 1.0)  # unit[6 + k] is the term at t = k
    total = used(unit[6])
    s_abs = abs(total)
    ends = []
    for step in (-1, 1):
        for k in range(step, 7 * step, step):
            v = used(unit[6 + k])
            total += v
            s_abs += abs(v)
            if abs(v) <= 1e-17 * s_abs:
                break
        else:
            raise QuadratureDivergence(f"integrand does not decay on [{a}, inf)")
        ends.append(k)
    # The level sums grow as 1/h, to 2^9 times the unit-step sum.  Where that
    # could overflow they are carried scaled by a power of 2, which changes no
    # rounding above the subnormal range.
    scale = 2.0**-16 if s_abs > 2.0**1000 else 1.0
    (t_lo, t_hi), h, total, s_abs = ends, 1.0, total * scale, s_abs * scale
    estimate = total
    while h > 2.0**-9:
        h *= 0.5
        mids = [used(v) for v in terms(t_lo, t_hi, h)]
        if scale != 1.0:
            mids = [v * scale for v in mids]
        total += math.fsum(mids)
        s_abs += math.fsum(map(abs, mids))
        prev, estimate = estimate, h * total
        if abs(estimate - prev) <= max(1e-12 * abs(estimate), 1e-14 * h * s_abs):
            return estimate / scale, h, ends
    raise QuadratureDivergence(f"exp-sinh levels did not agree on [{a}, inf)")
