"""Quadrature: 64-point Gauss-Legendre on [a, b], and the exp-sinh rule
(Takahasi & Mori, Publ. RIMS 9, 1974) on [a, inf)."""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

from .errors import QuadratureDivergence

#: Computed on first use: importing numpy.polynomial adds ~2 MB of peak RSS.
_nodes = cache(lambda: np.polynomial.legendre.leggauss(64))
_HALF_PI = 0.5 * math.pi


def gauss_panel(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * t) for t, w in zip(*_nodes()))


def integrate(f: Callable[[float], float], a: float) -> float:
    """int_a^inf f(x) dx: x = a + e^{(pi/2) sinh t} and the trapezoid rule in t.

    The unit-step sum walks out from t = 0 until a term is below 1e-17 of the
    summed magnitude on each side; each level then halves the step, down to
    2^-9, until two levels agree to 1e-12 of the integral or 1e-14 of that of
    |f|.  An f whose terms have not decayed by |t| = 6.5 (e^{(pi/2) sinh t} ~
    1e227), or that overflows, raises QuadratureDivergence.
    """

    def term(t: float) -> float:
        u = math.exp(_HALF_PI * math.sinh(t))
        try:
            v = _HALF_PI * math.cosh(t) * u * f(a + u)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise QuadratureDivergence(f"integrand does not decay on [{a}, inf)")
        return v

    total = term(0.0)
    s_abs = abs(total)
    ends = []
    for step in (-1.0, 1.0):
        t = 0.0
        while abs(t + step) <= 6.5:
            t += step
            v = term(t)
            total += v
            s_abs += abs(v)
            if abs(v) <= 1e-17 * s_abs:
                break
        else:
            raise QuadratureDivergence(f"integrand does not decay on [{a}, inf)")
        ends.append(t)
    (t_lo, t_hi), h, estimate = ends, 1.0, total
    while h > 2.0**-9:
        h *= 0.5
        mids = [term(t_lo + h * (2 * k + 1)) for k in range(round((t_hi - t_lo) / (2 * h)))]
        total += math.fsum(mids)
        s_abs += math.fsum(map(abs, mids))
        prev, estimate = estimate, h * total
        if abs(estimate - prev) <= max(1e-12 * abs(estimate), 1e-14 * h * s_abs):
            return estimate
    raise QuadratureDivergence(f"exp-sinh levels did not agree on [{a}, inf)")
