"""Newton steps that locate a minimizer: a safeguarded line search on
x = 1/2, then a trust-region refinement in the plane, with the half-plane
walk that gives each of their iterates a value, gradient and Hessian.

The walk covers every family.  A LaplaceWeighted potential is a nonnegative
mixture of Gaussian families over its transform variable, which the walk
takes on one exp-sinh rule (:func:`walk_terms`).
"""

from __future__ import annotations

import math
from typing import Callable

from .energy import GaussianDiff, LaplaceWeighted, PolyGaussian, PotentialSpec, _radius, _terms, _weight
from .errors import RadiusTooLarge
from .moduli import RT3_2, UpperHalfPoint, _half_plane
from .quadrature import exp_sinh_rule

_PI = math.pi

#: Most walks one Newton refinement takes before it gives up unconverged, and
#: most steps one line search takes.
_MAX_WALKS = 100

#: A Newton step this short, relative to y, ends the refinement: it lands
#: within rounding of the critical point that the quadratic model predicts.
_STEP_TOL = 1e-10

#: The line search on x = 1/2 stops on a Newton step this short, relative to
#: y; the plane refinement that follows converges quadratically from there.
_LINE_TOL = 1e-6

#: A trial point whose predicted decrease is below this share of sum |f| is
#: judged by its gradient: its value difference is rounding.
_VALUE_NOISE = 16.0 * 2.0**-52


def walk_terms(p: PotentialSpec, y_max: float):
    """(gauss, yukawa): the dual terms of :func:`hexlat.energy._terms`, whose
    sum over the nonzero points is E_f up to a constant of p alone.

    A LaplaceWeighted f is int_1^inf P(x) f_x dx, with f_x = GaussianDiff(alpha
    x, a, b) for family f and x PolyGaussian(alpha x, b) for family g.  Its
    terms are those of f_x at the nodes x_j of the exp-sinh rule that
    :func:`hexlat.quadrature.integrate` picks for P(x) x^3 e^{-pi alpha x/y_max},
    which is nonnegative and decays no faster than the x-integrands of E,
    E_y and E_yy at y <= y_max, each scaled by its weight w_j P(x_j).  The walk is
    then exact for that discretized potential, so its tail bound holds
    unchanged; every walk given these terms steers on the same potential.
    """
    if not isinstance(p, LaplaceWeighted):
        return _terms(p, True)
    import numpy as np

    rate = _PI * p.alpha / y_max
    xs, ws = exp_sinh_rule(lambda x: np.array(
        [_weight(p, t) * math.exp(3.0 * math.log(t) - rate * t) for t in x.tolist()]), 1.0)
    gauss, f = [], p.family == "f"
    for x, w in zip(xs, ws):
        s = w * _weight(p, x) * (1.0 if f else x)
        terms, _ = _terms(GaussianDiff(p.alpha * x, p.a, p.b) if f else PolyGaussian(p.alpha * x, p.b), True)
        gauss += [(s * A, s * B, c) for A, B, c in terms]
    return gauss, []


def _walk_derivatives(gauss, yukawa) -> Callable[[float], tuple[float, float, float]]:
    """q -> (f(q), f'(q), f''(q)) for the terms of :func:`walk_terms`."""
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


def hessian_walk(p, z: UpperHalfPoint):
    """E_f at z, up to a constant that depends on p alone, with its gradient
    and Hessian in (x, y), from one walk of the half plane; or None where a
    sum is not finite.  p is a potential spec or its :func:`walk_terms`; a
    LaplaceWeighted spec takes the rule chosen for y_max = z.y.

    Returns (value, (E_x, E_y), (E_xx, E_xy, E_yy), sum |f|), the last a
    scale for the rounding of the value.  With u = m x + n and q = u^2/y +
    m^2 y, q_x = 2 m u/y, q_y = m^2 - u^2/y^2, q_xx = 2 m^2/y, q_xy = -2 m
    u/y^2 and q_yy = 2 u^2/y^3; f, f' and f'' are taken once per distinct
    norm and a pair +-P shares every term.  The radius and the point cap are
    :func:`hexlat.energy._radius`'s, for the proven tail of the value, the
    gradient and the Hessian; a walk past the cap raises RadiusTooLarge.
    """
    gauss, yukawa = p if isinstance(p, tuple) else walk_terms(p, z.y)
    derivs = _walk_derivatives(gauss, yukawa)
    r2, cap = _radius(gauss, yukawa, z, lambda q: derivs(q)[0], 0.0, True)
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


def _trust_step(g: tuple[float, float], h: tuple[float, float, float],
                delta: float) -> tuple[tuple[float, float], bool]:
    """The step p with |p| <= delta that minimizes g.p + p.H.p/2, found in the
    eigenbasis of H (Nocedal & Wright, Numerical Optimization, 2nd ed., 4.3):
    the Newton step where H is positive definite and the step fits, else
    -(H + mu)^{-1} g on the boundary, mu >= max(0, -lambda_min) by bisection,
    with a step along the lowest eigenvector where g has no share in it
    (the hard case, as at a saddle on x = 1/2).

    Returns (p, whether p is the Newton step)."""
    (gx, gy), (a, b, c) = g, h
    if b:
        mean, half = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        # the eigenvalue nearer 0 as det/other, which does not cancel
        big = mean + half if mean >= 0.0 else mean - half
        small = (a * c - b * b) / big
        lams = (small, big) if mean >= 0.0 else (big, small)
        t = 0.5 * math.atan2(2.0 * b, a - c)  # the direction of the larger eigenvalue
        vecs = ((-math.sin(t), math.cos(t)), (math.cos(t), math.sin(t)))
    else:  # keep the axes exact, as where the x terms fall below the walk's tail
        (l0, v0), (l1, v1) = sorted(((a, (1.0, 0.0)), (c, (0.0, 1.0))))
        lams, vecs = (l0, l1), (v0, v1)
    gv = [gx * v[0] + gy * v[1] for v in vecs]

    def at(mu):  # -(H + mu)^{-1} g by eigencomponent; 0 where g has none
        return [(-gi / (li + mu) if li + mu else math.inf) if gi else 0.0
                for gi, li in zip(gv, lams)]

    # positive definite, or semidefinite with no gradient along the null
    # direction: x far up the cusp, where every x term is below the walk's tail
    newton = lams[0] > 0.0 or (lams[0] == 0.0 and not gv[0] and lams[1] > 0.0)
    if newton and math.hypot(*at(0.0)) <= delta:
        ps = at(0.0)
    else:
        newton, lo = False, max(0.0, -lams[0])
        if lams[0] + lo == 0.0 and not gv[0] and math.hypot(*at(lo)) <= delta:
            ps = at(lo)  # the hard case: fill the region along the lowest eigenvector
            ps[0] = math.sqrt(delta * delta - ps[1] * ps[1])
        else:
            hi = lo + math.hypot(gx, gy) / delta
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                lo, hi = (mid, hi) if math.hypot(*at(mid)) > delta else (lo, mid)
            ps = at(hi)
    return (ps[0] * vecs[0][0] + ps[1] * vecs[1][0], ps[0] * vecs[0][1] + ps[1] * vecs[1][1]), newton


def _fold(x: float) -> float:
    """x mapped into [0, 1/2] by x -> -x and x -> x + 1."""
    return abs(x - round(x))


def line_search(p, hi: float):
    """The minimum of E_f on x = 1/2 over [lo, hi], lo = sqrt(3)/2, by
    safeguarded Newton steps on E_y (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 3), each iterate's E_y and E_yy from one walk
    (:func:`hessian_walk`) with p, a potential spec or its walk terms.

    E_y vanishes at lo by symmetry, so lo is the minimum where E_yy > 0
    there, and hi where E_y <= 0 there, under the unimodality that a bounded
    line search assumes.  Otherwise the root of E_y in (lo, hi) is found by
    Newton steps, with a geometric bisection of the bracket where a step
    leaves it or E_yy <= 0.  The search stops on a Newton step shorter than
    _LINE_TOL y, or a bracket narrower than that, without another walk.
    A walk past its point cap raises RadiusTooLarge.

    Returns (y, the walk at (1/2, y)), the walk None where a sum there is
    not finite."""
    lo = RT3_2
    cur = hessian_walk(p, UpperHalfPoint(0.5, lo))
    if cur is None or cur[2][2] > 0.0:
        return lo, cur
    top = hessian_walk(p, UpperHalfPoint(0.5, hi))
    if top is None:
        return lo, cur
    if top[1][1] <= 0.0:
        return hi, top
    a, b, y, cur = lo, hi, hi, top  # E_y <= 0 at a, > 0 at b
    for _ in range(_MAX_WALKS):
        gy, hyy = cur[1][1], cur[2][2]
        t = y - gy / hyy if hyy > 0.0 else math.nan
        if a < t < b:
            if abs(t - y) <= _LINE_TOL * y:
                break
        elif b - a <= _LINE_TOL * a:
            break
        else:
            t = math.sqrt(a * b)
        trial = hessian_walk(p, UpperHalfPoint(0.5, t))
        if trial is None:
            break
        y, cur = t, trial
        if cur[1][1] > 0.0:
            b = y
        else:
            a = y
    return y, cur


def newton(energy: Callable[[UpperHalfPoint], float], p, y0: float, first):
    """Trust-region Newton steps from (1/2, y0), each iterate's value,
    gradient and Hessian from one walk (:func:`hessian_walk`), the first
    handed over by :func:`line_search`, which ended at y0.  The region
    is at most y/2 wide, so y stays positive, and a step moves x by at most
    1/2; iterates stay in the strip 0 <= x <= 1/2 (:func:`_fold`), since
    every lattice energy is invariant under x -> -x and x -> x + 1.

    A trial point is taken on the ratio of the actual to the predicted
    decrease, or, where the predicted decrease is below the walk's rounding,
    on a smaller gradient.  The refinement converges on a Newton step (H
    positive semidefinite, inside the region) shorter than _STEP_TOL y,
    which it takes; it gives up after _MAX_WALKS walks, once the region
    shrinks below _STEP_TOL y or the model predicts no decrease, at a
    trial point whose walk would pass its point cap, or at once where the
    first walk is None.

    Returns (x, energy(x), walks, converged), with x the last iterate, its
    value from the public energy, and the first walk among the walks."""
    x, y, cur = 0.5, y0, first
    walks, converged, delta = 1, False, 0.5 * y
    while cur is not None and walks < _MAX_WALKS:
        f, g, h, fs = cur
        (px, py), is_newton = _trust_step(g, h, delta)
        if is_newton and math.hypot(px, py) <= _STEP_TOL * y:
            x, y, converged = _fold(x + px), y + py, True
            break
        px = max(-0.5, min(0.5, px))
        pred = -(g[0] * px + g[1] * py + 0.5 * (h[0] * px * px + 2.0 * h[1] * px * py + h[2] * py * py))
        if not pred > 0.0 or delta < _STEP_TOL * y:
            break
        walks += 1
        try:
            trial = hessian_walk(p, UpperHalfPoint(_fold(x + px), y + py))
        except RadiusTooLarge:  # far up the cusp, where the energy falls toward y = inf
            break
        if trial is None:
            break
        if pred <= _VALUE_NOISE * fs:
            rho = 1.0 if math.hypot(*trial[1]) < math.hypot(*g) else 0.0
        else:
            rho = (f - trial[0]) / pred
        length = math.hypot(px, py)
        if rho < 0.25:
            delta = 0.25 * length
        elif rho > 0.75 and length > 0.99 * delta:
            delta = 2.0 * delta
        if rho > 0.1:
            x, y, cur = _fold(x + px), y + py, trial
        delta = min(delta, 0.5 * y)
    return (x, y), energy(UpperHalfPoint(x, y)), walks, converged
