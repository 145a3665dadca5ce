"""Minimizer location and hexagonal-vs-nonexistent phase classification.

Every entry point takes one path.  Existence is decided analytically: the
leading large-y coefficient of the energy along x = 1/2 changes sign at a
critical coupling of the potential family (:func:`hexlat.energy.b_crit`), and for
b > b_crit + BOUNDARY_MARGIN the energy is unbounded below and a numeric
divergence witness is returned.  Otherwise the minimizer is located by a
safeguarded Newton line search on E_y along x = 1/2 and a trust-region Newton
refinement in the plane, each iterate's value, gradient and Hessian from one
half-plane walk (:mod:`hexlat._newton`); a hexagonal cell takes one walk.
LaplaceWeighted has no walk and is located by pure-Python ports of scipy's
bounded Brent search and Nelder-Mead, which repeat their iterates bit for bit.
The value of a located minimizer comes from the public energy (w_b,
theta_difference, closed_form_energy); the walk only steers.  A refinement
that does not converge raises OptimizerDivergence, unless the hexagonal point
ties or beats its candidate.
"""

from __future__ import annotations

import math
from typing import Callable, Union

from . import _newton
from ._record import Record
from .config import DEFAULT_CONFIG, SeriesConfig
from .energy import (
    GaussianDiff,
    LaplaceWeighted,
    PolyGaussian,
    PotentialSpec,
    b_crit,
    closed_form_energy,
    theta_difference,
    w_b,
    witness_y_max,
)
from .errors import InvalidParameter, OptimizerDivergence
from .moduli import RT3_2, UpperHalfPoint, hexagonal_point, reduce_to_fundamental

#: Margin for the boundary classification: |b - b_critical| below this is
#: treated as the inclusive "hexagonal" side of the phase boundary.
BOUNDARY_MARGIN = 1e-12

#: Line-search cap in y; beyond this double-precision energies are tail-dominated.
GAMMA_Y_MAX = 50.0

#: Largest distance_to_hex at which phase_scan labels a minimizer "hexagonal".
HEX_TOL = 1e-6

#: The divergence witness's y grid on x = 1/2.  Its top also bounds the y that
#: the Nelder-Mead refinement may try, so that a run toward y = inf ends in
#: OptimizerDivergence, not at X = y/alpha = inf.
_WITNESS_YS = tuple(RT3_2 * 2.0**k for k in range(64))


class Minimizer(Record):
    """A located minimizer over the moduli space."""

    __slots__ = ("z_star", "value", "distance_to_hex", "advisory")

    def __init__(self, z_star: UpperHalfPoint, value: float, distance_to_hex: float,
                 advisory: bool = False) -> None:
        object.__setattr__(self, "z_star", z_star)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "distance_to_hex", distance_to_hex)
        object.__setattr__(self, "advisory", advisory)  # alpha < 1, outside the theorems' hypotheses


class NoMinimizer(Record):
    """Nonexistence evidence: strictly decreasing energies along x = 1/2."""

    __slots__ = ("witness_y", "witness_values", "asymptotic_slope_sign")

    def __init__(self, witness_y: tuple[float, ...], witness_values: tuple[float, ...],
                 asymptotic_slope_sign: int) -> None:
        if list(witness_y) != sorted(witness_y):
            raise InvalidParameter("witness_y must be increasing")
        if any(b >= a for a, b in zip(witness_values, witness_values[1:])):
            raise InvalidParameter("witness_values must be strictly decreasing")
        object.__setattr__(self, "witness_y", witness_y)
        object.__setattr__(self, "witness_values", witness_values)
        object.__setattr__(self, "asymptotic_slope_sign", asymptotic_slope_sign)


MinimizeOutcome = Union[Minimizer, NoMinimizer]


def _divergence_witness(
    energy: Callable[[UpperHalfPoint], float], y_max: float, min_points: int
) -> NoMinimizer:
    """Energies at y = sqrt(3)/2 * 2^k <= y_max on x = 1/2, k < 64, restricted
    to their strictly decreasing stretch and extended until the last value
    sits below the value at the hexagonal point.

    The sequence from k = 0 first rises for moderate alpha (the critical part
    of the energy still grows toward its supremum before the negative sqrt(y)
    term takes over), so the witness starts at the maximum of its first 25 points.
    """
    hex_value = energy(hexagonal_point())
    ys = [y for y in _WITNESS_YS if y <= y_max]
    vals = [energy(UpperHalfPoint(0.5, y)) for y in ys[:25]]
    start = max(range(len(vals)), key=lambda i: vals[i])
    wy, wv = [ys[start]], [vals[start]]
    for k in range(start + 1, len(ys)):
        v = vals[k] if k < len(vals) else energy(UpperHalfPoint(0.5, ys[k]))
        if v < wv[-1]:
            wy.append(ys[k])
            wv.append(v)
        if len(wy) >= min_points and wv[-1] < hex_value:
            break
    return NoMinimizer(tuple(wy), tuple(wv), asymptotic_slope_sign=-1)


def _brent_bounded(f: Callable[[float], float], a: float, b: float) -> float:
    """Brent's minimization on [a, b], step for step scipy's
    minimize_scalar(method="bounded") with xatol 1e-10 and 500 evaluations."""
    sqrt_eps, golden = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    fulc = nfc = xf = a + golden * (b - a)
    ffulc = fnfc = fx = f(xf)
    nfev, rat, e, xm, tol1 = 1, 0.0, 0.0, 0.5 * (a + b), sqrt_eps * abs(xf) + 1e-10 / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a) and nfev < 500:
        parabolic = False
        if abs(e) > tol1:
            r, q = (xf - nfc) * (fx - ffulc), (xf - fulc) * (fx - fnfc)
            p, q = (xf - fulc) * q - (xf - nfc) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabolic:
            rat = p / q
            if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                rat = tol1 if xm >= xf else -tol1
        else:
            e = a - xf if xf >= xm else b - xf
            rat = golden * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu, nfev = f(x), nfev + 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + 1e-10 / 3.0
    return float(xf)


def _nelder_mead(f: Callable[[tuple[float, float]], float], x0: tuple[float, float]):
    """Nelder-Mead from x0 (no zero coordinate), step for step scipy's non-adaptive
    minimize(method="Nelder-Mead") with xatol 1e-9, fatol 1e-15 and 4000 evaluations;
    like scipy, it abandons an iteration whose next evaluation would be the 4001st.
    It refines LaplaceWeighted minimizers only, whose energy has no walk; fatol
    is absolute, so it is met only where the three values agree to 1e-15.
    Returns (x, f(x), nfev, converged)."""
    sim = [x0, (1.05 * x0[0], x0[1]), (x0[0], 1.05 * x0[1])]
    fs, nfev, maxfev = [f(p) for p in sim], 3, 4000
    towards = lambda s, t: tuple(s * ((u + v) / 2) + t * w for u, v, w in zip(*sim))
    while True:
        # stable with nan last, as np.argsort orders three values; scipy returns nan if any is
        sim, fs = map(list, zip(*sorted(zip(sim, fs), key=lambda t: (t[1] != t[1], t[1]))))
        if nfev == maxfev or (all(abs(c - c0) <= 1e-9 for p in sim[1:] for c, c0 in zip(p, sim[0]))
                              and all(abs(fs[0] - v) <= 1e-15 for v in fs[1:])):
            return sim[0], (fs[0] if fs[2] == fs[2] else math.nan), nfev, nfev < maxfev
        fr, nfev = f(xr := towards(2, -1)), nfev + 1
        if fr < fs[0]:
            if nfev < maxfev:
                fe, nfev = f(xe := towards(3, -2)), nfev + 1
                sim[2], fs[2] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[1]:
            sim[2], fs[2] = xr, fr
        elif nfev < maxfev:
            outside = fr < fs[2]
            fc, nfev = f(xc := towards(1.5, -0.5) if outside else towards(0.5, 0.5)), nfev + 1
            if (fc <= fr) if outside else (fc < fs[2]):
                sim[2], fs[2] = xc, fc
            else:
                for j in (1, 2):
                    sim[j] = tuple(u + 0.5 * (v - u) for u, v in zip(sim[0], sim[j]))
                    if nfev == maxfev:
                        break
                    fs[j], nfev = f(sim[j]), nfev + 1


def _locate_minimizer(
    energy: Callable[[UpperHalfPoint], float], p: PotentialSpec, advisory: bool
) -> Minimizer:
    """A line search along x = 1/2, then a refinement in the plane: Newton
    steps on E_y and trust-region Newton steps, the second starting from the
    first's last walk; Brent's bounded search and Nelder-Mead for
    LaplaceWeighted, which has no walk."""
    if isinstance(p, LaplaceWeighted):
        method, unit = "Nelder-Mead", "evaluations"
        y = _brent_bounded(lambda y: energy(UpperHalfPoint(0.5, y)), RT3_2, GAMMA_Y_MAX)
        xy, val, n, converged = _nelder_mead(
            lambda v: math.inf if v[1] <= 1e-6 or v[1] > _WITNESS_YS[-1] else energy(UpperHalfPoint(*v)),
            (0.5, y))
    else:
        method, unit = "Newton", "walks"
        y, walk = _newton.line_search(p, GAMMA_Y_MAX)
        xy, val, n, converged = _newton.newton(energy, p, y, walk)
    cand, val = UpperHalfPoint(*xy), float(val)
    # The theorems make the hexagonal point a minimizer whenever one exists;
    # prefer it on numerical ties (covers the exactly-flat case alpha = 1,
    # b = 1/(2 pi), where W vanishes identically).
    hex_pt = hexagonal_point()
    hex_val = energy(hex_pt)
    if hex_val <= val + 1e-12:
        cand, val = hex_pt, hex_val
    elif not converged:
        raise OptimizerDivergence(
            f"{method} did not converge from (0.5, {y}) in {n} {unit}, ending at "
            f"({cand.x:.6g}, {cand.y:.6g})")
    elif cand.y > _WITNESS_YS[-2]:
        # Where the energy falls toward y = inf the simplex can collapse
        # against the y ceiling and count as converged there; Newton steps
        # stop far below it, where one walk would pass its point cap.
        raise OptimizerDivergence(
            f"{method} ran from (0.5, {y}) to the y ceiling, y = {cand.y:.6g}")
    reduced, _ = reduce_to_fundamental(cand)
    dist = math.hypot(reduced.x - 0.5, reduced.y - RT3_2)
    return Minimizer(z_star=reduced, value=val, distance_to_hex=dist, advisory=advisory)


def _classify(
    p: PotentialSpec, energy: Callable[[UpperHalfPoint], float], min_points: int = 13
) -> MinimizeOutcome:
    """The one existence rule and locate path behind every minimize_* function."""
    if getattr(p, "b", 0.0) > b_crit(p) + BOUNDARY_MARGIN:
        return _divergence_witness(energy, witness_y_max(p), min_points)
    return _locate_minimizer(energy, p, advisory=p.alpha < 1.0 - 1e-12)


def minimize_w(
    alpha: float, b: float, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Classify and minimize W_b(alpha; .) over the upper half-plane.

    For b > 1/(2 pi) the energy is unbounded below along x = 1/2 and a
    NoMinimizer witness is returned; otherwise the located minimizer.
    Results for alpha < 1 are advisory (outside the theorem hypotheses).
    """
    return _classify(PolyGaussian(alpha, b), lambda z: w_b(alpha, b, z, cfg))


def minimize_theta_difference(
    alpha: float, a: float, b: float, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Classify and minimize theta(alpha; .) - b theta(a alpha; .), a > 1.

    Nonexistence for b > sqrt(a): the large-y behaviour is
    sqrt(y/(a alpha)) (sqrt(a) - b + o(1)).
    """
    energy = lambda z: theta_difference(alpha, a, b, z, cfg)
    return _classify(GaussianDiff(alpha, a, b), energy)


def minimize_generic(
    p: PotentialSpec, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Classify and minimize the origin-free energy of any potential family
    by the rule of minimize_w with the family's :func:`hexlat.energy.b_crit`."""
    return _classify(p, lambda z: closed_form_energy(p, z, cfg), min_points=6)


class WProblem(Record):
    """Phase-scan target: the polynomial-Gaussian energy W_b."""

    __slots__ = ()


class ThetaDiffProblem(Record):
    """Phase-scan target: theta(alpha;.) - b theta(a alpha;.)."""

    __slots__ = ("a",)

    def __init__(self, a: float) -> None:
        if not a > 1.0:
            raise InvalidParameter(f"theta-difference problem requires a > 1, got {a}")
        object.__setattr__(self, "a", a)


class PhaseCell(Record):
    """One (alpha, b) cell: classification is "hexagonal", "minimizer" or "no-minimizer"."""

    __slots__ = ("alpha", "b", "classification", "distance_to_hex")

    def __init__(self, alpha: float, b: float, classification: str, distance_to_hex: float | None) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "distance_to_hex", distance_to_hex)


class PhaseScanResult(Record):
    __slots__ = ("rows", "boundaries")

    def __init__(self, rows: tuple[PhaseCell, ...], boundaries: dict[float, float | None]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "boundaries", boundaries)  # per alpha: largest hexagonal b


def phase_scan(
    alpha_grid: list[float],
    b_grid: list[float],
    problem: Union[WProblem, ThetaDiffProblem],
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> PhaseScanResult:
    """Classify every (alpha, b) cell; cells are independent of one another.
    A minimizer farther than HEX_TOL from the hexagonal point is a "minimizer".
    A cell that raises stops the whole scan: the error propagates, and no rows
    are returned (the CLI exits 3 and prints none)."""
    if not alpha_grid or not b_grid:
        raise InvalidParameter("phase_scan needs nonempty alpha and b grids")
    rows: list[PhaseCell] = []
    boundaries: dict[float, float | None] = {}
    for alpha in alpha_grid:
        best_b: float | None = None
        for b in b_grid:
            if isinstance(problem, WProblem):
                outcome = minimize_w(alpha, b, cfg)
            else:
                outcome = minimize_theta_difference(alpha, problem.a, b, cfg)
            if isinstance(outcome, NoMinimizer):
                rows.append(PhaseCell(alpha, b, "no-minimizer", None))
                continue
            hexagonal = outcome.distance_to_hex <= HEX_TOL
            rows.append(PhaseCell(alpha, b, "hexagonal" if hexagonal else "minimizer",
                                  outcome.distance_to_hex))
            if hexagonal and (best_b is None or b > best_b):
                best_b = b
        boundaries[alpha] = best_b
    return PhaseScanResult(tuple(rows), boundaries)
