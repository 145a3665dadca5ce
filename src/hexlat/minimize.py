"""Minimizer location and hexagonal-vs-nonexistent phase classification.

Every entry point takes one path.  Existence is decided analytically: the
leading large-y coefficient of the energy along x = 1/2 changes sign at a
critical coupling of the potential family (:func:`hexlat.energy.b_crit`), and for
b > b_crit + BOUNDARY_MARGIN the energy is unbounded below and a numeric
divergence witness is returned.  Otherwise the minimizer is located by a
safeguarded Newton line search on E_y along x = 1/2 and a trust-region Newton
refinement in the plane, each iterate's value, gradient and Hessian from one
half-plane walk (:mod:`hexlat._newton`); a hexagonal cell takes one walk.
A LaplaceWeighted potential walks as a Gaussian mixture on one exp-sinh rule
in its transform variable, chosen once per cell.  The value of a located
minimizer comes from the public energy (w_b, theta_difference,
closed_form_energy); the walk only steers.  A refinement that does not
converge raises OptimizerDivergence, unless the hexagonal point ties or
beats its candidate.
"""

from __future__ import annotations

import math
from typing import Callable, Union

from . import _newton
from ._record import Record
from .config import DEFAULT_CONFIG, SeriesConfig
from .energy import (
    GaussianDiff,
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

#: The divergence witness's y grid on x = 1/2.  A located minimizer in its top
#: octave raises OptimizerDivergence: the run went toward y = inf.
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


def _locate_minimizer(
    energy: Callable[[UpperHalfPoint], float], p: PotentialSpec, advisory: bool
) -> Minimizer:
    """A line search along x = 1/2, then a refinement in the plane: Newton
    steps on E_y and trust-region Newton steps, the second starting from the
    first's last walk, every walk on the terms chosen once for the cell."""
    terms = _newton.walk_terms(p, GAMMA_Y_MAX)
    y, walk = _newton.line_search(terms, GAMMA_Y_MAX)
    xy, val, walks, converged = _newton.newton(energy, terms, y, walk)
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
            f"Newton did not converge from (0.5, {y}) in {walks} walks, ending at "
            f"({cand.x:.6g}, {cand.y:.6g})")
    elif cand.y > _WITNESS_YS[-2]:
        # Where the energy falls toward y = inf the Newton steps climb until a
        # walk would pass its point cap.  A walk's radius shrinks as alpha
        # grows, so at huge alpha that cap need not be met below the witness
        # grid's top.
        raise OptimizerDivergence(
            f"Newton ran from (0.5, {y}) to the y ceiling, y = {cand.y:.6g}")
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
