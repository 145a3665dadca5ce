"""Minimizer location and hexagonal-vs-nonexistent phase classification.

Every entry point takes one path.  Existence is decided analytically: the
leading large-y coefficient of the energy along x = 1/2 changes sign at a
critical coupling of the potential family (:func:`hexlat.energy.b_crit`), and for
b > b_crit + BOUNDARY_MARGIN the energy is unbounded below and a numeric
divergence witness is returned.  Otherwise the minimizer is located by a
bounded line search along x = 1/2 and Nelder-Mead refinement in the plane.
A refinement that does not converge raises OptimizerDivergence, unless the
hexagonal point ties or beats its candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from scipy.optimize import minimize as nelder_mead
from scipy.optimize import minimize_scalar

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


@dataclass(frozen=True)
class Minimizer:
    """A located minimizer over the moduli space."""

    z_star: UpperHalfPoint
    value: float
    distance_to_hex: float
    advisory: bool = False  # set when alpha < 1, outside the theorems' hypotheses


@dataclass(frozen=True)
class NoMinimizer:
    """Nonexistence evidence: strictly decreasing energies along x = 1/2."""

    witness_y: tuple[float, ...]
    witness_values: tuple[float, ...]
    asymptotic_slope_sign: int

    def __post_init__(self) -> None:
        if list(self.witness_y) != sorted(self.witness_y):
            raise InvalidParameter("witness_y must be increasing")
        if any(b >= a for a, b in zip(self.witness_values, self.witness_values[1:])):
            raise InvalidParameter("witness_values must be strictly decreasing")


MinimizeOutcome = Union[Minimizer, NoMinimizer]


def _divergence_witness(
    energy: Callable[[UpperHalfPoint], float], y_max: float, min_points: int
) -> NoMinimizer:
    """Energies at y = sqrt(3)/2 * 2^k <= y_max on x = 1/2, k < 64, restricted
    to their strictly decreasing stretch and extended until the last value
    sits below the value at the hexagonal point.

    The sequence from k = 0 first rises for moderate alpha (the critical part
    of the energy still grows toward its supremum before the negative sqrt(y)
    term takes over), so the witness starts at the maximum of its first 25
    points.
    """
    hex_value = energy(hexagonal_point())
    ys = [y for y in (RT3_2 * 2.0**k for k in range(64)) if y <= y_max]
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
    energy: Callable[[UpperHalfPoint], float], advisory: bool
) -> Minimizer:
    """Bounded line search along x = 1/2, then Nelder-Mead in the plane."""
    line = minimize_scalar(
        lambda y: energy(UpperHalfPoint(0.5, y)),
        bounds=(RT3_2, GAMMA_Y_MAX),
        method="bounded",
        options={"xatol": 1e-10},
    )
    seed = UpperHalfPoint(0.5, float(line.x))

    def objective(v) -> float:
        if v[1] <= 1e-6:
            return math.inf
        return energy(UpperHalfPoint(float(v[0]), float(v[1])))

    res = nelder_mead(
        objective,
        x0=[seed.x, seed.y],
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 4000, "maxfev": 4000},
    )
    cand = UpperHalfPoint(float(res.x[0]), float(res.x[1]))
    val = float(res.fun)
    # The theorems make the hexagonal point a minimizer whenever one exists;
    # prefer it on numerical ties (covers the exactly-flat case alpha = 1,
    # b = 1/(2 pi), where W vanishes identically).
    hex_pt = hexagonal_point()
    hex_val = energy(hex_pt)
    if hex_val <= val + 1e-12:
        cand, val = hex_pt, hex_val
    elif not res.success:
        raise OptimizerDivergence(
            f"Nelder-Mead did not converge from {seed} after {res.nfev} evaluations: {res.message}"
        )
    reduced, _ = reduce_to_fundamental(cand)
    dist = math.hypot(reduced.x - 0.5, reduced.y - RT3_2)
    return Minimizer(z_star=reduced, value=val, distance_to_hex=dist, advisory=advisory)


def _classify(
    p: PotentialSpec, energy: Callable[[UpperHalfPoint], float], min_points: int = 13
) -> MinimizeOutcome:
    """The one existence rule and locate path behind every minimize_* function."""
    if getattr(p, "b", 0.0) > b_crit(p) + BOUNDARY_MARGIN:
        return _divergence_witness(energy, witness_y_max(p), min_points)
    return _locate_minimizer(energy, advisory=p.alpha < 1.0 - 1e-12)


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


@dataclass(frozen=True)
class WProblem:
    """Phase-scan target: the polynomial-Gaussian energy W_b."""


@dataclass(frozen=True)
class ThetaDiffProblem:
    """Phase-scan target: theta(alpha;.) - b theta(a alpha;.)."""

    a: float

    def __post_init__(self) -> None:
        if not self.a > 1.0:
            raise InvalidParameter(f"theta-difference problem requires a > 1, got {self.a}")


@dataclass(frozen=True)
class PhaseCell:
    alpha: float
    b: float
    classification: str  # "hexagonal" | "minimizer" | "no-minimizer"
    distance_to_hex: float | None


@dataclass(frozen=True)
class PhaseScanResult:
    rows: tuple[PhaseCell, ...]
    boundaries: dict[float, float | None]  # per alpha: largest hexagonal b


def phase_scan(
    alpha_grid: list[float],
    b_grid: list[float],
    problem: Union[WProblem, ThetaDiffProblem],
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> PhaseScanResult:
    """Classify every (alpha, b) cell; cells are independent of one another.
    A minimizer farther than HEX_TOL from the hexagonal point is a "minimizer"."""
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
