"""Minimizer location and hexagonal-vs-nonexistent phase classification.

Existence is decided analytically from the leading large-y coefficient of
the energy along the vertical line x = 1/2 (sign test with 1e-12 margin):
W_b behaves like alpha^{-3/2} sqrt(y) (1/(2 pi) - b) and the theta
difference like sqrt(y/(a alpha)) (sqrt(a) - b).  When the coefficient is
negative the energy is unbounded below and a numeric divergence witness is
attached; otherwise the minimizer is located by a bounded line search along
x = 1/2 followed by Nelder-Mead refinement in the plane.  A refinement
that does not converge raises OptimizerDivergence, unless the hexagonal
point ties or beats its candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from scipy.optimize import minimize as nelder_mead
from scipy.optimize import minimize_scalar

from .config import DEFAULT_CONFIG, SeriesConfig
from .energy import (
    B_CRITICAL,
    PotentialSpec,
    closed_form_energy,
    theta_difference,
    w_b,
)
from .errors import InvalidParameter, NonPositiveAlpha, OptimizerDivergence
from .moduli import RT3_2, UpperHalfPoint, hexagonal_point, reduce_to_fundamental

#: Margin for the boundary classification: |b - b_critical| below this is
#: treated as the inclusive "hexagonal" side of the phase boundary.
BOUNDARY_MARGIN = 1e-12

#: Line-search cap in y; beyond this double-precision energies are tail-dominated.
GAMMA_Y_MAX = 50.0


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
    gamma_energy: Callable[[float], float], hex_value: float, min_points: int = 13
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Doubling sequence y = sqrt(3)/2 * 2^k restricted to its strictly
    decreasing stretch, extended until the last value sits below the value at
    the hexagonal point.

    The full sequence from k = 0 first rises for moderate alpha (the critical
    part of the energy still grows toward its supremum before the negative
    sqrt(y) term takes over), so the witness starts at the running maximum.
    """
    ys = [RT3_2 * 2.0**k for k in range(25)]
    vals = [gamma_energy(y) for y in ys]
    start = max(range(len(vals)), key=lambda i: vals[i])
    wy = [ys[start]]
    wv = [vals[start]]
    y = ys[start]
    k = start + 1
    while (len(wy) < min_points or wv[-1] >= hex_value) and k < 64:
        y = RT3_2 * 2.0**k
        v = gamma_energy(y) if k >= len(vals) else vals[k]
        if v < wv[-1]:
            wy.append(y)
            wv.append(v)
        k += 1
    return tuple(wy), tuple(wv)


def _refine_2d(
    energy: Callable[[UpperHalfPoint], float],
    seed: UpperHalfPoint,
    advisory: bool,
) -> Minimizer:
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


def _locate_minimizer(
    energy: Callable[[UpperHalfPoint], float], advisory: bool
) -> Minimizer:
    line = minimize_scalar(
        lambda y: energy(UpperHalfPoint(0.5, y)),
        bounds=(RT3_2, GAMMA_Y_MAX),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return _refine_2d(energy, UpperHalfPoint(0.5, float(line.x)), advisory)


def _check_alpha_b(alpha: float, b: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    if not math.isfinite(b):
        raise InvalidParameter(f"b must be finite, got {b}")


def minimize_w(
    alpha: float, b: float, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Classify and minimize W_b(alpha; .) over the upper half-plane.

    For b > 1/(2 pi) the energy is unbounded below along x = 1/2 and a
    NoMinimizer witness is returned; otherwise the located minimizer.
    Results for alpha < 1 are advisory (outside the theorem hypotheses).
    """
    _check_alpha_b(alpha, b)
    if b > B_CRITICAL + BOUNDARY_MARGIN:
        def on_gamma(y: float) -> float:
            return w_b(alpha, b, UpperHalfPoint(0.5, y), cfg)

        wy, wv = _divergence_witness(on_gamma, on_gamma(RT3_2))
        return NoMinimizer(wy, wv, asymptotic_slope_sign=-1)
    return _locate_minimizer(
        lambda z: w_b(alpha, b, z, cfg), advisory=alpha < 1.0 - 1e-12
    )


def minimize_theta_difference(
    alpha: float, a: float, b: float, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Classify and minimize theta(alpha; .) - b theta(a alpha; .), a > 1.

    Nonexistence for b > sqrt(a): the large-y behaviour is
    sqrt(y/(a alpha)) (sqrt(a) - b + o(1)).
    """
    _check_alpha_b(alpha, b)
    if not a > 1.0:
        raise InvalidParameter(f"theta-difference problem requires a > 1, got {a}")
    if b > math.sqrt(a) + BOUNDARY_MARGIN:
        def on_gamma(y: float) -> float:
            return theta_difference(alpha, a, b, UpperHalfPoint(0.5, y), cfg)

        wy, wv = _divergence_witness(on_gamma, on_gamma(RT3_2))
        return NoMinimizer(wy, wv, asymptotic_slope_sign=-1)
    return _locate_minimizer(
        lambda z: theta_difference(alpha, a, b, z, cfg), advisory=alpha < 1.0 - 1e-12
    )


def minimize_generic(
    p: PotentialSpec, cfg: SeriesConfig = DEFAULT_CONFIG
) -> MinimizeOutcome:
    """Locate the minimizer of a generic potential energy.

    Coarse 40x40 grid over [0, 1/2] x [sqrt(3)/2, 8] (ties resolved toward
    smaller y then smaller x), then simplex refinement.  Divergence is
    declared when the energy at y = 64 on x = 1/2 undercuts the best grid
    value by more than 1e-8.
    """
    def energy(z: UpperHalfPoint) -> float:
        return closed_form_energy(p, z, cfg)

    best_val = math.inf
    best_z = hexagonal_point()
    for j in range(40):
        y = RT3_2 + (8.0 - RT3_2) * j / 39.0
        for i in range(40):
            x = 0.5 * i / 39.0
            v = energy(UpperHalfPoint(x, y))
            if v < best_val:
                best_val = v
                best_z = UpperHalfPoint(x, y)
    probe = energy(UpperHalfPoint(0.5, 64.0))
    if probe < best_val - 1e-8:
        def on_gamma(y: float) -> float:
            return energy(UpperHalfPoint(0.5, y))

        wy, wv = _divergence_witness(on_gamma, on_gamma(RT3_2), min_points=6)
        return NoMinimizer(wy, wv, asymptotic_slope_sign=-1)
    alpha = getattr(p, "alpha", 1.0)
    return _refine_2d(energy, best_z, advisory=alpha < 1.0 - 1e-12)


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
    classification: str  # "hexagonal" | "no-minimizer"
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
    """Classify every (alpha, b) cell; cells are independent of one another."""
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
            if isinstance(outcome, Minimizer):
                rows.append(PhaseCell(alpha, b, "hexagonal", outcome.distance_to_hex))
                if best_b is None or b > best_b:
                    best_b = b
            else:
                rows.append(PhaseCell(alpha, b, "no-minimizer", None))
        boundaries[alpha] = best_b
    return PhaseScanResult(tuple(rows), boundaries)
