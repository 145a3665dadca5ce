"""Tests for minimizer location and phase classification."""

import math
import time

import pytest

from conftest import brute_energy, brute_w, domain_grid, mp_lattice_sums, unconverged_refinement
from hexlat import (
    B_CRITICAL,
    Gaussian,
    GaussianDiff,
    LaplaceWeighted,
    Minimizer,
    NoMinimizer,
    PolyGaussian,
    ThetaDiffProblem,
    UpperHalfPoint,
    WProblem,
    YukawaDiff,
    closed_form_energy,
    hexagonal_point,
    lattice_energy,
    minimize_generic,
    minimize_theta_difference,
    minimize_w,
    phase_scan,
    theta_lattice,
    w_b,
)
from hexlat._newton import hessian_walk, line_search, newton
from hexlat.energy import _DIRECT_CAP
from hexlat.errors import InvalidParameter, NonPositiveAlpha, OptimizerDivergence, RadiusTooLarge
from hexlat.minimize import GAMMA_Y_MAX
from hexlat.moduli import MAX_ENUMERATION, enumeration_estimate, half_plane_norms, in_fundamental_domain

RT3_2 = math.sqrt(3.0) / 2.0
HEX = hexagonal_point()


def test_w_baseline_hexagonal():
    out = minimize_w(1.0, 0.0)
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-6
    assert not out.advisory


def test_w_boundary_coupling_inclusive():
    out = minimize_w(2.0, B_CRITICAL)
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-6


def test_w_flat_case_alpha_one():
    # W_{1/(2 pi)}(1; .) vanishes identically; the canonical minimizer is returned
    out = minimize_w(1.0, B_CRITICAL)
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex == 0.0
    assert abs(out.value) < 1e-12


def test_w_supercritical_no_minimizer():
    out = minimize_w(1.0, 0.2)
    assert isinstance(out, NoMinimizer)
    assert out.asymptotic_slope_sign == -1
    assert list(out.witness_y) == sorted(out.witness_y)
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))
    assert out.witness_values[-1] < w_b(1.0, 0.2, HEX)


def test_w_witness_adaptive_start():
    # for larger alpha the energy first rises along x = 1/2, so the witness
    # may not start at y = rt3/2; it must still be strictly decreasing
    out = minimize_w(4.0, B_CRITICAL + 0.01)
    assert isinstance(out, NoMinimizer)
    assert len(out.witness_y) >= 13
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))
    assert out.witness_values[-1] < w_b(4.0, B_CRITICAL + 0.01, HEX)


def test_w_advisory_flag_below_alpha_one():
    out = minimize_w(0.5, 0.0)
    assert isinstance(out, Minimizer)
    assert out.advisory
    # outside the theorem hypotheses the minimizer is genuinely not hexagonal
    assert out.distance_to_hex > 0.1
    assert out.value < w_b(0.5, 0.0, HEX)


def test_w_invalid_alpha():
    with pytest.raises(NonPositiveAlpha):
        minimize_w(0.0, 0.0)


def test_comparison_principle():
    ref = minimize_w(1.5, B_CRITICAL)
    assert isinstance(ref, Minimizer)
    for b in (0.1, 0.0, -0.3):
        out = minimize_w(1.5, b)
        assert isinstance(out, Minimizer)
        assert math.hypot(out.z_star.x - ref.z_star.x, out.z_star.y - ref.z_star.y) < 1e-5


@pytest.mark.parametrize("alpha", [1.05, 1.5, 3.0])
def test_gamma_line_matches_2d_optimum(alpha):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda y: w_b(alpha, B_CRITICAL, UpperHalfPoint(0.5, y)),
        bounds=(RT3_2, 50.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    out = minimize_w(alpha, B_CRITICAL)
    assert isinstance(out, Minimizer)
    assert abs(float(res.fun) - out.value) < 1e-7


def test_thetadiff_boundary_cases():
    out = minimize_theta_difference(1.0, 2.0, math.sqrt(2.0))
    assert isinstance(out, Minimizer) and out.distance_to_hex < 1e-6
    out = minimize_theta_difference(1.0, 3.0, 1.8)  # 1.8 > sqrt(3)
    assert isinstance(out, NoMinimizer)
    out = minimize_theta_difference(1.0, 2.0, 0.0)  # Montgomery case
    assert isinstance(out, Minimizer) and out.distance_to_hex < 1e-6


def test_thetadiff_requires_a_above_one():
    with pytest.raises(InvalidParameter):
        minimize_theta_difference(1.0, 1.0, 0.5)


def test_minimizer_in_closed_domain():
    out = minimize_w(2.0, 0.1)
    assert isinstance(out, Minimizer)
    assert in_fundamental_domain(out.z_star, tol=1e-9)


def test_no_minimizer_invariant_enforced():
    with pytest.raises(InvalidParameter):
        NoMinimizer(witness_y=(1.0, 2.0), witness_values=(1.0, 2.0), asymptotic_slope_sign=-1)
    with pytest.raises(InvalidParameter):
        NoMinimizer(witness_y=(2.0, 1.0), witness_values=(2.0, 1.0), asymptotic_slope_sign=-1)


def test_generic_gaussian_diff():
    out = minimize_generic(GaussianDiff(alpha=1.0, a=2.0, b=1.0))
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-5


def test_generic_yukawa():
    out = minimize_generic(YukawaDiff(alpha=1.0, a=4.0, b=0.5))
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-5


def test_generic_gaussian_matches_theta():
    out = minimize_generic(Gaussian(alpha=1.0))
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-5
    assert abs(out.value - (theta_lattice(1.0, HEX) - 1.0)) < 1e-10


def test_generic_poly_gaussian_supercritical_diverges():
    out = minimize_generic(PolyGaussian(alpha=1.0, b=0.3))
    assert isinstance(out, NoMinimizer)
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))


@pytest.mark.parametrize(
    "spec",
    [
        # b = 1.2 sqrt(a) and b = 1.05 lie just above their critical
        # couplings: the energy along x = 1/2 first rises and falls below
        # its value at the hexagonal point only beyond y = 50.
        GaussianDiff(alpha=1.5, a=4.0, b=2.4),
        YukawaDiff(alpha=1.0, a=2.0, b=1.05),
    ],
    ids=["gaussian-diff", "yukawa-diff"],
)
def test_generic_supercritical_witness_undercuts_hexagonal(spec):
    out = minimize_generic(spec)
    assert isinstance(out, NoMinimizer)
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))
    assert out.witness_values[-1] < closed_form_energy(spec, HEX)


@pytest.mark.parametrize(
    "spec",
    [
        YukawaDiff(alpha=1.0, a=2.0, b=1.0 + 1e-7),
        LaplaceWeighted(alpha=1.0, a=2.0, b=math.sqrt(2.0) * (1.0 + 1e-6),
                        weight=lambda x: math.exp(-x)),
    ],
    ids=["yukawa-diff", "laplace-f"],
)
def test_generic_near_critical_witness_stays_bounded(monkeypatch, spec):
    # Just above b_crit the energy along x = 1/2 undercuts its hexagonal value
    # only beyond y ~ 1e11, where a YukawaDiff direct sum enumerates millions
    # of points per energy and the Laplace quadrature's levels stop agreeing;
    # the witness stops short there instead of running out of time or memory.
    sizes = []

    def counting(z, radius):
        qs = half_plane_norms(z, radius)
        sizes.append(1 + 2 * len(qs))  # each norm stands for +-P, plus the origin
        return qs

    monkeypatch.setattr("hexlat.energy.half_plane_norms", counting)
    start = time.perf_counter()
    out = minimize_generic(spec)
    assert time.perf_counter() - start < 30.0
    assert isinstance(out, NoMinimizer)
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))
    assert max(sizes, default=0) <= 2.5e5
    # the YukawaDiff energies are direct sums, so the count above saw them
    assert sizes or isinstance(spec, LaplaceWeighted)


@pytest.mark.parametrize(
    "spec",
    [
        LaplaceWeighted(alpha=1.0, a=2.0, b=2.5, weight=lambda x: 1.0, family="f"),
        LaplaceWeighted(alpha=1.0, a=2.0, b=0.35, weight=lambda x: 1.0, family="g"),
    ],
    ids=["f", "g"],
)
def test_generic_flat_weight_witness_stops_before_quadrature_fails(spec):
    # With a flat weight the energy along x = 1/2 undercuts the hexagonal value
    # near y ~ 100 and keeps falling; the witness needs energies up to y ~ 900
    # and beyond, where the integrand spans x up to ~y, and every one evaluates.
    out = minimize_generic(spec)
    assert isinstance(out, NoMinimizer)
    assert all(b < a for a, b in zip(out.witness_values, out.witness_values[1:]))
    assert out.witness_values[-1] < closed_form_energy(spec, HEX)


def test_generic_advisory_matches_brute_force_oracle():
    # Below alpha = 1 the minimizer leaves the hexagonal point; the located
    # one must be the true minimizer by direct lattice summation.
    out = minimize_generic(GaussianDiff(alpha=0.5, a=2.0, b=1.0))
    assert isinstance(out, Minimizer) and out.advisory

    def f(q):
        return math.exp(-0.5 * math.pi * q) - math.exp(-math.pi * q)

    at_star = brute_energy(f, out.z_star)
    grid_min = min(brute_energy(f, z) for z in domain_grid(20, 20, 8.0))
    assert abs(out.value - at_star) <= 1e-12 * abs(at_star)
    assert out.value <= grid_min + 1e-12 * abs(grid_min)


@pytest.mark.parametrize(
    "spec, budget, walks",
    [(GaussianDiff(alpha=1.0, a=2.0, b=1.0), 2, 1),
     (LaplaceWeighted(alpha=1.0, a=2.0, b=0.5, weight=lambda x: math.exp(-x), family="f"), 2, 1),
     (LaplaceWeighted(alpha=1.5, a=2.0, b=0.1, weight=lambda x: math.exp(-x / 2), family="g"), 2, 1),
     (PolyGaussian(alpha=1.0, b=0.3), 39, 0)],
    ids=["minimizer", "laplace-f", "laplace-g", "no-minimizer"],
)
def test_generic_energy_evaluation_budget(monkeypatch, spec, budget, walks):
    # a hexagonal cell evaluates the public energy at its candidate and at the
    # hexagonal point (the tie rule); one walk steers, for every family
    calls, walked = [], []

    def counting(p, z, cfg):
        calls.append(z)
        return closed_form_energy(p, z, cfg)

    def counting_walks(p, z):
        walked.append(z)
        return hessian_walk(p, z)

    monkeypatch.setattr("hexlat.minimize.closed_form_energy", counting)
    monkeypatch.setattr("hexlat._newton.hessian_walk", counting_walks)
    out = minimize_generic(spec)
    assert 0 < len(calls) <= budget and len(walked) == walks
    assert isinstance(out, Minimizer if walks else NoMinimizer)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
def test_newton_walk_budget(monkeypatch, alpha):
    # E_yy > 0 at the hexagonal point ends the line search there, and the
    # plane refinement converges on the same walk.
    walks = []

    def counting(p, z):
        walks.append(z)
        return hessian_walk(p, z)

    monkeypatch.setattr("hexlat._newton.hessian_walk", counting)
    cells = [lambda b=b: minimize_w(alpha, b) for b in (-0.5, 0.0, 0.1, 0.97 * B_CRITICAL)]
    cells += [lambda a=a, b=b: minimize_theta_difference(alpha, a, b)
              for a, b in ((2.0, 0.0), (2.0, 1.3), (4.0, 0.5), (4.0, 1.9))]
    for cell in cells:
        walks.clear()
        out = cell()
        assert isinstance(out, Minimizer) and out.distance_to_hex <= 1e-9
        assert len(walks) == 1


@pytest.mark.parametrize(
    "p",
    [PolyGaussian(0.5, 0.0), PolyGaussian(0.8, 0.1), GaussianDiff(0.5, 2.0, 1.0), YukawaDiff(0.3, 2.0, 0.5)],
    ids=["w-0.5-0", "w-0.8-0.1", "theta-diff-0.5-2-1", "yukawa-diff-0.3-2-0.5"],
)
def test_line_search_matches_scipy(p):
    # Newton steps on E_y bracketed in [sqrt(3)/2, 50] find the line minimum
    # that scipy's bounded Brent search finds from the public energy.  No
    # YukawaDiff cell with b <= 1 seen leaves sqrt(3)/2 as that minimum, so
    # that case ends at the bottom.
    from scipy.optimize import minimize_scalar

    ref = minimize_scalar(lambda y: closed_form_energy(p, UpperHalfPoint(0.5, y)),
                          bounds=(RT3_2, GAMMA_Y_MAX), method="bounded", options={"xatol": 1e-10})
    y, walk = line_search(p, GAMMA_Y_MAX)
    assert abs(y - ref.x) <= 1e-6
    assert walk == hessian_walk(p, UpperHalfPoint(0.5, y))
    assert (y == RT3_2) == isinstance(p, YukawaDiff)


@pytest.mark.parametrize("p", [PolyGaussian(1.0, 0.0), GaussianDiff(2.0, 4.0, 1.9), YukawaDiff(1.0, 4.0, 0.5)])
def test_line_search_stops_at_the_bottom_where_it_curves_up(monkeypatch, p):
    walks = []

    def counting(p, z):
        walks.append(z)
        return hessian_walk(p, z)

    monkeypatch.setattr("hexlat._newton.hessian_walk", counting)
    y, walk = line_search(p, GAMMA_Y_MAX)
    assert y == RT3_2 and walks == [HEX] and walk[2][2] > 0.0


def test_newton_walk_takes_the_point_cap_of_its_energy():
    # At alpha = 5e-4 a YukawaDiff walk holds more points than the theta and
    # W_b direct sums may (_DIRECT_CAP); its public energy walks up to
    # MAX_ENUMERATION, and so does the walk that steers it.
    p = YukawaDiff(5e-4, 2.0, 0.5)
    assert enumeration_estimate(HEX, math.sqrt(36.0 / (math.pi * p.alpha))) > _DIRECT_CAP
    (x, y), value, walks, converged = newton(lambda z: closed_form_energy(p, z), p, RT3_2,
                                             hessian_walk(p, HEX))
    assert converged and walks == 1 and (x, y) == pytest.approx((0.5, RT3_2), abs=1e-12)
    assert hessian_walk(p, HEX)[0] == pytest.approx(value, rel=1e-12)
    # a walk past its cap says so: the line search's first walk, at the
    # hexagonal point, and through it the minimizer
    p = YukawaDiff(1e-5, 2.0, 0.5)
    for locate in (lambda: line_search(p, GAMMA_Y_MAX), lambda: minimize_generic(p)):
        with pytest.raises(RadiusTooLarge, match=rf"at \(0\.5, 0\.866025\).* above {MAX_ENUMERATION}$"):
            locate()
    with pytest.raises(RadiusTooLarge, match=f"above {_DIRECT_CAP}$"):
        hessian_walk(Gaussian(1.0), UpperHalfPoint(0.5, 1e12))


def test_laplace_weighted_rectangular_minimizer():
    # Below alpha = 1 the walk on the exp-sinh mixture follows the x-curvature
    # to the rectangular lattice x = 0, where the value is the public energy's
    p = LaplaceWeighted(alpha=0.337, a=3.0, b=0.065, weight=lambda x: math.exp(-x / 2), family="g")
    out = minimize_generic(p)
    assert isinstance(out, Minimizer) and out.advisory
    assert out.z_star.x <= 1e-12 and out.z_star.y == pytest.approx(2.967934, abs=1e-6)
    assert out.value == pytest.approx(lattice_energy(p, out.z_star, 8.0), rel=1e-12)
    # below its neighbours along both axes
    for dx, dy in ((1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        z = UpperHalfPoint(out.z_star.x + dx, out.z_star.y + dy)
        assert out.value < closed_form_energy(p, z)


def test_laplace_weighted_boundary_cell_raises():
    # At b = b_crit the energy on x = 1/2 is flat to rounding from y ~ 36 up:
    # an infimum at y = inf, which the Newton steps do not converge to
    p = LaplaceWeighted(alpha=0.3, a=2.0, b=1.0 / (2.0 * math.pi), weight=lambda x: math.exp(-x),
                        family="g")
    with pytest.raises(OptimizerDivergence, match="did not converge"):
        minimize_generic(p)


def test_w_minimizer_below_alpha_one_is_rectangular_at_b_minus_one():
    # Nelder-Mead ran out of evaluations here: the energy varies with x by
    # ~1e-20 of its value.  The Newton steps follow the x-curvature of the
    # dual walk, whose x terms are exact, to the rectangular lattice x = 0.
    out = minimize_w(0.2, -1.0)
    assert isinstance(out, Minimizer) and out.advisory
    x, y = out.z_star.x, out.z_star.y
    assert x <= 1e-12 and y == pytest.approx(3.05508, abs=1e-5)
    assert out.value == pytest.approx(32.864667, abs=1e-6)
    assert out.value == pytest.approx(brute_w(0.2, -1.0, out.z_star), rel=1e-13)
    # below the square (32.957692) and hexagonal (32.957738) lattices
    for z in (UpperHalfPoint(0.0, 1.0), HEX):
        assert out.value < brute_w(0.2, -1.0, z) - 0.09
    # 40-digit sums put x = 0 below x = 0.49376, where a Nelder-Mead with a
    # value-scaled fatol stops, by ~4e-19
    at = lambda x: mp_lattice_sums(0.2, -1.0, UpperHalfPoint(x, y), exponent=200.0)[1]
    assert at(0.0) < at(0.49376)


def test_generic_laplace_weighted():
    p = LaplaceWeighted(alpha=1.0, a=2.0, b=0.5, weight=lambda x: 1.0, family="f")
    out = minimize_generic(p)
    assert isinstance(out, Minimizer)
    assert out.distance_to_hex < 1e-4


def test_phase_scan_w_boundary_constant():
    res = phase_scan([1.0, 2.0, 4.0], [0.10, 0.15, 0.159, 0.17], WProblem())
    boundaries = set(res.boundaries.values())
    assert boundaries == {0.159}
    for cell in res.rows:
        expect = "hexagonal" if cell.b <= B_CRITICAL else "no-minimizer"
        assert cell.classification == expect


def test_phase_scan_thetadiff_boundary():
    res = phase_scan([1.0], [1.40, 1.4142, 1.45], ThetaDiffProblem(a=2.0))
    assert res.boundaries[1.0] == 1.4142  # sqrt(2) = 1.41421...
    res = phase_scan([1.0, 2.0], [0.05, 0.10], WProblem())
    assert all(c.classification == "hexagonal" for c in res.rows)


def test_phase_scan_labels_off_hexagonal_minimizer():
    # alpha = 0.5 lies outside the theorems and its minimizer is rectangular
    res = phase_scan([0.5], [0.0], WProblem())
    (cell,) = res.rows
    assert cell.classification == "minimizer" and cell.distance_to_hex > 0.1
    assert res.boundaries[0.5] is None


def test_phase_scan_validation():
    with pytest.raises(InvalidParameter):
        phase_scan([], [0.1], WProblem())
    with pytest.raises(InvalidParameter):
        ThetaDiffProblem(a=1.0)


def test_unconverged_refinement_raises(monkeypatch):
    monkeypatch.setattr("hexlat._newton.newton", unconverged_refinement(-1e9))
    with pytest.raises(OptimizerDivergence):
        minimize_w(1.0, 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_runaway_refinement_raises(alpha):
    # b = sqrt(3) + 2.3e-13 lies within BOUNDARY_MARGIN of b_crit, so the cell is
    # refined, but the energy falls toward y = inf.  The Newton steps climb in
    # y, at most 1/2 per walk, and run out of walks; Nelder-Mead once reached
    # y/alpha = inf and raised NonPositiveX.
    with pytest.raises(OptimizerDivergence):
        minimize_theta_difference(alpha, 3.0, round(math.sqrt(3.0), 12))


def test_unconverged_refinement_beaten_by_hexagonal_point(monkeypatch):
    monkeypatch.setattr("hexlat._newton.newton", unconverged_refinement(1e9))
    out = minimize_w(1.0, 0.0)
    assert isinstance(out, Minimizer)
    assert out.z_star == HEX and out.distance_to_hex == 0.0
    assert out.value == w_b(1.0, 0.0, HEX)
