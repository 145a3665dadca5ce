"""Numerical reproduction of the proof-level bounds, constants and identities.

Every check recomputes a claimed quantity from its defining series on a
documented grid and returns one or more :class:`LemmaReport` records.  The
reports are honest: a handful of printed claims do not survive recomputation
at region corners (they fail by small but real margins); those reports carry
``passed=False`` together with a note stating what was computed.  See the
README section "Known discrepancies".

All checks are pure functions of (config, seed).  Each is registered with
``@check`` under the report ids it emits; the suite calls them one after
another, only those a request needs, and sorts the reports by id.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from ._record import Record
from .config import DEFAULT_CONFIG, DEFAULT_SEED, SeriesConfig
from .energy import (
    B_CRITICAL,
    coupling_coefficient,
    dx_w,
    dx_w_double_sum,
    dy_w,
    theta_difference,
    theta_difference_via_w_integral,
    theta_lattice,
    w_b,
    w_b_via_theta_derivative,
)
from .errors import UnknownLemma
from .moduli import (
    RT3_2,
    Generator,
    UpperHalfPoint,
    apply_word,
    hexagonal_point,
    lattice_norms,
    reduce_to_fundamental,
)
from .theta1d import _large_x_envelope, _power_tail, _reduce_y, _small_x_envelope
from .theta1d import _fourier_rows, _poisson_rows
from .theta1d import SUPPORTED_ORDERS, mu, nu, theta_envelope, theta_rows

_PI = math.pi


class LemmaReport(Record):
    """One verified claim: what was asserted, what was computed, verdict."""

    __slots__ = ("lemma_id", "claimed", "computed", "comparison", "tolerance", "grid", "passed", "note")

    def __init__(self, lemma_id: str, claimed: float, computed: float, comparison: str,
                 tolerance: float, grid: str, passed: bool, note: str = "") -> None:
        object.__setattr__(self, "lemma_id", lemma_id)
        object.__setattr__(self, "claimed", claimed)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "comparison", comparison)  # "<=", ">=" or "~"
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "note", note)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _mk(lemma_id, claimed, computed, comparison, tolerance, grid, note="") -> LemmaReport:
    claimed = float(claimed)
    computed = float(computed)
    if comparison == "<=":
        ok = computed <= claimed + tolerance
    elif comparison == ">=":
        ok = computed >= claimed - tolerance
    else:
        ok = abs(computed - claimed) <= tolerance
    return LemmaReport(lemma_id, claimed, computed, comparison, tolerance, grid, ok, note)


#: Report id -> the check function that emits it, filled by ``@check``.
_EMITTERS: dict[str, Callable[[_Ctx], list[LemmaReport]]] = {}


def check(*ids: str):
    """Register the decorated check function as the one emitter of `ids`."""

    def register(fn):
        twice = sorted({i for i in ids if i in _EMITTERS or ids.count(i) > 1})
        if twice:
            raise ValueError(f"report id(s) registered twice: {twice}")
        _EMITTERS.update(dict.fromkeys(ids, fn))
        return fn

    return register


def _half_last_digit(printed: float, digits: int) -> float:
    """Half a unit in the last digit of a constant printed to `digits`
    significant figures (the reference ceilings are nearest-rounded prints)."""
    exp10 = math.floor(math.log10(abs(printed)))
    return 0.5 * 10.0 ** (exp10 - (digits - 1))


# ---------------------------------------------------------------------------
# Shared formula helpers
# ---------------------------------------------------------------------------


def geometric_tail_constant(y, alpha0):
    """B = 2^6 alpha0 pi y e^{-3 pi y alpha0} / (1 - 2^6 e^{-5 pi y alpha0})."""
    return (
        64.0 * alpha0 * _PI * y * np.exp(-3.0 * _PI * y * alpha0)
        / (1.0 - 64.0 * np.exp(-5.0 * _PI * y * alpha0))
    )


def _b_max(alpha, y):
    """The larger B of the two endpoints 1/alpha and alpha of the mean-value interval."""
    return np.maximum(geometric_tail_constant(y, 1.0 / alpha), geometric_tail_constant(y, alpha))


def lb_lower_bound(alpha, y, bconst):
    """Lower-bound function for d/dy W on the region alpha in [1,1.2], y >= 1,
    assembled from the double-sum expansion: the n = 1 single-sum terms exactly,
    the n >= 2 single sums dropped (they are nonnegative there), and the
    alternating double sums bounded through the geometric-tail constant.

    Note: the printed form of this function carries the double-sum
    contribution as 3*pi*(1-B) - 2*(1+B)*(alpha^2+1)*y/alpha, which does not
    follow from the expansion it cites; the consistent assembly is
    2*pi*(y/alpha)*(1-B)*(alpha^2+1) - 3*(1+B), used here.
    """
    doubles = (
        2.0 * _PI * (y / alpha) * (1.0 - bconst) * (alpha**2 + 1.0) - 3.0 * (1.0 + bconst)
    )
    return _lb_assemble(alpha, y, doubles)


def lb_printed(alpha, y, bconst):
    """The lower-bound function exactly as printed (for the record)."""
    doubles = 3.0 * _PI * (1.0 - bconst) - 2.0 * (1.0 + bconst) * (alpha**2 + 1.0) / alpha * y
    return _lb_assemble(alpha, y, doubles)


def _lb_assemble(alpha, y, doubles):
    """The n = 1 single-sum terms plus the double-sum contribution `doubles`."""
    g = (
        _PI * y / alpha
        - 1.5
        - (_PI * y * alpha - 1.5) * alpha**2 * np.exp(-_PI * y * (alpha - 1.0 / alpha))
    )
    return g + (alpha**2 - 1.0) * np.exp(-_PI * y * alpha) * doubles


def _comb_sum(X, cfg: SeriesConfig):
    """sum_{k>=1} e^{-pi k^2 X} = e^{-pi X} (1 + P_0(X)), P_0(X) = sum_{n>=2} e^{-pi (n^2 - 1) X}."""
    return np.exp(-_PI * X) * (1.0 + _power_tail(X, 0, cfg, "comb sum"))


def eps_c_terms(alpha, y, cfg: SeriesConfig = DEFAULT_CONFIG):
    """The four R_c error terms (series prefactors times exponential tails)."""
    X0 = y / alpha
    t = _comb_sum(X0, cfg)
    pref_theta = (1.0 + t) / (1.0 - t)
    tail0 = _power_tail(alpha * y, 0, cfg, "P0")
    e1 = pref_theta * mu(alpha * y, cfg)
    e3 = pref_theta * nu(alpha * y, cfg)
    e2 = (1.0 + mu(X0, cfg)) / (1.0 - 4.0 * np.exp(-3.0 * _PI * X0)) * tail0
    e4 = (1.0 + nu(X0, cfg)) / (1.0 - 16.0 * np.exp(-3.0 * _PI * X0)) * tail0
    return e1, e2, e3, e4


def eps_d1(alpha, y):
    return 4.0 * y**4 * np.exp(-_PI * alpha * (4.0 * y - 1.0 / y)) + 16.0 * y**4 * np.exp(
        -4.0 * _PI * alpha * y
    )


def eps_d2(alpha, y):
    return 16.0 * np.exp(-3.0 * _PI * alpha * y) * (1.0 + np.exp(-3.0 * _PI * alpha / (4.0 * y)))


def rc_inner_expression(alpha, y, cfg: SeriesConfig = DEFAULT_CONFIG):
    """The printed R_c lower-bound expression (with pointwise error terms)."""
    e1, e2, e3, e4 = eps_c_terms(alpha, y, cfg)
    return (
        _PI * y / alpha
        - 1.5
        - (1.0 + e3) * y * alpha**3 * np.exp(-_PI * y * (alpha - 1.0 / alpha))
        - 2.0 * (1.0 + e4) * (_PI * y / alpha) * np.exp(-alpha * _PI * y)
    )


def ld_function(alpha, y):
    """L_d: the lower-bound function for (d_yy + 2/y d_y) W on R_d."""
    expfac = np.exp(-_PI * alpha * (y - 3.0 / (4.0 * y)))
    return (
        2.0 * _PI * alpha / y
        - 5.0 * (1.0 + eps_d1(alpha, y))
        + 4.0 * _PI * alpha * (y**2 - 0.25) ** 2 * (y + 0.25 / y) * expfac
        - 8.0 * (1.0 + eps_d2(alpha, y)) * y**3 * (y + 0.25 / y) * expfac
    )


def la_function(alpha, y):
    """L_a: the lower-bound function for the mixed third derivative on R_a."""
    q = y + 0.25 / y
    r2 = (y**2 - 0.25) ** 2
    h = (
        18.0 * _PI * alpha * r2 * q
        + 8.0 * _PI * alpha * y**3 * q**2
        - 10.0 * r2
        - 20.0 * y**3 * q
        - 4.0 * _PI**2 * alpha**2 * r2 * q**2
    )
    return (
        9.0 * _PI * alpha / y
        - 5.0
        - 2.0 * _PI**2 * alpha**2 / y**2
        + h * np.exp(-_PI * alpha * (y - 3.0 / (4.0 * y)))
    )


def _lattice_grid(alpha: float, x: float, y: float, cfg: SeriesConfig):
    """(N, Q, R, E) over (n, m) in Z^2 with |n|, |m| <= K, where
    Q = y n^2 + (m + n x)^2 / y, R = n^2 - (m + n x)^2 / y^2, E = e^{-pi alpha Q}.

    For |x| <= 1/2 every point outside the square has Q >= K^2 min(y, 1/(4y)),
    so K is last_index's at that decay, with the R^2 Q^2 weight's power 8.
    """
    K = cfg.last_index(alpha * min(y, 0.25 / y), 8, 1, "lattice grid")
    ns = np.arange(-K, K + 1.0)
    N, M = np.meshgrid(ns, ns, indexing="ij")
    shift = (M + N * x) ** 2
    Q = y * N**2 + shift / y
    R = N**2 - shift / y**2
    return N, Q, R, np.exp(-_PI * alpha * Q)


def _half_lattice_sums(alpha: float, y: float, cfg: SeriesConfig):
    """The six double sums of the x = 1/2 derivative identities.

    Returns (S_R2Q, S_n2, S_R2, S_n2Q, S_n2Q2, S_R2Q2), each sum weighted
    by E over the grid of :func:`_lattice_grid` at x = 1/2.
    """
    N, Q, R, E = _lattice_grid(alpha, 0.5, y, cfg)
    return (
        float((R**2 * Q * E).sum()),
        float((N**2 * E).sum()),
        float((R**2 * E).sum()),
        float((N**2 * Q * E).sum()),
        float((N**2 * Q**2 * E).sum()),
        float((R**2 * Q**2 * E).sum()),
    )


def dw_radial_operator(alpha: float, y: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """(d_yy + (2/y) d_y) W_{1/(2 pi)} at x = 1/2 via the double-sum identity."""
    s_r2q, s_n2, s_r2, s_n2q, _, _ = _half_lattice_sums(alpha, y, cfg)
    return (
        (_PI * alpha) ** 2 * s_r2q
        + 3.0 / y * s_n2
        - 2.5 * _PI * alpha * s_r2
        - 2.0 * _PI * alpha / y * s_n2q
    )


def dw_mixed_operator(alpha: float, y: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """(d_yya + (2/y) d_ya) W_{1/(2 pi)} at x = 1/2 via the double-sum identity."""
    s_r2q, s_n2, s_r2, s_n2q, s_n2q2, s_r2q2 = _half_lattice_sums(alpha, y, cfg)
    return (
        4.5 * _PI**2 * alpha * s_r2q
        + 2.0 * _PI**2 * alpha / y * s_n2q2
        - 2.5 * _PI * s_r2
        - 5.0 * _PI / y * s_n2q
        - _PI**3 * alpha**2 * s_r2q2
    )


def theta_radial_operator(
    alpha: float, z: UpperHalfPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """(d_yy + (2/y) d_y) theta(alpha; z), |x| <= 1/2, via its double-sum identity."""
    N, Q, R, E = _lattice_grid(alpha, z.x, z.y, cfg)
    return float(((_PI * alpha) ** 2 * (R**2 * E)).sum() - (2.0 * _PI * alpha / z.y) * (N**2 * E).sum())


def _comb_moment_ratio(a: float, Y: float, cfg: SeriesConfig) -> float:
    """sum (n-Y)^3 e^{-a pi (n-Y)^2} / sum (n-Y) e^{-a pi (n-Y)^2}, 0 <= Y < 1."""
    last = cfg.last_index(a, 3, 0, "comb moment ratio")
    ns = np.arange(-last, last + 2.0)
    d = ns - Y
    e = np.exp(-a * _PI * d * d)
    return float((d**3 * e).sum() / (d * e).sum())


def _random_domain_points(rng: np.random.Generator, count: int, y_max: float = 10.0):
    """Seeded points strictly inside the fundamental domain with y <= y_max."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(1e-6, 0.5 - 1e-6)
        ymin = math.sqrt(max(1.0 - x * x, 0.75)) + 1e-6
        y = rng.uniform(ymin, y_max)
        pts.append(UpperHalfPoint(x, y))
    return pts


# ---------------------------------------------------------------------------
# One-dimensional theta machinery
# ---------------------------------------------------------------------------


@check("PXY")
def _check_poisson_consistency(ctx) -> list[LemmaReport]:
    xs = np.geomspace(0.05, 20.0, 31)
    ys = np.linspace(0.0, 1.0, 31)
    worst = 0.0
    Yr = [_reduce_y(Y) for Y in map(float, ys)]
    for X in map(float, xs):
        fourier = _fourier_rows(X, Yr, 0, 0, ctx.cfg)
        poisson = _poisson_rows(X, Yr + [0.0], 0, 0, ctx.cfg)
        scale0 = poisson.pop()  # the series scale theta(X; 0)
        for a, b in zip(fourier, poisson):
            worst = max(worst, abs(a - b) / max(abs(b), scale0))
    return [_mk("PXY", 1e-12, worst, "<=", 0.0, "31x31 grid, X in [0.05,20] log, Y in [0,1]",
                "branch gap relative to the series scale theta(X;0); near Y = 1/2 at "
                "small X the value itself cancels to ~1e-6 of the terms, where a "
                "purely relative 1e-12 is beyond double precision")]


@check("TXY-period", "TXY-parity")
def _check_symmetry(ctx) -> list[LemmaReport]:
    rng = np.random.default_rng(ctx.seed)
    worst_period = 0.0
    worst_parity = 0.0
    for _ in range(200):
        X = float(rng.uniform(0.05, 20.0))
        Y = float(rng.uniform(-2.0, 2.0))
        [[v, shifted, mirrored]] = theta_rows(X, [Y, Y + 1.0, -Y], [(0, 0)], ctx.cfg)
        worst_period = max(worst_period, abs(shifted - v))
        worst_parity = max(worst_parity, abs(mirrored - v) / abs(v))
    return [
        _mk("TXY-period", 0.0, worst_period, "<=", 0.0, "200 seeded (X, Y) samples",
            "period-1 identity holds exactly (same truncated series)"),
        _mk("TXY-parity", 1e-14, worst_parity, "<=", 0.0, "200 seeded (X, Y) samples"),
    ]


@check("TXY-partials")
def _check_partials_fd(ctx) -> list[LemmaReport]:
    rng, cfg = np.random.default_rng(ctx.seed + 1), ctx.cfg
    worst = 0.0
    for _ in range(60):
        X = float(rng.uniform(0.1, 5.0))
        Y = float(rng.uniform(0.02, 0.48))
        h = 1e-6 * max(1.0, X)
        # theta and theta_X at X -+ h; theta and its four partials at Y - h, Y, Y + h
        (th_lo,), (thx_lo,) = theta_rows(X - h, [Y], [(0, 0), (1, 0)], cfg)
        (th_hi,), (thx_hi,) = theta_rows(X + h, [Y], [(0, 0), (1, 0)], cfg)
        th, *partials = theta_rows(X, [Y - h, Y, Y + h], [(0, 0), *SUPPORTED_ORDERS], cfg)
        fds = (  # orders (1, 0), (0, 1), (1, 1), (2, 0), as in SUPPORTED_ORDERS
            (th_hi - th_lo) / (2 * h),
            (th[2] - th[0]) / (2 * h),
            (partials[0][2] - partials[0][0]) / (2 * h),
            (thx_hi - thx_lo) / (2 * h),
        )
        for (_, v, _), fd in zip(partials, fds):
            if abs(v) > 1e-8:
                worst = max(worst, (abs(v - fd) - 1e-9) / abs(v))
    return [_mk("TXY-partials", 1e-6, worst, "<=", 0.0, "60 seeded (X, Y) samples",
                "central finite differences, step 1e-6 * max(1, X); an absolute "
                "floor of 1e-9 absorbs the eps/h roundoff of the difference "
                "quotient, which dominates wherever the derivative is ~1e-7")]


@check("mmmx")
def _check_mu_nu(ctx) -> list[LemmaReport]:
    worst = 0.0
    for X in (0.2, 0.3, 0.5, 1.0, 2.0):
        # Fixed n <= 100 on purpose: these direct sums are the oracle for mu/nu.
        m_direct = sum(n * n * math.exp(-_PI * (n * n - 1) * X) for n in range(2, 101))
        n_direct = sum(n**4 * math.exp(-_PI * (n * n - 1) * X) for n in range(2, 101))
        m, n = mu(X, ctx.cfg), nu(X, ctx.cfg)
        worst = max(worst, abs(m - m_direct) / m_direct, abs(n - n_direct) / n_direct)
    return [_mk("mmmx", 1e-13, worst, "<=", 0.0, "X in {0.2,0.3,0.5,1,2} vs direct sums to n=100")]


#: Y grid of the quotient lemmas, avoiding the zeros of sin(2 pi Y).
_QUOTIENT_YS = [y / 200.0 for y in range(1, 100) if abs(math.sin(2.0 * _PI * (y / 200.0))) > 1e-3]


def _worst_quotient(xs, ks, num, den, cap, cfg: SeriesConfig) -> float:
    """max |theta_num(X; kY) / theta_den(X; Y)| / cap(X, k) over X in xs,
    k in ks and Y in the quotient grid; num and den are (x, y) derivative
    orders.  |theta_den| >= 7.4e-4 on every grid the checks pass."""
    worst = 0.0
    for X in xs:
        [dens] = theta_rows(X, _QUOTIENT_YS, [den], cfg)
        for k in ks:
            c = cap(X, k)
            [nums] = theta_rows(X, [k * Y for Y in _QUOTIENT_YS], [num], cfg)
            for d, v in zip(dens, nums):
                worst = max(worst, abs(v / d) / c)
    return worst


@check("L23-1", "L23-2")
def _check_quotients_y(ctx) -> list[LemmaReport]:
    ks, cfg = (2, 3, 4, 5), ctx.cfg
    worst1 = _worst_quotient((0.25, 0.3, 0.5, 1.0, 2.0), ks, (0, 1), (0, 1),
                             lambda X, k: k * ((1.0 + mu(X, cfg)) / (1.0 - mu(X, cfg))), cfg)
    worst2 = _worst_quotient((0.25, 0.4, 0.55), ks, (0, 1), (0, 1),
                             lambda X, k: k * (math.exp(_PI / (4.0 * X)) / _PI), cfg)
    return [
        _mk("L23-1", 1.0, worst1, "<=", 1e-12,
            "X in {0.25,0.3,0.5,1,2}, k in {2..5}, Y grid avoiding sin zeros",
            "ratio of |theta_Y(X;kY)/theta_Y(X;Y)| to its bound k(1+mu)/(1-mu)"),
        _mk("L23-2", 1.0, worst2, "<=", 1e-12,
            "X in {0.25,0.4,0.55} < pi/(pi+2), k in {2..5}, same Y grid"),
    ]


@check("L24-1", "L24-2", "L24-3")
def _check_quotients_xy(ctx) -> list[LemmaReport]:
    ks, cfg = (2, 3, 4, 5), ctx.cfg
    xs = (0.25, 0.5, 1.0, 2.0)
    worst1 = _worst_quotient((0.3, 0.35, 0.5, 1.0, 2.0), ks, (1, 1), (1, 1),
                             lambda X, k: k * ((1.0 + nu(X, cfg)) / (1.0 - nu(X, cfg))), cfg)
    worst2 = _worst_quotient(xs, ks, (1, 1), (0, 1),
                             lambda X, k: k * (_PI * (1.0 + nu(X, cfg)) / (1.0 - mu(X, cfg))), cfg)
    worst3 = _worst_quotient(xs, (1,), (1, 1), (0, 1),
                             lambda X, k: _PI * (1.0 + nu(X, cfg)) / (1.0 + mu(X, cfg)), cfg)
    return [
        _mk("L24-1", 1.0, worst1, "<=", 1e-12,
            "X in {0.3,...,2} >= 3/10, k in {2..5}, Y grid avoiding sin zeros"),
        _mk("L24-2", 1.0, worst2, "<=", 1e-12, "X in {0.25,0.5,1,2} > 1/5, k in {2..5}"),
        _mk("L24-3", 1.0, worst3, "<=", 1e-12, "k = 1 sharper bound, same grids"),
    ]


@check("L25-1", "L25-2")
def _check_small_x(ctx) -> list[LemmaReport]:
    xs = (0.1, 0.2, 0.35, 0.5)
    worst1 = _worst_quotient(xs, (1,), (1, 1), (0, 1),
                             lambda X, k: 1.5 / X * (1.0 + _PI / (6.0 * X)), ctx.cfg)
    worst2 = _worst_quotient(
        xs, (2, 3, 4), (1, 1), (0, 1),
        lambda X, k: 1.5 * k / (_PI * X) * (1.0 + _PI / (6.0 * X)) * math.exp(_PI / (4.0 * X)),
        ctx.cfg,
    )
    return [
        _mk("L25-1", 1.0, worst1, "<=", 1e-12, "X in {0.1,0.2,0.35,0.5} <= 1/2"),
        _mk("L25-2", 1.0, worst2, "<=", 1e-12, "same X, k in {2,3,4}"),
    ]


@check("L26")
def _check_comb_ratio(ctx) -> list[LemmaReport]:
    worst = 0.0
    for a in (2.0, 2.5, 3.0, 5.0, 10.0, 40.0):
        for Y in [y / 100.0 for y in range(1, 50)]:
            worst = max(worst, abs(_comb_moment_ratio(a, Y, ctx.cfg)))
    return [_mk("L26", 0.25, worst, "<=", 1e-12,
                "a in {2,...,40}, Y in (0, 0.5); bound approached as a -> inf")]


@check("L27")
def _check_dirichlet_kernel(ctx) -> list[LemmaReport]:
    worst_excess = 0.0
    for n in range(1, 7):
        cap = 2.0 * _PI / 3.0 * (n - 1) * n * (n + 1)  # C(1) = 0: n = 1 bounds |v| itself
        for j in range(1, 2000):
            Y = j / 2000.0
            s = math.sin(2.0 * _PI * Y)
            if abs(s) < 1e-3:
                continue
            v = (
                2.0 * n * _PI * math.cos(2 * n * _PI * Y) * s
                - 2.0 * _PI * math.cos(2 * _PI * Y) * math.sin(2 * n * _PI * Y)
            ) / s**3
            worst_excess = max(worst_excess, abs(v) - cap)
    return [_mk("L27", 0.0, worst_excess, "<=", 1e-9,
                "n in 1..6, 2000-point Y grid avoiding sin zeros")]


@check("X2")
def _check_sin_quotient(ctx) -> list[LemmaReport]:
    worst = 0.0
    for k in range(1, 9):
        for j in range(1, 4000):
            x = j * _PI / 2000.0
            s = math.sin(x)
            if abs(s) < 1e-9:
                continue
            worst = max(worst, abs(math.sin(k * x) / s) / k)
    return [_mk("X2", 1.0, worst, "<=", 1e-9, "k in 1..8, 4000-point x grid")]


def _worst_envelope_violation(bounds, cfg: SeriesConfig) -> float:
    """max violation of lo <= -theta_Y(X;Y)/sin(2 pi Y) <= hi over X -> (lo, hi)
    in `bounds` and Y in (0, 1/2)."""
    worst = 0.0
    Ys = [y / 100.0 for y in range(1, 50)]
    for X, (lo, hi) in bounds.items():
        [theta_y] = theta_rows(X, Ys, [(0, 1)], cfg)
        for Y, t in zip(Ys, theta_y):
            r = -t / math.sin(2.0 * _PI * Y)
            worst = max(worst, lo - r, r - hi)
    return worst


@check("T1", "T2", "Envelope")
def _check_envelopes(ctx) -> list[LemmaReport]:
    cfg = ctx.cfg
    worst_t1 = _worst_envelope_violation({X: _large_x_envelope(X, cfg) for X in (0.25, 0.5, 1.0, 2.0)}, cfg)
    worst_t2 = _worst_envelope_violation({X: _small_x_envelope(X) for X in (0.1, 0.3, 0.5)}, cfg)
    worst = _worst_envelope_violation(
        {X: theta_envelope(X, cfg) for X in (0.25, 0.3, 0.5, 1.0, 2.0)}, cfg
    )
    return [
        _mk("T1", 0.0, worst_t1, "<=", 1e-12, "X in {0.25,0.5,1,2} > 1/5, Y in (0, 0.5)",
            "max violation of the 4 pi e^{-pi X}(1 -+ mu) envelope"),
        _mk("T2", 0.0, worst_t2, "<=", 1e-12, "X in {0.1,0.3,0.5} < pi/(pi+2), Y in (0, 0.5)"),
        _mk("Envelope", 0.0, worst, "<=", 1e-12,
            "combined envelope (tighter of the two on the overlap)"),
    ]


@check("H100")
def _check_h100(ctx) -> list[LemmaReport]:
    xs = np.linspace(0.5, 3.0, 60)
    vals = [(1.0 + nu(float(X), ctx.cfg)) / (1.0 + mu(float(X), ctx.cfg)) for X in xs]
    worst_increase = max(b - a for a, b in zip(vals, vals[1:]))
    return [_mk("H100", 0.0, worst_increase, "<=", 1e-15,
                "(1+nu)/(1+mu) decreasing on X in [0.5, 3], 60 points")]


@check("LLL7")
def _check_lll7(ctx) -> list[LemmaReport]:
    worst = math.inf
    for X in np.linspace(0.211, 2.0, 80):
        last = ctx.cfg.last_index(X, 6, 1, "LLL7 sums")
        s = 0.0
        for n in range(2, last + 1):
            for m in range(1, last + 1):
                if n >= 3 or m >= 3:  # every pair but (2, 1) and (2, 2)
                    s += n * n * m * m * abs(n * n - m * m) * (n * n - 1) * math.exp(
                        -_PI * (m * m + n * n - 5) * X
                    )
        worst = min(worst, 1.0 - s / 36.0)
    return [_mk("LLL7", 0.0, worst, ">=", 0.0, "X in (0.21, 2], 80 points",
                "positivity of the normalized derivative-quotient majorant")]


@check("L24-root")
def _check_nu_root(ctx) -> list[LemmaReport]:
    lo, hi = 0.25, 0.35
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 1.0 - nu(mid, ctx.cfg) > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    return [_mk("L24-root", 0.2989938127, root, "~", 1e-9, "bisection of 1 - nu on [0.25, 0.35]")]


@check("P1a", "P1b", "P2")
def _check_ratio_constants(ctx) -> list[LemmaReport]:
    m, n = mu(0.5, ctx.cfg), nu(0.5, ctx.cfg)
    return [
        _mk("P1a", 1.186694067, (1.0 + n) / (1.0 - m), "~", 1e-8, "series at X = 1/2"),
        _mk("P1b", 1.074612508, (1.0 + m) / (1.0 - m), "~", 1e-8, "series at X = 1/2"),
        _mk("P2", 1.104299511, (1.0 + n) / (1.0 + m), "~", 1e-8, "series at X = 1/2"),
    ]


@check("fa1")
def _check_fa1(ctx) -> list[LemmaReport]:
    worst = 0.0
    for a in np.linspace(2.0, 50.0, 49):
        ks = range(1, ctx.cfg.last_index(a, 4, 1, "fa1") + 1)
        num = sum((2 * a * _PI * k**4 - 3 * k * k) * math.exp(-a * _PI * k * k) for k in ks)
        den = -1.0 + 2.0 * sum((2 * a * _PI * k * k - 1) * math.exp(-a * _PI * k * k) for k in ks)
        worst = max(worst, abs(2.0 * num / den))
    return [_mk("fa1", 0.05, worst, "<=", 0.0, "a in [2, 50], 49 points",
                "|limit of the comb moment ratio at Y = 0|")]


# ---------------------------------------------------------------------------
# theta(alpha; z), W_b and the horizontal monotonicity
# ---------------------------------------------------------------------------


def _brute_theta(alpha: float, z: UpperHalfPoint) -> float:
    return sum(math.exp(-_PI * alpha * q) for q, _ in lattice_norms(z, 8.0))


def _brute_w(alpha: float, b: float, z: UpperHalfPoint) -> float:
    return sum((q - b / alpha) * math.exp(-_PI * alpha * q) for q, _ in lattice_norms(z, 8.0))


_SAMPLE_POINTS = (
    UpperHalfPoint(0.5, RT3_2),
    UpperHalfPoint(0.0, 1.0),
    UpperHalfPoint(0.3, 1.2),
    UpperHalfPoint(0.13, 2.6),
    UpperHalfPoint(0.47, 0.95),
)


@check("L34")
def _check_theta_expansion(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha in (1.0, 1.3, 2.0):
        for z in _SAMPLE_POINTS:
            ref = _brute_theta(alpha, z)
            worst = max(worst, abs(theta_lattice(alpha, z, ctx.cfg) - ref) / ref)
    return [_mk("L34", 1e-12, worst, "<=", 0.0,
                "alpha in {1,1.3,2} x 5 sample z vs radius-8 direct sums")]


@check("L32")
def _check_w_expansion(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha, b in ((1.0, 0.0), (1.5, 0.1), (2.0, B_CRITICAL)):
        for z in _SAMPLE_POINTS:
            ref = _brute_w(alpha, b, z)
            worst = max(worst, abs(w_b(alpha, b, z, ctx.cfg) - ref))
    return [_mk("L32", 1e-12, worst, "<=", 0.0,
                "3 (alpha, b) x 5 z vs radius-8 direct sums (absolute gap)")]


@check("L33")
def _check_w_structure(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha, b in ((1.7, 0.1), (1.2, 0.0), (2.5, B_CRITICAL)):
        for z in _SAMPLE_POINTS[:3]:
            a_val = w_b(alpha, b, z, ctx.cfg)
            b_val = w_b_via_theta_derivative(alpha, b, z, ctx.cfg)
            worst = max(worst, abs(a_val - b_val) / max(abs(a_val), 1e-12))
    return [_mk("L33", 1e-6, worst, "<=", 0.0,
                "W_b vs -(1/pi) d(theta)/d(alpha) - (b/alpha) theta (FD route)")]


@check("L35")
def _check_vanishing(ctx) -> list[LemmaReport]:
    rng = np.random.default_rng(ctx.seed + 2)
    worst = max(abs(w_b(1.0, B_CRITICAL, z, ctx.cfg)) for z in _random_domain_points(rng, 100))
    return [_mk("L35", 1e-10, worst, "<=", 0.0,
                "100 seeded z in the fundamental domain, y <= 10")]


@check("Wdeform")
def _check_wdeform(ctx) -> list[LemmaReport]:
    alpha, b, b0 = 1.5, 0.05, B_CRITICAL
    worst = 0.0
    for z in _SAMPLE_POINTS:
        lhs = w_b(alpha, b, z, ctx.cfg)
        rhs = w_b(alpha, b0, z, ctx.cfg) + (b0 - b) / alpha * theta_lattice(alpha, z, ctx.cfg)
        worst = max(worst, abs(lhs - rhs))
    return [_mk("Wdeform", 1e-12, worst, "<=", 0.0, "(alpha,b,b0)=(1.5,0.05,1/2pi) x 5 z")]


@check("Thaaa")
def _check_duality(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha in np.geomspace(0.1, 10.0, 9):
        for z in _SAMPLE_POINTS:
            t = theta_lattice(float(alpha), z, ctx.cfg)
            worst = max(worst, abs(theta_lattice(1.0 / float(alpha), z, ctx.cfg) - float(alpha) * t) / (float(alpha) * t))
    return [_mk("Thaaa", 1e-12, worst, "<=", 0.0, "alpha log-grid [0.1,10] x 5 z")]


def _random_word(rng: np.random.Generator) -> list[Generator]:
    gens = list(Generator)
    return [gens[int(rng.integers(0, 4))] for _ in range(int(rng.integers(1, 7)))]


@check("G111", "Geee")
def _check_invariance(ctx) -> list[LemmaReport]:
    rng = np.random.default_rng(ctx.seed + 3)
    worst_t = 0.0
    worst_w = 0.0
    for _ in range(25):
        z = _random_domain_points(rng, 1, y_max=4.0)[0]
        zz = apply_word(_random_word(rng), z)
        for alpha in (1.0, 1.7):
            t0 = theta_lattice(alpha, z, ctx.cfg)
            worst_t = max(worst_t, abs(theta_lattice(alpha, zz, ctx.cfg) - t0) / t0)
            w0 = w_b(alpha, 0.1, z, ctx.cfg)
            worst_w = max(worst_w, abs(w_b(alpha, 0.1, zz, ctx.cfg) - w0) / max(abs(w0), 1e-12))
    return [
        _mk("G111", 1e-11, worst_t, "<=", 0.0, "25 seeded z x random words (length <= 6)"),
        _mk("Geee", 1e-11, worst_w, "<=", 0.0, "same points, W_{0.1}"),
    ]


@check("Fd3", "Fd3-idem", "G111-norms")
def _check_reduction(ctx) -> list[LemmaReport]:
    rng = np.random.default_rng(ctx.seed + 4)
    worst_idem = 0.0
    worst_closure = 0.0
    worst_norms = 0.0
    for _ in range(40):
        z = UpperHalfPoint(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 3.0)))
        red, word = reduce_to_fundamental(z)
        back = apply_word(word, z)
        worst_closure = max(
            worst_closure,
            abs(back.x - red.x),
            abs(back.y - red.y),
            max(0.0, -red.x),
            max(0.0, red.x - 0.5),
            max(0.0, 1.0 - math.sqrt(red.abs2())),
        )
        again, word2 = reduce_to_fundamental(red)
        worst_idem = max(worst_idem, abs(again.x - red.x), abs(again.y - red.y), float(len(word2)))
        # Lattice geometry is group-invariant: compare sorted norm multisets.
        n0 = [q for q, _ in lattice_norms(z, 3.0)]
        n1 = [q for q, _ in lattice_norms(apply_word(_random_word(rng), z), 3.0)]
        k = min(len(n0), len(n1))  # boundary-radius points may differ; compare the core
        worst_norms = max(worst_norms, max(abs(a - b) for a, b in zip(n0[: k - 2], n1[: k - 2])))
    return [
        _mk("Fd3", 1e-12, worst_closure, "<=", 0.0, "40 seeded z",
            "closure membership and word consistency"),
        _mk("Fd3-idem", 0.0, worst_idem, "<=", 1e-14, "reduction is idempotent with empty word"),
        _mk("G111-norms", 1e-12, worst_norms, "<=", 0.0,
            "sorted radius-3 norm multisets agree under random group words"),
    ]


@check("Eq319")
def _check_eq319(ctx) -> list[LemmaReport]:
    worst = max(abs(dx_w(1.0, z, ctx.cfg)) for z in _SAMPLE_POINTS)
    return [_mk("Eq319", 1e-10, worst, "<=", 0.0, "alpha = 1, 5 sample z")]


def _domain_grid(nx: int, ny: int, y_max: float) -> list[UpperHalfPoint]:
    pts = []
    for i in range(nx):
        x = 0.02 + (0.48 - 0.02) * i / (nx - 1)
        ymin = math.sqrt(max(1.0 - x * x, 0.75)) + 1e-3
        for j in range(ny):
            pts.append(UpperHalfPoint(x, ymin + (y_max - ymin) * j / (ny - 1)))
    return pts


@check("Th32")
def _check_dx_negative(ctx) -> list[LemmaReport]:
    worst = -math.inf
    for alpha in (1.05, 1.2, 2.0, 5.0):
        for z in _domain_grid(20, 20, 5.0):
            worst = max(worst, dx_w(alpha, z, ctx.cfg))
    return [_mk("Th32", 0.0, worst, "<=", 0.0,
                "20x20 domain grid (y <= 5), alpha in {1.05, 1.2, 2, 5}",
                "max of d/dx W over the grid; the claim is strict negativity")]


@check("L36-L38")
def _check_dx_paths(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha in (1.05, 1.5, 3.0):
        for z in _SAMPLE_POINTS:
            a_val = dx_w(alpha, z, ctx.cfg)
            b_val = dx_w_double_sum(alpha, z, ctx.cfg)
            scale = max(abs(a_val), abs(b_val))
            if scale > 1e-13:  # at x in {0, 1/2} both paths vanish identically
                worst = max(worst, abs(a_val - b_val) / scale)
    return [_mk("L36-L38", 1e-10, worst, "<=", 0.0,
                "theta-series path vs A_{n,m} double-sum path")]


@check("L39")
def _check_lemma39(ctx) -> list[LemmaReport]:
    worst = math.inf
    for alpha in (1.01, 1.05, 1.1):
        for y in (1.0, 1.2, 1.5, 3.0):
            # floor = (1/2) A_{1,1} sin(2 pi x); the printed display drops the
            # e^{-pi y (alpha + 1/alpha)} factor of A_{1,1}, without which the
            # exponentially small double sum could not dominate at large y
            s_ref = 0.5 * (alpha * alpha - 1.0) * math.exp(-_PI * y * (alpha + 1.0 / alpha))
            # the double sum s, read off dx_w_double_sum = -8 pi alpha^{-5/2} y^{3/2} s
            scale = -8.0 * _PI * alpha**-2.5 * y**1.5
            for x in [i / 40.0 for i in range(1, 20)]:  # y >= 1, so |z| > 1
                s = dx_w_double_sum(alpha, UpperHalfPoint(x, y), ctx.cfg) / scale
                worst = min(worst, s - s_ref * math.sin(2 * _PI * x))
    return [_mk("L39", 0.0, worst, ">=", 1e-18,
                "alpha in (1, 1.1], y in [1, 3], x in (0, 1/2), |z| > 1",
                "double sum minus (1/2)(alpha^2-1) e^{-pi y (alpha+1/alpha)} "
                "sin(2 pi x); positivity plus the quantitative floor with the "
                "leading-coefficient scale restored")]


@check("L310", "L311")
def _check_lemma310_311(ctx) -> list[LemmaReport]:
    out = []
    for lemma_id, swap in (("L310", False), ("L311", True)):
        worst = 0.0
        for alpha in (1.02, 1.05, 1.1):
            for y in (1.0, 1.5, 3.0):
                bconst = geometric_tail_constant(y, 1.0 / alpha)
                for m in (1, 2, 3, 4):
                    amm = coupling_coefficient(m, m, alpha, y)
                    last = ctx.cfg.last_index(y * min(alpha, 1.0 / alpha), 3, m + 1, "L310/L311 sums")
                    for x in [i / 80.0 for i in range(1, 40)]:
                        s_ref = math.sin(2 * m * m * _PI * x)
                        if abs(s_ref) < 1e-3:
                            continue
                        s = sum(
                            coupling_coefficient(*((m, n) if swap else (n, m)), alpha, y)
                            * math.sin(2 * m * n * _PI * x)
                            for n in range(m + 1, last + 1)
                        )
                        worst = max(worst, abs(s) / (bconst * amm * abs(s_ref)))
        note = ("mean-value endpoint alpha0 = 1/alpha (maximizing B); the bound "
                "genuinely needs the mean-value slack: at the opposite endpoint "
                "alpha0 = alpha the m = 1 ratio exceeds 1")
        out.append(_mk(lemma_id, 1.0, worst, "<=", 1e-12,
                       "alpha in (1,1.1], y in [1,3], m <= 4, x avoiding sin(2m^2 pi x) zeros",
                       note))
    return out


@check("B100", "B100-tail")
def _check_b100(ctx) -> list[LemmaReport]:
    y, alpha0 = RT3_2, 1.0
    b1 = 64.0 * alpha0 * _PI * y * math.exp(-3.0 * _PI * y * alpha0)
    q = 64.0 * math.exp(-5.0 * _PI * y * alpha0)
    ident = abs(geometric_tail_constant(y, alpha0) - b1 / (1.0 - q))
    direct = 0.0
    m = 1
    # the exponent (2m + k) k = k^2 + 2mk decays at least as fast as the Gaussian k^2
    for k in range(1, ctx.cfg.last_index(alpha0 * y, 6, 1, "B100 tail") + 1):
        direct += ((m + k) / m) ** 4 * (m + k) ** 2 * alpha0 * _PI * y * math.exp(
            -alpha0 * _PI * y * (2 * m + k) * k
        )
    rep1 = _mk("B100", 0.0, ident, "<=", 1e-15, "(y, alpha0) = (rt3/2, 1)",
               "B equals the closed geometric form b1/(1-q)")
    rep2 = _mk("B100-tail", geometric_tail_constant(y, alpha0), direct, "<=", 0.0,
               "direct sum of the b_k tail terms vs its geometric majorant B")
    return [rep1, rep2]


@check("Gaa4")
def _check_gaa4(ctx) -> list[LemmaReport]:
    # Fixed range: the exponent is linear in n, which last_index's Gaussian rule does not fit.
    s = sum(n**6 * math.exp(-math.sqrt(3.0) * _PI * n) for n in range(2, 60))
    return [_mk("Gaa4", 1.27e-3, s, "<=", 0.0, "direct sum, n >= 2")]


@check("P3-sigma1", "P3-sigma2", "P5-sigma3", "P5-sigma4")
def _check_sigmas(ctx) -> list[LemmaReport]:
    m_half, n_half = mu(0.5, ctx.cfg), nu(0.5, ctx.cfg)
    # The sigma tails at alpha y = 1.1 rt3/2, and at alpha = rt3, y = rt3/2, where
    # e^{-rt3 pi ((k^2 - 1) rt3/2 - 1/(2 rt3))} = e^{pi/2} e^{-pi (k^2 - 1) 3/2}.
    tail4, tail2 = nu(1.1 * RT3_2, ctx.cfg), mu(1.1 * RT3_2, ctx.cfg)
    e_small = math.exp(_PI / 2.0) * nu(1.5, ctx.cfg)
    e_small2 = math.exp(_PI / 2.0) * mu(1.5, ctx.cfg)
    return [
        _mk("P3-sigma1", 2.169e-3, (1.0 + m_half) / (1.0 - m_half) * tail4, "<=",
            _half_last_digit(2.169e-3, 4), "extremal parameters alpha = 1.1, y = rt3/2, y/alpha = 1/2"),
        _mk("P3-sigma2", 6.75e-4, (1.0 + n_half) / (1.0 - m_half) * tail2, "<=",
            _half_last_digit(6.75e-4, 3), "same extremal parameters"),
        _mk("P5-sigma3", 1.777e-5, e_small / _PI, "<=", _half_last_digit(1.777e-5, 4),
            "printed ceiling reads 1.777e-6; its own defining series at the stated "
            "extremal point evaluates to 1.776e-5, so the printed exponent is off by "
            "one (mantissa matches); the corrected ceiling 1.777e-5 is asserted"),
        _mk("P5-sigma4", 2.727e-5, (3.0 / _PI) * (1.0 + _PI / 3.0) * e_small2, "<=",
            _half_last_digit(2.727e-5, 4),
            "extremal parameters alpha = rt3, y = rt3/2, alpha/y = 2"),
    ]


@check("Case3-W", "Case3-T")
def _check_asymptotics(ctx) -> list[LemmaReport]:
    out = []
    y = 400.0
    worst = 0.0
    for alpha, b in ((1.0, 0.3), (2.0, 0.05)):
        val = w_b(alpha, b, UpperHalfPoint(0.5, y), ctx.cfg)
        coef = val * alpha**1.5 / math.sqrt(y)
        worst = max(worst, abs(coef - (B_CRITICAL - b)) / abs(B_CRITICAL - b))
    out.append(_mk("Case3-W", 1e-3, worst, "<=", 0.0, "y = 400",
                   "W_b ~ alpha^{-3/2} sqrt(y) (1/(2 pi) - b)"))
    worst = 0.0
    for alpha, a, b in ((1.0, 2.0, 1.7), (1.5, 3.0, 1.0)):
        val = theta_difference(alpha, a, b, UpperHalfPoint(0.5, y), ctx.cfg)
        coef = val / math.sqrt(y / (a * alpha))
        worst = max(worst, abs(coef - (math.sqrt(a) - b)) / abs(math.sqrt(a) - b))
    out.append(_mk("Case3-T", 1e-3, worst, "<=", 0.0, "y = 400",
                   "theta difference ~ sqrt(y/(a alpha)) (sqrt(a) - b)"))
    return out


@check("W1")
def _check_w1(ctx) -> list[LemmaReport]:
    worst = 0.0
    for alpha, a in ((1.0, 2.0), (1.3, 3.0)):
        for z in _SAMPLE_POINTS[:3]:
            lhs = theta_difference(alpha, a, math.sqrt(a), z, ctx.cfg)
            rhs = theta_difference_via_w_integral(alpha, a, z, ctx.cfg)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return [_mk("W1", 1e-8, worst, "<=", 0.0,
                "(alpha, a) in {(1,2), (1.3,3)} x 3 z, 64-node quadrature",
                "exact form pi alpha int_1^a sqrt(t) W(t alpha) dt; the printed "
                "display omits the alpha sqrt(t) weight required by the "
                "fundamental-theorem step")]


# ---------------------------------------------------------------------------
# Vertical-line analysis
# ---------------------------------------------------------------------------


@check("HHH", "HHH-dsum")
def _check_hhh(ctx) -> list[LemmaReport]:
    h = 5e-4
    k = 5e-4

    def wyy(alpha: float) -> float:
        up = w_b(alpha, B_CRITICAL, UpperHalfPoint(0.5, RT3_2 + h), ctx.cfg)
        mid = w_b(alpha, B_CRITICAL, UpperHalfPoint(0.5, RT3_2), ctx.cfg)
        dn = w_b(alpha, B_CRITICAL, UpperHalfPoint(0.5, RT3_2 - h), ctx.cfg)
        return (up - 2.0 * mid + dn) / (h * h)

    fd = (wyy(1.0 + k) - wyy(1.0 - k)) / (2.0 * k)
    ds = dw_mixed_operator(1.0, RT3_2, ctx.cfg)
    return [
        _mk("HHH", 1.127521373, fd, "~", 1e-5,
            "nested central differences, steps 5e-4 (1e-4 sits inside the "
            "roundoff-amplified noise band of the second difference)"),
        _mk("HHH-dsum", 1.127521373, ds, "~", 1e-6,
            "independent route: mixed-derivative double-sum identity at "
            "(alpha, y) = (1, rt3/2), where the d_ya term vanishes"),
    ]


@check("aaF4")
def _check_aaf4(ctx) -> list[LemmaReport]:
    worst = max(abs(dy_w(alpha, hexagonal_point(), ctx.cfg)) for alpha in (0.5, 1.0, 1.7, 3.0))
    return [_mk("aaF4", 1e-9, worst, "<=", 0.0, "alpha in {0.5, 1, 1.7, 3} at y = rt3/2, x = 1/2")]


@check("Prop41")
def _check_prop41(ctx) -> list[LemmaReport]:
    worst = math.inf
    for alpha in (1.1, 1.5, 3.0):
        for y in np.linspace(RT3_2, 6.0, 40):
            worst = min(worst, dy_w(alpha, UpperHalfPoint(0.5, float(y)), ctx.cfg))
    return [_mk("Prop41", 0.0, worst, ">=", 1e-12,
                "alpha in {1.1, 1.5, 3}, y in [rt3/2, 6] (40 points) on x = 1/2")]


@check("L44-limit")
def _check_l44_limit(ctx) -> list[LemmaReport]:
    return [_mk("L44-limit", 0.374030114, _PI * _PI - 3.5 * _PI + 1.5, "~", 1e-9, "closed form")]


def _l47_bracket(alpha: float) -> float:
    """The L47 bracket at y n^2 = 2 rt3; it vanishes like alpha^2 - 1 at alpha = 1."""
    c = 2.0 * math.sqrt(3.0) * _PI
    return c / alpha - 1.5 - alpha**2 * (c * alpha - 1.5) * math.exp(-c * (alpha - 1.0 / alpha))


@check("L47-limit", "L47-floor", "L47-Bn")
def _check_l47(ctx) -> list[LemmaReport]:
    limit = 0.5 * sum(_l47_bracket(a) / (a * a - 1.0) for a in (1.0 + 1e-6, 1.0 - 1e-6))
    reports = [_mk("L47-limit", 81.84546604, limit, "~", 1e-3,
                   "removable singularity sampled at alpha = 1 +- 1e-6")]
    worst = math.inf
    for alpha in np.linspace(1.0 + 1e-9, 7.0, 61):
        worst = min(worst, _l47_bracket(alpha) - 0.00113927433 * (alpha * alpha - 1.0))
    reports.append(_mk("L47-floor", 0.0, worst, ">=", 1e-9,
                       "bracket at x = y n^2 = 2 rt3, alpha in [1, 7]",
                       "floor 0.00113927433 (alpha^2 - 1) is tight at alpha = 7"))
    worst_bn = math.inf
    for alpha in np.linspace(1.0, 7.0, 31):
        for y in np.linspace(RT3_2, 8.0, 16):
            for n in range(2, 9):
                bn = (
                    2.0 * y**1.5 * _PI**2 / alpha * n**4
                    * (math.exp(-_PI * n * n * y / alpha) - alpha**4 * math.exp(-_PI * n * n * y * alpha))
                    - 3.0 * _PI * y**0.5 * n * n
                    * (math.exp(-_PI * n * n * y / alpha) - alpha**2 * math.exp(-_PI * n * n * y * alpha))
                )
                worst_bn = min(worst_bn, bn)
    reports.append(_mk("L47-Bn", 0.0, worst_bn, ">=", 1e-12,
                       "alpha in [1, 7], y in [rt3/2, 8], n in 2..8",
                       "single-sum comparison terms are nonnegative (zero at alpha = 1)"))
    return reports


def _alternating_sums(alpha: float, y: float, cfg: SeriesConfig) -> tuple[float, float]:
    """The alternating double sums over n, m >= 1, sign (-1)^{nm}:
    sum n^2 (alpha^2 e_nm - e_mn) and sum n^4 (e_mn - alpha^4 e_nm), where
    e_nm = e^{-pi y (n^2 alpha + m^2 / alpha)}; both indices run to last_index
    at the smaller decay y min(alpha, 1/alpha)."""
    ns = np.arange(1.0, cfg.last_index(y * min(alpha, 1.0 / alpha), 4, 1, "alternating sums") + 1.0)
    N, M = np.meshgrid(ns, ns, indexing="ij")
    sign = np.where((N * M) % 2 == 0, 1.0, -1.0)
    e_nm = np.exp(-_PI * y * (N**2 * alpha + M**2 / alpha))
    e_mn = np.exp(-_PI * y * (M**2 * alpha + N**2 / alpha))
    return (
        float((sign * N**2 * (alpha**2 * e_nm - e_mn)).sum()),
        float((sign * N**4 * (e_mn - alpha**4 * e_nm)).sum()),
    )


@check("L48-n4", "L48-n2")
def _check_l48(ctx) -> list[LemmaReport]:
    worst4 = math.inf
    worst2 = math.inf
    for alpha in (1.02, 1.1, 1.2):
        for y in (RT3_2, 1.0, 1.5, 3.0, 6.0):
            bconst = geometric_tail_constant(y, 1.0 / alpha)  # endpoint maximizing B
            base = math.exp(-_PI * y * (alpha + 1.0 / alpha))
            s2, s4 = _alternating_sums(alpha, y, ctx.cfg)
            worst4 = min(worst4, s4 - (1.0 - bconst) * (alpha**4 - 1.0) * base)
            worst2 = min(worst2, s2 + (1.0 + bconst) * (alpha**2 - 1.0) * base)
    return [
        _mk("L48-n4", 0.0, worst4, ">=", 0.0, "alpha in (1, 1.2], y in [rt3/2, 6]",
            "alternating n^4 double sum minus its (1-B) lower bound, alpha0 = 1/alpha"),
        _mk("L48-n2", 0.0, worst2, ">=", 1e-15, "same grid",
            "alternating n^2 double sum minus its -(1+B) lower bound; at the "
            "opposite endpoint alpha0 = alpha this margin dips to -9e-10"),
    ]


@check("L44-floor")
def _check_lb_floor(ctx) -> list[LemmaReport]:
    al, yy = np.meshgrid(np.linspace(1.0, 1.2, 60), np.linspace(1.0, 6.0, 60), indexing="ij")
    bmax = _b_max(al, yy)
    gap = lb_lower_bound(al, yy, bmax) - 0.316 * (al**2 - 1.0)
    rng = np.random.default_rng(ctx.seed + 5)
    ar = rng.uniform(1.0, 1.2, 1000)
    yr = rng.uniform(1.0, 6.0, 1000)
    gap_r = lb_lower_bound(ar, yr, _b_max(ar, yr)) - 0.316 * (ar**2 - 1.0)
    worst = float(min(gap.min(), gap_r.min()))
    printed_ratio = float(
        (lb_printed(al, yy, bmax) / np.maximum(al**2 - 1.0, 1e-12))[al > 1.0001].min()
    )
    note = (
        "uses the expansion-consistent double-sum contribution (see lb_lower_bound); "
        f"the form as printed bottoms out at {printed_ratio:.4f} (alpha = 1.2, y = 1) "
        "and misses the 0.316 floor; conservative mean-value endpoint (max B)"
    )
    return [_mk("L44-floor", 0.0, worst, ">=", 1e-9,
                "60x60 grid + 1000 seeded points on [1, 1.2] x [1, 6]", note)]


@check("L43-bound")
def _check_lb_validity(ctx) -> list[LemmaReport]:
    worst = math.inf
    for alpha in np.linspace(1.01, 1.2, 6):
        for y in np.linspace(1.0, 4.0, 6):
            bmax = _b_max(float(alpha), float(y))
            bound = (
                2.0 * _PI * (alpha**2 - 1.0) * math.sqrt(y) * math.exp(-_PI * y / alpha)
                * float(lb_lower_bound(float(alpha), float(y), bmax))
            )
            lhs = _PI * float(alpha) ** 2.5 * dy_w(float(alpha), UpperHalfPoint(0.5, float(y)), ctx.cfg)
            worst = min(worst, lhs - bound)
    return [_mk("L43-bound", 0.0, worst, ">=", 1e-12,
                "6x6 grid on [1.01, 1.2] x [1, 4]",
                "pi alpha^{5/2} d_y W dominates the assembled lower bound")]


@check("L412-floor")
def _check_rc_floor(ctx) -> list[LemmaReport]:
    n = 60
    al = np.linspace(1.2, 6.0, n)
    worst = math.inf
    argmin = (0.0, 0.0)
    for a in al:
        ys = np.linspace(5.0 * a / 6.0, 8.0, n)
        vals = rc_inner_expression(a, ys, ctx.cfg)
        i = int(np.argmin(vals))
        if float(vals[i]) < worst:
            worst = float(vals[i])
            argmin = (float(a), float(ys[i]))
    note = (
        "printed claim is >= 1/2; the expression as printed (with its own "
        f"pointwise error terms) reaches {worst:.5f} at (alpha, y) = "
        f"({argmin[0]:.3g}, {argmin[1]:.3g}), the region corner, so the printed "
        "floor fails there; positivity (the load-bearing claim) holds, and the "
        "corner minimum is stable under grid refinement"
    )
    return [_mk("L412-floor", 0.5, worst, ">=", 1e-9,
                "60x60 grid on alpha in [1.2, 6], y in [5 alpha/6, 8]", note)]


@check("L413-eps1", "L414-eps2", "L413-eps3", "L414-eps4")
def _check_rc_epsilons(ctx) -> list[LemmaReport]:
    e1, e2, e3, e4 = (float(v) for v in eps_c_terms(1.2, 1.0, ctx.cfg))
    grid_note = "R_c corner (alpha, y) = (1.2, 1.0), where all four terms peak"
    return [
        _mk("L413-eps1", 5.68e-4, e1, "<=", _half_last_digit(5.68e-4, 3), grid_note,
            "computed 5.67e-5; the printed ceiling looks exponent-shifted by one "
            "(mantissa matches) but holds as printed"),
        _mk("L414-eps2", 1.23e-5, e2, "<=", _half_last_digit(1.23e-5, 3), grid_note),
        _mk("L413-eps3", 2.27e-3, e3, "<=", _half_last_digit(2.27e-3, 3), grid_note,
            "computed 2.27e-4; same exponent-shift observation, holds as printed"),
        _mk("L414-eps4", 1.24e-5, e4, "<=", _half_last_digit(1.24e-5, 3), grid_note),
    ]


def _theta_weighted_sums(alpha: float, y: float, cfg: SeriesConfig):
    """theta, theta_X and theta_XX at (y/alpha; n/2), n = 0, 1, ... (index 1 is Y = 1/2),
    and sum_n n^power e^{-alpha pi y n^2} d_X^order theta(y/alpha; n/2), n in Z, for
    (power, order) = (2, 0), (4, 0), (0, 1), (0, 2), each cut at its own last index."""
    cuts = [(p, o, cfg.last_index(alpha * y, p, 1, "theta_weighted_sums")) for p, o in ((2, 0), (4, 0), (0, 1), (0, 2))]
    rows = theta_rows(y / alpha, [0.5 * n for n in range(max(c[2] for c in cuts) + 1)], [(0, 0), (1, 0), (2, 0)], cfg)
    sums = []
    for power, order, last in cuts:
        f = rows[order]
        total = 0.0 if power else f[0]
        for n in range(1, last + 1):
            total += 2.0 * float(n) ** power * math.exp(-alpha * _PI * y * n * n) * f[n]
        sums.append(total)
    return rows, sums


@check("L413-ineq", "L414-ineq")
def _check_l413_l414_ineq(ctx) -> list[LemmaReport]:
    worst13 = worst14 = math.inf
    for alpha in (1.2, 1.5, 2.5):
        for y in (1.0, 1.5, 3.0):
            if y < 5.0 * alpha / 6.0:
                continue
            # theta-ratio prefactor (1 + 2t)/(1 - 2t): theta(X;Y) lies between
            # 1 -+ 2 sum_k e^{-pi k^2 X}; the printed error terms carry the comb
            # sum without its factor 2, which leaves the n^4 inequality short by
            # a few 1e-5 relative at the region corner.
            t = _comb_sum(y / alpha, ctx.cfg)
            pref = (1.0 + 2.0 * t) / (1.0 - 2.0 * t)
            e1, e3 = pref * mu(alpha * y, ctx.cfg), pref * nu(alpha * y, ctx.cfg)
            (th, th_x, th_xx), (lhs2, lhs4, lhs_x, lhs_xx) = _theta_weighted_sums(alpha, y, ctx.cfg)
            base = 2.0 * math.exp(-_PI * alpha * y) * th[1]
            worst13 = min(worst13, lhs2 - base * (1.0 - e1), base * (1.0 + e3) - lhs4)
            _, e2, _, e4 = (float(v) for v in eps_c_terms(alpha, y, ctx.cfg))
            base_x = 2.0 * math.exp(-_PI * alpha * y) * th_x[1]
            base_xx = 2.0 * math.exp(-_PI * alpha * y) * th_xx[1]
            worst14 = min(
                worst14,
                lhs_x - (th_x[0] + base_x * (1.0 - e2)),
                lhs_xx - (th_xx[0] + base_xx * (1.0 + e4)),
            )
    return [
        _mk("L413-ineq", 0.0, worst13, ">=", 0.0, "R_c samples",
            "two-sided theta-weighted n^2/n^4 sum bounds with the "
            "factor-2 comb prefactor restored"),
        _mk("L414-ineq", 0.0, worst14, ">=", 0.0, "y/alpha >= 5/6 samples",
            "theta_X / theta_XX weighted-sum lower bounds"),
    ]


@check("L415", "L416")
def _check_l415_l416(ctx) -> list[LemmaReport]:
    worst = math.inf
    for X0 in (0.55, 0.85, 1.3, 2.0):
        alpha = 1.0
        y = X0
        [th_x], [th_xx] = theta_rows(X0, [0.0], [(1, 0), (2, 0)], ctx.cfg)
        lhs = 1.5 * math.sqrt(y) * th_x + y**1.5 / alpha * th_xx
        rhs = 2.0 * _PI * math.sqrt(y) * (_PI * y / alpha - 1.5) * math.exp(-_PI * y / alpha)
        worst = min(worst, lhs - rhs)
    rep1 = _mk("L415", 0.0, worst, ">=", 1e-14, "y/alpha in {0.55, 0.85, 1.3, 2} > 3/(2 pi)")
    worst = math.inf
    for X in map(float, np.linspace(5.0 / 6.0, 4.0, 30)):
        [th], [th_xx] = theta_rows(X, [0.5], [(0, 0), (2, 0)], ctx.cfg)
        worst = min(worst, 1.0 - th, 2.0 * _PI**2 * math.exp(-_PI * X) - abs(th_xx))
    rep2 = _mk("L416", 0.0, worst, ">=", 1e-14, "X in [5/6, 4], 30 points",
               "theta(X;1/2) <= 1 and |theta_XX(X;1/2)| <= 2 pi^2 e^{-pi X}")
    return [rep1, rep2]


@check("L45", "L46")
def _check_l45_l46(ctx) -> list[LemmaReport]:
    out = []
    worst = 0.0
    for alpha in (1.05, 1.15, 1.5):
        for y in (1.0, 1.3, 2.0):
            ks = range(1, ctx.cfg.last_index(min(y / alpha, y * alpha), 4, 1, "L45 single sums") + 1)
            single2 = float(sum(k * k * (math.exp(-_PI * k * k * y / alpha) - alpha**2 * math.exp(-_PI * k * k * y * alpha)) for k in ks))
            single4 = float(sum(k**4 * (math.exp(-_PI * k * k * y / alpha) - alpha**4 * math.exp(-_PI * k * k * y * alpha)) for k in ks))
            dbl2, dbl4 = _alternating_sums(alpha, y, ctx.cfg)
            printed = (
                1.5 * math.sqrt(y) * (-2.0 * _PI * single2 + 4.0 * _PI * dbl2)
                + y**1.5 * (2.0 * _PI**2 / alpha * single4 + 4.0 * _PI**2 / alpha * dbl4)
            )
            ref = _PI * alpha**2.5 * dy_w(alpha, UpperHalfPoint(0.5, y), ctx.cfg)
            worst = max(worst, abs(printed - ref) / max(abs(ref), 1e-14))
    out.append(_mk("L45", 1e-9, worst, "<=", 0.0,
                   "alpha in {1.05,1.15,1.5} x y in {1,1.3,2}",
                   "double-sum expansion equals pi alpha^{5/2} d_y W (the printed "
                   "expansion omits the (1/pi) alpha^{-5/2} prefactor of W itself)"))
    worst = 0.0
    for alpha in (1.05, 1.5):
        for y in (1.0, 2.0):
            _, (s2, s4, s_low, sxx) = _theta_weighted_sums(alpha, y, ctx.cfg)
            printed = (
                1.5 * math.sqrt(y) * (_PI * alpha**2 * s2 + s_low)
                + y**1.5 * (-_PI**2 * alpha**3 * s4 + sxx / alpha)
            )
            ref = _PI * alpha**2.5 * dy_w(alpha, UpperHalfPoint(0.5, y), ctx.cfg)
            worst = max(worst, abs(printed - ref) / max(abs(ref), 1e-14))
    out.append(_mk("L46", 1e-11, worst, "<=", 0.0,
                   "alpha in {1.05,1.5} x y in {1,2}",
                   "theta-series form, same pi alpha^{5/2} normalization as L45"))
    return out


def _radial_fd(f: Callable[[float], float], y: float, h: float) -> float:
    """(d_yy + (2/y) d_y) f at y by central differences with step h."""
    dyy = (f(y + h) - 2.0 * f(y) + f(y - h)) / (h * h)
    dy1 = (f(y + h) - f(y - h)) / (2.0 * h)
    return dyy + 2.0 / y * dy1


@check("L419", "L420", "L429")
def _check_operator_identities(ctx) -> list[LemmaReport]:
    h = k = 5e-4

    def w_on_half(alpha: float) -> Callable[[float], float]:
        return lambda yy: w_b(alpha, B_CRITICAL, UpperHalfPoint(0.5, yy), ctx.cfg)

    worst = 0.0
    for alpha, y in ((1.5, 1.2), (1.1, RT3_2), (2.0, 2.0)):
        fd = _radial_fd(lambda yy: theta_lattice(alpha, UpperHalfPoint(0.5, yy), ctx.cfg), y, h)
        ds = theta_radial_operator(alpha, UpperHalfPoint(0.5, y), ctx.cfg)
        worst = max(worst, abs(fd - ds) / max(abs(ds), 1e-12))
    out = [_mk("L419", 1e-5, worst, "<=", 0.0,
               "3 points on x = 1/2, finite differences with step 5e-4")]
    worst = 0.0
    for alpha, y in ((1.5, 1.2), (1.3, 1.0), (2.0, 2.0)):
        fd = _radial_fd(w_on_half(alpha), y, h)
        ds = dw_radial_operator(alpha, y, ctx.cfg)
        worst = max(worst, abs(fd - ds) / max(abs(ds), 1e-12))
    out.append(_mk("L420", 1e-5, worst, "<=", 0.0, "same scheme for W_{1/(2 pi)}"))
    worst = 0.0
    for alpha, y in ((1.1, 1.0), (1.0, RT3_2), (1.3, 1.5)):
        fd = (_radial_fd(w_on_half(alpha + k), y, h) - _radial_fd(w_on_half(alpha - k), y, h)) / (2.0 * k)
        ds = dw_mixed_operator(alpha, y, ctx.cfg)
        worst = max(worst, abs(fd - ds) / max(abs(ds), 1e-12))
    out.append(_mk("L429", 1e-5, worst, "<=", 0.0, "3 points, nested differences, steps 5e-4"))
    return out


def _min_with_arg(cells, gaps) -> list[tuple[float, tuple[float, float]]]:
    """For each of the values gaps(a, y) returns: its smallest over the (a, y)
    cells, and the first cell attaining it."""
    worst = None
    for a, y in cells:
        values = gaps(a, y)
        if worst is None:
            worst = [(math.inf, (0.0, 0.0))] * len(values)
        worst = [(v, (float(a), float(y))) if v < w else (w, arg) for v, (w, arg) in zip(values, worst)]
    return worst


@check("L422-Ld", "L422-caseb", "L421-bound")
def _check_rd_region(ctx) -> list[LemmaReport]:
    out = []
    # L_d > 0 on a 60x60 grid (the load-bearing positivity).
    worst = math.inf
    for a in np.linspace(1.2, 6.0, 60):
        ys = np.linspace(RT3_2, 5.0 * a / 6.0, 60)
        worst = min(worst, float(ld_function(a, ys).min()))
    out.append(_mk("L422-Ld", 0.0, worst, ">=", 0.0,
                   "60x60 grid on alpha in [1.2, 6], y in [rt3/2, 5 alpha/6]",
                   "strict positivity of the lower-bound function"))
    # The alpha = 1.2 explicit function, with its stated floor of 7.
    ys = np.linspace(RT3_2, 1.0, 400)
    caseb = ld_function(1.2, ys)
    out.append(_mk("L422-caseb", 7.0, float(caseb.min()), ">=", 0.5,
                   "alpha = 1.2 substituted, y in [rt3/2, 1], 400 points",
                   "the stated floor for this explicit function is 7; "
                   "recomputation gives ~2.05 (minimum at y = rt3/2), which still "
                   "proves the positivity the lemma needs"))
    # Validity of the printed derivative bound on R_d.
    [(worst, arg)] = _min_with_arg(
        ((a, y) for a in np.linspace(1.2, 3.0, 10) for y in np.linspace(RT3_2, 5.0 * a / 6.0, 8)),
        lambda a, y: (
            dw_radial_operator(float(a), float(y), ctx.cfg)
            - _PI * a * y**-4.0 * math.exp(-_PI * a / y) * float(ld_function(float(a), float(y))),
        ),
    )
    out.append(_mk("L421-bound", 0.0, worst, ">=", 0.0,
                   "10x8 grid on R_d (alpha <= 3)",
                   f"radial-operator value minus the printed bound; worst at {arg}"))
    return out


@check("L423", "L424", "L425", "L426", "L432", "L433", "L425-epsd1", "L426-epsd2")
def _check_dsum_bounds(ctx) -> list[LemmaReport]:
    out = []

    def first_shell(alpha, y):
        """q1 = y + 1/(4y), r1 = 1 - 1/(4y^2), e^{-pi alpha q1} and e^{-pi alpha/y}."""
        q1 = y + 0.25 / y
        return q1, 1.0 - 0.25 / y**2, math.exp(-_PI * alpha * q1), math.exp(-_PI * alpha / y)

    def rd_gaps(alpha, y):
        s_r2q, s_n2, s_r2, s_n2q, _, _ = _half_lattice_sums(alpha, y, ctx.cfg)
        q1, r1, e_q1, e_inv = first_shell(alpha, y)
        return (s_r2q - (2.0 / y**5 * e_inv + 4.0 * r1 * r1 * q1 * e_q1),
                s_n2 - 4.0 * e_q1,
                (1.0 + float(eps_d1(alpha, y))) * 2.0 / y**4 * e_inv + 4.0 * r1 * r1 * e_q1 - s_r2,
                4.0 * (1.0 + float(eps_d2(alpha, y))) * q1 * e_q1 - s_n2q)

    def ra_gaps(alpha, y):
        *_, s_n2q2, s_r2q2 = _half_lattice_sums(alpha, y, ctx.cfg)
        q1, r1, e_q1, e_inv = first_shell(alpha, y)
        return (s_n2q2 - 4.0 * q1 * q1 * e_q1,
                2.0 / y**6 * e_inv + 4.0 * r1 * r1 * q1 * q1 * e_q1
                + 3.0 * 256.0 * math.exp(-4.0 * _PI * alpha * y) - s_r2q2)

    # Lemmas 4.23-4.26 feed the R_d analysis, 4.32-4.33 the R_a analysis;
    # each is checked on the region where the proof deploys it.
    (worst23, _), (worst24, _), (worst25, arg25), (worst26, arg26) = _min_with_arg(
        ((float(a), float(y)) for a in np.linspace(1.2, 6.0, 25)
         for y in np.linspace(RT3_2, 5.0 * float(a) / 6.0, 12)), rd_gaps)
    (worst32, _), (worst33, arg33) = _min_with_arg(
        ((float(a), float(y)) for a in np.linspace(1.0, 1.2, 9) for y in np.linspace(RT3_2, 1.0, 9)),
        ra_gaps)
    grid_rd = "R_d grid (alpha in [1.2, 6], y in [rt3/2, 5 alpha/6]), sums |n|,|m| <= last_index"
    grid_ra = "R_a grid (alpha in [1, 1.2], y in [rt3/2, 1]), sums |n|,|m| <= last_index"
    out.append(_mk("L423", 0.0, worst23, ">=", 1e-18, grid_rd, "first-kind lower bound"))
    out.append(_mk("L424", 0.0, worst24, ">=", 1e-18, grid_rd, "second-kind lower bound"))
    out.append(_mk("L425", 0.0, worst25, ">=", 0.0, grid_rd,
                   f"third-kind upper bound; worst margin at {arg25}; the printed "
                   "remainder misses the (n,m) = (1,1)-type lattice points and "
                   "undercounts (p,q) = (+-2, 0), so the claim fails near the "
                   "y = rt3/2 corner by ~1e-4 of the sum"))
    out.append(_mk("L426", 0.0, worst26, ">=", 0.0, grid_rd,
                   f"fourth-kind upper bound; worst margin at {arg26}; same missing "
                   "lattice points as L425"))
    out.append(_mk("L432", 0.0, worst32, ">=", 1e-18, grid_ra, "R_a lower bound"))
    out.append(_mk("L433", 0.0, worst33, ">=", 0.0, grid_ra,
                   f"R_a upper bound; worst margin at {arg33}; the (n,m) = (1,1)-type "
                   "points are again not covered by the printed remainder"))
    # The printed ceilings of the two R_d error terms hold on the region.
    al, yy = np.meshgrid(np.linspace(1.2, 6.0, 60), np.linspace(RT3_2, 5.0, 60), indexing="ij")
    mask = yy <= 5.0 * al / 6.0 + 1e-12
    e1max = float(np.where(mask, eps_d1(al, yy), 0.0).max())
    e2max = float(np.where(mask, eps_d2(al, yy), 0.0).max())
    out.append(_mk("L425-epsd1", 3.92e-4, e1max, "<=", _half_last_digit(3.92e-4, 3),
                   "sup over the R_d grid (attained at alpha = 1.2, y = rt3/2)"))
    out.append(_mk("L426-epsd2", 9.27e-4, e2max, "<=", _half_last_digit(9.27e-4, 3),
                   "sup over the R_d grid (attained at alpha = 1.2, y = rt3/2)"))
    return out


@check("L431-La", "L430-bound")
def _check_ra_region(ctx) -> list[LemmaReport]:
    out = []
    al, yy = np.meshgrid(np.linspace(1.0, 1.2, 60), np.linspace(RT3_2, 1.0, 60), indexing="ij")
    la = la_function(al, yy)
    out.append(_mk("L431-La", 0.5, float(la.min()), ">=", 1e-9,
                   "60x60 grid on [1, 1.2] x [rt3/2, 1]"))
    [(worst, arg)] = _min_with_arg(
        ((a, y) for a in np.linspace(1.0, 1.2, 8) for y in np.linspace(RT3_2, 1.0, 8)),
        lambda a, y: (
            dw_mixed_operator(float(a), float(y), ctx.cfg)
            - _PI / y**4 * math.exp(-_PI * a / y) * float(la_function(float(a), float(y))),
        ),
    )
    out.append(_mk("L430-bound", 0.0, worst, ">=", 0.0, "8x8 grid on R_a",
                   f"mixed-operator value minus the printed bound; worst at {arg}; "
                   "the printed lower-bound function omits the remainder corrections "
                   "of its own ingredient bounds (L425/L426/L433), so it overshoots "
                   "the true derivative at small y; with those corrections restored "
                   "the bound holds (see tests)"))
    return out


@check("GH1-spot")
def _check_montgomery_spot(ctx) -> list[LemmaReport]:
    worst = math.inf
    hex_pt = hexagonal_point()
    for alpha in (0.5, 1.0, 2.0):
        t_hex = theta_lattice(alpha, hex_pt, ctx.cfg)
        for z in (UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.2, 1.4), UpperHalfPoint(0.45, 1.1)):
            worst = min(worst, theta_lattice(alpha, z, ctx.cfg) - t_hex)
    return [_mk("GH1-spot", 0.0, worst, ">=", 0.0,
                "hexagonal theta value vs 3 competitors, alpha in {0.5, 1, 2}",
                "consistency spot check of the classical theta-minimality fact")]


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------


class _Ctx(Record):
    __slots__ = ("cfg", "seed")

    def __init__(self, cfg: SeriesConfig, seed: int) -> None:
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "seed", seed)


#: Printed claims that recomputation contradicts (documented failures).
EXPECTED_FAILURES: tuple[str, ...] = (
    "L412-floor",
    "L421-bound",
    "L422-caseb",
    "L425",
    "L426",
    "L430-bound",
    "L433",
)


def run_checks(
    only: Iterable[str] | None = None,
    seed: int = DEFAULT_SEED,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> list[LemmaReport]:
    """Run the verification suite; returns reports sorted by lemma id.

    `only` restricts the run to the given report ids (UnknownLemma when an id
    does not exist), and only the check functions that emit one of them are
    called.  Each check seeds its own generator from `seed` and shares no
    state, so a subset reports exactly what the full run reports for it.
    """
    wanted = set(_EMITTERS if only is None else only)
    unknown = wanted.difference(_EMITTERS)
    if unknown:
        raise UnknownLemma(f"unknown lemma id(s): {sorted(unknown)}")
    ctx = _Ctx(cfg=cfg, seed=seed)
    emitters = dict.fromkeys(fn for lemma_id, fn in _EMITTERS.items() if lemma_id in wanted)
    reports = [r for fn in emitters for r in fn(ctx) if only is None or r.lemma_id in wanted]
    return sorted(reports, key=lambda r: r.lemma_id)


def coverage_manifest() -> list[str]:
    """Sorted list of every report id the registered checks emit."""
    return sorted(_EMITTERS)

