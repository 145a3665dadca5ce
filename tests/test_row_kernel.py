"""Frozen reference for the theta row kernels and the lattice row sums.

The lattice sums in hexlat.energy read one term table: a float loop takes
the inner factors theta(y/alpha; n x) for all rows n from one
theta1d.theta_rows call.  The per-point series sums and the per-row lattice
loops below add each term in the order those kernels must keep, with their
own copy of the term table; jacobi_theta, its partials, theta_rows and the
row expansions must equal them under ==, not merely to a tolerance.
theta_lattice, w_b, dx_w and dy_w take the expansion only from y/alpha = 1
on, so their expansions are called through energy._rows, the one entry
that reads the term table.  The origin-free sums add the row n = 0 without
the origin (alpha >= y for theta, alpha >= y/4 for W_b) to the rows n >= 1.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import (
    DEFAULT_CONFIG,
    SeriesConfig,
    UpperHalfPoint,
    dx_w,
    dy_w,
    jacobi_theta,
    jacobi_theta_partial,
    theta_lattice,
    w_b,
)
from hexlat.energy import _origin_row_alone, _rows, _theta_minus_one, _w_b_minus_origin
from hexlat.theta1d import theta_rows

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# (c(n), trig, comb term (X, d, e)), each term as one expression.
_REF_TERMS = {
    (0, 0): (lambda n: 2.0, "cos", lambda X, d, e: X**-0.5 * e),
    (1, 0): (
        lambda n: -_TWO_PI * n * n, "cos",
        lambda X, d, e: X**-2.5 * (_PI * d * d - 0.5 * X) * e,
    ),
    (0, 1): (lambda n: -4.0 * _PI * n, "sin", lambda X, d, e: _TWO_PI * X**-1.5 * d * e),
    (1, 1): (
        lambda n: 4.0 * _PI * _PI * n**3, "sin",
        lambda X, d, e: _PI * X**-3.5 * (2.0 * _PI * d**3 - 3.0 * X * d) * e,
    ),
    (2, 0): (
        lambda n: 2.0 * _PI * _PI * n**4, "cos",
        lambda X, d, e: X**-4.5 * (_PI * _PI * d**4 - 3.0 * _PI * X * d * d + 0.75 * X * X) * e,
    ),
}
ORDERS = tuple(_REF_TERMS)
CONFIGS = (DEFAULT_CONFIG, SeriesConfig(rel_tol=1e-10))


def ref_fourier(X, Y, xo, yo, cfg):
    last = cfg.last_index(X, 2 * xo + yo, 1, "Fourier theta series")
    coef, trig_name, _ = _REF_TERMS[xo, yo]
    trig = getattr(math, trig_name)
    acc = 0.5 * coef(0) * trig(0.0)
    for n in range(1, last + 1):
        acc += coef(n) * math.exp(-_PI * n * n * X) * trig(_TWO_PI * n * Y)
    return acc


def ref_poisson(X, Y, xo, yo, cfg):
    last = cfg.last_index(1.0 / X, 2 * xo + yo, 0, "Poisson theta series")
    term = _REF_TERMS[xo, yo][2]
    acc = 0.0
    for j in range(last + 1):
        d1, d2 = 1 + j - Y, -j - Y
        acc += term(X, d1, math.exp(-_PI * d1 * d1 / X)) + term(X, d2, math.exp(-_PI * d2 * d2 / X))
    return acc


def ref_theta(X, Y, order, cfg):
    series = ref_poisson if X < 1.0 else ref_fourier
    return series(X, Y - math.floor(Y), *order, cfg)


def ref_theta_lattice(alpha, z, cfg, origin=True):
    x, y = z.x, z.y
    X0 = y / alpha
    acc = ref_theta(X0, 0.0, (0, 0), cfg) if origin else 0.0
    for n in range(1, cfg.last_index(alpha * y, 0, 1, "theta_lattice") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        acc += w * ref_theta(X0, n * x, (0, 0), cfg)
    return math.sqrt(X0) * acc


def ref_w_b(alpha, b, z, cfg, origin=True):
    x, y = z.x, z.y
    X0 = y / alpha
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    c2 = _PI * alpha * alpha
    acc = c0 * ref_theta(X0, 0.0, (0, 0), cfg) + ref_theta(X0, 0.0, (1, 0), cfg) if origin else 0.0
    for n in range(1, cfg.last_index(alpha * y, 2, 1, "w_b") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        th = ref_theta(X0, n * x, (0, 0), cfg)
        thx = ref_theta(X0, n * x, (1, 0), cfg)
        acc += w * ((c0 + c2 * n * n) * th + thx)
    return y**1.5 / (_PI * alpha**2.5) * acc


def ref_theta_minus_one(alpha, z, cfg):
    # alpha >= y: the row n = 0 is theta(alpha/y; 0) by Poisson, without the origin
    d = alpha / z.y
    acc = 0.0
    for k in range(1, cfg.last_index(d, 0, 1, "theta_lattice") + 1):
        acc += math.exp(-_PI * d * k * k)
    return 2.0 * acc + ref_theta_lattice(alpha, z, cfg, origin=False)


def ref_w_b_minus_origin(alpha, b, z, cfg):
    # alpha >= y/4
    d = alpha / z.y
    acc = 0.0
    for k in range(1, cfg.last_index(d, 2, 1, "w_b") + 1):
        acc += (k * k * d - b) * math.exp(-_PI * d * k * k)
    return 2.0 * acc / alpha + ref_w_b(alpha, b, z, cfg, origin=False)


def ref_dx_w(alpha, z, cfg):
    x, y = z.x, z.y
    X0 = y / alpha
    c3 = _PI * alpha * alpha
    acc = 0.0
    for n in range(1, cfg.last_index(alpha * y, 3, 1, "dx_w") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        thy = ref_theta(X0, n * x, (0, 1), cfg)
        thxy = ref_theta(X0, n * x, (1, 1), cfg)
        acc += w * (c3 * n**3 * thy + n * thxy)
    return y**1.5 / (_PI * alpha**2.5) * acc


def ref_dy_w(alpha, z, cfg):
    x, y = z.x, z.y
    X0 = y / alpha
    c2 = _PI * alpha * alpha
    c4 = _PI * _PI * alpha**3
    s_low = ref_theta(X0, 0.0, (1, 0), cfg)
    s_high = ref_theta(X0, 0.0, (2, 0), cfg) / alpha
    for n in range(1, cfg.last_index(alpha * y, 4, 1, "dy_w") + 1):
        w = 2.0 * math.exp(-alpha * _PI * y * n * n)
        th = ref_theta(X0, n * x, (0, 0), cfg)
        thx = ref_theta(X0, n * x, (1, 0), cfg)
        thxx = ref_theta(X0, n * x, (2, 0), cfg)
        s_low += w * (c2 * n * n * th + thx)
        s_high += w * (-c4 * n**4 * th + thxx / alpha)
    return (1.5 * math.sqrt(y) * s_low + y**1.5 * s_high) / (_PI * alpha**2.5)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


inner_ys = st.one_of(st.floats(-2.0, 2.0), st.just(-0.0))


@settings(max_examples=300, deadline=None)
@given(X=log_uniform(1e-3, 1e3), Y=inner_ys, order=st.sampled_from(ORDERS),
       cfg=st.sampled_from(CONFIGS))
def test_theta_equals_frozen_reference(X, Y, order, cfg):
    # X straddles POISSON_SWITCH = 1, so both branches are drawn.
    if order == (0, 0):
        assert jacobi_theta(X, Y, cfg) == ref_theta(X, Y, order, cfg)
    else:
        assert jacobi_theta_partial(X, Y, *order, cfg) == ref_theta(X, Y, order, cfg)


@settings(max_examples=100, deadline=None)
@given(X=log_uniform(1e-3, 1e3), Ys=st.lists(inner_ys, min_size=1, max_size=8),
       orders=st.lists(st.sampled_from(ORDERS), min_size=1, max_size=5))
def test_theta_rows_equals_frozen_reference(X, Ys, orders):
    rows = theta_rows(X, Ys, orders)
    assert rows == [[ref_theta(X, Y, order, DEFAULT_CONFIG) for Y in Ys] for order in orders]


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=log_uniform(0.2, 6.0), alpha=log_uniform(0.25, 8.0),
       b=st.floats(-1.0, 1.0), cfg=st.sampled_from(CONFIGS))
def test_lattice_sums_equal_frozen_reference(x, y, alpha, b, cfg):
    z = UpperHalfPoint(x, y)
    c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
    assert _rows("theta_lattice", alpha, 0.0, z, True, cfg) == ref_theta_lattice(alpha, z, cfg)
    assert _rows("w_b", alpha, c0, z, True, cfg) == ref_w_b(alpha, b, z, cfg)
    assert _rows("dx_w", alpha, 0.0, z, False, cfg) == ref_dx_w(alpha, z, cfg)
    assert _rows("dy_w", alpha, 0.0, z, True, cfg) == ref_dy_w(alpha, z, cfg)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=log_uniform(0.2, 6.0), t=log_uniform(1.0, 16.0),
       b=st.floats(-1.0, 1.0), cfg=st.sampled_from(CONFIGS))
def test_origin_free_sums_equal_frozen_reference(x, y, t, b, cfg):
    # t >= 1 puts alpha = t y and t y / 4 on the branches that drop the origin
    z = UpperHalfPoint(x, y)
    assert _theta_minus_one(t * y, z, cfg) == ref_theta_minus_one(t * y, z, cfg)
    assert _w_b_minus_origin(t * y / 4.0, b, z, cfg) == ref_w_b_minus_origin(t * y / 4.0, b, z, cfg)


#: Past alpha pi y ~ 745 every row n >= 1 has weight 2 e^{-alpha pi y n^2} =
#: 0.0, and the row sums take the row n = 0 alone; the last six points lie in
#: the subnormal band alpha pi y in (708, 745), where they take every row.
#: (alpha, x, y, b, theta_lattice, w_b, dx_w, dy_w, theta - 1, W_b + b/alpha),
#: seeded, alpha in [0.05, 50], recorded before that route existed.  Six
#: points have alpha >= y, where the origin-free sums drop the origin from
#: the row n = 0, and where the public dx_w and dy_w walk the lattice, so
#: the recorded d/dx W and d/dy W are read from their row expansions.
_LARGE_Y = [
    (0.10910421146919157, 0.927374, 5580.887430105445, -0.969778,
     226.16785225134078, 2340.224411474508, 0.0, 0.0, 225.16785225134078, 2331.3358636637404),
    (3.095655862336644, -0.18578, 276.3067427353202, 0.105141,
     9.44755445956249, 0.16484379776995273, 0.0, 9.144042659123913e-120, 8.44755445956249, 0.19880784438094717),
    (0.12487058961306548, -0.120291, 53744.01941857846, 0.65901,
     656.0470553641654, -2626.1463104290287, 0.0, 0.0, 655.0470553641654, -2620.8687666771966),
    (0.8946927418308177, 0.347051, 1232.599337184069, 0.008525,
     37.11709751175776, 6.249012677236656, 0.0, 0.0, 36.11709751175776, 6.258541088054603),
    (0.7481723132266574, -0.992885, 136622.01888254008, 0.9693,
     427.3262119190441, -462.72257360130254, 0.0, 0.0, 426.3262119190441, -461.42701643771323),
    (0.12367352590852847, -0.269039, 7408.097819009776, -0.280355,
     244.7456507015386, 869.7750486339477, 0.0, 0.0, 243.7456507015386, 867.5081528052692),
    (0.060584184424734955, -0.560821, 22039.3084038106, -0.607098,
     603.1416894564678, 7628.378578267182, 0.0, 0.0, 602.1416894564678, 7618.357844213162),
    (0.09636637174705737, -0.794748, 2959362.597090067, -0.737271,
     5541.614823513599, 51549.593539324, 0.0, 0.0, 5540.614823513599, 51541.94283102572),
    (0.43917282315038997, 0.344998, 669644.3565500142, -0.407463,
     1234.822055475848, 1593.159449483139, 0.0, 0.0, 1233.822055475848, 1592.2316530018425),
    (0.12226016725131428, 0.021706, 1304128.0964764801, 0.305163,
     3266.0109239114113, -3900.4028831460846, 0.0, 0.0, 3265.0109239114113, -3897.9068698748715),
    (1.6532194784195213, -0.855791, 20738.286210363243, 0.520025,
     112.00081300235034, -24.44789714221824, 0.0, 0.0, 111.00081300235034, -24.133344230890856),
    (4.8486707521136525, -0.611512, 343.767257683164, 0.60968,
     8.420170926579662, -0.7823789611244675, 0.0, 2.9286238466518097e-95, 7.420170926579662, -0.6566372823903059),
    (0.24924758712092293, 0.775769, 126973.09106578951, -0.097904,
     713.7405394576039, 736.1089863862892, 0.0, 0.0, 712.7405394576039, 735.7161882006342),
    (0.12394999356466739, -0.360979, 2105.914334188096, 0.011873,
     130.345816256014, 154.8816949479639, 0.0, 0.0, 129.345816256014, 154.97748357738246),
    (10.283178696999757, 0.800168, 2203.100077822798, 0.95735,
     14.637045453355213, -1.1361484296695241, 0.0, 9.143181478588885e-291, 13.637045453355213, -1.0430497849596623),
    (0.30151557185294625, 0.431891, 33372.01397022246, -0.198189,
     332.68738638537525, 394.2875047457528, 0.0, 0.0, 331.68738638537525, 393.63019541084174),
    (26.83553540220448, -0.199735, 65.90087910369039, 0.394164,
     1.5684757161607505, -0.013863694772651756, 0.0, 1.2066803791598382e-05, 0.5684757161607505, 0.0008244414650780167),
    (0.11760541285255557, -0.340225, 40719.46970053129, 0.578706,
     588.4199669668873, -2099.156944045583, 0.0, 0.0, 587.4199669668873, -2094.2362011480977),
    (0.15907000941857968, -0.315958, 21134.198349698625, 0.151701,
     364.5010100778207, 17.080339631520125, 0.0, 0.0, 363.5010100778207, 18.034014057984834),
    (0.0626375573138611, 0.039978, 927051.2902594404, 0.050662,
     3847.108853364753, 6663.480821977484, 0.0, 0.0, 3846.108853364753, 6664.289633849668),
    (13.133886762977356, 0.683179, 266.3859266157322, 0.780796,
     4.503591644247065, -0.21315986045379925, 0.0, 6.902118969909308e-28, 3.5035916442470647, -0.15371089351120631),
    (0.6785205387617631, 0.561611, 2234.0364100681395, 0.288145,
     57.38040699406541, -10.908294651009024, 0.0, 0.0, 56.38040699406541, -10.483628066080236),
    (36.358904274131994, -0.20666, 3629.6331923301473, -0.216083,
     9.991391476660953, 0.10311502123554177, 0.0, 2.9574872453002664e-136, 8.991391476660953, 0.09717196535105146),
    (4.854606296859747, -0.078086, 172.31295849394897, 0.698861,
     5.957745702723262, -0.6623464900455288, 0.0, 2.0752026400712126e-47, 4.957745702723262, -0.5183881631978778),
    (21.86038507890001, 0.47146, 13.35403144725445, -0.817878,
     1.011683226267799, 0.03872570220902616, 0.0, 0.00023865410706468615, 0.01168322626779917, 0.0013119971417065173),
    (22.451650690136734, -0.512591, 12.7526286612604, -0.876244,
     1.0079245777528296, 0.03995873178580223, 0.0, 0.00019641871290036284, 0.007924577752829622, 0.0009306882760684936),
    (30.31526620773075, -0.391604, 7.900665063586035, 0.654824,
     1.0000116371429664, -0.02159924849301318, 0.0, 1.967681998310817e-06, 1.1637142966294035e-05, 1.2215643143110574e-06),
    (22.720886335430293, 0.253184, 13.3058568519325, -0.956148,
     1.0093592480065903, 0.04317958954374179, 0.0, 0.00020429308921236246, 0.009359248006590168, 0.0010972523547646826),
    (26.960406319794906, 0.500245, 10.58321185581269, 0.233153,
     1.0006688415532101, -0.00859056374765664, 0.0, 3.883375656362703e-05, 0.0006688415532102009, 5.741422546515622e-05),
    (41.89522715263743, -0.047681, 6.341413113997175, -0.938322,
     1.0000000019370061, 0.022396871395301762, 0.0, 9.274884550609945e-10, 1.937006175282925e-09, 3.4883627418216137e-10),
    (1.5716184288061765, -0.96643, 149.7830033428575, -0.857741,
     9.762425010655342, 6.316654352046025, 0.0, 2.1886088990346466e-127, 8.762425010655342, 5.770885109156991),
    (7.586122157968137, 0.752393, 30.525278243586474, -0.182064,
     2.005962039832352, 0.09022000924517104, 5.53304e-319, 2.5131767697302104e-06, 1.0059620398323519, 0.06622039571287802),
    (2.1525689367881182, -0.884617, 107.19603957644725, 0.625964,
     7.056849181094206, -1.530358008364018, 0.0, 5.360088305450127e-66, 6.056849181094206, -1.2395594237974255),
    (0.9518176635619322, -0.032889, 245.07252244513614, -0.315389,
     16.04613458210924, 8.000057434825994, 0.0, -1.2886547562e-314, 15.04613458210924, 7.668703004167775),
    (0.2690377969079003, -0.21408, 875.2000357126279, -0.585819,
     57.0357313021128, 157.9336960591097, 0.0, -4.654224e-317, 56.0357313021128, 155.75623621245276),
    (0.3819847124656145, -0.930364, 597.6565836623658, 0.576563,
     39.555134252523736, -43.223278812686516, 0.0, -1.869588663824707e-307, 38.555134252523736, -41.713891182279966),
]


@pytest.mark.parametrize("row", _LARGE_Y)
def test_large_y_sums_equal_recorded_values(row):
    alpha, x, y, b, *want = row
    z = UpperHalfPoint(x, y)
    cfg = DEFAULT_CONFIG
    got = [theta_lattice(alpha, z), w_b(alpha, b, z), _rows("dx_w", alpha, 0.0, z, False, cfg),
           _rows("dy_w", alpha, 0.0, z, True, cfg), _theta_minus_one(alpha, z, cfg),
           _w_b_minus_origin(alpha, b, z, cfg)]
    assert list(map(repr, got)) == list(map(repr, want))
    if y >= alpha:  # the public derivatives take the rows here
        assert [repr(dx_w(alpha, z)), repr(dy_w(alpha, z))] == list(map(repr, want[2:4]))


def test_origin_row_route_takes_one_theta_row(monkeypatch):
    calls = []

    def spy(X, Ys, orders, cfg=DEFAULT_CONFIG):
        calls.append(list(Ys))
        return theta_rows(X, Ys, orders, cfg)

    monkeypatch.setattr("hexlat.energy.theta_rows", spy)
    # alpha pi y = 2e4 pi and y/alpha = 5e3: the row through the origin alone,
    # whose theta is 1.0 in closed form, takes no row at all
    assert theta_lattice(2.0, UpperHalfPoint(0.5, 1e4)) == math.sqrt(5e3)
    assert calls == []
    # alpha pi y = 500 pi but y/alpha = 5 < 11.9: that row's theta is not 1.0
    assert theta_lattice(10.0, UpperHalfPoint(0.5, 50.0)) == math.sqrt(5.0) * jacobi_theta(5.0, 0.0)
    assert calls == [[0.0]]
    # d/dx W has no row n = 0, so it takes none
    calls.clear()
    assert dx_w(2.0, UpperHalfPoint(0.5, 1e4)) == 0.0
    assert calls == []
    # in the subnormal band w_1 is not 0 and every row is taken
    theta_lattice(2.0, UpperHalfPoint(0.5, 740.0 / (2.0 * _PI)))
    assert len(calls) == 1 and len(calls[0]) > 1


def test_origin_row_closed_form_equals_row_expansion():
    # Seeded points on both edges of the closed form: pi alpha y around 745,
    # where e^{-alpha pi y} reaches 0.0 (the subnormal band 709-745 below it),
    # and X = y/alpha around 11.9, where 2 e^{-pi X} reaches 2^-53; alpha ~ 4.5
    # has both.  theta_lattice and w_b must equal their row expansions.
    rng = random.Random(31)
    taken = 0
    for _ in range(400):
        t = rng.choice([rng.uniform(709.0, 745.0), rng.uniform(745.0, 746.0), rng.uniform(745.0, 1e4)])
        X = rng.choice([rng.uniform(11.5, 11.914), rng.uniform(11.914, 12.5), math.exp(rng.uniform(0.0, 12.0))])
        alpha = math.sqrt(t / (_PI * X))
        z = UpperHalfPoint(rng.choice([0.0, 0.5, -0.5, -0.7, 2.0**53]), alpha * X)
        b = rng.choice([0.0, 1.0 / (2.0 * _PI), 1.0, -1.0, 1e3])
        c0 = 0.5 * (1.0 - 2.0 * _PI * b) * (alpha / z.y)
        for cfg in CONFIGS:
            assert repr(theta_lattice(alpha, z, cfg)) == repr(_rows("theta_lattice", alpha, 0.0, z, True, cfg))
            assert repr(w_b(alpha, b, z, cfg)) == repr(_rows("w_b", alpha, c0, z, True, cfg))
        taken += _origin_row_alone(math.exp(-alpha * _PI * z.y), z.y / alpha)
    assert 100 < taken < 300

