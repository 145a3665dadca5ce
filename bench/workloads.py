"""The in-process workloads: seeded inputs, the operation each input drives,
and the independent oracle each output is checked against.

series-sweep, laplace and classify call hexlat in-process, one operation at
a time from one thread.  Operation ``i`` uses pool entry
``i % len(pool)``; outputs of the first pass over the pool are stored in a
preallocated array (so memory does not grow with the number of operations)
and checked against the oracle after the timed window, and later passes must
reproduce them bit for bit.  The cli workload is in cliload.py.

Every call into hexlat goes through the ``hexlat`` module attributes at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math

import numpy as np

B_C = 1.0 / (2.0 * math.pi)
_PI = math.pi

#: Oracle tolerances, relative to the sum of absolute values of the terms.
#: Closed-form energies are computed as theta - 1, so their scale includes
#: the origin term (an absolute error of 1 ulp of 1 is the route's floor).
SERIES_TOL = 1e-11
LAPLACE_TOL = 1e-9
#: Largest distance_to_hex accepted for a hexagonal classification.
HEX_TOL = 1e-9
#: The oracle sums take every lattice point with pi alpha (|P|^2 - y) <= this.
ORACLE_EXPONENT = 60.0
#: dy_w adds two product-rule pieces of the m = 0 row, and dx_w_double_sum
#: adds O(1) coupling terms, that cancel at large alpha; their error is held
#: to this times the size of what they add (_dy_route_scale, _dsum_route_scale).
ROUTE_TOL = 1e-13


def brute_norms(x: float, y: float, alpha: float):
    """(q, m, u) arrays over the lattice points that matter to 1e-26 relative.

    q = |m z + n|^2 / y and u = m x + n, enumerated by hexlat.moduli.lattice_norms.
    Points with m != 0 have q >= y, so the cut is taken above y: the sums
    that only m != 0 points enter (d/dx) keep their leading terms.
    """
    import hexlat

    z = hexlat.UpperHalfPoint(x, y)
    pts = hexlat.moduli.lattice_norms(z, math.sqrt(y + ORACLE_EXPONENT / (_PI * alpha)))
    q = np.array([p[0] for p in pts])
    m = np.array([p[1][0] for p in pts], dtype=float)
    n = np.array([p[1][1] for p in pts], dtype=float)
    return q, m, m * x + n


def _dy_route_scale(alpha: float, y: float) -> float:
    """Size of the terms dy_w adds: (1.5 sqrt(y) |theta_X| + y^1.5 |theta_XX| / alpha)
    / (pi alpha^2.5) at X = y / alpha, Y = 0, from the defining Fourier series."""
    n2 = np.arange(1.0, 1001.0) ** 2
    e = np.exp(-_PI * n2 * (y / alpha))
    th_x = float((2.0 * _PI * n2 * e).sum())
    th_xx = float((2.0 * _PI * _PI * n2 * n2 * e).sum())
    return (1.5 * math.sqrt(y) * th_x + y**1.5 * th_xx / alpha) / (_PI * alpha**2.5)


def _dsum_route_scale(alpha: float, y: float) -> float:
    """Size of the terms dx_w_double_sum adds: 8 pi alpha^-2.5 y^1.5 sum |A_{n,m}|."""
    n = np.arange(1.0, 65.0)[:, None]
    m = n.T
    a = n**3 * m * (alpha * alpha * np.exp(-_PI * y * (alpha * n * n + m * m / alpha))
                    + np.exp(-_PI * y * (alpha * m * m + n * n / alpha)))
    return 8.0 * _PI * alpha**-2.5 * y**1.5 * float(a.sum())


def close(value: float, exact: float, scale: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - exact) <= tol * max(scale, 1e-300)


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


class LibraryWorkload:
    """Common pool / output bookkeeping of the in-process workloads."""

    name = ""
    #: Fixed latency percentile reported as op_tail_ms (>= 10 samples beyond it).
    tail_pct = 99.0
    #: Operations per cycle; runs stop only at a cycle boundary.
    cycle = 1
    pool_size = 0

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.build()
        self.out = np.full((self.pool_size, 2), np.nan)
        self.uses = np.zeros(self.pool_size, dtype=np.int64)
        self.filled = 0          # pool entries whose first output is stored
        self.mismatch = 0        # later outputs that differ from the stored one
        self.raised: set[int] = set()

    def build(self) -> None:
        raise NotImplementedError

    def call(self, i: int) -> tuple[float, float]:
        raise NotImplementedError

    def store(self, i: int, result: tuple[float, float]) -> None:
        """Keep the first output of each pool entry; repeats must match it exactly."""
        j = i % self.pool_size
        self.uses[j] += 1
        if j >= self.filled:
            self.out[j, 0], self.out[j, 1] = result
            self.filled = j + 1
        elif not (_same(self.out[j, 0], result[0]) and _same(self.out[j, 1], result[1])):
            self.mismatch += 1

    def fail(self, i: int) -> None:
        """Record an operation that raised."""
        j = i % self.pool_size
        self.uses[j] += 1
        self.raised.add(j)
        self.filled = max(self.filled, j + 1)

    def failed_ops(self) -> int:
        """Operations that raised, disagreed with the oracle, or did not repeat."""
        bad = set(self.check()) | self.raised
        return self.mismatch + int(sum(self.uses[j] for j in bad))

    def check(self) -> list[int]:
        """Pool entries whose stored output the oracle rejects."""
        raise NotImplementedError


def _same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


# ---------------------------------------------------------------------------
# series-sweep
# ---------------------------------------------------------------------------

SERIES_KINDS = ("theta_lattice", "w_b", "dx_w", "dy_w", "theta_difference",
                "closed_form_gaussian", "closed_form_gaussian_diff",
                "closed_form_poly_gaussian", "reduce_to_fundamental")


class SeriesSweep(LibraryWorkload):
    """One-point scalar calls of the series evaluators, in a fixed rotation.

    A pool of POINTS points is paired with the nine kinds in turn; the two
    counts are coprime, so the first POINTS * 9 operations are all distinct
    (point, kind) pairs.
    """

    name = "series-sweep"
    tail_pct = 99.0
    cycle = len(SERIES_KINDS)
    POINTS = 8192

    def build(self) -> None:
        r, n = self.rng, self.POINTS
        self.alpha = _log_uniform(r, 0.25, 8.0, n).tolist()
        self.x = r.uniform(-1.0, 1.0, n).tolist()
        self.y = _log_uniform(r, 0.2, 6.0, n).tolist()
        self.a = r.uniform(1.0, 4.0, n).clip(1.0 + 1e-9).tolist()
        self.b_w = r.uniform(0.0, 0.3, n).tolist()      # both sides of b_c
        self.b_t = r.uniform(0.0, 2.5, n).tolist()
        self.pool_size = n * self.cycle

    def call(self, i: int) -> tuple[float, float]:
        import hexlat as H

        p = i % self.POINTS
        kind = i % self.cycle
        al = self.alpha[p]
        z = H.UpperHalfPoint(self.x[p], self.y[p])
        nan = math.nan
        if kind == 0:
            return H.theta_lattice(al, z), nan
        if kind == 1:
            return H.w_b(al, self.b_w[p], z), nan
        if kind == 2:
            return H.dx_w(al, z), nan
        if kind == 3:
            return H.dy_w(al, z), nan
        if kind == 4:
            return H.theta_difference(al, self.a[p], self.b_t[p], z), nan
        if kind == 5:
            return H.closed_form_energy(H.Gaussian(al), z), nan
        if kind == 6:
            return H.closed_form_energy(H.GaussianDiff(al, self.a[p], self.b_t[p]), z), nan
        if kind == 7:
            return H.closed_form_energy(H.PolyGaussian(al, self.b_w[p]), z), nan
        red, _word = H.reduce_to_fundamental(z)
        return red.x, red.y

    def check(self) -> list[int]:
        import hexlat as H

        bad = []
        used, raised = self.filled, self.raised
        for p in range(min(used, self.POINTS)):
            al, x, y = self.alpha[p], self.x[p], self.y[p]
            a, bw, bt = self.a[p], self.b_w[p], self.b_t[p]
            q, m, u = brute_norms(x, y, al)
            e = np.exp(-_PI * al * q)
            ea = np.exp(-_PI * a * al * q)
            nz = q > 0.0
            crit = (1.0 - _PI * al * (q - B_C / al)) * e  # d/dq-weighted W_{b_c} terms
            for j in range(p, used, self.POINTS):
                if j in raised:
                    continue
                kind = j % self.cycle
                v = self.out[j, 0]
                if kind == 0:
                    t = e
                elif kind == 1:
                    t = (q - bw / al) * e
                elif kind == 2:
                    t = crit * 2.0 * m * u / y
                    dsum = H.dx_w_double_sum(al, H.UpperHalfPoint(x, y))
                    slack = SERIES_TOL * float(np.abs(t).sum()) + ROUTE_TOL * _dsum_route_scale(al, y)
                    if not abs(v - dsum) <= slack:
                        bad.append(j)
                        continue
                elif kind == 3:
                    t = crit * (m * m - u * u / (y * y))
                    slack = SERIES_TOL * float(np.abs(t).sum()) + ROUTE_TOL * _dy_route_scale(al, y)
                    if not abs(v - float(t.sum())) <= slack:
                        bad.append(j)
                    continue
                elif kind == 4:
                    t = np.concatenate([e, -bt * ea])
                elif kind in (5, 6, 7):
                    t, origin = {5: (e, 1.0), 6: (e - bt * ea, 1.0 + bt),
                                 7: ((q - bw / al) * e, bw / al)}[kind]
                    if not close(v, float(t[nz].sum()), float(np.abs(t).sum()) + origin, SERIES_TOL):
                        bad.append(j)
                    continue
                else:
                    if not self.reduced_ok(x, y, v, self.out[j, 1]):
                        bad.append(j)
                    continue
                if not close(v, float(t.sum()), float(np.abs(t).sum()), SERIES_TOL):
                    bad.append(j)
        return bad

    @staticmethod
    def reduced_ok(x: float, y: float, rx: float, ry: float) -> bool:
        """In the closed fundamental domain, and the same lattice (equal theta)."""
        if not (-1e-9 <= rx <= 0.5 + 1e-9 and rx * rx + ry * ry >= 1.0 - 1e-9):
            return False
        t_in = float(np.exp(-_PI * brute_norms(x, y, 1.0)[0]).sum())
        t_out = float(np.exp(-_PI * brute_norms(rx, ry, 1.0)[0]).sum())
        return close(t_out, t_in, t_in, SERIES_TOL)


# ---------------------------------------------------------------------------
# laplace
# ---------------------------------------------------------------------------


#: The slow corner of the laplace input box: alpha >= CORNER_ALPHA and
#: y <= CORNER_Y, next to the bottom of the fundamental domain (6% of the box).
#: There theta - 1 cancels down to the 1e-12 that laplace_energy asks of its
#: quadrature, so the panel-doubling depth is set by rounding: inputs that
#: differ in the fourth digit take 30 ms or 1.5 s.  Elsewhere in the box no
#: input takes more than 70 ms.
CORNER_ALPHA, CORNER_Y = 2.5, 1.2
#: Corner inputs timed, apart from the timed loop, in a traced laplace run.
CORNER_OPS = 24


class Laplace(LibraryWorkload):
    """laplace_energy at points of the fundamental domain, families f and g
    in the ratio 1:2 (so the median falls inside the g cluster rather than
    between the two), exponential weights e^{rate x} with rate in [-2, -1/4].

    The timed loop leaves out the slow corner: a run meets ~50 corner
    inputs, and whether one of them is a 0.5-1.5 s one moved ops_per_s by up
    to 15% from seed to seed.  The corner is timed on its own instead, as a
    per-layer metric (LaplaceCorner).
    """

    name = "laplace"
    tail_pct = 95.0
    cycle = 3
    pool_size = 1536
    corner = False

    def build(self) -> None:
        rows = self._draw(self.rng, self.pool_size, self.corner)
        self.x, self.y, self.alpha, self.a, self.b, self.rate = (list(c) for c in zip(*rows))
        self.family = ["f" if i % 3 == 0 else "g" for i in range(self.pool_size)]

    @staticmethod
    def _draw(r, count: int, corner: bool) -> list[tuple]:
        """`count` inputs (x, y, alpha, a, b, rate) from the slow corner or
        from the rest of the box, by rejection."""
        out: list[tuple] = []
        while len(out) < count:
            m = 4 * count if corner else 2 * count
            x = r.uniform(0.0, 0.5, m)
            y = np.exp(r.uniform(np.log(np.sqrt(1.0 - x * x)), math.log(2.5)))
            alpha = r.uniform(1.0, 3.0, m)
            a = r.uniform(1.0, 4.0, m).clip(1.0 + 1e-9)
            b = r.uniform(0.0, 1.0, m)
            rate = -r.uniform(0.25, 2.0, m)
            keep = (alpha >= CORNER_ALPHA) & (y <= CORNER_Y)
            if not corner:
                keep = ~keep
            out += [tuple(float(v) for v in row)
                    for row in zip(x[keep], y[keep], alpha[keep], a[keep], b[keep], rate[keep])]
        return out[:count]

    def call(self, i: int) -> tuple[float, float]:
        import hexlat as H

        p = i % self.pool_size
        rate = self.rate[p]
        spec = H.LaplaceWeighted(alpha=self.alpha[p], a=self.a[p], b=self.b[p],
                                 weight=lambda t: math.exp(rate * t), family=self.family[p])
        return H.laplace_energy(spec, H.UpperHalfPoint(self.x[p], self.y[p])), math.nan

    def check(self) -> list[int]:
        bad = []
        for p in range(self.filled):
            if p in self.raised:
                continue
            al, a, b, rate = self.alpha[p], self.a[p], self.b[p], self.rate[p]
            q, _m, _u = brute_norms(self.x[p], self.y[p], al)
            q = q[q > 0.0]
            # int_1^inf e^{-c t} dt = e^{-c}/c and int_1^inf t e^{-c t} dt = e^{-c}(1/c + 1/c^2)
            c1 = _PI * al * q - rate
            if self.family[p] == "f":
                c2 = _PI * a * al * q - rate
                t = np.concatenate([np.exp(-c1) / c1, -b * np.exp(-c2) / c2])
            else:
                t = np.concatenate([q * np.exp(-c1) * (1.0 / c1 + 1.0 / c1**2),
                                    -(b / al) * np.exp(-c1) / c1])
            if not close(self.out[p, 0], float(t.sum()), float(np.abs(t).sum()), LAPLACE_TOL):
                bad.append(p)
        return bad


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# One block: 3 problems x 2 entry points x (3 hexagonal + 1 no-minimizer) cells.
_CELL_BLOCK = [(prob, api, side) for prob in ("w", "td2", "td4") for api in ("min", "scan")
               for side in ("hex", "hex", "hex", "none")]


class Classify(LibraryWorkload):
    """(alpha, b) cells through minimize_w / minimize_theta_difference /
    phase_scan, 3/4 of them on the hexagonal side, plus one minimize_generic
    call (GaussianDiff and YukawaDiff in turn) after every 24 cells."""

    name = "classify"
    tail_pct = 98.5
    cycle = 2 * (len(_CELL_BLOCK) + 1)
    pool_size = cycle * 40

    def build(self) -> None:
        r = self.rng
        self.kind: list[tuple[str, str, str]] = []
        self.alpha: list[float] = []
        self.a: list[float] = []
        self.b: list[float] = []
        for c in range(self.pool_size // self.cycle):
            for generic in ("gd", "yd"):
                for cell in _CELL_BLOCK:
                    self._add_cell(r, cell)
                self._add_generic(r, generic, "hex" if generic == "yd" or c % 2 else "none")

    def _add_cell(self, r, cell) -> None:
        prob, _api, side = cell
        a = {"w": 0.0, "td2": 2.0, "td4": 4.0}[prob]
        crit = B_C if prob == "w" else math.sqrt(a)
        frac = r.uniform(0.0, 0.97) if side == "hex" else r.uniform(1.03, 1.6)
        self.kind.append(cell)
        self.alpha.append(float(r.uniform(1.0, 4.0)))
        self.a.append(a)
        self.b.append(crit * frac)

    def _add_generic(self, r, generic: str, side: str) -> None:
        a = float(r.choice([2.0, 4.0]))
        if generic == "yd":
            # YukawaDiff is a constant-weight superposition of theta differences
            # with coupling a*b, hexagonal for every slice when b <= 1/sqrt(a).
            b = r.uniform(0.2, 0.8) / math.sqrt(a)
        else:
            # minimize_generic decides divergence from one probe at y = 64, which
            # misses b just above sqrt(a) for a = 4 (alpha = 1.5, b = 1.2 sqrt(a) is
            # reported hexagonal); divergent cells stay where that probe is valid.
            b = math.sqrt(a) * (r.uniform(0.3, 0.8) if side == "hex" else r.uniform(1.5, 2.0))
        self.kind.append((generic, "generic", side))
        self.alpha.append(float(r.uniform(1.0, 2.0)))
        self.a.append(a)
        self.b.append(float(b))

    def call(self, i: int) -> tuple[float, float]:
        import hexlat as H

        p = i % self.pool_size
        prob, api, _side = self.kind[p]
        al, a, b = self.alpha[p], self.a[p], self.b[p]
        if api == "scan":
            problem = H.WProblem() if prob == "w" else H.ThetaDiffProblem(a=a)
            cell = H.phase_scan([al], [b], problem).rows[0]
            if cell.classification == "hexagonal":
                return 0.0, cell.distance_to_hex
            return 1.0, math.nan
        if api == "generic":
            spec = H.GaussianDiff(al, a, b) if prob == "gd" else H.YukawaDiff(al, a, b)
            outcome = H.minimize_generic(spec)
        elif prob == "w":
            outcome = H.minimize_w(al, b)
        else:
            outcome = H.minimize_theta_difference(al, a, b)
        if isinstance(outcome, H.Minimizer):
            return 0.0, outcome.distance_to_hex
        return 1.0, outcome.witness_values[-1]

    def witness_frac(self) -> float:
        """Share of operations that ended in a divergence witness."""
        witness = self.out[:self.filled, 0] == 1.0
        return float((self.uses[:self.filled] * witness).sum() / max(self.uses.sum(), 1))

    def check(self) -> list[int]:
        bad = []
        for p in range(self.filled):
            if p in self.raised:
                continue
            prob, api, side = self.kind[p]
            al, a, b = self.alpha[p], self.a[p], self.b[p]
            code, extra = self.out[p]
            if prob == "w":
                want = 0.0 if b <= B_C else 1.0
            elif prob == "yd":
                want = 0.0
            else:
                want = 0.0 if b <= math.sqrt(a) else 1.0
            ok = code == want
            if ok and code == 0.0:
                ok = 0.0 <= extra <= HEX_TOL
            elif ok and api == "min":
                ok = extra < self.energy_at_hex(prob, al, a, b)
            if not ok:
                bad.append(p)
        return bad

    @staticmethod
    def energy_at_hex(prob: str, al: float, a: float, b: float) -> float:
        """W_b or the theta difference at the hexagonal point, by direct summation."""
        q, _m, _u = brute_norms(0.5, math.sqrt(3.0) / 2.0, al)
        e = np.exp(-_PI * al * q)
        if prob == "w":
            return float(((q - b / al) * e).sum())
        return float((e - b * np.exp(-_PI * a * al * q)).sum())


class LaplaceCorner(Laplace):
    """CORNER_OPS seeded inputs from the slow corner of the laplace box."""

    name = "laplace-corner"
    cycle = pool_size = CORNER_OPS
    corner = True


LIBRARY = {w.name: w for w in (SeriesSweep, Laplace, Classify)}
