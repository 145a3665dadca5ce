"""Shared fixtures, brute-force oracles and an unconverged stand-in refinement.

The oracles build on nothing but direct lattice enumeration, so they stay
independent of the series expansions they are used to check.
"""

from __future__ import annotations

import math

import mpmath
import pytest

from hexlat import UpperHalfPoint, lattice_norms

RT3_2 = math.sqrt(3.0) / 2.0


def brute_theta(alpha: float, z: UpperHalfPoint, radius: float = 8.0) -> float:
    return sum(math.exp(-math.pi * alpha * q) for q, _ in lattice_norms(z, radius))


def brute_w(alpha: float, b: float, z: UpperHalfPoint, radius: float = 8.0) -> float:
    return sum(
        (q - b / alpha) * math.exp(-math.pi * alpha * q) for q, _ in lattice_norms(z, radius)
    )


def brute_energy(f, z: UpperHalfPoint, radius: float = 8.0) -> float:
    """sum of f(norm^2) over nonzero lattice points."""
    return sum(f(q) for q, _ in lattice_norms(z, radius) if q > 0.0)


def mp_lattice_sums(alpha: float, b: float, z: UpperHalfPoint, exponent: float = 100.0):
    """(theta, W_b, sum |theta terms|, sum |W_b terms|) as 40-digit mpfs, over every
    lattice point with pi alpha |P|^2 <= exponent, origin included.  Each
    norm^2 is formed in mpmath from the exact float x and y; the rows and
    their n ranges are found in floats, one n wider on each side."""
    x, y = z.x, z.y
    r2 = exponent / (math.pi * alpha)
    mmax = int(math.sqrt(r2 / y)) + 1
    with mpmath.workdps(40):
        X, Y, A, B = (mpmath.mpf(v) for v in (x, y, alpha, b))
        th, w = [mpmath.mpf(1)], [-B / A]
        for m in range(-mmax, mmax + 1):
            rem = y * (r2 - m * m * y)
            if rem < 0.0:
                continue
            half, mid = math.sqrt(rem), -m * x
            for n in range(math.ceil(mid - half) - 1, math.floor(mid + half) + 2):
                if m or n:
                    q = ((m * X + n) ** 2 + m * m * Y * Y) / Y
                    e = mpmath.exp(-mpmath.pi * A * q)
                    th.append(e)
                    w.append((q - B / A) * e)
        return mpmath.fsum(th), mpmath.fsum(w), mpmath.fsum(map(abs, th)), mpmath.fsum(map(abs, w))


def domain_grid(nx: int, ny: int, y_max: float) -> list[UpperHalfPoint]:
    """nx * ny points spread over the fundamental domain up to y_max."""
    pts = []
    for i in range(nx):
        x = 0.02 + (0.48 - 0.02) * i / (nx - 1)
        ymin = math.sqrt(max(1.0 - x * x, 0.75)) + 1e-3
        for j in range(ny):
            pts.append(UpperHalfPoint(x, ymin + (y_max - ymin) * j / (ny - 1)))
    return pts


@pytest.fixture
def sample_points() -> list[UpperHalfPoint]:
    return [
        UpperHalfPoint(0.5, RT3_2),
        UpperHalfPoint(0.0, 1.0),
        UpperHalfPoint(0.3, 1.2),
        UpperHalfPoint(0.13, 2.6),
        UpperHalfPoint(0.47, 0.95),
    ]


def unconverged_refinement(fun):
    """Stand-in for hexlat._newton.newton that stops unconverged at
    (0.2, 1.5) with value fun after 100 walks."""
    def fake(energy, p, y0, first):
        return (0.2, 1.5), fun, 100, False
    return fake


def mp_critical_gradient(alpha: float, z: UpperHalfPoint, exponent: float = 60.0):
    """(d/dx W, d/dy W, sum |d/dx terms|, sum |d/dy terms|, kx, ky) at b =
    1/(2 pi), as 40-digit mpfs, summed over every lattice point with pi alpha
    (|P|^2 - y) <= exponent.  The terms are f'(q) q_x and f'(q) q_y, f(q) =
    (q - b/alpha) e^{-pi alpha q}, u = m x + n, q_x = 2 m u/y and q_y = m^2 -
    u^2/y^2; kx and ky are the rounding scales sum |f'(q)| |q_x| (1 + pi alpha
    q) and sum |f'(q)| (m^2 + u^2/y^2) (1 + pi alpha q): the rounding of q
    moves e^{-pi alpha q} by pi alpha q times as much, and q_y's two parts
    may cancel.  The cut lies above y, so the points off the row through the
    origin, which alone move d/dx W, keep their leading terms."""
    x, y = z.x, z.y
    r2 = y + exponent / (math.pi * alpha)
    mmax = int(math.sqrt(r2 / y)) + 1
    with mpmath.workdps(40):
        X, Y, A = (mpmath.mpf(v) for v in (x, y, alpha))
        S = 1 / (2 * mpmath.pi * A)
        gx, gy, kx, ky = [], [], [], []
        for m in range(-mmax, mmax + 1):
            rem = y * (r2 - m * m * y)
            if rem < 0.0:
                continue
            half, mid = math.sqrt(rem), -m * x
            for n in range(math.ceil(mid - half) - 1, math.floor(mid + half) + 2):
                if m or n:
                    u = m * X + n
                    q = (u * u + m * m * Y * Y) / Y
                    f1 = (1 - mpmath.pi * A * (q - S)) * mpmath.exp(-mpmath.pi * A * q)
                    gx.append(f1 * 2 * m * u / Y)
                    gy.append(f1 * (m * m - u * u / (Y * Y)))
                    k = abs(f1) * (1 + mpmath.pi * A * q)
                    kx.append(k * abs(2 * m * u / Y))
                    ky.append(k * (m * m + u * u / (Y * Y)))
        return (mpmath.fsum(gx), mpmath.fsum(gy), mpmath.fsum(map(abs, gx)), mpmath.fsum(map(abs, gy)),
                mpmath.fsum(kx), mpmath.fsum(ky))
