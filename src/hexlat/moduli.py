"""Moduli parameter z in the upper half-plane, its symmetry group, and
fundamental-domain reduction.

A unit-density lattice is parametrized as L = sqrt(1/y) (Z + z Z) with
z = x + iy, y > 0.  The symmetry group of the lattice sums is generated by
z -> -1/z, z -> z + 1 and z -> -conj(z); its fundamental domain is
D = { |z| > 1, 0 < x < 1/2 } (half of the classical modular domain).
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import Record
from .errors import InvalidParameter, RadiusTooLarge, ReductionDivergence

RT3_2 = math.sqrt(3.0) / 2.0

#: Group words are capped at this many generators.
MAX_WORD_LENGTH = 100

#: Most lattice points one enumeration may hold, sized for memory: about
#: 200 MB for lattice_norms and 25 MB for half_plane_norms at the cap.
MAX_ENUMERATION = 10**6

#: Numerical slack for the closed-domain membership conditions.
BOUNDARY_TOL = 1e-12


class UpperHalfPoint(Record):
    """Point z = x + iy with y > 0."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y) and y > 0.0):
            raise InvalidParameter(f"upper half-plane point needs finite x, y > 0; got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def abs2(self) -> float:
        return self.x * self.x + self.y * self.y


class Generator(Enum):
    """Generators of the symmetry group (plus the inverse shift, for words)."""

    INVERT = "invert"        # z -> -1/z
    SHIFT_PLUS = "shift+"    # z -> z + 1
    SHIFT_MINUS = "shift-"   # z -> z - 1
    REFLECT = "reflect"      # z -> -conj(z)


GroupWord = tuple[Generator, ...]


def apply_generator(gen: Generator, z: UpperHalfPoint) -> UpperHalfPoint:
    if gen is Generator.INVERT:
        r2 = z.abs2()
        if r2 == 0.0:
            raise ReductionDivergence(f"|z|^2 underflows to 0 at {z}; cannot invert")
        return UpperHalfPoint(-z.x / r2, z.y / r2)
    if gen is Generator.SHIFT_PLUS:
        return UpperHalfPoint(z.x + 1.0, z.y)
    if gen is Generator.SHIFT_MINUS:
        return UpperHalfPoint(z.x - 1.0, z.y)
    return UpperHalfPoint(-z.x, z.y)


def apply_word(word: GroupWord | list[Generator], z: UpperHalfPoint) -> UpperHalfPoint:
    """Apply generators left-to-right.  All generators preserve y > 0."""
    if len(word) > MAX_WORD_LENGTH:
        raise InvalidParameter(f"group word longer than {MAX_WORD_LENGTH}")
    for gen in word:
        z = apply_generator(gen, z)
    return z


def hexagonal_point() -> UpperHalfPoint:
    """z = exp(i pi / 3), the unit-density hexagonal lattice."""
    return UpperHalfPoint(0.5, RT3_2)


def in_fundamental_domain(z: UpperHalfPoint, tol: float = BOUNDARY_TOL) -> bool:
    """Membership in the closure of D = {|z| > 1, 0 < x < 1/2}."""
    return (
        -tol <= z.x <= 0.5 + tol
        and z.abs2() >= (1.0 - tol) * (1.0 - tol)
    )


def reduce_to_fundamental(z: UpperHalfPoint) -> tuple[UpperHalfPoint, GroupWord]:
    """Map z into the closure of the fundamental domain.

    Iterates: shift x into (-1/2, 1/2], invert if |z| < 1; finally reflect
    to x >= 0.  Returns the reduced point and the generator word realizing
    it (word applied to the input reproduces the output).  Points already in
    the closed domain come back unchanged with an empty word.
    """
    word: list[Generator] = []
    current = z
    while True:  # each pass after the first shifts and inverts, so the word cap ends it
        k = math.ceil(current.x - 0.5)  # shift so that x lands in (-1/2, 1/2]
        if k != 0:
            if len(word) + abs(k) > MAX_WORD_LENGTH:
                raise ReductionDivergence("input too far from the fundamental domain (word cap)")
            gen = Generator.SHIFT_MINUS if k > 0 else Generator.SHIFT_PLUS
            word.extend([gen] * abs(k))
            current = UpperHalfPoint(current.x - k, current.y)
        if current.abs2() >= 1.0 - BOUNDARY_TOL:
            break
        if len(word) + 1 > MAX_WORD_LENGTH:
            raise ReductionDivergence("inversion loop exceeded the word cap")
        word.append(Generator.INVERT)
        current = apply_generator(Generator.INVERT, current)
    if current.x < 0.0:
        word.append(Generator.REFLECT)
        current = apply_generator(Generator.REFLECT, current)
    if not in_fundamental_domain(current, tol=1e-9):
        raise ReductionDivergence(f"reduction produced a point outside the closed domain: {current}")
    return current, tuple(word)


def enumeration_estimate(z: UpperHalfPoint, radius: float) -> float:
    """The area of the disc of the given radius plus two points per row and
    four per unit of radius: about the number of lattice points within it,
    and twice the rows a walk of it passes."""
    return math.pi * radius * radius + 2.0 * (radius / math.sqrt(z.y) + 1.0) + 4.0 * radius


def _half_plane(
    z: UpperHalfPoint, radius: float, cap: int = MAX_ENUMERATION
) -> list[tuple[int, range | list[int], list[float]]]:
    """Half of the lattice points with |m z + n|^2 / y <= radius^2, by rows.

    Returns (m, ns, qs) for m = 0, ..., radius / sqrt(y), where qs[i] is the
    norm^2 of (m, ns[i]); row 0 keeps n >= 1 only.  Every other nonzero point
    is (-m, -n) for one of these, with the same norm^2 bit for bit, since u^2
    and m^2 do not depend on sign.  The enumeration bound comes from
    |m z + n|^2 / y >= m^2 y, so |m| <= radius / sqrt(y), and for each m the
    admissible n form the interval |m x + n| <= sqrt(y (radius^2 - m^2 y)).

    Raises RadiusTooLarge before building any row when the estimate, which
    bounds the rows, or the exact count of the points, taken row by row,
    passes cap (MAX_ENUMERATION by default).
    """
    if not 0.0 < radius < math.inf:
        raise InvalidParameter(f"radius must be > 0 and finite, got {radius}")
    estimate = enumeration_estimate(z, radius)
    if estimate > cap:
        raise RadiusTooLarge(f"enumeration would visit ~{estimate:.3g} points")
    x, y = z.x, z.y
    r2 = radius * radius
    bounds = []
    count = 0
    for m in range(int(radius / math.sqrt(y)) + 1):
        rem = y * (r2 - m * m * y)
        if rem >= 0.0:
            half, mid = math.sqrt(rem), -m * x
            nlo, nhi = math.ceil(mid - half), math.floor(mid + half)
            if nhi >= nlo:
                # rows m and -m hold the same number of points; row 0 is counted once
                count += (nhi - nlo + 1) * (2 if m else 1)
                bounds.append((m, nlo if m else 1, nhi))
    if count > cap:
        raise RadiusTooLarge(f"enumeration would hold {count} points, above {cap}")
    limit = r2 * (1.0 + 1e-12)
    rows: list[tuple[int, range | list[int], list[float]]] = []
    for m, nlo, nhi in bounds:
        mx, c = m * x, m * m * y * y
        ns = range(nlo, nhi + 1)
        qs = [((mx + n) * (mx + n) + c) / y for n in ns]
        if qs and max(qs) > limit:  # rounding in m x + n, at |x| ~ 1e12 and beyond
            ns = [n for n, q in zip(ns, qs) if q <= limit]
            qs = [q for q in qs if q <= limit]
        rows.append((m, ns, qs))
    return rows


def lattice_norms(
    z: UpperHalfPoint, radius: float
) -> list[tuple[float, tuple[int, int]]]:
    """All (m, n) with |m z + n|^2 / y <= radius^2, with their norms.

    Returns (norm^2, (m, n)) pairs in ascending tuple order (by norm^2, then
    by (m, n)), origin included.
    """
    out = [(0.0, (0, 0))]
    for m, ns, qs in _half_plane(z, radius):
        for n, q in zip(ns, qs):
            out += ((q, (m, n)), (q, (-m, -n)))
    out.sort()
    return out


def half_plane_norms(z: UpperHalfPoint, radius: float) -> list[float]:
    """The norms^2 of the nonzero lattice points within radius, one per pair
    +-(m, n), in ascending order: each value stands for two points."""
    out: list[float] = []
    for _, _, qs in _half_plane(z, radius):
        out += qs
    out.sort()
    return out
