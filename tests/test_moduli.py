"""Tests for the moduli-space point, group words, reduction and enumeration."""

import math
import tracemalloc

import numpy as np
import pytest

from hexlat import (
    Generator,
    UpperHalfPoint,
    apply_word,
    hexagonal_point,
    in_fundamental_domain,
    lattice_norms,
    reduce_to_fundamental,
)
from hexlat.errors import InvalidParameter, RadiusTooLarge, ReductionDivergence

RT3_2 = math.sqrt(3.0) / 2.0


def test_point_validation():
    with pytest.raises(InvalidParameter):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(InvalidParameter):
        UpperHalfPoint(0.0, -1.0)
    with pytest.raises(InvalidParameter):
        UpperHalfPoint(math.nan, 1.0)


def test_apply_word_examples():
    z = apply_word([Generator.SHIFT_PLUS], UpperHalfPoint(0.2, 1.0))
    assert (z.x, z.y) == (1.2, 1.0)
    z = apply_word([Generator.INVERT], UpperHalfPoint(0.0, 1.0))
    assert abs(z.x) < 1e-15 and abs(z.y - 1.0) < 1e-15
    # -1/(0.5 + 0.5i) = -1 + i
    z = apply_word([Generator.INVERT], UpperHalfPoint(0.5, 0.5))
    assert abs(z.x + 1.0) < 1e-15 and abs(z.y - 1.0) < 1e-15
    z = apply_word([Generator.REFLECT, Generator.SHIFT_MINUS], UpperHalfPoint(0.3, 2.0))
    assert abs(z.x + 1.3) < 1e-15 and z.y == 2.0


def test_word_length_cap():
    with pytest.raises(InvalidParameter):
        apply_word([Generator.SHIFT_PLUS] * 101, UpperHalfPoint(0.0, 1.0))


def test_reduce_interior_point_is_identity():
    z = UpperHalfPoint(0.25, 2.0)
    red, word = reduce_to_fundamental(z)
    assert word == ()
    assert red == z


def test_reduce_translation():
    red, word = reduce_to_fundamental(UpperHalfPoint(5.0, 1.0))
    assert word == (Generator.SHIFT_MINUS,) * 5
    assert abs(red.x) < 1e-15 and abs(red.y - 1.0) < 1e-15


def test_reduce_hexagonal_fixed():
    red, word = reduce_to_fundamental(hexagonal_point())
    assert word == ()
    assert red == hexagonal_point()


def _orbit(z: UpperHalfPoint, depth: int = 8) -> list[UpperHalfPoint]:
    """Brute-force group orbit via breadth-first words up to the given length."""
    seen = {(round(z.x, 9), round(z.y, 9))}
    frontier = [z]
    out = [z]
    for _ in range(depth):
        nxt = []
        for point in frontier:
            for gen in Generator:
                cand = apply_word([gen], point)
                key = (round(cand.x, 9), round(cand.y, 9))
                if key not in seen and abs(cand.x) < 6 and 1e-3 < cand.y < 50:
                    seen.add(key)
                    nxt.append(cand)
                    out.append(cand)
        frontier = nxt
    return out


def test_reduce_matches_orbit_search():
    z = UpperHalfPoint(-0.3, 0.4)
    red, word = reduce_to_fundamental(z)
    assert in_fundamental_domain(red)
    back = apply_word(word, z)
    assert abs(back.x - red.x) < 1e-12 and abs(back.y - red.y) < 1e-12
    # the reduced point must appear in the brute-force orbit
    hits = [
        p for p in _orbit(z)
        if abs(p.x - red.x) < 1e-9 and abs(p.y - red.y) < 1e-9
    ]
    assert hits


def test_reduce_random_points_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = UpperHalfPoint(float(rng.uniform(-4, 4)), float(rng.uniform(0.15, 5.0)))
        red, word = reduce_to_fundamental(z)
        assert in_fundamental_domain(red, tol=1e-9)
        # containment in the classical modular domain closure {|z|>=1, |x|<=1/2}
        assert abs(red.x) <= 0.5 + 1e-9 and red.abs2() >= 1.0 - 1e-9
        again, word2 = reduce_to_fundamental(red)
        assert word2 == ()
        assert abs(again.x - red.x) < 1e-14 and abs(again.y - red.y) < 1e-14


def test_reduce_underflowing_modulus_raises():
    # |z|^2 = 1e-600 underflows to 0, so z -> -1/z cannot be formed
    with pytest.raises(ReductionDivergence, match="underflows"):
        reduce_to_fundamental(UpperHalfPoint(0.0, 1e-300))
    with pytest.raises(ReductionDivergence, match="underflows"):
        apply_word([Generator.INVERT], UpperHalfPoint(1e-200, 1e-200))


def test_reduce_word_cap_errors():
    # the word cap is what ends the reduction loop: a shift past it and an
    # inversion past it (96 shifts, invert, 3 shifts, invert) both raise
    with pytest.raises(ReductionDivergence, match=r"input too far from the fundamental domain \(word cap\)"):
        reduce_to_fundamental(UpperHalfPoint(150.3, 1.0))
    with pytest.raises(ReductionDivergence, match="inversion loop exceeded the word cap"):
        reduce_to_fundamental(UpperHalfPoint(96.3, 0.01))


def test_hexagonal_point_values():
    h = hexagonal_point()
    assert h.x == 0.5
    assert abs(h.y - 0.8660254037844386) < 1e-15
    assert h.y >= RT3_2 - 1e-15  # lies on the vertical boundary line


def test_lattice_norms_hexagonal():
    pts = lattice_norms(hexagonal_point(), 1.1)
    assert pts[0] == (0.0, (0, 0))
    nonzero = [q for q, _ in pts if q > 0]
    shortest = min(nonzero)
    assert abs(shortest - 2.0 / math.sqrt(3.0)) < 1e-12
    assert sum(1 for q in nonzero if abs(q - shortest) < 1e-9) == 6


def test_lattice_norms_square():
    pts = lattice_norms(UpperHalfPoint(0.0, 1.0), 1.1)
    nonzero = [q for q, _ in pts if q > 0]
    assert abs(min(nonzero) - 1.0) < 1e-15
    assert sum(1 for q in nonzero if abs(q - 1.0) < 1e-12) == 4


def test_lattice_norms_translation_invariant():
    a = sorted(q for q, _ in lattice_norms(UpperHalfPoint(0.2, 1.1), 3.0))
    b = sorted(q for q, _ in lattice_norms(UpperHalfPoint(1.2, 1.1), 3.0))
    assert len(a) == len(b)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_lattice_norms_guard():
    for radius in (0.0, math.inf):
        with pytest.raises(InvalidParameter):
            lattice_norms(hexagonal_point(), radius)
    with pytest.raises(RadiusTooLarge):
        lattice_norms(UpperHalfPoint(0.0, 1.0), 1e5)


def test_lattice_norms_counts_the_rows_before_building_them():
    # ~300 points by area, but the row through the origin alone holds ~1.9e7:
    # the count must refuse it before any row is built
    tracemalloc.start()
    try:
        with pytest.raises(RadiusTooLarge, match="19400001 points"):
            lattice_norms(UpperHalfPoint(0.0, 1e12), 9.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
