"""Truncation policy shared by every series evaluation in the package."""

from __future__ import annotations

import math

from ._record import Record
from .errors import InvalidParameter, TruncationFailure

#: The most indices one series may use, N - start + 1; a series whose rule
#: asks for more raises TruncationFailure before any term is summed.  A
#: Poisson pair (1 + j, -j) counts as one index.
MAX_TERMS = 256

#: Seed of the randomized grids in the verification suite (``hexlat verify --seed``).
DEFAULT_SEED = 1729


class SeriesConfig(Record):
    """Controls how exponential series are truncated.

    Every series in the package has Gaussian terms: up to a constant, the
    n-th term is bounded by n^p e^{-pi d n^2} for a decay d > 0 and a power
    p in 0..4.  How many terms to add is fixed before summing, by
    :meth:`last_index`, the only place the rule lives: the sum over
    n = start..N stops at N = (first n whose bound is <= rel_tol times the
    largest bound at an earlier index) + 2 guard terms.

    rel_tol: the relative cut-off of that rule, in (0, 1e-6).
    """

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-14) -> None:
        if not 0.0 < rel_tol < 1e-6:
            raise InvalidParameter(f"rel_tol must lie in (0, 1e-6), got {rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)

    def last_index(self, d: float, p: int, start: int, name: str) -> int:
        """Last index N of sum_{n >= start} n^p e^{-pi d n^2} under the rule above.

        Raises TruncationFailure, naming the series `name`, when N - start + 1
        would exceed MAX_TERMS.  At d = inf every term past start is 0.0.
        """
        if d == math.inf:  # the first bound would be 0^0 e^{-pi inf 0} = nan
            return start
        peak = start**p * math.exp(-math.pi * d * start * start)
        for n in range(start + 1, start + MAX_TERMS - 2):
            bound = n**p * math.exp(-math.pi * d * n * n)
            if bound <= self.rel_tol * peak:
                return n + 2
            if bound > peak:
                peak = bound
        raise TruncationFailure(
            f"{name} not converged within {MAX_TERMS} terms (decay d={d})"
        )


DEFAULT_CONFIG = SeriesConfig()
