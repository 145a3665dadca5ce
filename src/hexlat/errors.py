"""Exception hierarchy for the hexlat package."""


class HexlatError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(HexlatError, ValueError):
    """An argument violates a documented precondition."""


class NonPositiveX(InvalidParameter):
    """Jacobi theta arguments require X > 0."""


class NonPositiveAlpha(InvalidParameter):
    """Lattice-sum scale parameters require alpha > 0."""


class UnsupportedOrder(InvalidParameter):
    """Requested a theta derivative outside the implemented set."""


class UnknownLemma(InvalidParameter):
    """A verification check id that does not exist in the registry."""


class TruncationFailure(HexlatError, ArithmeticError):
    """A series failed to meet its tail bound within the term cap."""


class ThetaOverflow(HexlatError, ArithmeticError):
    """A Poisson prefactor X^{-k/2} of theta passes the float range."""


class RadiusTooLarge(HexlatError):
    """Lattice enumeration would exceed the hard point-count cap."""


class ReductionDivergence(HexlatError, ArithmeticError):
    """Fundamental-domain reduction did not converge."""


class TailTooLarge(HexlatError, ArithmeticError):
    """Direct lattice summation: truncated tail exceeds tolerance."""


class QuadratureDivergence(HexlatError, ArithmeticError):
    """Adaptive quadrature failed to reach its tail target."""


class OptimizerDivergence(HexlatError, ArithmeticError):
    """The Newton refinement of a minimizer did not converge, or ran to the
    y ceiling."""
