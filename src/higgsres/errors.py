"""Exception types shared across the library."""

from __future__ import annotations


class HiggsresError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(HiggsresError):
    """A rational function was built with an identically zero denominator."""


class NotInvertible(HiggsresError):
    """Inversion of zero, as a Gaussian rational or a rational function."""


class ShapeError(HiggsresError):
    """Matrix or vector dimensions do not match."""


class NotInAlgebra(HiggsresError):
    """A matrix does not lie in the span of the algebra basis (its trace is not 0)."""


class IrregularSection(HiggsresError):
    """Derived disk data has a pole at the center of a formal disk."""

    def __init__(self, point_index: int, order: int, what: str = "section"):
        self.point_index = point_index
        self.order = order
        self.what = what
        super().__init__(
            f"{what} has a pole of order {order} at marked point #{point_index}"
        )


class RegularityViolation(HiggsresError):
    """Global data has a pole away from the marked points."""


class EquivarianceBroken(HiggsresError):
    """Moment-map data failed the cocycle consistency re-check.

    This indicates a convention bug inside the library; it must be
    impossible to trigger through the public constructors.
    """


class Infeasible(HiggsresError):
    """An inhomogeneous linear system has no solution within the bounds."""


class ParseError(HiggsresError):
    """Malformed scenario text; carries a source location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


class ValidationError(HiggsresError):
    """Well-formed scenario whose data violates a domain invariant."""

    def __init__(self, message: str, violations: list[str] | None = None):
        self.violations = violations or []
        super().__init__(message)
