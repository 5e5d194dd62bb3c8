"""Exception types shared across the package."""

from __future__ import annotations


class BsinfError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BsinfError):
    """Malformed polynomial expression; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ZeroPolynomialError(BsinfError):
    """The expression simplified to the zero polynomial."""


class DegreeZeroError(BsinfError):
    """The expression simplified to a nonzero constant, which is not a curve."""


class IrrationalDirectionError(BsinfError):
    """The leading form has a real projective root with no rational representative.

    Points at infinity are represented by primitive integer pairs, so curves
    with irrational asymptotic directions are not supported.
    """


class NotRealizableError(BsinfError):
    """Tuple with odd entry sum: not the invariant of any real algebraic curve."""
