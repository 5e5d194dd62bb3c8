"""Exact classification of real plane algebraic curves at infinity.

The complete invariant of a curve is the nondecreasing tuple of branch counts
over its asymptotic directions; two curves are equivalent at infinity exactly
when the tuples agree.  The package computes the invariant with certified
exact arithmetic, decides equivalence, emits canonical normal forms, realizes
admissible tuples and cross-validates everything against an independent
floating-point oracle.

The names below are the calls the README and the CLI make, the types they
return and the errors they raise; the layers behind them are importable from
their submodules.  The oracle's names, `oracle_k` and `OracleReport`, load
`bsinf.oracle` on first use, so the exact pipeline never imports it.
"""

from .errors import (
    BsinfError,
    DegreeZeroError,
    IrrationalDirectionError,
    NotRealizableError,
    ParseError,
    ZeroPolynomialError,
)
from .invariant import (
    DirectionCount,
    InfinityReport,
    KInvariant,
    NormalFormDescriptor,
    PointRecord,
    canonical_descriptor,
    emit_normal_form,
    equivalent_at_infinity,
    k_at_infinity,
    realize_tuple,
)
from .parsing import parse_poly
from .poly import BivarPoly, squarefree_part
from .projective import DirectionS1, ProjPointAtInfinity

__version__ = "0.1.0"

_ORACLE_NAMES = ("OracleReport", "oracle_k")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORACLE_NAMES))


__all__ = [
    "BivarPoly",
    "BsinfError",
    "DegreeZeroError",
    "DirectionCount",
    "DirectionS1",
    "InfinityReport",
    "IrrationalDirectionError",
    "KInvariant",
    "NormalFormDescriptor",
    "NotRealizableError",
    "OracleReport",
    "ParseError",
    "PointRecord",
    "ProjPointAtInfinity",
    "ZeroPolynomialError",
    "canonical_descriptor",
    "emit_normal_form",
    "equivalent_at_infinity",
    "k_at_infinity",
    "oracle_k",
    "parse_poly",
    "realize_tuple",
    "squarefree_part",
]
