"""The contract of the package's immutable records: constructor, validation,
equality, hash, repr, refusal of assignment, pickling and copying.  The repr
texts are those the records have always printed."""

import copy
import pickle
from fractions import Fraction

import pytest

from bsinf.invariant import (
    DirectionCount,
    InfinityReport,
    KInvariant,
    NormalFormDescriptor,
    PointRecord,
)
from bsinf.oracle import OracleReport
from bsinf.poly import Record
from bsinf.projective import DirectionS1, ProjPointAtInfinity
from bsinf.roots import RootInterval

F = Fraction
POINT = ProjPointAtInfinity((1, 2))
DIRECTION = DirectionS1((1, -2))
COUNT = DirectionCount(DIRECTION, 2)
RECORD = PointRecord(POINT, COUNT, None, True)

# class, field names, field values, another value of the first field, repr
CASES = {
    "RootInterval": (
        RootInterval, ("low", "high", "exact_point"), (F(1, 3), F(1, 2), None), F(0),
        "RootInterval(low=Fraction(1, 3), high=Fraction(1, 2), exact_point=None)"),
    "ProjPointAtInfinity": (
        ProjPointAtInfinity, ("rep",), ((1, 2),), (0, 1),
        "ProjPointAtInfinity(rep=(1, 2))"),
    "DirectionS1": (
        DirectionS1, ("rep",), ((1, -2),), (-1, 2),
        "DirectionS1(rep=(1, -2))"),
    "DirectionCount": (
        DirectionCount, ("direction", "count"), (DIRECTION, 2), DirectionS1((1, 0)),
        "DirectionCount(direction=DirectionS1(rep=(1, -2)), count=2)"),
    "PointRecord": (
        PointRecord, ("point", "plus", "minus", "certified"), (POINT, COUNT, None, True),
        ProjPointAtInfinity((1, 3)),
        "PointRecord(point=ProjPointAtInfinity(rep=(1, 2)), plus=DirectionCount("
        "direction=DirectionS1(rep=(1, -2)), count=2), minus=None, certified=True)"),
    "InfinityReport": (
        InfinityReport, ("records", "k", "descriptor", "bounded"),
        ((RECORD,), KInvariant((2,)), NormalFormDescriptor(((0, 1),)), False),
        (),
        "InfinityReport(records=(PointRecord(point=ProjPointAtInfinity("
        "rep=(1, 2)), plus=DirectionCount(direction=DirectionS1(rep=(1, -2)), count=2), "
        "minus=None, certified=True),), k=KInvariant((2,)), "
        "descriptor=NormalFormDescriptor(((0, 1),)), bounded=False)"),
    # the invariant and the descriptor keep their short reprs, which appear
    # inside InfinityReport's
    "KInvariant": (
        KInvariant, ("entries",), ((2,),), (1, 1),
        "KInvariant((2,))"),
    "NormalFormDescriptor": (
        NormalFormDescriptor, ("pairs",), (((0, 1),),), ((1, 0),),
        "NormalFormDescriptor(((0, 1),))"),
    "OracleReport": (
        OracleReport, ("directions", "stable", "radii_used", "samples"),
        ((((1.0, 0.0), 2),), True, (16.0, 32.0), ((16.0, 0.5, 1.0, 2.0),)), (),
        "OracleReport(directions=(((1.0, 0.0), 2),), stable=True, radii_used=(16.0, 32.0))"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_contract(name):
    cls, names, values, changed, text = CASES[name]
    rec = cls(*values)
    assert repr(rec) == text
    assert tuple(getattr(rec, n) for n in names) == values

    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == rec and not by_keyword != rec
    assert hash(by_keyword) == hash(rec)
    other = cls(changed, *values[1:])
    assert other != rec and not other == rec

    # a record of another class with the same field values
    twin = type("Twin", (Record,), {"__slots__": names})(*values)
    assert twin != rec and rec != twin and not rec == twin

    for n in names:
        with pytest.raises(AttributeError):
            setattr(rec, n, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, n)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    assert repr(rec) == text

    for restored in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(restored) is cls
        assert restored == rec and hash(restored) == hash(rec)
        assert repr(restored) == text


def test_record_defaults():
    assert RootInterval(F(0), F(1)).exact_point is None
    assert RootInterval(low=F(1, 2), high=F(1, 2), exact_point=F(1, 2)).exact_point == F(1, 2)
    report = OracleReport(directions=(), stable=False, radii_used=())
    assert report.samples == ()
    assert repr(report) == "OracleReport(directions=(), stable=False, radii_used=())"
    # the samples are compared and hashed, though the repr hides them
    with_samples = OracleReport((), False, (), ((16.0, 0.0, 16.0, 0.0),))
    assert with_samples != report and repr(with_samples) == repr(report)


@pytest.mark.parametrize("make, message", [
    (lambda: RootInterval(F(1), F(0)), "low > high"),
    (lambda: RootInterval(F(0), F(1), F(1, 2)), "exact interval must be degenerate"),
    (lambda: ProjPointAtInfinity((0, 0)), "(0, 0) does not represent a projective point"),
    (lambda: DirectionS1((0, 0)), "(0, 0) is not a direction"),
    (lambda: DirectionCount(DIRECTION, 0), "zero counts are dropped, not stored"),
], ids=["low-above-high", "exact-not-degenerate", "zero-point", "zero-direction", "zero-count"])
def test_record_validation(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_record_normalization():
    assert ProjPointAtInfinity((-2, -4)).rep == (1, 2)
    assert ProjPointAtInfinity((0, -3)) == ProjPointAtInfinity((0, 1))
    assert DirectionS1((2, -4)).rep == (1, -2)
    assert DirectionS1((-3, 0)) == DirectionS1((-1, 0)) != DirectionS1((1, 0))
    # a point and a direction with the same representative stay apart
    assert ProjPointAtInfinity((1, 2)) != DirectionS1((1, 2))
