"""Assembly of the complete invariant at infinity, equivalence decision,
canonical normal forms and realization of admissible tuples.

The invariant of a curve is the nondecreasing tuple of branch counts over all
asymptotic directions.  Two curves are equivalent at infinity exactly when the
tuples agree; a tuple is realizable by an algebraic curve exactly when its
entry sum is even.
"""

from __future__ import annotations

from .errors import DegreeZeroError, NotRealizableError, ZeroPolynomialError
from .germs import factor_half_branches
from .poly import BivarPoly, Record, irreducible_factors
from .projective import DirectionS1, ProjPointAtInfinity, direction_pair, has_points_at_infinity


class DirectionCount(Record):
    """A unit direction together with the number of branches tangent to it."""

    __slots__ = ("direction", "count")

    def __init__(self, direction: DirectionS1, count: int):
        if count < 1:
            raise ValueError("zero counts are dropped, not stored")
        super().__init__(direction, count)


class KInvariant(Record):
    """A nondecreasing tuple of positive integers: the complete invariant."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(int(e) for e in entries)
        if any(e < 1 for e in entries):
            raise ValueError("entries must be positive")
        if any(a > b for a, b in zip(entries, entries[1:])):
            raise ValueError("entries must be nondecreasing")
        super().__init__(entries)

    @classmethod
    def from_counts(cls, counts) -> KInvariant:
        return cls(tuple(sorted(int(c) for c in counts)))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self) -> str:
        return f"KInvariant({self.entries!r})"


def norm1(eta: KInvariant) -> int:
    """Sum of the entries."""
    return sum(eta.entries)


class NormalFormDescriptor(Record):
    """A list of pairs (r0, r1): per asymptotic direction pair, r0 lines and r1
    parabola factors in the canonical representative.  Ordered by r0, then r1."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        for a, b in pairs:
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError("each pair must be nonzero with nonnegative entries")
        if list(pairs) != sorted(pairs):
            raise ValueError("pairs must be sorted by (r0, r1)")
        super().__init__(pairs)

    def flat_counts(self) -> tuple[int, ...]:
        """The invariant tuple the descriptor realizes: per pair the two
        per-direction counts r0 and r0 + 2*r1, zeros dropped."""
        out = []
        for r0, r1 in self.pairs:
            for c in (r0, r0 + 2 * r1):
                if c:
                    out.append(c)
        return tuple(sorted(out))

    def __str__(self) -> str:
        return "(" + ", ".join(f"({a}, {b})" for a, b in self.pairs) + ")"

    def __repr__(self) -> str:
        return f"NormalFormDescriptor({self.pairs!r})"


class PointRecord(Record):
    """Per-point summary: the two antipodal directions with their counts
    (a side with no branches is None) and whether the counts are certified,
    which every count is; the flag stays for the bsinf/1 schema."""

    __slots__ = ("point", "plus", "minus", "certified")

    def __init__(self, point: ProjPointAtInfinity, plus: DirectionCount | None,
                 minus: DirectionCount | None, certified: bool):
        super().__init__(point, plus, minus, certified)


class InfinityReport(Record):
    """User-facing summary of the structure of a curve at infinity."""

    __slots__ = ("records", "k", "descriptor", "bounded")

    def __init__(self, records: tuple[PointRecord, ...], k: KInvariant,
                 descriptor: NormalFormDescriptor, bounded: bool):
        super().__init__(records, k, descriptor, bounded)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def k_at_infinity(f: BivarPoly) -> InfinityReport:
    """Complete invariant of the curve {f = 0} at infinity, every count
    certified.

    Works on f as given: the count splits f into its distinct irreducible
    factors, so a repeated factor counts once, and adds their counts at
    each of their points at infinity.  A curve whose leading form is
    definite has no point at infinity and is not split: at high degree the
    split would take seconds.
    """
    if f.is_zero():
        raise ZeroPolynomialError("not a curve")
    if f.is_constant():
        raise DegreeZeroError("not a curve")
    totals: dict[ProjPointAtInfinity, list[int]] = {}
    for u in irreducible_factors(f) if has_points_at_infinity(f) else ():
        for point, plus, minus in factor_half_branches(u):
            total = totals.setdefault(point, [0, 0])
            total[0] += plus
            total[1] += minus
    records = []
    counts: list[int] = []
    for point in sorted(totals, key=lambda p: p.rep):
        plus, minus = totals[point]
        if plus == 0 and minus == 0:
            continue
        plus_dir, minus_dir = direction_pair(point)
        records.append(PointRecord(
            point=point,
            plus=DirectionCount(plus_dir, plus) if plus else None,
            minus=DirectionCount(minus_dir, minus) if minus else None,
            certified=True,
        ))
        counts.extend(c for c in (plus, minus) if c)
    k = KInvariant.from_counts(counts)
    return InfinityReport(
        records=tuple(records),
        k=k,
        descriptor=canonical_descriptor(k),
        bounded=not k.entries,
    )


def equivalent_at_infinity(f: BivarPoly, g: BivarPoly) -> bool:
    """Whether {f = 0} and {g = 0} have the same invariant at infinity."""
    return k_at_infinity(f).k == k_at_infinity(g).k


# ---------------------------------------------------------------------------
# normal forms and realization
# ---------------------------------------------------------------------------

def canonical_descriptor(eta: KInvariant) -> NormalFormDescriptor:
    """Deterministic descriptor whose flat counts reproduce eta.

    Odd entries are sorted and paired consecutively; a pair (u, v) with u <= v
    becomes (u, (v-u)/2).  Each even entry v becomes (0, v/2).  Raises
    NotRealizableError when the entry sum is odd.
    """
    if norm1(eta) % 2 != 0:
        raise NotRealizableError(f"entry sum {norm1(eta)} is odd")
    odds = sorted(e for e in eta if e % 2 == 1)
    evens = sorted(e for e in eta if e % 2 == 0)
    pairs = []
    for u, v in zip(odds[0::2], odds[1::2]):
        pairs.append((u, (v - u) // 2))
    for v in evens:
        pairs.append((0, v // 2))
    descriptor = NormalFormDescriptor(tuple(sorted(pairs)))
    assert descriptor.flat_counts() == eta.entries
    return descriptor


def _line_factor(slope: int, shift: int) -> BivarPoly:
    # y - slope*x - shift
    return BivarPoly({(0, 1): 1, (1, 0): -slope, (0, 0): -shift})


def _parabola_factor(slope: int, scale: int) -> BivarPoly:
    # (y - slope*x)^2 - scale*(y + slope*x); negative scale flips the open side
    axis = BivarPoly({(0, 1): 1, (1, 0): -slope})
    cross = BivarPoly({(0, 1): 1, (1, 0): slope})
    return axis * axis - cross.scale(scale)


_BOUNDED_REPRESENTATIVE = BivarPoly({(2, 0): 1, (0, 2): 1})  # x^2 + y^2, zero set {0}


def emit_normal_form(a: NormalFormDescriptor) -> BivarPoly:
    """The canonical curve of a descriptor: at direction pair index l, r0(l)
    parallel lines and r1(l) nested parabolas of slope l."""
    out = BivarPoly.constant(1)
    for l, (r0, r1) in enumerate(a.pairs, start=1):
        for r in range(1, r0 + 1):
            out = out * _line_factor(l, r)
        for r in range(1, r1 + 1):
            out = out * _parabola_factor(l, r)
    if out.is_constant():
        return _BOUNDED_REPRESENTATIVE
    return out


def realize_tuple(eta: KInvariant) -> BivarPoly:
    """A curve whose invariant at infinity is eta, built from three blocks:
    odd entries in antipodal pairs (a line plus parabolas on either side) and
    even entries as one-sided parabola stacks at fresh directions.

    Raises NotRealizableError when the entry sum is odd.
    """
    if norm1(eta) % 2 != 0:
        raise NotRealizableError(f"entry sum {norm1(eta)} is odd")
    odds = sorted(e for e in eta if e % 2 == 1)
    evens = sorted(e for e in eta if e % 2 == 0)
    m = len(odds) // 2
    half_counts = [(e - 1) // 2 for e in odds]  # n_i with eta_(j_i) = 2*n_i + 1
    out = BivarPoly.constant(1)
    for l in range(1, m + 1):
        out = out * _line_factor(l, 0)
        for r in range(1, half_counts[l - 1] + 1):
            out = out * _parabola_factor(l, r)
        for r in range(1, half_counts[m + l - 1] + 1):
            out = out * _parabola_factor(l, -r)
    for l, e in enumerate(evens, start=1):
        for r in range(1, e // 2 + 1):
            out = out * _parabola_factor(m + l, r)
    if out.is_constant():
        return _BOUNDED_REPRESENTATIVE
    return out
