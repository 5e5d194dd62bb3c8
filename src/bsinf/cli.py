"""Command-line front end.

Subcommands: invariant, equiv, normal-form, realize, check.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success / equivalent / agree,
1 input or internal error (usage errors included), 2 not equivalent, 3 not
realizable, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import BsinfError, NotRealizableError, ParseError
from .invariant import (
    InfinityReport,
    KInvariant,
    canonical_descriptor,
    emit_normal_form,
    k_at_infinity,
    realize_tuple,
)
from .parsing import MAX_TERMS, MAX_TEXT, parse_poly
from .poly import BivarPoly, squarefree_part

_TUPLE_RE = re.compile(r"^[\d\s,]+$")

JSON_SCHEMA = "bsinf/1"


def _read_curve_arg(arg: str) -> BivarPoly:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            # one character past the bound is enough for parse_poly to refuse
            arg = fh.read(MAX_TEXT + 1)
    return parse_poly(arg)


def _read_tuple_arg(arg: str, degree) -> KInvariant:
    """The tuple in arg.  It is refused when the curve the command builds
    from it, of degree `degree(tuple)`, could have more terms than the
    parser accepts in an input curve: C(d + 2, 2) > MAX_TERMS."""
    parts = [p.strip() for p in arg.split(",")]
    if not any(parts):
        raise ValueError("empty tuple")
    entries = []
    for p in parts:
        if not p:
            raise ValueError(f"empty tuple entry in {arg!r}")
        # isdigit() alone also takes '²' or '٢', which int() refuses or reads
        if not (p.isascii() and p.isdigit()) or int(p) < 1:
            raise ValueError(f"tuple entries must be positive integers, got {p!r}")
        entries.append(int(p))
    eta = KInvariant(tuple(sorted(entries)))
    d = degree(eta)
    terms = math.comb(d + 2, 2)
    if terms > MAX_TERMS:
        raise ValueError(f"tuple too large: its curve would have degree {d}, so up to "
                         f"{terms} terms, beyond the {MAX_TERMS} of an input curve")
    if list(eta) != entries:
        print(f"warning: tuple reordered to {eta}", file=sys.stderr)
    return eta


def _normal_form_degree(eta: KInvariant) -> int:
    """r0 lines and r1 parabolas per pair of the descriptor."""
    return sum(r0 + 2 * r1 for r0, r1 in canonical_descriptor(eta).pairs)


def _realization_degree(eta: KInvariant) -> int:
    """A line per pair of odd entries and e // 2 parabolas per entry e."""
    return sum(e % 2 for e in eta) // 2 + 2 * sum(e // 2 for e in eta)


def report_json_dict(report: InfinityReport, input_text: str) -> dict:
    """The stable machine-readable report (schema bsinf/1) of the curve
    printed as input_text."""
    points = []
    for rec in report.records:
        entry: dict = {"point": list(rec.point.rep)}
        if rec.plus is not None:
            entry["plus"] = {"dir": list(rec.plus.direction.rep), "count": rec.plus.count}
        if rec.minus is not None:
            entry["minus"] = {"dir": list(rec.minus.direction.rep), "count": rec.minus.count}
        entry["certified"] = rec.certified
        points.append(entry)
    return {
        "schema": JSON_SCHEMA,
        "input": input_text,
        "bounded": report.bounded,
        "points": points,
        "k": list(report.k.entries),
        "descriptor": [list(p) for p in report.descriptor.pairs],
        "normal_form": str(emit_normal_form(report.descriptor)),
    }


def render_report(report: InfinityReport, input_text: str, quiet: bool = False) -> str:
    if report.bounded:
        return "bounded curve; k = ()"
    lines = [f"k = {report.k}"]
    if quiet:
        return lines[0]
    lines.insert(0, f"curve: {input_text}")
    lines.append("points at infinity:")
    for rec in report.records:
        sides = [f"{side.direction} -> {side.count}"
                 for side in (rec.plus, rec.minus) if side is not None]
        lines.append(f"  {rec.point}: " + ", ".join(sides))
    lines.append(f"descriptor: {report.descriptor}")
    lines.append(f"normal form: {emit_normal_form(report.descriptor)}")
    return "\n".join(lines)


def _cmd_invariant(args) -> int:
    f = _read_curve_arg(args.curve)
    report, text = k_at_infinity(f), str(f)
    if args.json:
        print(json.dumps(report_json_dict(report, text), indent=2))
    else:
        print(render_report(report, text, quiet=args.quiet))
    return 0


def _cmd_equiv(args) -> int:
    r1 = k_at_infinity(_read_curve_arg(args.curve1))
    r2 = k_at_infinity(_read_curve_arg(args.curve2))
    same = r1.k == r2.k
    if args.json:
        print(json.dumps({"equivalent": same,
                          "k1": list(r1.k.entries), "k2": list(r2.k.entries)}))
    elif same:
        print("EQUIVALENT")
    else:
        print(f"NOT EQUIVALENT: k = {r1.k} vs k = {r2.k}")
    return 0 if same else 2


def _cmd_normal_form(args) -> int:
    if _TUPLE_RE.match(args.target):
        descriptor = canonical_descriptor(_read_tuple_arg(args.target, _normal_form_degree))
    else:
        report = k_at_infinity(_read_curve_arg(args.target))
        descriptor = report.descriptor
    poly = emit_normal_form(descriptor)
    if args.json:
        print(json.dumps({"descriptor": [list(p) for p in descriptor.pairs],
                          "k": list(descriptor.flat_counts()),
                          "normal_form": str(poly)}))
    else:
        print(f"descriptor: {descriptor}")
        print(f"normal form: {poly}")
    return 0


def _cmd_realize(args) -> int:
    eta = _read_tuple_arg(args.tuple, _realization_degree)
    poly = realize_tuple(eta)
    achieved = k_at_infinity(poly).k
    verified = achieved == eta
    if args.json:
        print(json.dumps({"polynomial": str(poly), "k": list(achieved.entries),
                          "verified": verified}))
    else:
        print(str(poly))
        print(f"verified: k = {achieved}" if verified
              else f"VERIFICATION FAILED: k = {achieved}")
    return 0 if verified else 1


def _cmd_check(args) -> int:
    from .oracle import oracle_k  # numpy and the oracle load for this command alone

    f = _read_curve_arg(args.curve)
    exact = k_at_infinity(f)
    # the invariant concerns the zero set: a repeated factor would read to the
    # sign-scanning oracle as a persistent tangency, so compare reduced curves
    est = oracle_k(squarefree_part(f), args.radius_max)
    if args.emit_samples:
        with open(args.emit_samples, "w", encoding="utf-8") as fh:
            fh.write("radius,angle,x,y\n")
            for radius, angle, px, py in est.samples:
                fh.write(f"{radius!r},{angle!r},{px!r},{py!r}\n")
    oracle_counts = tuple(sorted(c for _, c in est.directions))
    exact_dirs = []
    for rec in exact.records:
        for side in (rec.plus, rec.minus):
            if side is not None:
                exact_dirs.append((side.direction.unit, side.count))
    agree = oracle_counts == exact.k.entries
    for (u, c) in est.directions:
        if not exact_dirs:
            agree = False
            break
        dist, count = min(
            (math.hypot(u[0] - eu[0], u[1] - eu[1]), ec) for eu, ec in exact_dirs
        )
        if dist > 1e-6 or count != c:
            agree = False
    if args.json:
        print(json.dumps({
            "agree": agree,
            "exact": report_json_dict(exact, str(f)),
            "oracle": {"counts": list(oracle_counts),
                       "directions": [{"dir": list(u), "count": c}
                                      for u, c in est.directions],
                       "stable": est.stable},
        }, indent=2))
    else:
        print(f"exact:  k = {exact.k}")
        print(f"oracle: counts = ({', '.join(str(c) for c in oracle_counts)})"
              f"{'' if est.stable else '  [unstable]'}")
        print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, the code of every input error:
    argparse's own 2 is the code of NOT EQUIVALENT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = _Parser(
        prog="bsinf",
        description="Classify real plane algebraic curves at infinity: "
                    "complete invariant, equivalence, normal forms, realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", parents=[common],
                       help="compute the invariant of a curve at infinity")
    p.add_argument("curve", help="polynomial in x, y (or @file)")
    p.add_argument("--quiet", action="store_true", help="result line only")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide equivalence at infinity of two curves")
    p.add_argument("curve1")
    p.add_argument("curve2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("normal-form", parents=[common],
                       help="canonical descriptor and normal-form curve")
    p.add_argument("target", help="a curve, or a comma-separated tuple like 1,1,2")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("realize", parents=[common],
                       help="construct a curve realizing an invariant tuple")
    p.add_argument("tuple", help="comma-separated positive integers")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("check", parents=[common],
                       help="cross-check the exact pipeline against the numeric oracle")
    p.add_argument("curve")
    p.add_argument("--radius-max", type=int, default=20, metavar="EXP",
                   help="largest radius exponent for the oracle (default 20)")
    p.add_argument("--emit-samples", metavar="PATH",
                   help="write oracle sample points as CSV")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotRealizableError as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    except (BsinfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
