"""Seeded inputs for the four workloads and the expected answers they are
checked against.

Nothing here imports bsinf.  Curves are built from lines and parabolas with
small integer polynomial arithmetic of our own, and each expected answer
comes from how the curve was built: the paper's theorem for normal forms and
realizations, affine invariance for their images, and the exit codes the CLI
documents.  An output of the program is never the reference.

Each workload is one round of operations.  A run repeats the same round, each
time in a fresh interpreter, so every run times the same operations however
fast the program is, and the share of known-fault operations is fixed.  The
curves of the factored, expanded and oracle rounds are the same for every
seed: drawing them per seed made ops_per_s vary by 10-45 % between seeds,
because single curves of the same size differ up to 10x in cost.  The seed
sets the order of the operations, the order of the factors in each product,
and the CLI's curves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Poly = dict  # {(i, j): int}, the coefficient of x^i * y^j


@dataclass(frozen=True)
class Fault:
    """A named fault of the program that an operation hits today, and the one
    check step it makes fail.  A failure at any other step is still wrong."""

    name: str
    fails: str


@dataclass(frozen=True)
class Op:
    """One operation: what to run, the independently known answer, and the
    named fault it hits today, if any."""

    label: str
    args: tuple
    expect: object
    fault: Fault | None = None


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _product(factors: list[Poly]) -> Poly:
    out: Poly = {(0, 0): 1}
    for f in factors:
        out = _mul(out, f)
    return out


def affine_image(f: Poly, m: tuple[tuple[int, int], tuple[int, int]],
                 t: tuple[int, int]) -> Poly:
    """f composed with (x, y) -> M (x, y) + t, fully expanded."""
    (a, b), (c, d) = m
    px = {k: v for k, v in {(1, 0): a, (0, 1): b, (0, 0): t[0]}.items() if v}
    py = {k: v for k, v in {(1, 0): c, (0, 1): d, (0, 0): t[1]}.items() if v}
    deg = max(i + j for i, j in f)
    xp, yp = [{(0, 0): 1}], [{(0, 0): 1}]
    for _ in range(deg):
        xp.append(_mul(xp[-1], px))
        yp.append(_mul(yp[-1], py))
    out: Poly = {}
    for (i, j), coeff in f.items():
        term = _mul(xp[i], yp[j])
        out = _add(out, {k: coeff * v for k, v in term.items()})
    return out


def format_poly(p: Poly) -> str:
    """Text in the CLI grammar: explicit '*', '^' for powers, expanded sum."""
    terms = sorted(p.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
    parts = []
    for n, ((i, j), c) in enumerate(terms):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in (("x", i), ("y", j)) if e)
        mag = abs(c)
        body = (f"{mag}*{mono}" if mag != 1 else mono) if mono else str(mag)
        if n == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(parts)


def product_text(factors: list[Poly]) -> str:
    return "*".join(f"({format_poly(f)})" for f in factors)


# ---------------------------------------------------------------------------
# curves with a known invariant
# ---------------------------------------------------------------------------

def even_sum_tuples(max_entry: int, max_len: int) -> list[tuple[int, ...]]:
    """Nondecreasing tuples over 1..max_entry, length 1..max_len, even sum."""
    return [t for n in range(1, max_len + 1)
            for t in itertools.combinations_with_replacement(range(1, max_entry + 1), n)
            if sum(t) % 2 == 0]


def _line(slope: int, shift: int) -> Poly:
    # y - slope*x - shift: one branch to each side of direction (1, slope)
    return {k: v for k, v in {(0, 1): 1, (1, 0): -slope, (0, 0): -shift}.items() if v}


def _parabola(slope: int, scale: int) -> Poly:
    # (y - slope*x)^2 - scale*(y + slope*x): two branches, on the side of
    # direction (1, slope) where scale*(y + slope*x) > 0
    axis = {(0, 1): 1, (1, 0): -slope}
    return _add(_mul(axis, axis), {(0, 1): -scale, (1, 0): -scale * slope})


def descriptor(t: tuple[int, ...]) -> list[tuple[int, int]]:
    """The paper's canonical descriptor: odd entries paired in sorted order,
    (u, v) -> (u, (v - u)/2); each even entry v -> (0, v/2)."""
    odds = sorted(e for e in t if e % 2)
    evens = sorted(e for e in t if e % 2 == 0)
    pairs = [(u, (v - u) // 2) for u, v in zip(odds[0::2], odds[1::2])]
    pairs += [(0, v // 2) for v in evens]
    return sorted(pairs)


def normal_form_factors(t: tuple[int, ...]) -> list[Poly]:
    """At direction pair l: r0 parallel lines and r1 nested parabolas."""
    out = []
    for slope, (r0, r1) in enumerate(descriptor(t), start=1):
        out += [_line(slope, r) for r in range(1, r0 + 1)]
        out += [_parabola(slope, r) for r in range(1, r1 + 1)]
    return out


def realization_factors(t: tuple[int, ...]) -> list[Poly]:
    """Odd entries in antipodal pairs (a line with parabolas opening to either
    side), even entries as one-sided parabola stacks at fresh directions."""
    odds = sorted(e for e in t if e % 2)
    evens = sorted(e for e in t if e % 2 == 0)
    m = len(odds) // 2
    half = [(e - 1) // 2 for e in odds]
    out = []
    for slope in range(1, m + 1):
        out.append(_line(slope, 0))
        out += [_parabola(slope, r) for r in range(1, half[slope - 1] + 1)]
        out += [_parabola(slope, -r) for r in range(1, half[m + slope - 1] + 1)]
    for n, e in enumerate(evens, start=1):
        out += [_parabola(m + n, r) for r in range(1, e // 2 + 1)]
    return out


def _factors(t: tuple[int, ...], kind: str) -> list[Poly]:
    return normal_form_factors(t) if kind == "nf" else realization_factors(t)


def _slopes(t: tuple[int, ...], kind: str) -> int:
    """Number of direction pairs, with slopes 1..n."""
    if kind == "nf":
        return len(descriptor(t))
    odds = [e for e in t if e % 2]
    return len(odds) // 2 + len(t) - len(odds)


def _unimodular(rng: random.Random, steps: int) -> tuple[tuple[int, int], tuple[int, int]]:
    m = [[1, 0], [0, 1]]
    for s in range(steps):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        if s % 2 == 0:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
    if rng.random() < 0.5:
        m = [m[1], m[0]]
    return (m[0][0], m[0][1]), (m[1][0], m[1][1])


def _off_axis_map(rng: random.Random, slopes: int, steps: int):
    """A unimodular map under which no direction (1, l), l <= slopes, comes
    from an axis direction, so every chart of the image is nontrivial."""
    while True:
        (a, b), (c, d) = m = _unimodular(rng, steps)
        det = a * d - b * c
        # the image curve g(v) = f(M v + t) has direction M^-1 (1, l)
        if all((d - b * l) * det != 0 and (a * l - c) * det != 0
               for l in range(1, slopes + 1)):
            return m


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def factored_round(seed: int) -> list[Op]:
    """Normal form and realization of every 4th tuple of the criterion-1 set
    (entries <= 6, length <= 4), as products of their factors.  The set is
    sorted by size first, so the round spans the whole size range; all 218
    curves would take about 95 s a round."""
    tuples = sorted(even_sum_tuples(6, 4), key=lambda t: (sum(t), len(t), t))
    chosen = tuples[0::4]
    rng = random.Random(f"factored:{seed}")
    ops = []
    for t in chosen:
        for kind in ("nf", "re"):
            factors = _factors(t, kind)
            rng.shuffle(factors)
            ops.append(Op(f"{kind}{t}", (product_text(factors),), t))
    rng.shuffle(ops)
    return ops


def expanded_round(seed: int) -> list[Op]:
    """Unimodular affine images with translations of the normal forms and
    realizations of the tuples with entries <= 4, length <= 3; expanded.
    The maps are the same for every seed: with maps drawn per seed, a few
    images that factor slowly made ops_per_s differ 23-29 % between seeds.
    Length 4 is left out: single images of (4, 4, 4, 4) took 1.4-21 s, so
    one of them would set a run's ops_per_s."""
    maps = random.Random("expanded:0")
    ops = []
    for t in even_sum_tuples(4, 3):
        for kind in ("nf", "re"):
            m = _off_axis_map(maps, _slopes(t, kind), steps=4)
            shift = tuple(maps.choice((-1, 1)) * maps.randint(2, 5) for _ in range(2))
            image = affine_image(_product(_factors(t, kind)), m, shift)
            ops.append(Op(f"{kind}{t}@{m}+{shift}", (format_poly(image),), t))
    random.Random(f"expanded:{seed}").shuffle(ops)
    return ops


# (text, expected k): the named curves of the criterion-4 corpus, with k
# worked out by hand from their branches.
NAMED_CURVES = [
    ("y^2 - x^3", (1, 1)),        # y = +-x^(3/2): directions (0, +-1)
    ("y^2 - x^5", (1, 1)),
    ("x^2 - y^2 - y^3", (1, 1)),  # x = +-y^(3/2): directions (+-1, 0)
    ("x^2 + y^2 - 1", ()),        # bounded
]

# Known faults, kept as operations that fail today.  The exact invariant of
# these curves must still be right: only the comparison with the oracle fails.
ORACLE_FAULTS = [
    # y = x^2/(x + 10^6): the asymptotes y ~ x and the vertical one at
    # x = -10^6 give (1, 1, 1, 1); the oracle's fixed radii stop at 2^20
    ("1000000*y - x^2 + x*y", (1, 1, 1, 1),
     Fault("oracle radius schedule ends before the asymptote x = -10^6", "oracle")),
    ("y^2 - 1/1000000*x^3", (1, 1),
     Fault("oracle disagrees on the default radius schedule", "oracle")),
]
# exit code 1 is right; only the one-line error on stderr is missing
DEEP_PARENS_FAULT = Fault("3000-deep parentheses raise an uncaught RecursionError",
                          "stderr")


def oracle_round(seed: int) -> list[Op]:
    """The criterion-4 corpus: normal forms with entries <= 3 and the named
    curves, plus the two known oracle faults."""
    rng = random.Random(f"oracle:{seed}")
    ops = []
    for t in even_sum_tuples(3, 4):
        factors = normal_form_factors(t)
        rng.shuffle(factors)
        ops.append(Op(f"nf{t}", (product_text(factors),), t))
    ops += [Op(text, (text,), k) for text, k in NAMED_CURVES]
    ops += [Op(text, (text,), k, fault) for text, k, fault in ORACLE_FAULTS]
    rng.shuffle(ops)
    return ops


def _csv(t: tuple[int, ...]) -> str:
    return ",".join(map(str, t))


DEEP_PARENS = "(" * 3000 + "x - y" + ")" * 3000


def cli_round(seed: int) -> list[Op]:
    """Seven cold CLI commands; curves are small affine images drawn per seed.

    args = (argv,); expect = (exit code, expected JSON subset or None,
    whether stderr must be a single line).  argv items '@deep' name the
    deep-parentheses file, written by the runner.
    """
    rng = random.Random(f"cli:{seed}")
    small = even_sum_tuples(3, 3)

    def image(t, kind):
        m = _off_axis_map(rng, _slopes(t, kind), steps=2)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        g = affine_image(_product(_factors(t, kind)), m, shift)
        text = format_poly(g)
        # a leading '-' would read as an option; -g has the same zero set
        return format_poly({k: -v for k, v in g.items()}) if text[0] == "-" else text

    a, b = rng.choice(small), rng.choice(small)
    c, d = rng.sample(small, 2)
    e = rng.choice(even_sum_tuples(4, 4))
    f = rng.choice(small)
    odd = rng.choice([t for n in (1, 2, 3)
                      for t in itertools.combinations_with_replacement(range(1, 4), n)
                      if sum(t) % 2])
    ops = [
        Op(f"invariant {a}", (["invariant", "--json", image(a, "nf")],),
           (0, {"k": list(a)}, False)),
        Op(f"equiv {b} {b}", (["equiv", "--json", image(b, "nf"), image(b, "re")],),
           (0, {"equivalent": True, "k1": list(b), "k2": list(b)}, False)),
        Op(f"equiv {c} {d}", (["equiv", "--json", image(c, "nf"), image(d, "re")],),
           (2, {"equivalent": False, "k1": list(c), "k2": list(d)}, False)),
        Op(f"normal-form {e}", (["normal-form", "--json", _csv(e)],),
           (0, {"k": list(e), "descriptor": [list(p) for p in descriptor(e)]}, False)),
        Op(f"realize {f}", (["realize", "--json", _csv(f)],),
           (0, {"k": list(f), "verified": True}, False)),
        Op(f"realize {odd}", (["realize", _csv(odd)],), (3, None, True)),
        Op("invariant @deep", (["invariant", "@deep"],), (1, None, True),
           DEEP_PARENS_FAULT),
    ]
    rng.shuffle(ops)
    return ops


ROUND = {
    "factored": factored_round,
    "expanded": expanded_round,
    "oracle": oracle_round,
    "cli": cli_round,
}

# One small fixed operation per workload, answered once before timing starts.
WARMUP = {
    "factored": Op("warm-up", (product_text([_line(1, 1)]),), (1, 1)),
    "expanded": Op("warm-up", (format_poly(affine_image(_line(1, 1), ((2, 1), (1, 1)), (3, -2))),), (1, 1)),
    "oracle": Op("warm-up", ("y - x - 1",), (1, 1)),
}
