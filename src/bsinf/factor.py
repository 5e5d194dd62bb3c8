"""Exact, deterministic factoring of bivariate polynomials over Q.

The classical method (von zur Gathen and Gerhard, *Modern Computer Algebra*,
chapters 14-16), on integer coefficient lists:

1. Shear.  f is made primitive, and y is replaced by y + c*x with the
   smallest c >= 0 at which the leading form of f does not vanish at (1, c).
   Afterwards the x-degree equals the total degree d and the leading
   coefficient in x is a constant.  So f has no content in y, and every
   factor has a constant leading coefficient in x and a total degree equal
   to its x-degree.  The shear is unimodular: the factors shear back to the
   factors of f.
2. Squarefree part: f divided by g = gcd(f, df/dx).  g is interpolated in y
   from the gcds of f(x, a) and df/dx(x, a) at a = 0, 1, -1, 2, -2, ... and
   checked by exact division; a squarefree f is recognised at the first a
   where f(x, a) is squarefree.
3. Specialise at the first of those a at which the squarefree part stays
   squarefree, and factor it there over Z by Zassenhaus, as a sieve: f is
   irreducible when f(x, a) is.  f(x, a) is factored modulo the first odd
   prime p that divides no lead and keeps it squarefree, by
   Cantor-Zassenhaus, and those factors go through step 4 with the
   polynomial f(x, a), free of y.
4. Lift and recombine, one routine for both steps.  The factors are lifted
   modulo p^K, in integers, by a tree of two-factor lifts of monic factors:
   at each node the split of the y^0 coefficient is lifted in powers of p,
   unless the factors are exact over Z, and then the higher powers of y - a
   linearly.  Subsets of the lifted factors are recombined by exact trial
   division in Z[y][x].  p^K exceeds twice a bound B on the coefficients of
   every candidate (see `_lift_and_recombine`).  Of a subset and its
   complement, the one of lower x-degree m is tested, so the lifting stops
   at y^(d // 2).  A candidate is formed only up to y^m in symmetric
   residues and is dropped without a division when it has a term of total
   degree above m or a residue above B in size: no factor does.

Every random choice comes from a `random.Random(0)` made for the call, and a
factor set is unique, so the result and its cost are the same in every
process.

A polynomial in x is a coefficient list of `bsinf.poly`.  A polynomial in
Z[y][x] is a list of rows: row i is the coefficient of x^i, itself a list in
y.  A power series in y up to y^(N-1) with coefficients in Q[x] is a list of
N polynomials in x.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .poly import (
    BivarPoly,
    _list_add,
    _list_derivative,
    _list_mul,
    _primitive_ints,
    _remainder_sequence,
    _trim,
)


def _horner(a, t):
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _taylor_shift(a: list[int], t: int) -> list[int]:
    """a(y + t)."""
    out: list[int] = []
    for c in reversed(a):
        out = _list_add(_list_mul(out, [t, 1]), [c])
    return out


# ---------------------------------------------------------------------------
# Z[x]
# ---------------------------------------------------------------------------

def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive lead."""
    a = _primitive_ints(a)
    return a if a[-1] > 0 else [-c for c in a]


def _zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of the primitive parts of nonzero a and b in Z[x], primitive
    with a positive lead: the last element of their remainder sequence."""
    return _primitive(_remainder_sequence(a, b)[-1])


# ---------------------------------------------------------------------------
# polynomials modulo m: coefficients in [0, m)
# ---------------------------------------------------------------------------

def _mod(a: list[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _mod_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo m, for b with a lead invertible mod m."""
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    rem = list(a)  # reduced modulo m only where read
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n] * inv % m
        if c:
            q[k] = c
            for i in range(n):
                rem[k + i] -= c * b[i]
    return q, _mod(rem[:n], m)


def _gf_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over GF(p) of a and b, not both zero."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t over GF(p) with s*a + t*b = 1, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_list_add(s0, _list_mul(q, s1), -1), p)
        t0, t1 = t1, _mod(_list_add(t0, _list_mul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _gf_powmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    """a^n mod f over GF(p), by square-and-multiply."""
    result, a = [1], _mod_divmod(a, f, p)[1]
    while n:
        if n & 1:
            result = _mod_divmod(_list_mul(result, a), f, p)[1]
        n >>= 1
        if n:
            a = _mod_divmod(_list_mul(a, a), f, p)[1]
    return result


def _gf_factor(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors over GF(p), p odd, of a monic
    squarefree f: distinct-degree, then Cantor-Zassenhaus equal-degree
    factorisation."""
    out: list[list[int]] = []
    h, degree = [0, 1], 0
    while len(f) - 1 >= 2 * (degree + 1):
        degree += 1
        h = _gf_powmod(h, p, f, p)  # x^(p^degree) mod f
        g = _gf_gcd(f, _mod(_list_add(h, [0, 1], -1), p), p)
        if len(g) > 1:
            out += _gf_equal_degree(g, degree, p, rng)
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _gf_equal_degree(g: list[int], degree: int, p: int,
                     rng: random.Random) -> list[list[int]]:
    """The factors of g, a product of distinct monic irreducibles of the
    given degree over GF(p), p odd."""
    if len(g) - 1 == degree:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        b = _gf_powmod(a, (p ** degree - 1) // 2, g, p)
        h = _gf_gcd(g, _mod(_list_add(b, [1], -1), p), p)
        if 1 < len(h) < len(g):
            return (_gf_equal_degree(h, degree, p, rng)
                    + _gf_equal_degree(_mod_divmod(g, h, p)[0], degree, p, rng))


# ---------------------------------------------------------------------------
# factoring in Z[x]: Zassenhaus
# ---------------------------------------------------------------------------

def _primes():
    """The odd primes, in order."""
    n = 3
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _prime(u: list[int]) -> int:
    """The first odd prime that does not divide the lead of u and modulo
    which u stays squarefree."""
    return next(p for p in _primes() if u[-1] % p and len(
        _gf_gcd(_mod(u, p), _mod(_list_derivative(u), p), p)) == 1)


def zassenhaus(u: list[int], p: int | None = None) -> list[list[int]]:
    """The irreducible factors in Z[x] of a primitive, squarefree u of
    positive degree with a positive lead, each primitive with a positive
    lead (von zur Gathen and Gerhard, Algorithm 15.19, with recombination by
    trial division), factored modulo p, by default `_prime(u)`.  The
    factors of u modulo p are lifted and recombined by `_lift_and_recombine`
    with u as a polynomial of degree 0 in y."""
    if len(u) == 2:
        return [u]
    p = p or _prime(u)
    modular = _gf_factor(_gf_monic(_mod(u, p), p), p, random.Random(0))
    if len(modular) == 1:
        return [u]
    rows = _lift_and_recombine([[c] if c else [] for c in u], p, modular)
    return [[row[0] if row else 0 for row in g] for g in rows]


# ---------------------------------------------------------------------------
# Z[y][x]
# ---------------------------------------------------------------------------

def _rows_divide(a: list[list[int]], b: list[list[int]]) -> list[list[int]] | None:
    """a / b if b, whose leading coefficient in x is an integer, divides a
    in Z[y][x], else None."""
    a00, b00 = (a[0] or [0])[0], (b[0] or [0])[0]
    if a00 % b00 if b00 else a00:  # a(0, 0) = b(0, 0) * q(0, 0)
        return None
    n, lead = len(b) - 1, b[-1][0]
    rem = [list(row) for row in a]
    q: list[list[int]] = [[] for _ in range(len(a) - n)]
    for k in range(len(q) - 1, -1, -1):
        if any(c % lead for c in rem[k + n]):
            return None
        q[k] = c = [v // lead for v in rem[k + n]]
        for i, row in enumerate(b):
            rem[k + i] = _list_add(rem[k + i], _list_mul(c, row), -1)
    return q if not any(rem[:n]) else None


def _points():
    """0, 1, -1, 2, -2, ..."""
    for k in itertools.count():
        yield (k + 1) // 2 if k % 2 else -(k // 2)


def _interpolate(xs: list[int], ys: list) -> list:
    """The polynomial over Q of degree below len(xs) through the points
    (xs[k], ys[k]), by Lagrange's formula."""
    out: list = []
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        basis, den = [yk], 1
        for j, xj in enumerate(xs):
            if j != k:
                basis = _list_mul(basis, [-xj, 1])
                den *= xk - xj
        out = _list_add(out, [Fraction(c, den) for c in basis])
    return out


def _squarefree(f: list[list[int]]) -> tuple[list[list[int]], int]:
    """The squarefree part of f, whose leading coefficient in x is an
    integer, and the first a in 0, 1, -1, 2, ... at which it stays
    squarefree.

    The part is f / g for g = gcd(f, df/dx).  g has an integer lead in x and
    a total degree e equal to its x-degree, so g(x, a) divides the gcd of
    f(x, a) and df/dx(x, a), and equals it up to the lead exactly when that
    gcd has degree e, which is when the squarefree part stays squarefree at
    a.  g, with an integer lead, is interpolated from the e + 1 first points
    of the lowest degree seen, and it is the gcd once it divides both f and
    df/dx: no common divisor has a higher degree.  A squarefree f is seen at
    its first point of degree 0."""
    df = [[k * c for c in row] for k, row in enumerate(f)][1:]
    best: list[tuple[int, list[int]]] = []  # (a, gcd at a) of the lowest degree
    for a in _points():
        u = [_horner(row, a) for row in f]
        g = _zx_gcd(u, _list_derivative(u))
        if best and len(g) != len(best[0][1]):
            if len(g) > len(best[0][1]):
                continue
            best = []
        best.append((a, g))
        if len(g) == 1:
            return f, best[0][0]
        if len(best) == len(g):
            xs, lcm = [a for a, _ in best], math.lcm(*(h[-1] for _, h in best))
            rows = [_interpolate(xs, [h[i] * (lcm // h[-1]) for _, h in best])
                    for i in range(len(g))]
            ints = iter(_primitive_ints(c for row in rows for c in row))
            g = [[next(ints) for _ in row] for row in rows]
            q = _rows_divide(f, g)
            if q is not None and _rows_divide(df, g) is not None:
                return q, best[0][0]


# ---------------------------------------------------------------------------
# lifting modulo a prime power and recombination
# ---------------------------------------------------------------------------

def _gf_product(factors: list[list[int]], m: int) -> list[int]:
    out = [1]
    for g in factors:
        out = _mod(_list_mul(out, g), m)
    return out


def _hensel_step(mm: int, f, g, h, s, t):
    """From f = g*h and s*g + t*h = 1 modulo m, h monic, deg s < deg h and
    deg t < deg g, the factors g and h of f modulo mm, a divisor of m^2 (von
    zur Gathen and Gerhard, Algorithm 15.10, steps 1 and 2)."""
    e = _mod(_list_add(f, _list_mul(g, h), -1), mm)
    q, r = _mod_divmod(_list_mul(s, e), h, mm)
    return (_mod(_list_add(g, _list_add(_list_mul(t, e), _list_mul(q, g))), mm),
            _mod(_list_add(h, r), mm))


def _bezout_step(mm: int, g, h, s, t):
    """From s*g + t*h = 1 modulo m, h monic, deg s < deg h and deg t < deg g,
    the same modulo mm, a divisor of m^2 (von zur Gathen and Gerhard,
    Algorithm 15.10, steps 3 and 4)."""
    b = _mod(_list_add(_list_add(_list_mul(s, g), _list_mul(t, h)), [1], -1), mm)
    c, d = _mod_divmod(_list_mul(s, b), h, mm)
    return (_mod(_list_add(s, d, -1), mm),
            _mod(_list_add(t, _list_add(_list_mul(t, b), _list_mul(c, g)), -1), mm))


def _lift(series: list[list[int]], factors: list[list[int]], p: int,
          m: int) -> list[list[list[int]]]:
    """The monic factors modulo m, a power of p, of a power series in y
    whose coefficient of y^0 is monic and congruent modulo p to the product
    of the given monic factors, pairwise coprime modulo p, to the same
    precision: a binary tree of two-factor lifts.

    At each node the y^0 coefficient splits as g0*h0, g0 the product of the
    first half of the factors and h0 its cofactor.  When g0 divides it
    modulo m, the split is exact and only s and t with s*g0 + t*h0 = 1 are
    raised to modulo m; else the factors are known only modulo p, and the
    split is lifted in powers of p by Hensel steps.  The higher powers of y
    then follow linearly."""
    if len(factors) == 1:
        return [series]
    half = len(factors) // 2
    g0 = _gf_product(factors[:half], m)
    h0, r = _mod_divmod(series[0], g0, m)
    exact = not r
    s, t = _gf_gcdex(_mod(g0, p), _mod(h0, p), p)
    mm = p
    while mm < m:
        mm = min(mm * mm, m)
        if not exact:
            g0, h0 = _hensel_step(mm, series[0], g0, h0, s, t)
        s, t = _bezout_step(mm, g0, h0, s, t)
    g, h = [g0], [h0]
    for k in range(1, len(series)):
        # e = g0*h_k + h0*g_k, solved with s*g0 + t*h0 = 1; deg e < deg g0*h0
        e = series[k]
        for i in range(1, k):
            e = _list_add(e, _list_mul(g[i], h[k - i]), -1)
        g.append(_mod_divmod(_list_mul(t, e), g0, m)[1])
        h.append(_mod_divmod(_list_mul(s, e), h0, m)[1])
    return _lift(g, factors[:half], p, m) + _lift(h, factors[half:], p, m)


def _candidate(lead: int, parts: list[list[list[int]]], modulus: int,
               bound: int) -> list[list[int]] | None:
    """The primitive part of lead times the product of the lifted factors,
    as an element of Z[y][x], when that has the shape of a factor: no term
    of total degree above its x-degree m, and symmetric residues modulo the
    modulus of size at most the bound.  It is formed one power of y at a
    time up to y^m, or up to the parts' last power of y if that is lower, so
    most candidates are dropped early."""
    m = sum(len(part[0]) - 1 for part in parts)
    products = [[] for _ in parts]  # products[j]: parts[0] * ... * parts[j]
    rows: list[list[int]] = [[] for _ in range(m + 1)]
    for k in range(min(m + 1, len(parts[0]))):
        c = parts[0][k]
        products[0].append(c)
        for j in range(1, len(parts)):
            part = parts[j]
            prev = products[j - 1]
            c = []
            for i in range(k + 1):
                c = _list_add(c, _list_mul(prev[i], part[k - i]))
            c = _mod(c, modulus)
            products[j].append(c)
        if len(c) > m - k + 1:
            return None
        for i in range(m - k + 1):
            v = c[i] * lead % modulus if i < len(c) else 0
            if 2 * v > modulus:
                v -= modulus
            if abs(v) > bound:
                return None
            rows[i].append(v)
    rows = [_trim(row) for row in rows]
    ints = iter(_primitive_ints(v for row in rows for v in row))
    return [[next(ints) for _ in row] for row in rows]


def _lift_and_recombine(f: list[list[int]], p: int,
                        factors: list[list[int]]) -> list[list[list[int]]]:
    """The irreducible factors in Z[y][x] of a squarefree f whose leading
    coefficient in x is an integer prime to p and whose x-degree is its
    total degree d, from the irreducible factors of f(x, 0) over Z or
    modulo p, pairwise coprime modulo p, with leads prime to p.

    The factors are lifted modulo p^K, in integers, and subsets of them are
    recombined by exact trial division in Z[y][x].  p^K exceeds twice a
    bound B on the coefficients of every candidate.  Of a subset and its
    complement, the one of lower x-degree m is tested, so the lifting stops
    at y^(d // 2), and at y^0 when f is free of y.  A candidate is formed
    only up to y^m in symmetric residues and is dropped without a division
    when it has a term of total degree above m or a residue above B in
    size: no factor does."""
    d, lead = len(f) - 1, f[-1][0]
    # Mahler (1962): a factor g of f in Z[x, y] has
    # |g_ij| <= C(deg_x g, i) * C(deg_y g, j) * M(g), and the Mahler measure
    # M is multiplicative and at least 1 on nonzero integer polynomials, so
    # M(g) <= M(f) <= ||f||_2.  A candidate is (lead / lc_x g) * g, whose
    # coefficients are thus at most lead * 2^(d + e) * ||f||_2 in size, for
    # e = deg_y f; the modulus exceeds twice that, so a candidate's symmetric
    # residues are its integer coefficients
    e = max(len(row) for row in f) - 1
    norm = math.isqrt(sum(c * c for row in f for c in row)) + 1
    bound = abs(lead) * 2 ** (d + e) * norm
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p
    inv = pow(lead, -1, modulus)
    # a factor tested below has x-degree, so y-degree, at most d // 2, and
    # the factors of an f free of y are free of y
    series = [_mod([row[k] * inv if k < len(row) else 0 for row in f], modulus)
              for k in range(d // 2 + 1 if e else 1)]
    lifted = _lift(series, [_gf_monic(g, modulus) for g in factors], p, modulus)
    out, rest, size = [], f, 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            inside = [lifted[i] for i in subset]
            outside = [g for i, g in enumerate(lifted) if i not in subset]
            # test the side of lower x-degree; either one is a factor
            # exactly when the other is
            small = sum(len(g[0]) - 1 for g in inside) * 2 <= len(rest) - 1
            g = _candidate(rest[-1][0], inside if small else outside, modulus, bound)
            q = None if g is None else _rows_divide(rest, g)
            if q is not None:
                # the factor of the subset is irreducible: no smaller subset
                # of its lifted factors gave a factor
                out.append(g if small else q)
                rest = q if small else g
                lifted = outside
                break
        else:
            size += 1
    out.append(rest)
    return out


def _factor_squarefree(f: list[list[int]], a: int) -> list[list[list[int]]]:
    """The irreducible factors in Z[y][x] of a squarefree f whose leading
    coefficient in x is an integer and whose x-degree is its total degree,
    from those of f(x, a), which is squarefree: f is irreducible when f(x, a)
    is, and else the factors of f(x, a) over Z are lifted in powers of
    y - a."""
    if len(f) == 2:
        return [f]
    u = [_horner(row, a) for row in f]
    p = _prime(u)  # does not divide the lead of f, so the lift can use it
    specialised = zassenhaus(_primitive(u), p)
    if len(specialised) == 1:
        return [f]
    shifted = [_taylor_shift(row, a) for row in f]
    return [[_taylor_shift(row, -a) for row in g]
            for g in _lift_and_recombine(shifted, p, specialised)]


def _shear(terms: dict[tuple[int, int], int], c: int) -> dict[tuple[int, int], int]:
    """The terms of f(x, y + c*x)."""
    if not c:
        return terms
    out: dict[tuple[int, int], int] = {}
    for (i, j), v in terms.items():
        for k in range(j + 1):  # x^i * C(j, k) * (c*x)^(j-k) * y^k
            e = (i + j - k, k)
            out[e] = out.get(e, 0) + v * math.comb(j, k) * c ** (j - k)
    return {e: v for e, v in out.items() if v}


def bivariate_factors(f: BivarPoly) -> set[BivarPoly]:
    """The distinct irreducible factors of f over Q, each primitive with a
    positive graded-lex lead; empty for a constant."""
    d = f.degree
    if d <= 0:
        return set()
    terms = f.terms
    terms = dict(zip(terms, _primitive_ints(terms.values())))
    top = {j: v for (i, j), v in terms.items() if i + j == d}
    c = next(c for c in itertools.count() if sum(v * c ** j for j, v in top.items()))
    rows: list[list[int]] = [[] for _ in range(d + 1)]
    for (i, j), v in _shear(terms, c).items():
        rows[i] += [0] * (j + 1 - len(rows[i]))
        rows[i][j] = v
    out = set()
    for g in _factor_squarefree(*_squarefree(rows)):
        sheared = {(i, j): v for i, row in enumerate(g) for j, v in enumerate(row) if v}
        out.add(BivarPoly(_shear(sheared, -c)).normalized_primitive())
    return out
