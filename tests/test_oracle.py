import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsinf.oracle as oracle
from bsinf.invariant import k_at_infinity
from bsinf.oracle import (
    _circle_grid,
    _event_windows,
    _extremum,
    _intersection_angles,
    _rescan,
    _scaled_evaluator,
    _settle,
    _sign_windows,
    oracle_k,
)
from bsinf.parsing import parse_poly
from bsinf.poly import BivarPoly


def counts_of(report) -> tuple[int, ...]:
    return tuple(sorted(c for _, c in report.directions))


def test_cusp_two_vertical_clusters():
    rep = oracle_k(parse_poly("y^2 - x^3"))
    assert rep.stable
    assert counts_of(rep) == (1, 1)
    dirs = sorted((u for u, _ in rep.directions), key=lambda u: u[1])
    assert math.hypot(dirs[0][0] - 0, dirs[0][1] + 1) < 1e-6
    assert math.hypot(dirs[1][0] - 0, dirs[1][1] - 1) < 1e-6


def test_compact_curve_empty():
    rep = oracle_k(parse_poly("x^2 + y^2 - 1"))
    assert rep.stable and rep.directions == ()


def test_line_plus_parabola_clusters():
    rep = oracle_k(parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))"))
    assert rep.stable
    assert counts_of(rep) == (1, 3)
    by_count = {c: u for u, c in rep.directions}
    r2 = 1 / math.sqrt(2.0)
    assert math.hypot(by_count[3][0] - r2, by_count[3][1] - r2) < 1e-6
    assert math.hypot(by_count[1][0] + r2, by_count[1][1] + r2) < 1e-6


def test_determinism():
    f = parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))")
    a = oracle_k(f)
    b = oracle_k(f)
    assert a == b


def test_monotone_refinement(monkeypatch):
    """Doubling the angular grid never loses intersections."""
    for text in ["y^2 - x^3", "((y-x) - 1)*((y-x)^2 - (y+x))", "(y-x-1)*(y-x-2)"]:
        f = parse_poly(text)
        totals = []
        for grid in (2 ** 12, 2 ** 13, 2 ** 14):
            monkeypatch.setattr(oracle, "_ANGULAR_GRID", grid)
            rep = oracle_k(f)
            totals.append(sum(c for _, c in rep.directions))
        assert totals[0] <= totals[1] <= totals[2]


def test_agreement_with_exact(classic_curves):
    for text in classic_curves.values():
        f = parse_poly(text)
        rep = oracle_k(f)
        exact = k_at_infinity(f)
        assert rep.stable
        assert counts_of(rep) == exact.k.entries
        exact_dirs = []
        for rec in exact.records:
            for side in (rec.plus, rec.minus):
                if side is not None:
                    exact_dirs.append((side.direction.unit, side.count))
        for u, c in rep.directions:
            dist, count = min(
                (math.hypot(u[0] - eu[0], u[1] - eu[1]), ec) for eu, ec in exact_dirs
            )
            assert dist < 1e-6 and count == c


def test_unstable_flag_with_short_schedule():
    # a schedule that ends before the parabola pair resolves cannot certify
    rep = oracle_k(parse_poly("y^2 - x^3"), radius_max=5)
    assert len(rep.radii_used) == 2
    assert not rep.stable or counts_of(rep) == (1, 1)


def test_radius_beyond_float_range_rejected(monkeypatch):
    f = parse_poly("y^2 - x^3")
    for radius_max in (1024, 1100, 2000):
        with pytest.raises(ValueError, match="not finite floats"):
            oracle_k(f, radius_max)
    # 2^1023 is the largest finite radius; the scans are stubbed out
    monkeypatch.setattr(oracle, "_intersection_angles",
                        lambda ev, radii, *args: [[] for _ in radii])
    assert oracle_k(f, 1023).radii_used[-1] == 2.0 ** 1023


def test_radius_max_below_first_exponent_rejected():
    # the schedule starts at 2^4, so a smaller radius_max leaves no circle
    assert len(oracle_k(parse_poly("y^2 - x^3"), 4).radii_used) == 1
    for radius_max in (3, 0, -600):
        with pytest.raises(ValueError, match="below 4"):
            oracle_k(parse_poly("y^2 - x^3"), radius_max)


def test_constant_rejected():
    from bsinf.poly import BivarPoly

    with pytest.raises(ValueError):
        oracle_k(BivarPoly.constant(3))


@st.composite
def small_integer_polys(draw):
    """Nonconstant bivariate polynomials of degree <= 8 with small integer
    coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, 8))
        j = draw(st.integers(0, 8 - i))
        terms[(i, j)] = Fraction(draw(st.integers(-50, 50)))
    poly = BivarPoly(terms)
    return poly if poly.degree > 0 else poly + BivarPoly.x()


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=150, deadline=None)
@given(small_integer_polys(), st.integers(4, 20), st.integers(1, 3),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4))
def test_ev_grid_and_point_agree_within_horner_bound(f, exponent, rows, angles):
    """A rows x samples batch whose rows lie on different circles agrees
    bitwise with each of its rows and each of its points evaluated alone, and
    is within (2d + 2) * 2^-52 * scale(R) of the exact value of
    f(R cos, R sin) / R^d."""
    ev, scale = _scaled_evaluator(f)
    radii = [2.0 ** (exponent + r % 2) for r in range(rows)]
    d = f.degree
    theta = np.array([[a + 0.25 * r for a in angles] for r in range(rows)])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    grid = ev(np.array(radii), cos_t, sin_t)
    assert grid.shape == theta.shape
    for radius, cos_r, sin_r, vals in zip(radii, cos_t, sin_t, grid):
        assert list(map(_bits, ev(radius, cos_r, sin_r).tolist())) == list(map(_bits, vals.tolist()))
        bound = Fraction((2 * d + 2) * 2.0 ** -52 * scale(radius))
        for c, s, g in zip(cos_r.tolist(), sin_r.tolist(), vals.tolist()):
            point = ev(radius, np.array([c]), np.array([s]))
            assert point.shape == (1,) and _bits(float(point[0])) == _bits(g)
            exact = sum(coef * Fraction(radius) ** (i + j - d) * Fraction(c) ** i
                        * Fraction(s) ** j for (i, j), coef in f.items())
            assert abs(Fraction(g) - exact) <= bound


def _loop_windows(sgn) -> set[tuple[int, int]]:
    """Reference: the per-sample loop the vectorized selection replaced."""
    windows = set()
    m = len(sgn)
    k = 0
    while k < m - 1:
        if sgn[k] == 0:
            k += 1
            continue
        nxt = k + 1
        while nxt < m and sgn[nxt] == 0:
            nxt += 1
        if nxt >= m:
            break
        if nxt > k + 1 or sgn[k] != sgn[nxt]:
            windows.add((k, nxt))
        k = nxt
    return windows


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from((-1, 0, 1)), st.integers(1, 6)),
                         max_size=30), min_size=1, max_size=4))
def test_sign_windows_match_loop(table):
    # rows of one batch, padded with zeros: trailing zeros open no window
    rows = [[v for v, n in runs for _ in range(n)] for runs in table]
    width = max(len(r) for r in rows)
    sgn = np.array([r + [0] * (width - len(r)) for r in rows], dtype=np.int8)
    sgn = sgn.reshape(len(rows), width)
    found: dict[int, set[tuple[int, int]]] = {r: set() for r in range(len(rows))}
    for r, a, b in zip(*(x.tolist() for x in _sign_windows(sgn))):
        assert (a, b) not in found[r]
        found[r].add((a, b))
    for r in range(len(rows)):
        assert found[r] == _loop_windows(sgn[r])


def _loop_event_windows(vals, noise, dip_tol) -> set[tuple[int, int]]:
    """Reference: the event windows of one scan, as the recursive scan chose
    them, one dip at a time."""
    sgn = np.where(vals > noise, 1, np.where(vals < -noise, -1, 0))
    windows = _loop_windows(sgn)
    m = len(vals)
    absv = np.abs(vals[:-1])
    prv = np.append(np.inf, absv[:-1])
    nxt_a = np.append(absv[1:], abs(vals[-1]))
    is_dip = (absv <= prv) & (absv <= nxt_a) & (absv > noise) & (absv < dip_tol)
    for k in np.flatnonzero(is_dip):
        k = int(k)
        if k > 0 and sgn[k - 1] == sgn[k]:
            windows.add((k - 1, k))
        if k < m - 1 and sgn[k + 1] == sgn[k]:
            windows.add((k, k + 1))
    return windows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(2, 24), st.data())
def test_event_windows_match_loop(rows, width, data):
    """Small integer values, so zero runs, sign changes and equal neighbouring
    dips are common; each window comes once, with its row.  The noise floor
    and the dip bound differ by row, as in a batch that mixes radii."""
    noises = data.draw(st.lists(st.sampled_from((0.5, 1.5)), min_size=rows, max_size=rows))
    dip_tols = data.draw(st.lists(st.sampled_from((0.5, 1.5, 2.5, 9.0)),
                                  min_size=rows, max_size=rows))
    cells = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    vals = np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=float)
    theta = np.arange(vals.size, dtype=float).reshape(vals.shape)  # cell labels
    row, lo, hi, flo, fhi = _event_windows(theta, vals, np.array(noises), np.array(dip_tols))
    got = sorted(zip(lo.tolist(), hi.tolist()))
    expected = sorted((r * width + a, r * width + b) for r in range(rows)
                      for a, b in _loop_event_windows(vals[r], noises[r], dip_tols[r]))
    assert got == expected
    assert row.tolist() == (lo // width).astype(int).tolist()
    assert flo.tolist() == vals.ravel()[lo.astype(int)].tolist()
    assert fhi.tolist() == vals.ravel()[hi.astype(int)].tolist()


def _ev_at(ev, radius, t):
    """Reference: f at one angle, with cos and sin from math."""
    return float(ev(radius, np.array([math.cos(t)]), np.array([math.sin(t)]))[0])


def _bisect_bracket(ev, radius, lo, hi, flo):
    """Reference: bisect one sign-change bracket to 1e-12 angle width."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if flo * _ev_at(ev, radius, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _refine_extremum(ev, radius, lo, hi, s):
    """Reference: ternary-search the minimum of s*f over one window, for at
    most 80 steps, stopping at its floating fixed point."""
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if s * _ev_at(ev, radius, m1) < s * _ev_at(ev, radius, m2):
            if hi == m2:
                break
            hi = m2
        else:
            if lo == m1:
                break
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, _ev_at(ev, radius, mid)


def _probe_even_event(ev, radius, lo, hi, s, noise, out):
    """Reference: the even-event probe of one sign-constant window."""
    t_ext, v_ext = _refine_extremum(ev, radius, lo, hi, s)
    if s * v_ext < -noise:
        out.append(_bisect_bracket(ev, radius, lo, t_ext, s))
        out.append(_bisect_bracket(ev, radius, t_ext, hi, v_ext))
    elif abs(v_ext) <= noise:
        out.extend([t_ext, t_ext])


def _settle_window(ev, radius, lo, hi, flo, fhi, noise, out):
    """Reference: settle one window, point by point."""
    if (flo > 0) != (fhi > 0):
        out.append(_bisect_bracket(ev, radius, lo, hi, flo))
    else:
        _probe_even_event(ev, radius, lo, hi, 1.0 if flo > 0 else -1.0, noise, out)


def _scan(ev, radius, lo, hi, n, depth, scale, deg, out, wrap):
    """Reference: the recursive scan that the level-by-level batches replaced,
    one window at a time."""
    step = (hi - lo) / n
    theta = np.linspace(lo, hi, n, endpoint=False)
    vals = ev(radius, np.cos(theta), np.sin(theta))
    noise = 1e-15 * scale

    if wrap:
        nonzero = np.flatnonzero(np.abs(vals) > noise)
        if not len(nonzero):
            return
        shift = int(nonzero[0])
        theta = np.concatenate([theta[shift:], theta[:shift] + (hi - lo)])
        vals = np.concatenate([vals[shift:], vals[:shift]])
        theta = np.append(theta, theta[0] + (hi - lo))
        vals = np.append(vals, vals[0])
    else:
        theta = np.append(theta, hi)
        vals = np.append(vals, _ev_at(ev, radius, hi))

    dip_tol = max(2.0 * deg * deg * scale * step * step, 1e-300)
    for kl, kr in sorted(_loop_event_windows(vals, noise, dip_tol)):
        wlo, whi = float(theta[kl]), float(theta[kr])
        vlo, vhi = float(vals[kl]), float(vals[kr])
        if (depth > 0 and whi - wlo > oracle._MIN_WIDTH
                and max(abs(vlo), abs(vhi)) > 100.0 * noise):
            _scan(ev, radius, wlo, whi, oracle._SUBSCAN, depth - 1, scale, deg,
                  out, wrap=False)
        else:
            _settle_window(ev, radius, wlo, whi, vlo, vhi, noise, out)


CUSP = parse_poly("y^2 - x^3")
LINE_PARABOLA = parse_poly("((y-x) - 1)*((y-x)^2 - (y+x))")
TANGENT = parse_poly("25*(x^2 + y^2 - 256) + (3*x + 4*y - 80)^2")


ONE = [1.0] * 4  # the scale of each radius as it is


@settings(max_examples=40, deadline=None)
@given(small_integer_polys(), st.integers(4, 20), st.integers(1, 4),
       st.sampled_from((64, 512, 2 ** 12)), st.sampled_from((1, 3, 32)),
       st.lists(st.sampled_from((1.0, 1e4, 1e8)), min_size=4, max_size=4))
@example(CUSP, 8, 3, 2 ** 12, 1, ONE)
@example(LINE_PARABOLA, 12, 2, 64, 3, ONE)
@example(parse_poly("(y-x-1)*(y-x-2)"), 17, 4, 2 ** 12, 32, ONE)
# tangent to the circle of radius 16 at (48, 64)/5, then lifted and lowered
# off it: dips that the levels below the top grid resolve
@example(TANGENT, 4, 2, 2 ** 12, 1, ONE)
@example(TANGENT + BivarPoly.constant(Fraction(1, 1000)), 4, 3, 2 ** 12, 1, ONE)
@example(TANGENT - BivarPoly.constant(Fraction(1, 1000)), 4, 3, 2 ** 12, 3, ONE)
def test_intersection_angles_match_recursive_scan(f, exponent, count, grid, batch, inflate):
    """The scan of all radii together, in batches of any size that mix
    radii, finds bitwise the angles of the recursive scan of each radius.
    Scales inflated by radius make the noise floors and dip bounds of the
    rows of a batch differ by up to 10^8."""
    ev, scale = _scaled_evaluator(f)
    radii = [2.0 ** e for e in range(exponent, exponent + count)]
    scales = [scale(r) * m for r, m in zip(radii, inflate)]
    expected = []
    for radius, s in zip(radii, scales):
        angles: list[float] = []
        _scan(ev, radius, 0.0, 2.0 * math.pi, grid, oracle._MAX_DEPTH, s, f.degree, angles,
              wrap=True)
        expected.append(sorted(a % (2.0 * math.pi) for a in angles))
    saved = oracle._BATCH
    oracle._BATCH = batch
    try:
        got = _intersection_angles(ev, radii, _circle_grid(grid), scales, f.degree)
    finally:
        oracle._BATCH = saved
    assert [list(map(_bits, a)) for a in got] == [list(map(_bits, a)) for a in expected]


def test_rescan_batch_keeps_each_rows_dip_bound():
    """A batch that mixes radii rescans each window as it would be rescanned
    alone, with its own row's noise floor and dip bound.  The window on the
    circle of radius 16 hides two crossings of the lowered TANGENT between
    two adjacent samples: only its dip bound opens the windows in which the
    even-event probe finds them.  The scales of the other rows are deflated
    by 10^12, so a dip bound taken from any other row misses the pair."""
    f = TANGENT - BivarPoly.constant(Fraction(1, 10 ** 7))
    ev, scale = _scaled_evaluator(f)
    radii = np.array([16.0, 64.0, 256.0, 2.0 ** 20])
    scales = np.array([scale(r) for r in radii.tolist()]) * [1.0, 1e-12, 1e-12, 1e-12]
    noise = 1e-15 * scales
    bernstein = 2.0 * f.degree ** 2 * scales
    # the tangent angle midway between two samples of a window of width 3
    width, k = 3.0, oracle._SUBSCAN // 2
    start = math.atan2(4.0, 3.0) - (k + 0.5) * width / oracle._SUBSCAN
    row = np.array([1, 0, 2, 3])
    lo = np.array([0.0, start, 2.0, 4.0])
    hi = lo + width

    def windows(found):
        return sorted(zip(*(a.tolist() for a in found)))

    alone = [_rescan(ev, radii, noise, bernstein, row[j:j + 1], lo[j:j + 1], hi[j:j + 1])
             for j in range(len(row))]
    found = _rescan(ev, radii, noise, bernstein, row, lo, hi)
    assert windows(found) == sorted(w for one in alone for w in windows(one))
    # the pair is hidden: the windows around its dip have no sign change
    assert len(alone[1][0]) == 2 and (alone[1][3] > 0).all() and (alone[1][4] > 0).all()
    angles = _settle(ev, radii, noise, *found)
    assert [len(a) for a in angles] == [2, 0, 0, 0]
    assert all(abs(a - math.atan2(4.0, 3.0)) < 0.01 for a in angles[0])


def _refine_extremum_80(ev, radius, lo, hi, s):
    """Reference: the ternary search with all 80 steps."""
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if s * _ev_at(ev, radius, m1) < s * _ev_at(ev, radius, m2):
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, _ev_at(ev, radius, mid)


# windows: (radius index, lo, width, s); settling takes s from the sign of f(lo)
_windows = st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 4.0 * math.pi),
                              st.floats(1e-13, 1.0), st.sampled_from((1.0, -1.0))),
                    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(small_integer_polys(), st.integers(4, 20), _windows)
def test_refine_extremum_stops_at_its_fixed_point(f, exponent, windows):
    """The lockstep search, with windows on several circles stopping at
    different steps, ends where the full 80-step search of each ends."""
    ev, _ = _scaled_evaluator(f)
    radius = np.array([2.0 ** (exponent + k) for k, _, _, _ in windows])
    lo = np.array([a for _, a, _, _ in windows])
    hi = np.array([a + w for _, a, w, _ in windows])
    s = np.array([s for _, _, _, s in windows])
    t, v = _extremum(ev, radius, lo, hi, s)
    for k in range(len(windows)):
        expected = _refine_extremum_80(ev, float(radius[k]), float(lo[k]), float(hi[k]), s[k])
        assert (_bits(t[k]), _bits(v[k])) == tuple(map(_bits, expected))


# around the tangent point of TANGENT on the circle of radius 16: a contact,
# two crossings and one crossing when the curve is lowered, and a window on
# the next circle
_AT_TANGENT = [(0, 0.92, 0.02, 1.0), (0, 0.85, 0.15, 1.0), (0, 0.9, 0.1, 1.0),
               (1, 0.92, 0.02, 1.0)]


@settings(max_examples=100, deadline=None)
@given(small_integer_polys(), st.integers(4, 20), _windows)
@example(TANGENT, 4, _AT_TANGENT)
@example(TANGENT + BivarPoly.constant(Fraction(1, 1000)), 4, _AT_TANGENT)
@example(TANGENT - BivarPoly.constant(Fraction(1, 1000)), 4, _AT_TANGENT)
def test_settle_matches_scalar_reference(f, exponent, windows):
    """Settling windows of several circles in lockstep finds bitwise the
    angles of the point-by-point bisections and even-event probes."""
    ev, scale = _scaled_evaluator(f)
    radii = np.array([2.0 ** (exponent + k) for k in range(3)])
    noise = 1e-15 * np.array([scale(r) for r in radii.tolist()])
    row = np.array([k for k, _, _, _ in windows])
    lo = np.array([a for _, a, _, _ in windows])
    hi = np.array([a + w for _, a, w, _ in windows])
    flo = np.array([_ev_at(ev, radii[k], a) for k, a in zip(row.tolist(), lo.tolist())])
    fhi = np.array([_ev_at(ev, radii[k], b) for k, b in zip(row.tolist(), hi.tolist())])
    expected: list[list[float]] = [[] for _ in radii]
    for k, a, b, va, vb in zip(*(x.tolist() for x in (row, lo, hi, flo, fhi))):
        _settle_window(ev, radii[k], a, b, va, vb, noise[k], expected[k])
    expected = [sorted(a % (2.0 * math.pi) for a in angles) for angles in expected]
    got = _settle(ev, radii, noise, row, lo, hi, flo, fhi)
    assert [list(map(_bits, a)) for a in got] == [list(map(_bits, a)) for a in expected]
