"""Independent floating-point estimator of asymptotic directions and branch
counts: intersects the curve with circles of geometrically growing radius,
tracks the intersection angles and extrapolates their limits.

Advisory only — the exact pipeline is authoritative; this module exists to
cross-validate it and deliberately shares none of its machinery.  numpy is
imported by the scans that use it, so only the `check` command pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .poly import BivarPoly

_TWO_PI = 2.0 * math.pi
_SUBSCAN = 512    # samples per refinement window
_MAX_DEPTH = 3    # nested refinement levels
_MIN_WIDTH = 1e-11  # do not refine windows narrower than this (radians)


@dataclass(frozen=True)
class OracleConfig:
    """Sampling schedule: circle radii 2^k for k in radii_exponents, an angular
    grid per circle, an angle tolerance for clustering intersections and the
    number of consecutive radii with identical cluster counts required for
    stability."""

    radii_exponents: tuple[int, ...] = tuple(range(4, 21))
    angular_grid: int = 2 ** 14
    cluster_tol: float = 1e-3
    stability_window: int = 3

    def __post_init__(self):
        if not self.radii_exponents or self.angular_grid < 8:
            raise ValueError("degenerate sampling schedule")
        if self.stability_window < 2:
            raise ValueError("stability_window must be at least 2")


@dataclass(frozen=True)
class OracleReport:
    """Estimated limit directions with branch counts per direction."""

    directions: tuple[tuple[tuple[float, float], int], ...]
    stable: bool
    radii_used: tuple[float, ...]
    samples: tuple[tuple[float, float, float, float], ...] = field(default=(), repr=False)
    # samples rows: (radius, angle, x, y) for every detected intersection


def _scaled_evaluator(f: BivarPoly):
    """theta -> f(R cos, R sin) / R^deg (same zeros, overflow-safe), plus the
    coefficient-magnitude scale of that form at radius R.

    `ev(radius, cos_t, sin_t)` evaluates the form by Horner's rule in sin over
    Horner's rule in cos, with coefficients c_ij * R^(i+j-deg) formed once per
    call.  Grid scans pass numpy arrays and get an array; a single point passes
    1-tuples, e.g. `ev(r, (math.cos(t),), (math.sin(t),))`, and gets a float
    from the same Horner code run on Python floats, with no numpy call.  Both
    paths round identically, so a point and the same point of a grid agree
    bitwise.

    Rounding: each term c_ij cos^i sin^j passes through at most 2*deg + 2
    roundings, so with |cos|, |sin| <= 1 the computed value is within
    gamma_(2 deg + 2) * scale(R), about (2 deg + 2) * 2^-53 * scale(R), of the
    exact form at the given float cos and sin (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 5).  That holds for the oracle's radii, powers
    of 2, where c_ij * R^(i+j-deg) is exact.  The noise floor of
    1e-15 * scale(R) that the scans use is below this worst case from degree 4
    up: it is an empirical sign threshold, not a certificate, which is one
    reason the oracle stays advisory.
    """
    d = f.degree
    terms = [(i, j, float(c)) for (i, j), c in f.items()]
    # table[j][i] = (c_ij, deg - i - j): the terms of sin^j, dense in cos
    table: list[list[tuple[float, int]]] = [[] for _ in range(1 + max(j for _, j, _ in terms))]
    for i, j, c in terms:
        row = table[j]
        row.extend([(0.0, 0)] * (i + 1 - len(row)))
        row[i] = (c, d - i - j)
    table = [row[::-1] for row in reversed(table)]  # highest powers first

    def ev(radius: float, cos_t, sin_t):
        inv = [radius ** float(-k) for k in range(d + 1)]  # inv[k] = R^-k
        if isinstance(cos_t, tuple):  # one point: Python floats
            cos_t, sin_t = cos_t[0], sin_t[0]
        acc = 0.0
        for row in table:
            inner = 0.0
            for c, k in row:
                inner = inner * cos_t + c * inv[k] if c else inner * cos_t
            acc = acc * sin_t + inner
        return acc

    def scale(radius: float) -> float:
        return sum(abs(c) * radius ** float(i + j - d) for i, j, c in terms)

    return ev, scale


def _ev_at(ev, radius: float, t: float) -> float:
    return ev(radius, (math.cos(t),), (math.sin(t),))


def _bisect_bracket(ev, radius: float, lo: float, hi: float, flo: float) -> float:
    """Bisect one sign-change bracket to 1e-12 angle width."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if flo * _ev_at(ev, radius, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _refine_extremum(ev, radius: float, lo: float, hi: float,
                     s: float) -> tuple[float, float]:
    """Ternary-search the minimum of s*f over a window."""
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if s * _ev_at(ev, radius, m1) < s * _ev_at(ev, radius, m2):
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, _ev_at(ev, radius, mid)


def _probe_even_event(ev, radius: float, lo: float, hi: float, s: float,
                      noise: float, out: list[float]) -> None:
    """A sign-constant window that may hide an even number of intersections:
    recover two crossings, record a tangential contact twice, or discard."""
    t_ext, v_ext = _refine_extremum(ev, radius, lo, hi, s)
    if s * v_ext < -noise:
        out.append(_bisect_bracket(ev, radius, lo, t_ext, s))
        out.append(_bisect_bracket(ev, radius, t_ext, hi, v_ext))
    elif abs(v_ext) <= noise:
        out.extend([t_ext, t_ext])


def _sign_windows(sgn: np.ndarray) -> set[tuple[int, int]]:
    """Pairs (a, b) of consecutive nonzero samples of a +1/0/-1 array that
    enclose a zero run or a sign change.  Zeros before the first and after the
    last nonzero sample sit at a window edge and belong to the parent scan."""
    import numpy as np

    nz = np.flatnonzero(sgn)
    a, b = nz[:-1], nz[1:]
    keep = (b > a + 1) | (sgn[a] != sgn[b])
    return set(zip(a[keep].tolist(), b[keep].tolist()))


def _scan(ev, radius: float, lo: float, hi: float, n: int, depth: int,
          scale: float, deg: int, out: list[float], wrap: bool) -> None:
    """Sample f over [lo, hi] and locate its zeros on the circle.

    Samples are classified +/-/0 against the evaluation noise floor; maximal
    zero runs and sign changes become event windows, and local minima of |f|
    below the Bernstein bound for a hidden double zero open even-event windows
    on their same-sign sides.  While depth remains and the window edges are
    decisively above the noise floor, event windows are re-scanned at finer
    resolution so nearly coincident crossings separate; at the bottom,
    sign-change windows are bisected and sign-constant ones go through the
    even-event probe.
    """
    import numpy as np

    step = (hi - lo) / n
    theta = np.linspace(lo, hi, n, endpoint=False)
    vals = ev(radius, np.cos(theta), np.sin(theta))
    noise = 1e-15 * scale

    if wrap:
        nonzero = np.flatnonzero(np.abs(vals) > noise)
        if not len(nonzero):
            return  # the whole circle sits at the noise floor: undecidable
        shift = int(nonzero[0])
        theta = np.concatenate([theta[shift:], theta[:shift] + (hi - lo)])
        vals = np.concatenate([vals[shift:], vals[:shift]])
        theta = np.append(theta, theta[0] + (hi - lo))
        vals = np.append(vals, vals[0])
    else:
        theta = np.append(theta, hi)
        vals = np.append(vals, _ev_at(ev, radius, hi))

    sgn = np.where(vals > noise, 1, np.where(vals < -noise, -1, 0))
    m = len(vals)
    # refining below the cancellation-noise floor only manufactures sign
    # flicker; windows whose edge values are not comfortably decisive get one
    # plain bisection (or probe) instead of a rescan
    decisive = 100.0 * noise

    def emit_window(kl: int, kr: int) -> None:
        wlo, whi = float(theta[kl]), float(theta[kr])
        vlo, vhi = float(vals[kl]), float(vals[kr])
        refinable = (depth > 0 and whi - wlo > _MIN_WIDTH
                     and max(abs(vlo), abs(vhi)) > decisive)
        if (vlo > 0) != (vhi > 0):
            if refinable:
                _scan(ev, radius, wlo, whi, _SUBSCAN, depth - 1, scale, deg,
                      out, wrap=False)
            else:
                out.append(_bisect_bracket(ev, radius, wlo, whi, vlo))
        elif refinable:
            _scan(ev, radius, wlo, whi, _SUBSCAN, depth - 1, scale, deg,
                  out, wrap=False)
        else:
            _probe_even_event(ev, radius, wlo, whi, 1.0 if vlo > 0 else -1.0,
                              noise, out)

    windows = _sign_windows(sgn)

    # local minima of |f| below the hidden-double-zero bound (Bernstein:
    # |f''| <= deg^2 * scale on the circle) open even-event windows on their
    # same-sign sides; a pair straddling the sample itself would have flipped
    # its sign and is already a pair of crossings above
    dip_tol = max(2.0 * deg * deg * scale * step * step, 1e-300)
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

    for kl, kr in sorted(windows):
        emit_window(kl, kr)


def _intersection_angles(ev, radius: float, grid: int, scale: float,
                         deg: int) -> list[float]:
    """Angles in [0, 2*pi) where the curve meets the circle of this radius."""
    out: list[float] = []
    _scan(ev, radius, 0.0, _TWO_PI, grid, _MAX_DEPTH, scale, deg, out, wrap=True)
    return sorted(a % _TWO_PI for a in out)


def _cluster(angles: list[float], tol: float) -> list[tuple[float, int]]:
    """Single-linkage clustering of angles on the circle: (center, size) pairs."""
    if not angles:
        return []
    n = len(angles)
    breaks = [k for k in range(n) if (angles[k] - angles[k - 1]) % _TWO_PI > tol]
    if not breaks:  # everything is one cluster around the circle
        breaks = [0]
    clusters = []
    for b, nxt in zip(breaks, breaks[1:] + [breaks[0] + n]):
        members = [angles[k % n] for k in range(b, nxt)]
        # unwrap across 0 so the mean is meaningful
        base = members[0]
        unwrapped = [base + ((m - base) % _TWO_PI) for m in members]
        clusters.append(((sum(unwrapped) / len(unwrapped)) % _TWO_PI, len(members)))
    return sorted(clusters)


def _aitken_limit(seq: list[float]) -> float:
    """Iterated Aitken extrapolation of a geometrically converging sequence."""
    cur = list(seq)
    for _ in range(3):
        if len(cur) < 3:
            break
        nxt = []
        for a, b, c in zip(cur, cur[1:], cur[2:]):
            d2 = (c - b) - (b - a)
            if abs(d2) < 1e-14:
                nxt.append(c)
            else:
                nxt.append(c - (c - b) ** 2 / d2)
        cur = nxt
    return cur[-1]


def _best_plateau(totals: list[int], window: int) -> tuple[int, int, bool]:
    """The trustworthy run of radii with equal intersection totals.

    The true total is eventually constant in the radius, but the measured one
    degrades at the largest radii where branch clusters shrink below float
    resolution, and degradation only merges crossings (undercounts).  So among
    runs at least `window` long the one with the largest total wins (ties to
    the longer, then the later); without any such run the longest run is
    returned with stable=False."""
    runs: list[tuple[int, int]] = []
    start = 0
    for k in range(1, len(totals) + 1):
        if k == len(totals) or totals[k] != totals[start]:
            runs.append((start, k))
            start = k
    qualified = [r for r in runs if r[1] - r[0] >= window]
    if qualified:
        best = max(qualified, key=lambda r: (totals[r[0]], r[1] - r[0], r[1]))
        return best[0], best[1], True
    best = max(runs, key=lambda r: (r[1] - r[0], r[1]))
    return best[0], best[1], False


def oracle_k(f: BivarPoly, cfg: OracleConfig | None = None) -> OracleReport:
    """Estimate asymptotic directions and per-direction branch counts.

    Intersection angles are tracked across the radii of the best totals
    plateau; per-trajectory limit angles are extrapolated and clustered into
    directions.  Deterministic: identical input and config produce identical
    reports.
    """
    if f.is_constant():
        raise ValueError("not a curve")
    cfg = cfg or OracleConfig()
    ev, scale = _scaled_evaluator(f)

    radii = [2.0 ** e for e in cfg.radii_exponents]
    per_radius: list[list[float]] = []
    samples: list[tuple[float, float, float, float]] = []
    for radius in radii:
        angles = _intersection_angles(ev, radius, cfg.angular_grid, scale(radius), f.degree)
        samples.extend(
            (radius, a, radius * math.cos(a), radius * math.sin(a)) for a in angles
        )
        per_radius.append(angles)

    totals = [len(a) for a in per_radius]
    first, last, stable = _best_plateau(totals, cfg.stability_window)

    n = totals[first]
    if n == 0:
        return OracleReport((), stable, tuple(radii), tuple(samples))

    # cut the circle inside the widest gap at the plateau's largest radius, so
    # sorting is consistent across the plateau and trajectories match by index
    anchor = per_radius[last - 1]
    gaps = [(anchor[(k + 1) % n] - anchor[k]) % _TWO_PI for k in range(n)]
    widest = max(range(n), key=gaps.__getitem__)
    cut = (anchor[widest] + gaps[widest] / 2) % _TWO_PI

    trajectories: list[list[float]] = [[] for _ in range(n)]
    for angles in per_radius[first:last]:
        rebased = sorted((a - cut) % _TWO_PI for a in angles)
        for i in range(n):
            trajectories[i].append(rebased[i])

    # beyond the plateau some clusters degrade, but trajectories that still
    # have an unambiguous continuation keep improving the extrapolation
    active = list(range(n))
    for angles in per_radius[last:]:
        if not active or not angles:
            break
        rebased = sorted((a - cut) % _TWO_PI for a in angles)
        matches: dict[int, list[int]] = {}
        for i in active:
            tr = trajectories[i]
            prev = tr[-1]
            drift = abs(tr[-1] - tr[-2]) if len(tr) > 1 else 0.0
            pred = tr[-1] + (tr[-1] - tr[-2]) if len(tr) > 1 else prev
            tol = max(4.0 * drift, 1e-10)
            best = min(range(len(rebased)), key=lambda j: abs(rebased[j] - pred))
            if abs(rebased[best] - pred) <= tol:
                matches.setdefault(best, []).append(i)
        still_active = []
        for j, traj_ids in matches.items():
            if len(traj_ids) == 1:  # a shared angle means the cluster merged
                trajectories[traj_ids[0]].append(rebased[j])
                still_active.append(traj_ids[0])
        active = still_active

    limits = sorted(_aitken_limit(tr) % _TWO_PI for tr in trajectories)
    directions = [
        ((math.cos((center + cut) % _TWO_PI), math.sin((center + cut) % _TWO_PI)), size)
        for center, size in _cluster(limits, cfg.cluster_tol)
    ]
    return OracleReport(
        directions=tuple(sorted(directions)),
        stable=stable,
        radii_used=tuple(radii),
        samples=tuple(samples),
    )
