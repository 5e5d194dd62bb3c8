"""Independent floating-point estimator of asymptotic directions and branch
counts: intersects the curve with circles of geometrically growing radius,
tracks the intersection angles and extrapolates their limits.

Each circle is scanned level by level: a uniform grid over the whole circle,
then up to three levels of finer scans of the event windows the level above
found.  A level is one batch of numpy operations over all of its windows (in
chunks of _BATCH windows); only the bisections and extremum searches that
settle the windows no level refines run point by point.

Advisory only — the exact pipeline is authoritative; this module exists to
cross-validate it and deliberately shares none of its machinery.  numpy is
imported by the scans that use it, so only the `check` command pays for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .poly import BivarPoly

_TWO_PI = 2.0 * math.pi
_FIRST_EXPONENT = 4  # the circles have radii 2^4, 2^5, ..., 2^radius_max
_ANGULAR_GRID = 2 ** 14  # samples of the top scan of each circle
_CLUSTER_TOL = 1e-3  # radians between limit angles of one direction
_STABILITY_WINDOW = 3  # consecutive radii with equal totals for a stable count
_SUBSCAN = 512    # samples per refinement window
_BATCH = 32       # windows rescanned together: 32 * 512 samples, the top grid
_MAX_DEPTH = 3    # nested refinement levels
_MIN_WIDTH = 1e-11  # do not refine windows narrower than this (radians)


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
    radius: the table of the last radius is kept for the next call.  Scans
    pass numpy arrays of any shape (a batch of windows is rows x samples) and
    get an array of that shape; a single point passes 1-tuples, e.g.
    `ev(r, (math.cos(t),), (math.sin(t),))`, and gets a float from the same
    Horner code run on Python floats, with no numpy call.  Both paths round
    identically, so a point and the same point of a grid agree bitwise.

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
    # (radius, table with c_ij * R^(i+j-deg) in place of c_ij, None for 0)
    scaled: tuple[float | None, list[list[float | None]]] = (None, [])

    def ev(radius: float, cos_t, sin_t):
        nonlocal scaled
        at, rows = scaled
        if at != radius:
            inv = [radius ** float(-k) for k in range(d + 1)]  # inv[k] = R^-k
            rows = [[c * inv[k] if c else None for c, k in row] for row in table]
            scaled = (radius, rows)
        if isinstance(cos_t, tuple):  # one point: Python floats
            cos_t, sin_t = cos_t[0], sin_t[0]
        # in place on arrays, rebinding on floats: the same roundings
        acc = 0.0
        for row in rows:
            inner = 0.0
            for c in row:
                inner *= cos_t
                if c is not None:
                    inner += c
            acc *= sin_t
            acc += inner
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
    """Ternary-search the minimum of s*f over a window, for at most 80 steps.

    The search stops early at its floating fixed point: a step whose end
    point equals the one it replaces leaves the state as it was, so every
    later step would repeat it."""
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


def _sign_windows(sgn):
    """The pairs (a, b) of consecutive nonzero samples in one row of a 2-D
    +1/0/-1 array that enclose a zero run or a sign change, as index arrays
    (row, a, b).  Zeros before the first and after the last nonzero sample of
    a row sit at a window edge and belong to the parent scan."""
    import numpy as np

    rows, k = np.nonzero(sgn[:, 1:] != sgn[:, :-1])
    left, right = sgn[rows, k], sgn[rows, k + 1]
    flips = (left != 0) & (right != 0)
    # a zero run opened at k is closed by the next change in its row
    opens = np.flatnonzero((left[:-1] != 0) & (right[:-1] == 0)
                           & (rows[:-1] == rows[1:]))
    return (np.concatenate([rows[flips], rows[opens]]),
            np.concatenate([k[flips], k[opens]]),
            np.concatenate([k[flips] + 1, k[opens + 1] + 1]))


def _event_windows(theta, vals, noise: float, dip_tol):
    """The event windows of a batch of scans, one scan per row of the
    samples `theta` and their values `vals`, as arrays (lo, hi, f(lo), f(hi)).

    Samples are classified +/-/0 against the evaluation noise floor; maximal
    zero runs and sign changes become windows.  Local minima of |f| below the
    row's `dip_tol`, the Bernstein bound for a hidden double zero, open
    windows on their same-sign sides; a pair straddling the sample itself
    would have flipped its sign and is already a pair of crossings.  The
    last sample of a row only closes windows, and a dip at the first has no
    left neighbour.
    """
    import numpy as np

    sgn = (vals > noise).view(np.int8) - (vals < -noise).view(np.int8)
    rows, a, b = _sign_windows(sgn)
    absv = np.abs(vals)
    r, k = np.nonzero((absv[:, :-1] > noise) & (absv[:, :-1] < dip_tol[:, None]))
    v = absv[r, k]
    dip = (v <= absv[r, k + 1]) & ((k == 0) | (v <= absv[r, k - 1]))
    r, k = r[dip], k[dip]
    s = sgn[r, k]
    to_left = (k > 0) & (sgn[r, k - 1] == s)
    to_right = sgn[r, k + 1] == s
    # marked by left end, so two adjacent equal dips open their window once
    opens = np.zeros(vals.shape, dtype=bool)
    opens[r[to_left], k[to_left] - 1] = True
    opens[r[to_right], k[to_right]] = True
    dip_rows, left = np.nonzero(opens)
    rows = np.concatenate([rows, dip_rows])
    a = np.concatenate([a, left])
    b = np.concatenate([b, left + 1])
    return theta[rows, a], theta[rows, b], vals[rows, a], vals[rows, b]


def _settle(ev, radius: float, windows, depth: int, noise: float,
            out: list[float]):
    """Split the event windows of one level: return (lo, hi) of those to
    rescan at the next level, and settle the rest into `out`.

    Refining below the cancellation-noise floor only manufactures sign
    flicker, so a window is rescanned only while depth remains, it is wider
    than _MIN_WIDTH and an edge value is decisively above the noise floor.
    Any other window with a sign change is bisected, and a sign-constant one
    goes through the even-event probe."""
    import numpy as np

    lo, hi, flo, fhi = windows
    rescan = ((depth > 0) & (hi - lo > _MIN_WIDTH)
              & (np.maximum(np.abs(flo), np.abs(fhi)) > 100.0 * noise))
    settle = ~rescan
    for wlo, whi, vlo, vhi in zip(lo[settle].tolist(), hi[settle].tolist(),
                                  flo[settle].tolist(), fhi[settle].tolist()):
        if (vlo > 0) != (vhi > 0):
            out.append(_bisect_bracket(ev, radius, wlo, whi, vlo))
        else:
            _probe_even_event(ev, radius, wlo, whi, 1.0 if vlo > 0 else -1.0,
                              noise, out)
    return lo[rescan], hi[rescan]


def _circle_grid(n: int):
    """The top scan's n angles, uniform on [0, 2*pi), with their cosines and
    sines; the same for every radius."""
    import numpy as np

    theta = np.linspace(0.0, _TWO_PI, n, endpoint=False)
    return theta, np.cos(theta), np.sin(theta)


def _intersection_angles(ev, radius: float, grid, scale: float,
                         deg: int) -> list[float]:
    """Angles in [0, 2*pi) where the curve meets the circle of this radius.

    `grid` is `_circle_grid(n)`.  The top scan starts the circle at its first
    sample above the noise floor and closes it there.  Each window a level
    rescans gets _SUBSCAN samples, the last at its right end point evaluated
    with math.cos and math.sin.  The dip bound of a scan with sample step h
    is 2 * deg^2 * scale * h^2 (Bernstein: |f''| <= deg^2 * scale on the
    circle).
    """
    import numpy as np

    theta, cos_t, sin_t = grid
    noise = 1e-15 * scale
    bernstein = 2.0 * deg * deg * scale
    vals = ev(radius, cos_t, sin_t)
    nonzero = np.flatnonzero(np.abs(vals) > noise)
    if not len(nonzero):
        return []  # the whole circle sits at the noise floor: undecidable
    shift = int(nonzero[0])
    theta = np.concatenate([theta[shift:], theta[:shift + 1] + _TWO_PI])
    vals = np.concatenate([vals[shift:], vals[:shift + 1]])
    step = _TWO_PI / len(cos_t)
    dip_tol = np.array([max(bernstein * step * step, 1e-300)])
    out: list[float] = []
    windows = _event_windows(theta[None], vals[None], noise, dip_tol)
    lo, hi = _settle(ev, radius, windows, _MAX_DEPTH, noise, out)
    for depth in range(_MAX_DEPTH - 1, -1, -1):
        rescan_lo, rescan_hi = [], []
        for k in range(0, len(lo), _BATCH):
            blo, bhi = lo[k:k + _BATCH], hi[k:k + _BATCH]
            theta = np.linspace(blo, bhi, _SUBSCAN, endpoint=False, axis=1)
            vals = ev(radius, np.cos(theta), np.sin(theta))
            ends = [_ev_at(ev, radius, t) for t in bhi.tolist()]
            theta = np.column_stack([theta, bhi])
            vals = np.column_stack([vals, ends])
            step = (bhi - blo) / _SUBSCAN
            dip_tol = np.maximum(bernstein * step * step, 1e-300)
            windows = _event_windows(theta, vals, noise, dip_tol)
            nlo, nhi = _settle(ev, radius, windows, depth, noise, out)
            rescan_lo.append(nlo)
            rescan_hi.append(nhi)
        if not rescan_lo:
            break
        lo, hi = np.concatenate(rescan_lo), np.concatenate(rescan_hi)
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


def oracle_k(f: BivarPoly, radius_max: int = 20) -> OracleReport:
    """Estimate asymptotic directions and per-direction branch counts on the
    circles of radii 2^4, 2^5, ..., 2^radius_max.

    Intersection angles are tracked across the radii of the best totals
    plateau; per-trajectory limit angles are extrapolated and clustered into
    directions.  Deterministic: identical input and radius_max produce
    identical reports.
    """
    if f.is_constant():
        raise ValueError("not a curve")
    if radius_max < _FIRST_EXPONENT:
        raise ValueError(f"radius exponent {radius_max} is below {_FIRST_EXPONENT}, "
                         f"the first one: no circle is left to scan")
    if radius_max >= sys.float_info.max_exp:
        raise ValueError(f"radius exponent {radius_max} is too large: radii from "
                         f"2^{sys.float_info.max_exp} up are not finite floats")
    ev, scale = _scaled_evaluator(f)

    radii = [2.0 ** e for e in range(_FIRST_EXPONENT, radius_max + 1)]
    grid = _circle_grid(_ANGULAR_GRID)
    per_radius: list[list[float]] = []
    samples: list[tuple[float, float, float, float]] = []
    for radius in radii:
        angles = _intersection_angles(ev, radius, grid, scale(radius), f.degree)
        samples.extend(
            (radius, a, radius * math.cos(a), radius * math.sin(a)) for a in angles
        )
        per_radius.append(angles)

    totals = [len(a) for a in per_radius]
    first, last, stable = _best_plateau(totals, _STABILITY_WINDOW)

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
        for center, size in _cluster(limits, _CLUSTER_TOL)
    ]
    return OracleReport(
        directions=tuple(sorted(directions)),
        stable=stable,
        radii_used=tuple(radii),
        samples=tuple(samples),
    )
