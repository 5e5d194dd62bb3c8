"""Independent floating-point estimator of asymptotic directions and branch
counts: intersects the curve with circles of geometrically growing radius,
tracks the intersection angles and extrapolates their limits.

All the circles of a curve are scanned together, level by level: a uniform
grid over each whole circle, then up to three levels of finer scans of the
event windows the level above found.  A level rescans the windows of all
circles in batches of at most _BATCH windows, one evaluation per batch.  The
windows no level refines are settled at the end, all at once: their
bisections and extremum searches advance in lockstep, with one evaluation of
all their live points per step.

Advisory only — the exact pipeline is authoritative; this module exists to
cross-validate it and deliberately shares none of its machinery.  Nothing
imports this module until it is used: the `check` command imports it when it
runs, and the package's `oracle_k` and `OracleReport` load it on first
access.  numpy is imported by the scans that use it.
"""

from __future__ import annotations

import math
import sys

from .poly import BivarPoly, Record

_TWO_PI = 2.0 * math.pi
_FIRST_EXPONENT = 4  # the circles have radii 2^4, 2^5, ..., 2^radius_max
_ANGULAR_GRID = 2 ** 14  # samples of the top scan of each circle
_CLUSTER_TOL = 1e-3  # radians between limit angles of one direction
_STABILITY_WINDOW = 3  # consecutive radii with equal totals for a stable count
_SUBSCAN = 512    # samples per refinement window
_BATCH = 32       # windows rescanned together: 32 * 512 samples, the top grid
_MAX_DEPTH = 3    # nested refinement levels
_MIN_WIDTH = 1e-11  # do not refine windows narrower than this (radians)


class OracleReport(Record):
    """Estimated limit directions with branch counts per direction; `samples`
    holds a row (radius, angle, x, y) for every detected intersection and is
    left out of the repr."""

    __slots__ = ("directions", "stable", "radii_used", "samples")
    _unshown = ("samples",)

    def __init__(self, directions: tuple[tuple[tuple[float, float], int], ...], stable: bool,
                 radii_used: tuple[float, ...],
                 samples: tuple[tuple[float, float, float, float], ...] = ()):
        super().__init__(directions, stable, radii_used, samples)


def _scaled_evaluator(f: BivarPoly):
    """theta -> f(R cos, R sin) / R^deg (same zeros, overflow-safe), plus the
    coefficient-magnitude scale of that form at radius R.

    `ev(radius, cos_t, sin_t)` evaluates the form by Horner's rule in sin over
    Horner's rule in cos, with coefficients c_ij * R^(i+j-deg).  `radius` is
    one radius, or an array of one radius per row of the numpy arrays `cos_t`
    and `sin_t` (rows x samples for a batch of windows, one point per row for
    the settling searches); the result has their shape.  The table of each
    radius is formed once, with Python floats, and kept; a call gathers each
    coefficient by row.  Every element passes through the same roundings, so
    a point gets bitwise the same value alone, in any batch and beside any
    other radii.

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
    import numpy as np

    d = f.degree
    terms = [(i, j, float(c)) for (i, j), c in f.items()]
    # table[j][i] = (c_ij, deg - i - j): the terms of sin^j, dense in cos
    table: list[list[tuple[float, int]]] = [[] for _ in range(1 + max(j for _, j, _ in terms))]
    for i, j, c in terms:
        row = table[j]
        row.extend([(0.0, 0)] * (i + 1 - len(row)))
        row[i] = (c, d - i - j)
    table = [row[::-1] for row in reversed(table)]  # highest powers first
    added = [[bool(c) for c, _ in row] for row in table]  # Horner adds these
    width = sum(map(sum, added))
    scaled: dict[float, list[float]] = {}  # radius -> its nonzero c_ij * R^(i+j-deg)

    def coefficients(radius: float) -> list[float]:
        if radius not in scaled:
            inv = [radius ** float(-k) for k in range(d + 1)]  # inv[k] = R^-k
            scaled[radius] = [c * inv[k] for line in table for c, k in line if c]
        return scaled[radius]

    def ev(radius, cos_t, sin_t):
        radius = np.atleast_1d(radius).tolist()
        slot = {r: k for k, r in enumerate(dict.fromkeys(radius))}
        known = np.array([coefficients(r) for r in slot]).reshape(len(slot), width)
        # one array per coefficient, holding its value on each row
        coeffs = iter(known.T[:, [slot[r] for r in radius]].reshape(
            (width, len(radius)) + (1,) * (cos_t.ndim - 1)))
        acc = 0.0
        for line in added:
            inner = 0.0
            for add in line:
                inner *= cos_t
                if add:
                    inner += next(coeffs)
            acc *= sin_t
            acc += inner
        return acc

    def scale(radius: float) -> float:
        return sum(abs(c) * radius ** float(i + j - d) for i, j, c in terms)

    return ev, scale


def _at(ev, radius, t):
    """f at the angles t, each on the circle of its radius, with cos and sin
    from math.cos and math.sin."""
    import numpy as np

    t = t.tolist()
    return ev(radius, np.array([math.cos(a) for a in t]), np.array([math.sin(a) for a in t]))


def _bisect(ev, radius, lo, hi, flo):
    """Bisect sign-change brackets [lo, hi], with f(lo) = flo, to 1e-12 angle
    width, all in lockstep; return their midpoints."""
    import numpy as np

    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(hi - lo > 1e-12)
    while len(live):
        mid = 0.5 * (lo[live] + hi[live])
        left = flo[live] * _at(ev, radius[live], mid) <= 0.0
        hi[live[left]] = mid[left]
        lo[live[~left]] = mid[~left]
        live = live[hi[live] - lo[live] > 1e-12]
    return 0.5 * (lo + hi)


def _extremum(ev, radius, lo, hi, s):
    """Ternary-search the minimum of s*f over windows [lo, hi], all in
    lockstep, for at most 80 steps; return the final midpoints and f there.

    A window stops early at its floating fixed point: a step whose end point
    equals the one it replaces leaves the state as it was, so every later
    step would repeat it."""
    import numpy as np

    lo, hi = lo.copy(), hi.copy()
    live = np.arange(len(lo))
    for _ in range(80):
        a, b = lo[live], hi[live]
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        v = _at(ev, np.concatenate([radius[live]] * 2), np.concatenate([m1, m2]))
        down = s[live] * v[:len(live)] < s[live] * v[len(live):]
        moved = np.where(down, b != m2, a != m1)
        hi[live[down & moved]] = m2[down & moved]
        lo[live[~down & moved]] = m1[~down & moved]
        live = live[moved]
        if not len(live):
            break
    mid = 0.5 * (lo + hi)
    return mid, _at(ev, radius, mid)


def _sign_windows(sgn):
    """The pairs (a, b) of consecutive nonzero samples in one row of a 2-D
    +1/0/-1 array that enclose a zero run or a sign change, as index arrays
    (row, a, b).  Zeros before the first and after the last nonzero sample of
    a row sit at a window edge and belong to the parent scan."""
    import numpy as np

    # np.nonzero of a 2-D mask, from the faster search of the flat one
    rows, k = np.divmod(np.flatnonzero(sgn[:, 1:] != sgn[:, :-1]), sgn.shape[1] - 1)
    left, right = sgn[rows, k], sgn[rows, k + 1]
    flips = (left != 0) & (right != 0)
    # a zero run opened at k is closed by the next change in its row
    opens = np.flatnonzero((left[:-1] != 0) & (right[:-1] == 0)
                           & (rows[:-1] == rows[1:]))
    return (np.concatenate([rows[flips], rows[opens]]),
            np.concatenate([k[flips], k[opens]]),
            np.concatenate([k[flips] + 1, k[opens + 1] + 1]))


def _event_windows(theta, vals, noise, dip_tol):
    """The event windows of a batch of scans, one scan per row of the
    samples `theta` and their values `vals`, as arrays
    (row, lo, hi, f(lo), f(hi)).

    Samples are classified +/-/0 against the row's evaluation noise floor
    `noise`; maximal zero runs and sign changes become windows.  Local minima
    of |f| below the row's `dip_tol`, the Bernstein bound for a hidden double
    zero, open windows on their same-sign sides; a pair straddling the sample
    itself would have flipped its sign and is already a pair of crossings.
    The last sample of a row only closes windows, and a dip at the first has
    no left neighbour.
    """
    import numpy as np

    noise = noise[:, None]
    sgn = (vals > noise).view(np.int8) - (vals < -noise).view(np.int8)
    rows, a, b = _sign_windows(sgn)
    absv = np.abs(vals)
    width = vals.shape[1]
    r, k = np.divmod(np.flatnonzero((absv[:, :-1] > noise) & (absv[:, :-1] < dip_tol[:, None])),
                     width - 1)
    v = absv[r, k]
    dip = (v <= absv[r, k + 1]) & ((k == 0) | (v <= absv[r, k - 1]))
    r, k = r[dip], k[dip]
    s = sgn[r, k]
    to_left = (k > 0) & (sgn[r, k - 1] == s)
    to_right = sgn[r, k + 1] == s
    # marked by left end, so two adjacent equal dips open their window once
    opens = np.zeros(vals.size, dtype=bool)
    left = r * width + k
    opens[left[to_left] - 1] = True
    opens[left[to_right]] = True
    dip_rows, left = np.divmod(np.flatnonzero(opens), width)
    rows = np.concatenate([rows, dip_rows])
    a = np.concatenate([a, left])
    b = np.concatenate([b, left + 1])
    return rows, theta[rows, a], theta[rows, b], vals[rows, a], vals[rows, b]


def _rescan(ev, radii, noise, bernstein, row, lo, hi):
    """The event windows, as in `_event_windows`, of one batch of windows
    [lo, hi], each rescanned on the circle of radius radii[row] with
    _SUBSCAN samples and its right end point."""
    import numpy as np

    theta = np.linspace(lo, hi, _SUBSCAN, endpoint=False, axis=1)
    ends = hi.tolist()
    vals = ev(radii[row], np.column_stack([np.cos(theta), [math.cos(t) for t in ends]]),
              np.column_stack([np.sin(theta), [math.sin(t) for t in ends]]))
    step = (hi - lo) / _SUBSCAN
    dip_tol = np.maximum(bernstein[row] * step * step, 1e-300)
    k, *found = _event_windows(np.column_stack([theta, hi]), vals, noise[row], dip_tol)
    return (row[k], *found)


def _settle(ev, radii, noise, row, lo, hi, flo, fhi) -> list[list[float]]:
    """Settle the windows no level refines, all at once, and return the
    sorted angles in [0, 2*pi) of each radius.

    A window with a sign change is bisected.  A sign-constant one may hide
    an even number of intersections: the even-event probe searches the
    extremum of s*f in it, then recovers two crossings around it, records a
    tangential contact twice, or discards the window."""
    import numpy as np

    flip = (flo > 0) != (fhi > 0)
    r, elo, ehi = row[~flip], lo[~flip], hi[~flip]
    s = np.where(flo[~flip] > 0, 1.0, -1.0)
    t, v = _extremum(ev, radii[r], elo, ehi, s)
    cross = s * v < -noise[r]
    touch = ~cross & (np.abs(v) <= noise[r])
    brow, blo, bhi, bflo = (np.concatenate(c) for c in zip(
        (row[flip], lo[flip], hi[flip], flo[flip]),
        (r[cross], elo[cross], t[cross], s[cross]),
        (r[cross], t[cross], ehi[cross], v[cross])))
    angles = np.concatenate([_bisect(ev, radii[brow], blo, bhi, bflo), t[touch], t[touch]])
    out: list[list[float]] = [[] for _ in radii]
    for k, a in zip(np.concatenate([brow, r[touch], r[touch]]).tolist(), angles.tolist()):
        out[k].append(a % _TWO_PI)
    return [sorted(a) for a in out]


def _circle_grid(n: int):
    """The top scan's n angles, uniform on [0, 2*pi), with their cosines and
    sines; the same for every radius."""
    import numpy as np

    theta = np.linspace(0.0, _TWO_PI, n, endpoint=False)
    return theta, np.cos(theta), np.sin(theta)


def _intersection_angles(ev, radii: list[float], grid, scales: list[float],
                         deg: int) -> list[list[float]]:
    """Angles in [0, 2*pi) where the curve meets the circle of each radius,
    as one sorted list per radius; scales[k] is the scale at radii[k].

    `grid` is `_circle_grid(n)`.  The top scan of each circle starts at its
    first sample above the noise floor and closes it there.  Each level
    rescans the windows of all circles in batches of at most _BATCH windows,
    which may mix radii; each window gets _SUBSCAN samples and its right end
    point.  The windows no level refines go to `_settle`.  Refining below the
    cancellation-noise floor only manufactures sign flicker, so a window is
    rescanned only while depth remains, it is wider than _MIN_WIDTH and an
    edge value is decisively above the noise floor.  The dip bound of a scan
    with sample step h is 2 * deg^2 * scale * h^2 (Bernstein:
    |f''| <= deg^2 * scale on the circle).
    """
    import numpy as np

    theta0, cos_t, sin_t = grid
    step = _TWO_PI / len(cos_t)
    noise = 1e-15 * np.array(scales)
    bernstein = 2.0 * deg * deg * np.array(scales)
    top_tol = np.maximum(bernstein * step * step, 1e-300)
    windows = []
    for k, radius in enumerate(radii):
        vals = ev(radius, cos_t, sin_t)
        nonzero = np.flatnonzero(np.abs(vals) > noise[k])
        if not len(nonzero):
            continue  # the whole circle sits at the noise floor: undecidable
        shift = int(nonzero[0])
        theta = np.concatenate([theta0[shift:], theta0[:shift + 1] + _TWO_PI])
        vals = np.concatenate([vals[shift:], vals[:shift + 1]])
        _, *found = _event_windows(theta[None], vals[None], noise[k:k + 1], top_tol[k:k + 1])
        windows.append((np.full(len(found[0]), k), *found))
    radii = np.array(radii)
    settled = []
    for depth in range(_MAX_DEPTH, -1, -1):
        if not windows:
            break
        row, lo, hi, flo, fhi = (np.concatenate(c) for c in zip(*windows))
        rescan = ((depth > 0) & (hi - lo > _MIN_WIDTH)
                  & (np.maximum(np.abs(flo), np.abs(fhi)) > 100.0 * noise[row]))
        settled.append([a[~rescan] for a in (row, lo, hi, flo, fhi)])
        row, lo, hi = row[rescan], lo[rescan], hi[rescan]
        windows = [_rescan(ev, radii, noise, bernstein, row[k:k + _BATCH], lo[k:k + _BATCH],
                           hi[k:k + _BATCH]) for k in range(0, len(row), _BATCH)]
    if not settled:
        return [[] for _ in radii]
    return _settle(ev, radii, noise, *(np.concatenate(c) for c in zip(*settled)))


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
    per_radius = _intersection_angles(ev, radii, _circle_grid(_ANGULAR_GRID),
                                      [scale(r) for r in radii], f.degree)
    samples = [(radius, a, radius * math.cos(a), radius * math.sin(a))
               for radius, angles in zip(radii, per_radius) for a in angles]

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
