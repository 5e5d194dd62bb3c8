"""Per-layer accounting for traced runs.

Each layer is a function of a bsinf module, named here.  The wrapper replaces
the function under every name bound to it in any loaded bsinf module, so a
call is counted whichever module it goes through (irreducible_factors is
called from invariant and from germs).  Self time is a call's wall time minus
the wall time of the wrapped calls made inside it.  A function a later
version of the package no longer has is listed as absent; its metrics read 0.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import time

# (metric prefix, module, function name, reported fields)
BOTH = ("calls", "s")
LAYERS = [
    ("parsing.parse_poly", "bsinf.parsing", "parse_poly", BOTH),
    ("poly.squarefree_part", "bsinf.poly", "squarefree_part", BOTH),
    ("poly.irreducible_factors", "bsinf.poly", "irreducible_factors", BOTH),
    ("poly.resultant", "bsinf.poly", "resultant", BOTH),
    ("projective.points_at_infinity", "bsinf.projective", "points_at_infinity", BOTH),
    ("projective.chart_germ", "bsinf.projective", "chart_germ", BOTH),
    ("projective.chart_image", "bsinf.projective", "_chart_image", BOTH),
    ("germs.count_half_branches", "bsinf.germs", "count_half_branches", BOTH),
    ("germs.certified_bound", "bsinf.germs", "_certified_bound", BOTH),
    ("germs.signed_counts", "bsinf.germs", "_signed_counts", BOTH),
    ("germs.fallback_radius", "bsinf.germs", "_fallback_radius", ("calls",)),
    ("roots.isolate_real_roots", "bsinf.roots", "isolate_real_roots", BOTH),
    ("roots.min_nonzero_root_magnitude", "bsinf.roots", "min_nonzero_root_magnitude", BOTH),
    ("invariant.k_at_infinity", "bsinf.invariant", "k_at_infinity", BOTH),
    ("invariant.emit_normal_form", "bsinf.invariant", "emit_normal_form", ("s",)),
    ("invariant.realize_tuple", "bsinf.invariant", "realize_tuple", ("s",)),
    ("oracle.oracle_k", "bsinf.oracle", "oracle_k", BOTH),
    ("oracle.intersection_angles", "bsinf.oracle", "_intersection_angles", BOTH),
    ("oracle.extrapolate", "bsinf.oracle", "_aitken_limit", ("s",)),
    ("cli.main", "bsinf.cli", "main", ("s",)),
]
# the oracle's polynomial evaluator is a closure made per curve by this factory
EV_FACTORY = ("oracle.ev", "bsinf.oracle", "_scaled_evaluator", BOTH)


def _eps_bits(eps) -> float:
    """log2(1/eps) for a positive rational radius."""
    return math.log2(eps.denominator) - math.log2(eps.numerator)


class _Stat:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Wraps the LAYERS functions in place; `metrics()` reads the totals."""

    def __init__(self):
        self.stats = {name: _Stat() for name, _, _, _ in LAYERS + [EV_FACTORY]}
        self.sizes = {"parsing.terms_out": 0, "poly.factors_out": 0,
                      "germs.eps_bits": 0.0, "oracle.ev.points": 0,
                      "oracle.ev.scalar_calls": 0}
        self.absent: list[str] = []
        self._children: list[int] = []  # wrapped-child time of each open call

    def _timed(self, name: str, fn, on_result=None):
        stat = self.stats[name]
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stat.calls += 1
                stat.self_ns += dt - children.pop()
                if children:
                    children[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_result(self, name: str):
        sizes = self.sizes
        if name == "parsing.parse_poly":
            def note(p):
                sizes["parsing.terms_out"] += len(p.terms)
        elif name == "poly.irreducible_factors":
            def note(factors):
                sizes["poly.factors_out"] += len(factors)
        elif name == "germs.certified_bound":
            def note(eps):
                if eps is not None:
                    sizes["germs.eps_bits"] += _eps_bits(eps)
        else:
            return None
        return note

    def _ev_factory(self, factory):
        make_timed, sizes = self._timed, self.sizes

        def wrapped_factory(*args, **kwargs):
            ev, scale = factory(*args, **kwargs)
            timed_ev = make_timed(EV_FACTORY[0], ev)

            def counted_ev(radius, cos_t, sin_t):
                n = len(cos_t)
                sizes["oracle.ev.points"] += n
                sizes["oracle.ev.scalar_calls"] += n == 1
                return timed_ev(radius, cos_t, sin_t)

            return counted_ev, scale

        return wrapped_factory

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bsinf" or name.startswith("bsinf."))]
        for name, module_name, attr, _ in LAYERS + [EV_FACTORY]:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == EV_FACTORY[0]:
                replacement = self._ev_factory(original)
            else:
                replacement = self._timed(name, original, self._on_result(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, _, _, fields in LAYERS + [EV_FACTORY]:
            stat = self.stats[name]
            if "calls" in fields:
                out[f"{name}.calls"] = (stat.calls, "count")
            if "s" in fields:
                out[f"{name}.s"] = (stat.self_ns / 1e9, "s")
        out["parsing.terms_out"] = (self.sizes["parsing.terms_out"], "count")
        out["poly.factors_out"] = (self.sizes["poly.factors_out"], "count")
        out["germs.eps_bits"] = (self.sizes["germs.eps_bits"], "bits")
        out["oracle.ev.points"] = (self.sizes["oracle.ev.points"], "count")
        out["oracle.ev.scalar_calls"] = (self.sizes["oracle.ev.scalar_calls"], "count")
        out["trace.absent"] = (len(self.absent), "count")
        return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(python: str, env: dict, cwd: str, samples: int = 3) -> dict[str, float]:
    """Median cumulative import time (s) of bsinf, sympy and numpy, from
    `python -X importtime -c 'import bsinf'` in fresh interpreters."""
    found: dict[str, list[float]] = {"bsinf": [], "sympy": [], "numpy": []}
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import bsinf"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(4) in found:
                seen[m.group(4)] = int(m.group(2)) / 1e6
        for key in found:
            found[key].append(seen.get(key, 0.0))
    return {key: statistics.median(vals) for key, vals in found.items()}
