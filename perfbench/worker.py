"""One benchmark process: import bsinf, answer one warm-up operation, then run
one round of a workload closed-loop, one operation at a time.

Started by run.py in a fresh interpreter for every round, so no cache of the
package or of sympy carries over from another round or run.  Protocol on
stdout: the line READY once set-up is done (run.py times it), then one JSON
line with the per-operation results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback

import hostspeed
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
B = None  # the bsinf package, once imported
SYMPY_RANDOM = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def import_package() -> None:
    global B
    sys.path.insert(0, SRC)
    import bsinf
    here = os.path.dirname(os.path.abspath(bsinf.__file__))
    if here != os.path.join(SRC, "bsinf"):
        raise SystemExit(f"bsinf imported from {here}, not from {SRC}")
    import bsinf.cli  # noqa: F401  (the cli workload wraps bsinf.cli.main)
    B = bsinf
    global SYMPY_RANDOM
    import sympy.core.random
    SYMPY_RANDOM = sympy.core.random


def fix_sympy_draws() -> None:
    """sympy's multivariate factoring picks evaluation points from one
    process-wide generator seeded at random, and a bad draw can make one
    factorization 5x slower.  Reseeding it before every operation makes each
    curve cost the same in every run."""
    SYMPY_RANDOM.seed(0)


# ---------------------------------------------------------------------------
# operations: `run_*` is timed, `check_*` is not.  A check returns None or
# (step, message): the step names which part of the answer is wrong.
# ---------------------------------------------------------------------------

def run_exact(op):
    return B.k_at_infinity(B.parse_poly(op.args[0]))


def check_exact(op, report) -> tuple[str, str] | None:
    if report.k.entries != op.expect:
        return "exact", f"k = {report.k.entries}, expected {op.expect}"
    if sum(report.k.entries) % 2:
        return "exact", f"odd entry sum in k = {report.k.entries}"
    if not all(rec.certified for rec in report.records):
        return "exact", "uncertified record"
    return None


def run_oracle(op):
    f = B.parse_poly(op.args[0])
    return B.k_at_infinity(f), B.oracle_k(B.squarefree_part(f))


def check_oracle(op, result) -> tuple[str, str] | None:
    exact, est = result
    problem = check_exact(op, exact)
    if problem:
        return problem
    counts = tuple(sorted(c for _, c in est.directions))
    if counts != op.expect:
        return "oracle", f"oracle counts {counts}, expected {op.expect}"
    exact_dirs = [(side.direction.unit, side.count) for rec in exact.records
                  for side in (rec.plus, rec.minus) if side is not None]
    for u, c in est.directions:
        dist, count = min((math.hypot(u[0] - e[0], u[1] - e[1]), n) for e, n in exact_dirs)
        if dist > 1e-6 or count != c:
            return "oracle", f"oracle direction {u} (count {c}) is {dist:.1e} from the exact one"
    return None


def _cli_argv(op, deep_file: str) -> list[str]:
    return [f"@{deep_file}" if a == "@deep" else a for a in op.args[0]]


def run_cli_process(op, deep_file: str):
    proc = subprocess.run([sys.executable, "-m", "bsinf", *_cli_argv(op, deep_file)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(op, deep_file: str):
    """`python -m bsinf` without the process: an exception that escapes
    main becomes exit 1 and a traceback on stderr, as the interpreter makes
    it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = B.cli.main(_cli_argv(op, deep_file))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def check_cli(op, result) -> tuple[str, str] | None:
    code, stdout, stderr = result
    want_code, want_json, one_line_error = op.expect
    if code != want_code:
        return "exit", f"exit {code}, expected {want_code}: {stderr.strip()[-200:]}"
    if one_line_error and (len(stderr.strip().splitlines()) != 1 or "Traceback" in stderr):
        return "stderr", f"stderr is not a one-line error ({len(stderr.splitlines())} lines)"
    if want_json is not None:
        got = json.loads(stdout)
        for key, value in want_json.items():
            if got.get(key) != value:
                return "json", f"{key} = {got.get(key)!r}, expected {value!r}"
        if not all(p["certified"] for p in got.get("points", [])):
            return "json", "uncertified record"
    return None


def attempt(op, run, check) -> tuple[float, tuple[str, str] | None]:
    """Time one operation, then check it.  An exception is a failed answer."""
    fix_sympy_draws()
    t0 = time.perf_counter()
    try:
        result = run(op)
        problem = None
    except Exception as exc:  # the program's fault, reported per operation
        problem = "raised", f"{type(exc).__name__}: {str(exc)[:200]}"
    latency = time.perf_counter() - t0
    if problem is None:
        try:
            problem = check(op, result)
        except (ValueError, KeyError, TypeError) as exc:
            problem = "output", f"unreadable output: {type(exc).__name__}: {exc}"
    return latency, problem


def runner(workload: str, trace: bool):
    deep_file = os.path.join(ROOT, ".perfbench", "deep_parens.txt")
    if workload == "cli":
        os.makedirs(os.path.dirname(deep_file), exist_ok=True)
        with open(deep_file, "w", encoding="utf-8") as fh:
            fh.write(workloads.DEEP_PARENS)
        run = run_cli_inprocess if trace else run_cli_process
        return (lambda op: run(op, deep_file)), check_cli
    if workload == "oracle":
        return run_oracle, check_oracle
    return run_exact, check_exact


def all_correct(failures: list[dict]) -> bool:
    """True when every failed operation failed only where its named fault
    makes it fail."""
    return all(f["fault"] for f in failures)


def measure(workload: str, ops: list, trace: bool) -> dict:
    """Run one round of operations; traced, wrap the layers first.  Times
    are scaled to the host's nominal speed (hostspeed.py)."""
    run, check = runner(workload, trace)
    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    latencies: list[float] = []
    failures: list[dict] = []
    readings = [hostspeed.reference_s()]
    for op in ops:
        latency, problem = attempt(op, run, check)
        readings.append(hostspeed.reference_s())
        latencies.append(latency)
        if problem is not None:
            step, message = problem
            known = op.fault is not None and op.fault.fails == step
            failures.append({"op": op.label, "step": step, "problem": message,
                             "fault": op.fault.name if known else None})
    who = resource.RUSAGE_CHILDREN if workload == "cli" and not trace else resource.RUSAGE_SELF
    scale = hostspeed.factor(readings)
    out = {
        "latencies": [x * scale for x in latencies],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "host_factor": scale,
    }
    if tracer is not None:
        out["layers"] = {name: (v * scale if unit == "s" else v, unit)
                         for name, (v, unit) in tracer.metrics().items()}
        out["absent"] = tracer.absent
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_package()
    warm = workloads.WARMUP.get(args.workload)
    if warm is not None:
        run, check = runner(args.workload, False)
        fix_sympy_draws()
        problem = check(warm, run(warm))
        if problem:
            print(f"warm-up failed: {problem[1]}", file=sys.stderr)
            return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0
    ops = workloads.ROUND[args.workload](args.seed)
    print(json.dumps(measure(args.workload, ops, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
