"""bsinf benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload factored --seed 1 --seconds 8 --trace 0

Run from the root of a source tree (the package is imported from ./src).
Workloads: factored, expanded, oracle, cli (see README.md).  A run repeats
one fixed round of operations, each time in a fresh worker interpreter,
until the timed operations add up to --seconds.  With --trace 0 the last
line of stdout holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one traced round.  Every operation's answer is checked
against an expectation computed apart from the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # set-up is timed in this many fresh interpreters
CHILD_TIMEOUT = 170.0
# sympy iterates over sets in places, so a fixed hash seed keeps each
# operation on the same path in every run
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def _worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), *extra]


def _start(cmd: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the time
    from spawn to READY."""
    t0 = time.perf_counter()
    # own process group, so a kill also reaches the CLI processes it starts
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV,
                            start_new_session=True)
    killer = threading.Timer(max(1.0, deadline - t0), _kill, (proc,))
    killer.start()
    try:
        line = proc.stdout.readline()
    finally:
        killer.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise RuntimeError(f"worker did not start: {line.strip()!r}, exit {proc.returncode}")
    return proc, setup


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bsinf", "__init__.py")):
        print("run.py: no src/bsinf here; run it from the root of a bsinf source tree",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            proc, setup = _start(_worker_cmd(args, "--setup-only"), deadline)
            _finish(proc, deadline)
            setups.append(setup)
    # Every round holds the same operations and runs in a fresh interpreter,
    # so a faster program repeats them rather than timing other inputs.  A
    # traced run makes one round.
    rounds, lat = [], []
    while True:
        proc, _ = _start(_worker_cmd(args), deadline)
        rounds.append(json.loads(_finish(proc, deadline).strip().splitlines()[-1]))
        lat += rounds[-1]["latencies"]
        if args.trace or sum(lat) >= args.seconds:
            break

    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        tag = f"known fault: {f['fault']}" if f["fault"] else f"WRONG at {f['step']}"
        print(f"failed [{tag}] {f['op']}: {f['problem']}", file=sys.stderr)
    correct = worker.all_correct(failures)

    if args.trace:
        result = rounds[0]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for mod, seconds in layers.import_times(sys.executable, env, root).items():
            metrics[f"import.{mod}_s"] = {"value": seconds, "unit": "s"}
        metrics["trace.ops_per_s"] = {"value": len(lat) / sum(lat), "unit": "1/s"}
        metrics["trace.op_p50_ms"] = {"value": 1000.0 * statistics.median(lat), "unit": "ms"}
        for name in result["absent"]:
            print(f"absent layer: {name}", file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(f"{args.workload}: {len(rounds)} rounds, {len(lat)} operations, "
          f"{len(failures)} failed; host speed factors "
          f"{[round(r['host_factor'], 3) for r in rounds]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(lat),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
