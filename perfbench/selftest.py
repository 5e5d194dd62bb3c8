"""Self-test of the benchmark's checks: each checker is fed one operation
with a wrong expected answer, which must be counted as failed and make the
run incorrect, next to the same operation with the right answer, which must
pass.  A wrong answer tagged with a named fault that fails at that check step
is counted as failed but leaves the run correct; tagged with a fault that
fails at another step, it still makes the run incorrect.

    python3 perfbench/selftest.py      # from the root of a source tree
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402
from workloads import Fault, Op  # noqa: E402

LINE = "y - x - 1"  # one branch each way along (1, 1): k = (1, 1)
CLI = ["invariant", "--json", LINE]

# (workload, right op, wrong op, the step it fails at, another step)
CASES = [
    ("factored", Op("right", (LINE,), (1, 1)), Op("wrong", (LINE,), (2,)),
     "exact", "oracle"),
    # the exact k is wrong, so a fault that only the oracle should show is no cover
    ("oracle", Op("right", (LINE,), (1, 1)), Op("wrong", (LINE,), (1, 1, 1, 1)),
     "exact", "oracle"),
    ("cli", Op("right", (CLI,), (0, {"k": [1, 1]}, False)),
     Op("wrong", (CLI,), (0, {"k": [2]}, False)), "json", "stderr"),
    # exit 0 where exit 1 was expected is wrong, even for a stderr fault
    ("cli", Op("right", (CLI,), (0, {"k": [1, 1]}, False)),
     Op("wrong", (CLI,), (1, None, True)), "exit", "stderr"),
]


def failed_ops(workload: str, ops: list[Op]) -> tuple[list[str], bool]:
    result = worker.measure(workload, ops, trace=False)
    return [f["op"] for f in result["failures"]], worker.all_correct(result["failures"])


def tagged(op: Op, step: str) -> Op:
    return Op(op.label, op.args, op.expect, Fault("a named fault", step))


def main() -> int:
    worker.import_package()
    ok = True
    for workload, right, wrong, step, other in CASES:
        checks = {
            "a wrong answer fails": failed_ops(workload, [right, wrong]) == (["wrong"], False),
            f"a named fault at '{step}' is known":
                failed_ops(workload, [right, tagged(wrong, step)]) == (["wrong"], True),
            f"a named fault at '{other}' does not cover a failure at '{step}'":
                failed_ops(workload, [right, tagged(wrong, other)]) == (["wrong"], False),
        }
        for what, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'}: {workload}: {what}")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
