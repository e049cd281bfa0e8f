"""Self-test of the benchmark: exact work counts on a tiny configuration.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload traced for one second with a single set-up and
checks the counted work of each timed operation, which does not depend
on timing:

* a ``cold_gram`` or ``distributed_gram`` job costs 820 kernel
  evaluations (40 strings: 780 pairs and 40 self values); a distributed
  job runs 10 block tasks (4 shards);
* a ``classify_stream`` request costs 16 (one per landmark), all inside
  the scorer;
* a ``replay_mix`` operation costs none; exact resubmits are answered by
  the matrix cache, reorders and subsets by the in-memory pair cache,
  perturbed resubmits by the pair store;
* every answer matches the local reference;
* a second traced ``cold_gram`` run with the same seed repeats the same
  per-operation counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import run_workload  # noqa: E402

SEED = 7

#: (field of a per-operation record, expected value) by workload and kind.
EXPECTED: Dict[str, Dict[str, Dict[str, Any]]] = {
    "cold_gram": {
        "cold": {"engine.kernel_evals_per_op": 820, "layer": "kernel"},
    },
    "distributed_gram": {
        "cold": {"engine.kernel_evals_per_op": 820, "worker.blocks_per_op": 10, "layer": "kernel"},
    },
    "classify_stream": {
        "classify": {"engine.kernel_evals_per_op": 16, "scorer.evals_per_op": 16, "layer": "kernel"},
    },
    "replay_mix": {
        "exact": {"engine.kernel_evals_per_op": 0, "layer": "matrixcache"},
        "reorder": {"engine.kernel_evals_per_op": 0, "layer": "paircache"},
        "subset": {"engine.kernel_evals_per_op": 0, "layer": "paircache"},
        "perturbed": {"engine.kernel_evals_per_op": 0, "layer": "pairstore"},
    },
}


def check(name: str) -> List[str]:
    result = run_workload(name, SEED, seconds=1.0, trace=True, setups=1)
    problems = []
    if result.failed or not result.per_op:
        problems.append(f"{name}: {result.failed} of {result.attempted} operation(s) failed")
    for index, values in enumerate(result.per_op):
        expected = EXPECTED[name].get(values["kind"])
        if expected is None:
            problems.append(f"{name}: unexpected operation kind {values['kind']!r}")
            continue
        for field, wanted in expected.items():
            got = values.get(field, 0)
            if got != wanted:
                problems.append(f"{name} op {index} ({values['kind']}): {field} = {got}, expected {wanted}")
    print(f"{name}: {len(result.per_op)} operation(s) checked", flush=True)
    return problems


def check_repeatable(name: str) -> List[str]:
    runs = [run_workload(name, SEED, seconds=1.0, trace=True, setups=1) for _ in range(2)]
    counts = [[values.get("engine.kernel_evals_per_op", 0) for values in run.per_op] for run in runs]
    common = min(len(counts[0]), len(counts[1]))
    if common == 0 or counts[0][:common] != counts[1][:common]:
        return [f"{name}: per-operation kernel evaluations differ between runs: {counts}"]
    print(f"{name}: counts repeat over {common} operation(s)", flush=True)
    return []


def main() -> int:
    problems: List[str] = []
    for name in EXPECTED:
        problems.extend(check(name))
    problems.extend(check_repeatable("cold_gram"))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
