"""Before/after timing of the Kast kernel, in one process.

Usage (from the repository root)::

    git show <rev>:src/repro/core/kast.py > /tmp/kast_before.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline /tmp/kast_before.py \\
        --baseline-label <rev> --seeds 1 31337 --pairs 15 --output benchmarks/BENCH_kernel.json

The baseline ``kast.py`` is loaded as a second module beside the current
one; it shares this tree's feature, interner and string types, so both
kernels score the very same ``WeightedString`` objects.  Two shapes are
timed per seed, on the service benchmark's never-seen strings
(``perfbench/workloads.py``'s ``NeverSeen(seed).take(40)``):

* ``gram40`` — the 40-string Gram (780 evaluations) through the kernel's
  Gram entry, one ``value_pairs`` call over the upper triangle, on a fresh
  kernel (string preparation included), as a cold matrix job runs it; a
  baseline without ``value_pairs`` runs one ``value_row(s[i], s[i+1:])``
  per row instead;
* ``landmark16`` — each of the other 24 strings against the first 16
  (one ``value_row`` of 16 evaluations each, as a classify request runs
  it), on a kernel whose landmarks are already prepared; the timing is
  per row.

Each pair times the baseline and the current kernel once, alternating
which runs first.  The file records, per shape and seed, the median and
quartiles of both sides in ms, their ratio, the median of the per-pair
ratios (robust to the box changing speed between pairs, which the two
sides of one pair share), the pairs the current kernel won, and both
kernels' work counts for the timed work (they repeat exactly).
Milliseconds depend on the machine and its load: compare the ratios, not
absolute milliseconds across machines.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from workloads import NeverSeen  # noqa: E402

from repro.core import kast  # noqa: E402

GRAM_SIZE = 40
LANDMARKS = 16


def load_baseline(path: str):
    spec = importlib.util.spec_from_file_location("kast_baseline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def work(kernel) -> Dict[str, int]:
    """The kernel's work counts (the baseline may have none)."""
    return kernel.work_counts() if hasattr(kernel, "work_counts") else {}


def gram(kernel_class, strings) -> Callable[[], Tuple[float, Dict[str, int]]]:
    pairs = [(i, j) for i in range(len(strings)) for j in range(i + 1, len(strings))]

    def run():
        start = time.perf_counter()
        kernel = kernel_class(cut_weight=2)
        if hasattr(kernel, "value_pairs"):
            kernel.value_pairs(strings, pairs)
        else:
            for index, string in enumerate(strings):
                kernel.value_row(string, strings[index + 1 :])
        return time.perf_counter() - start, work(kernel)

    return run


def landmark_rows(kernel_class, strings) -> Callable[[], Tuple[float, Dict[str, int]]]:
    landmarks, queries = strings[:LANDMARKS], strings[LANDMARKS:]

    def run():
        kernel = kernel_class(cut_weight=2)
        kernel.value_row(landmarks[0], landmarks[1:])  # prepares every landmark, untimed
        counted = work(kernel)
        start = time.perf_counter()
        for query in queries:
            kernel.value_row(query, landmarks)
        elapsed = (time.perf_counter() - start) / len(queries)
        return elapsed, {name: total - counted[name] for name, total in work(kernel).items()}

    return run


def quartiles(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def measure(shape: str, seed: int, baseline, pairs: int) -> Dict[str, object]:
    strings = NeverSeen(seed).take(GRAM_SIZE)
    build = gram if shape == "gram40" else landmark_rows
    runs = {"before": build(baseline.KastSpectrumKernel, strings), "after": build(kast.KastSpectrumKernel, strings)}
    for run in runs.values():  # warm imports and allocator, untimed
        run()
    samples: Dict[str, List[float]] = {"before": [], "after": []}
    counts: Dict[str, Dict[str, int]] = {}
    for index in range(pairs):
        for side in ("before", "after") if index % 2 == 0 else ("after", "before"):
            elapsed, counted = runs[side]()
            samples[side].append(elapsed * 1000.0)
            assert counts.setdefault(side, counted) == counted, "work counts must repeat exactly"
    before, after = quartiles(samples["before"]), quartiles(samples["after"])
    return {
        "shape": shape,
        "seed": seed,
        "evals": GRAM_SIZE * (GRAM_SIZE - 1) // 2 if shape == "gram40" else LANDMARKS,
        "unit": "ms per Gram" if shape == "gram40" else "ms per row",
        "pairs": pairs,
        "work_counts_cover": "the Gram" if shape == "gram40" else f"all {GRAM_SIZE - LANDMARKS} timed rows",
        "before_ms": before,
        "after_ms": after,
        "ratio_before_over_after": round(before["median"] / after["median"], 3),
        "median_pair_ratio": round(statistics.median(b / a for b, a in zip(samples["before"], samples["after"])), 3),
        "after_wins": sum(b > a for b, a in zip(samples["before"], samples["after"])),
        "samples_ms": {side: [round(value, 3) for value in values] for side, values in samples.items()},
        "work_counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="path to the kast.py to compare against")
    parser.add_argument("--baseline-label", help="what the baseline is, for the report (default: its file name)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 31337])
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--output", default=os.path.join(HERE, "BENCH_kernel.json"))
    args = parser.parse_args(argv)
    baseline = load_baseline(args.baseline)
    rows = [measure(shape, seed, baseline, args.pairs) for seed in args.seeds for shape in ("gram40", "landmark16")]
    for row in rows:
        print(
            f"{row['shape']:>10} seed {row['seed']:>6}: before {row['before_ms']['median']:8.3f} "
            f"after {row['after_ms']['median']:8.3f} {row['unit']}  x{row['ratio_before_over_after']:.2f} "
            f"(pairs x{row['median_pair_ratio']:.2f}) "
            f"({row['after_wins']}/{row['pairs']} pairs)"
        )
    report = {
        "benchmark": "Kast kernel before/after, in process",
        "baseline": args.baseline_label or os.path.basename(args.baseline),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
        "rows": rows,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
