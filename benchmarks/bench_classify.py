"""Before/after cost of a classify row through ``GramEngine.evaluate_row``, in one process.

Usage (from the repository root)::

    git show <rev>:src/repro/core/engine.py > /tmp/engine_before.py
    PYTHONPATH=src python benchmarks/bench_classify.py --baseline /tmp/engine_before.py \\
        --baseline-label <rev> --pairs 10 --output benchmarks/BENCH_classify.json

The baseline ``engine.py`` is loaded as a second module beside the current
one; both use this tree's kernel and ``PairStore``.  One run streams
never-seen traces (``perfbench/workloads.py``'s ``NeverSeen(seed)``: the
first 16 strings are the landmarks, the next ``--rows`` the queries)
through ``evaluate_row`` against the 16 landmarks, as a classify request
does.  Each run has a fresh engine and kernel, a new ``PairStore`` in a
temporary directory and the landmark self values primed as the streaming
scorer primes them; the kernel prepares the landmarks before the timed
rows.

Each pair runs the baseline and the current engine once, alternating
which runs first, and checks that both return bit-identical rows.  The
file holds both sides' counts per row — values put into the store,
segment files written and their bytes, kernel evaluations — which repeat
from run to run, and the mean, p50 and p97 of the row latency over every
row of every pair, in ms, with their ratio (before over after), the median
of the per-pair p50 ratios and the pairs the current engine won on p50.
Store writes fsync, so milliseconds depend on the disk and the machine's
load: compare the ratios, not absolute milliseconds across machines.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from workloads import NeverSeen  # noqa: E402

from repro.core import engine, pairstore  # noqa: E402
from repro.core.kast import KastSpectrumKernel  # noqa: E402

LANDMARKS = 16


def load_baseline(path: str):
    spec = importlib.util.spec_from_file_location("engine_baseline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def counted_writes():
    """Count the pair store's atomic segment writes and their bytes."""
    written: List[int] = []
    write = pairstore.write_text_atomic

    def counting(path, text, *args, **kwargs):
        written.append(len(text.encode("utf-8")))
        return write(path, text, *args, **kwargs)

    pairstore.write_text_atomic = counting
    try:
        yield written
    finally:
        pairstore.write_text_atomic = write


def stream(module, landmarks, queries) -> Callable[[], Tuple[List[float], List[List[float]], Dict[str, float]]]:
    """One run: every query's landmark row through a fresh engine of *module*."""

    def run():
        kernel = KastSpectrumKernel(cut_weight=2)
        self_values = [kernel.self_value(landmark) for landmark in landmarks]
        kernel.value_row(landmarks[0], landmarks)  # prepares the landmarks
        with tempfile.TemporaryDirectory() as root:
            store = pairstore.PairStore(root)
            gram = module.GramEngine(kernel, pair_store=store)
            gram.prime_self_values(landmarks, self_values)
            puts = store.counters()["puts"]
            latencies, rows = [], []
            with counted_writes() as written:
                for query in queries:
                    start = time.perf_counter()
                    rows.append(gram.evaluate_row(query, landmarks))
                    latencies.append((time.perf_counter() - start) * 1000.0)
            count = len(queries)
            counts = {
                "kernel_evals_per_row": gram.cache_info()["kernel_evals"] / count,
                "store_puts_per_row": (store.counters()["puts"] - puts) / count,
                "segment_writes_per_row": round(len(written) / count, 3),
                "bytes_written_per_row": round(sum(written) / count, 1),
            }
        return latencies, rows, counts

    return run


def percentiles(samples: List[float]) -> Dict[str, float]:
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"mean": round(statistics.fmean(samples), 3), "p50": round(cuts[49], 3), "p97": round(cuts[96], 3)}


def measure(baseline, landmarks, queries, pairs: int) -> Dict[str, object]:
    runs = {"before": stream(baseline, landmarks, queries), "after": stream(engine, landmarks, queries)}
    samples: Dict[str, List[float]] = {"before": [], "after": []}
    pair_p50: Dict[str, List[float]] = {"before": [], "after": []}
    counts: Dict[str, Dict[str, float]] = {}
    for index in range(pairs):
        answers = {}
        for side in ("before", "after") if index % 2 == 0 else ("after", "before"):
            latencies, answers[side], counted = runs[side]()
            samples[side].extend(latencies)
            pair_p50[side].append(percentiles(latencies)["p50"])
            assert counts.setdefault(side, counted) == counted, "write counts must repeat exactly"
        assert answers["before"] == answers["after"], "both engines must return bit-identical rows"
    before, after = percentiles(samples["before"]), percentiles(samples["after"])
    return {
        "landmarks": len(landmarks),
        "rows": len(queries),
        "pairs": pairs,
        "counts": counts,
        "row_ms": {"before": before, "after": after},
        "ratio_before_over_after": {name: round(before[name] / after[name], 3) for name in before},
        "median_pair_p50_ratio": round(statistics.median(b / a for b, a in zip(pair_p50["before"], pair_p50["after"])), 3),
        "after_wins_p50": sum(b > a for b, a in zip(pair_p50["before"], pair_p50["after"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="path to the engine.py to compare against")
    parser.add_argument("--baseline-label", help="what the baseline is, for the report (default: its file name)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=int, default=200)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--output", default=os.path.join(HERE, "BENCH_classify.json"))
    args = parser.parse_args(argv)
    baseline = load_baseline(args.baseline)
    strings = NeverSeen(args.seed).take(LANDMARKS + args.rows)
    row = measure(baseline, strings[:LANDMARKS], strings[LANDMARKS:], args.pairs)
    counts, row_ms = row["counts"], row["row_ms"]
    print(
        f"{row['rows']} rows x {row['landmarks']} landmarks: puts/row "
        f"{counts['before']['store_puts_per_row']:.2f} -> {counts['after']['store_puts_per_row']:.2f}, "
        f"segment writes/row {counts['before']['segment_writes_per_row']:.2f} -> "
        f"{counts['after']['segment_writes_per_row']:.2f}, "
        f"p50 {row_ms['before']['p50']:.3f} -> {row_ms['after']['p50']:.3f} ms, "
        f"p97 {row_ms['before']['p97']:.3f} -> {row_ms['after']['p97']:.3f} ms "
        f"({row['after_wins_p50']}/{row['pairs']} pairs)"
    )
    report = {
        "benchmark": "GramEngine.evaluate_row with a PairStore attached, before/after, in process",
        "baseline": args.baseline_label or os.path.basename(args.baseline),
        "seed": args.seed,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "rows": [row],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
