"""Before/after cost of ``PairStore.put_many``, in one process.

Usage (from the repository root)::

    git show <rev>:src/repro/core/pairstore.py > /tmp/pairstore_before.py
    PYTHONPATH=src python benchmarks/bench_pairstore.py --baseline /tmp/pairstore_before.py \\
        --baseline-label <rev> --pairs 5 --output benchmarks/BENCH_pairstore.json

The baseline ``pairstore.py`` is loaded as a second module beside the
current one (both write through this tree's ``repro.core.atomicio``).  One
run is a stream of ``put_many`` calls of fresh rows into a new store in a
temporary directory, as the service writes them:

* 1,000 puts of 16 rows — a classify request's landmark row;
* 200 puts of 205 rows — a block of a sharded Gram;
* 40 puts of 820 rows — a cold 40-string Gram with its self values.

Each pair runs the baseline and the current store once per batch size,
alternating which runs first.  Every row of the file holds both sides'
counts — rows handed to ``_write_segment`` per fresh row and compactions,
which repeat exactly from run to run — and the mean, p50 and p97 of the
put latency over every put of every pair, in ms, with their ratio
(before over after), the median of the per-pair p97 ratios and the pairs
the current store won on p97.  Puts fsync, so milliseconds depend on the
disk and the machine's load: compare the ratios, not absolute
milliseconds across machines.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from repro.core import pairstore

HERE = os.path.dirname(os.path.abspath(__file__))

#: (rows per put, puts per run): classify rows, Gram blocks, cold Grams.
SHAPES = ((16, 1000), (205, 200), (820, 40))
SIGNATURE = "kast|cut_weight=2"


def load_baseline(path: str):
    spec = importlib.util.spec_from_file_location("pairstore_baseline", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def stream(module, batch: int, puts: int) -> Callable[[], Tuple[List[float], Dict[str, float]]]:
    """One run: *puts* batches of fresh rows into a new store of *module*."""
    batches = [
        {(f"{2 * row:040x}", f"{2 * row + 1:040x}"): row / 7 for row in range(put * batch, (put + 1) * batch)}
        for put in range(puts)
    ]

    def run():
        written = []
        store_class = module.PairStore
        write = store_class._write_segment

        def counting(directory, signature, values):
            written.append(len(values))
            return write(directory, signature, values)

        with tempfile.TemporaryDirectory() as root:
            store = store_class(root)
            store._write_segment = counting  # this instance only
            latencies = []
            for values in batches:
                start = time.perf_counter()
                store.put_many(SIGNATURE, values)
                latencies.append((time.perf_counter() - start) * 1000.0)
            compactions = store.counters()["compactions"]
        counts = {"rows_written_per_fresh_row": round(sum(written) / (batch * puts), 3), "compactions": compactions}
        return latencies, counts

    return run


def percentiles(samples: List[float]) -> Dict[str, float]:
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return {"mean": round(statistics.fmean(samples), 3), "p50": round(cuts[49], 3), "p97": round(cuts[96], 3)}


def measure(batch: int, puts: int, baseline, pairs: int) -> Dict[str, object]:
    runs = {"before": stream(baseline, batch, puts), "after": stream(pairstore, batch, puts)}
    samples: Dict[str, List[float]] = {"before": [], "after": []}
    pair_p97: Dict[str, List[float]] = {"before": [], "after": []}
    counts: Dict[str, Dict[str, float]] = {}
    for index in range(pairs):
        for side in ("before", "after") if index % 2 == 0 else ("after", "before"):
            latencies, counted = runs[side]()
            samples[side].extend(latencies)
            pair_p97[side].append(percentiles(latencies)["p97"])
            assert counts.setdefault(side, counted) == counted, "write counts must repeat exactly"
    before, after = percentiles(samples["before"]), percentiles(samples["after"])
    return {
        "batch_rows": batch,
        "puts": puts,
        "pairs": pairs,
        "counts": counts,
        "put_ms": {"before": before, "after": after},
        "ratio_before_over_after": {name: round(before[name] / after[name], 3) for name in before},
        "median_pair_p97_ratio": round(statistics.median(b / a for b, a in zip(pair_p97["before"], pair_p97["after"])), 3),
        "after_wins_p97": sum(b > a for b, a in zip(pair_p97["before"], pair_p97["after"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="path to the pairstore.py to compare against")
    parser.add_argument("--baseline-label", help="what the baseline is, for the report (default: its file name)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--output", default=os.path.join(HERE, "BENCH_pairstore.json"))
    args = parser.parse_args(argv)
    baseline = load_baseline(args.baseline)
    rows = [measure(batch, puts, baseline, args.pairs) for batch, puts in SHAPES]
    for row in rows:
        counts, put_ms = row["counts"], row["put_ms"]
        print(
            f"{row['batch_rows']:>4} rows x {row['puts']:>4}: written/fresh "
            f"{counts['before']['rows_written_per_fresh_row']:6.2f} -> {counts['after']['rows_written_per_fresh_row']:6.2f}, "
            f"mean {put_ms['before']['mean']:7.3f} -> {put_ms['after']['mean']:7.3f} ms, "
            f"p50 {put_ms['before']['p50']:7.3f} -> {put_ms['after']['p50']:7.3f} ms, "
            f"p97 {put_ms['before']['p97']:7.3f} -> {put_ms['after']['p97']:7.3f} ms "
            f"({row['after_wins_p97']}/{row['pairs']} pairs)"
        )
    report = {
        "benchmark": "PairStore.put_many before/after, in process",
        "baseline": args.baseline_label or os.path.basename(args.baseline),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
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
