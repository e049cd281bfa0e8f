#!/usr/bin/env python
"""Run the E10 scaling benchmarks and record a perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--output benchmarks/BENCH_scaling.json]
                                                  [--repeats 3] [--quick]

Measures, with the paper's 110-example corpus:

* **E10a** — single Kast pair evaluation (milliseconds) vs string length,
  for both candidate-search backends;
* **E10b** — full Gram-matrix construction (seconds) vs corpus size,
  through the :class:`~repro.core.engine.GramEngine` (numpy backend) and
  through the pure-Python serial reference backend;
* **E10d** — distributed worker scaling: one cold `distributed=True`
  sharded matrix job drained by 1 vs 2 external ``repro-iokast worker``
  processes (fresh state dir and workers per point, so caches are cold
  and the wall clock measures real block execution);
* **E10g** — streaming classify: per-request latency vs corpus size,
  full Gram vs an m-landmark model.

The service's per-request overhead and its result-cache and pair-store
replays are measured by the service benchmark (``perfbench/``), whose
self-test asserts the layer that answers each replay.

The result is written as JSON so future PRs can diff their numbers against
the recorded trajectory (see ``benchmarks/README.md``).  Timings are the
median over ``--repeats`` runs to damp scheduler noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import time
from typing import Callable, Dict, List

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.experiments import DEFAULT_SEED, paper_strings
from repro.strings.tokens import Token, WeightedString

PAIR_LENGTHS = (16, 32, 64, 128, 256)
CORPUS_SIZES = (20, 40, 80, 110)


def synthetic_string(length: int, seed: int, alphabet_size: int = 12) -> WeightedString:
    rng = random.Random(seed)
    tokens = [
        Token(f"op{rng.randrange(alphabet_size)}[{rng.choice((0, 512, 4096))}]", rng.randint(1, 40))
        for _ in range(length)
    ]
    return WeightedString(tokens, name=f"synthetic_{length}_{seed}")


def median_seconds(action: Callable[[], None], repeats: int) -> float:
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_pair_eval(repeats: int, lengths=PAIR_LENGTHS) -> Dict[str, Dict[str, float]]:
    """E10a: single pair evaluation cost (ms) per backend and string length."""
    results: Dict[str, Dict[str, float]] = {}
    for backend in ("python", "numpy"):
        per_length: Dict[str, float] = {}
        for length in lengths:
            first = synthetic_string(length, seed=1)
            second = synthetic_string(length, seed=2)
            kernel = KastSpectrumKernel(cut_weight=2, backend=backend)
            kernel.value(first, second)  # warm the prepared-string cache
            per_length[str(length)] = median_seconds(lambda: kernel.value(first, second), repeats) * 1000.0
        results[backend] = per_length
    return results


def bench_gram(repeats: int, sizes=CORPUS_SIZES) -> Dict[str, Dict[str, float]]:
    """E10b: Gram-matrix construction cost (s) per backend and corpus size."""
    strings = list(paper_strings(DEFAULT_SEED, True))
    results: Dict[str, Dict[str, float]] = {}
    for backend in ("python", "numpy"):
        per_size: Dict[str, float] = {}
        for size in sizes:
            subset = strings[:size]

            def build() -> None:
                kernel = KastSpectrumKernel(cut_weight=2, backend=backend)
                GramEngine(kernel).compute(subset, repair=False)

            per_size[str(size)] = median_seconds(build, repeats)
        results[backend] = per_size
    return results


def bench_distributed_workers(
    corpus_size: int = 40, shards: int = 4, worker_counts=(1, 2)
) -> Dict[str, object]:
    """E10d: wall clock of one cold distributed matrix job per worker count.

    The server runs with ``inline_blocks=False`` so every block task is
    executed by the external worker processes; each point uses a fresh
    state dir and fresh workers (cold kernel caches), so the measured time
    is block execution plus coordination — the honest scaling number for
    this machine (on a single hardware thread, 2 workers buy nothing).
    """
    import os
    import subprocess
    import sys
    import tempfile

    from repro.api import make_spec
    from repro.service import AnalysisServer, ServiceClient

    spec = make_spec("kast", cut_weight=2)
    strings = list(paper_strings(DEFAULT_SEED, True))[:corpus_size]
    wall_seconds: Dict[str, float] = {}
    for count in worker_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as state_dir:
            server = AnalysisServer(state_dir=state_dir, inline_blocks=False)
            workers: List[subprocess.Popen] = []
            try:
                host, port = server.start_http()
                command = [
                    sys.executable, "-m", "repro", "worker",
                    "--state-dir", state_dir,
                    "--idle-exit", "3",
                ]
                for _ in range(count):
                    workers.append(
                        subprocess.Popen(
                            command,
                            env=dict(os.environ),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                        )
                    )
                time.sleep(2.0)  # let the workers finish importing and start polling
                with ServiceClient(f"http://{host}:{port}") as client:
                    start = time.perf_counter()
                    client.matrix(spec, strings, shards=shards, distributed=True, timeout=600)
                    wall_seconds[str(count)] = time.perf_counter() - start
            finally:
                for worker in workers:
                    try:
                        worker.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        worker.kill()
                server.close()
    return {
        "corpus_size": float(corpus_size),
        "shards": float(shards),
        "wall_seconds": wall_seconds,
    }


def bench_streaming_classify(
    sizes=(50, 110, 200), landmarks: int = 16, queries: int = 4, token_length: int = 24
) -> Dict[str, object]:
    """E10g: per-request classify latency vs corpus size, batch vs streaming.

    The *full-Gram* path answers an arriving trace the only way the batch
    pipeline can: evaluate the Gram covering corpus + query with a cold
    session and read the query row off the matrix — O(n²) kernel work per
    request, so latency grows superlinearly with corpus size.  The
    *streaming* path fits an m-landmark model once (the one O(n²) cost,
    reported separately and amortised over every request) and then serves
    each novel trace through a :class:`StreamingScorer` in exactly ``m``
    kernel evaluations — per-request latency independent of n.
    """
    from repro.api import AnalysisSession, make_spec

    spec = make_spec("kast", cut_weight=2)
    full_seconds: Dict[str, float] = {}
    fit_seconds: Dict[str, float] = {}
    stream_seconds: Dict[str, float] = {}
    stream_evals: Dict[str, float] = {}
    for size in sizes:
        corpus = [
            synthetic_string(token_length, seed=index).with_label(f"class-{index % 4}")
            for index in range(size)
        ]
        query_strings = [
            synthetic_string(token_length, seed=100_000 + index) for index in range(queries)
        ]

        # Full path, one shot (it is the expensive side): cold Gram over
        # corpus + query, nearest-centroid read-off from the query row.
        start = time.perf_counter()
        with AnalysisSession() as session:
            matrix = session.matrix(spec, [*corpus, query_strings[0]], repair=False)
            row = matrix.values[-1][:-1]
            totals: Dict[str, float] = {}
            counts: Dict[str, int] = {}
            for value, string in zip(row, corpus):
                totals[string.label] = totals.get(string.label, 0.0) + float(value)
                counts[string.label] = counts.get(string.label, 0) + 1
            max(totals, key=lambda label: totals[label] / counts[label])
        full_seconds[str(size)] = time.perf_counter() - start

        # Streaming path: fit once, then serve novel traces from a fresh
        # session (cold engine, so every request honestly pays its m evals).
        with AnalysisSession() as fit_session:
            start = time.perf_counter()
            model, _ = fit_session.fit_landmark_model(
                spec, corpus, name=f"bench-{size}", landmarks=landmarks
            )
            fit_seconds[str(size)] = time.perf_counter() - start
        with AnalysisSession() as serve_session:
            scorer = serve_session.streaming_scorer(model)
            engine = scorer.engine
            evals_before = engine.cache_info()["kernel_evals"]
            per_request: List[float] = []
            for query in query_strings:
                start = time.perf_counter()
                scorer.classify(query)
                per_request.append(time.perf_counter() - start)
            evals = engine.cache_info()["kernel_evals"] - evals_before
            stream_seconds[str(size)] = statistics.median(per_request)
            stream_evals[str(size)] = evals / len(query_strings)

    return {
        "landmarks": float(landmarks),
        "queries_per_size": float(queries),
        "full_request_seconds": full_seconds,
        "fit_once_seconds": fit_seconds,
        "stream_request_seconds": stream_seconds,
        "stream_kernel_evals_per_request": stream_evals,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="benchmarks/BENCH_scaling.json", help="where to write the JSON report")
    parser.add_argument("--repeats", type=int, default=3, help="runs per measurement (median is recorded)")
    parser.add_argument("--quick", action="store_true", help="smaller grids for a fast smoke run")
    args = parser.parse_args()

    pair_lengths = (16, 64) if args.quick else PAIR_LENGTHS
    corpus_sizes = (20, 40) if args.quick else CORPUS_SIZES

    # Per-phase wall clock through the same registry the service exports:
    # the report gains a phase_seconds breakdown for free, and the bench
    # doubles as a smoke test of the obs instrument API.
    registry = MetricsRegistry()

    def phase_timer(phase: str):
        return registry.histogram(
            "repro_bench_phase_seconds", "Wall clock of one benchmark phase.", phase=phase
        ).time()

    print("E10a: single Kast pair evaluation (ms)")
    with phase_timer("E10a"):
        pair_eval = bench_pair_eval(args.repeats, pair_lengths)
    for backend, series in pair_eval.items():
        row = "  ".join(f"{length}tok={value:7.2f}" for length, value in series.items())
        print(f"  {backend:>7}: {row}")

    print("E10b: Gram-matrix construction (s)")
    with phase_timer("E10b"):
        gram = bench_gram(args.repeats, corpus_sizes)
    for backend, series in gram.items():
        row = "  ".join(f"n={size}:{value:6.2f}" for size, value in series.items())
        print(f"  {backend:>7}: {row}")

    largest = str(corpus_sizes[-1])
    speedup = gram["python"][largest] / gram["numpy"][largest] if gram["numpy"][largest] > 0 else float("inf")
    print(f"numpy engine vs python serial on the {largest}-example Gram: {speedup:.2f}x")

    print("E10d: distributed matrix wall clock, 1 vs 2 worker processes (s)")
    with phase_timer("E10d"):
        distributed = bench_distributed_workers(corpus_size=20 if args.quick else 40)
    for count, seconds in distributed["wall_seconds"].items():
        print(f"  {count} worker(s): {seconds:.2f}s")

    print("E10g: per-request classify latency, full Gram vs m-landmark streaming (s)")
    with phase_timer("E10g"):
        streaming = bench_streaming_classify(
            sizes=(20, 50) if args.quick else (50, 110, 200),
            landmarks=8 if args.quick else 16,
        )
    for size, full in streaming["full_request_seconds"].items():
        print(
            f"  n={size:>3}: full={full:7.2f}s  "
            f"stream={streaming['stream_request_seconds'][size]:.4f}s  "
            f"(fit once: {streaming['fit_once_seconds'][size]:.2f}s, "
            f"{streaming['stream_kernel_evals_per_request'][size]:.0f} evals/request)"
        )

    phase_seconds = {
        sample["labels"]["phase"]: sample["sum"]
        for family in registry.snapshot()
        if family["name"] == "repro_bench_phase_seconds"
        for sample in family["samples"]
    }
    print("phase breakdown (s)")
    for phase, seconds in sorted(phase_seconds.items()):
        print(f"  {phase}: {seconds:7.2f}")

    report = {
        "benchmark": "E10 scaling",
        "repeats": args.repeats,
        "phase_seconds": phase_seconds,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "pair_eval_ms": pair_eval,
        "gram_seconds": gram,
        "gram_speedup_numpy_vs_python": speedup,
        "distributed_workers": distributed,
        "streaming_classify": streaming,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
