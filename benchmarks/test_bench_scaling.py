"""E10 — scaling of the Kast kernel evaluation (ours).

The paper notes that the kernel search cost grows as the cut weight shrinks
but gives no complexity measurements.  This benchmark measures how a single
kernel evaluation scales with string length (the dominant factor: the
candidate search is quadratic in the number of tokens) and how the full
Gram-matrix construction scales with corpus size, providing the numbers a
prospective user needs for capacity planning.
"""

from __future__ import annotations

import random
import time

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.strings.tokens import Token, WeightedString


def _synthetic_string(length: int, seed: int, alphabet_size: int = 12) -> WeightedString:
    rng = random.Random(seed)
    tokens = [
        Token(f"op{rng.randrange(alphabet_size)}[{rng.choice((0, 512, 4096))}]", rng.randint(1, 40))
        for _ in range(length)
    ]
    return WeightedString(tokens, name=f"synthetic_{length}_{seed}")


def test_bench_pairwise_scaling_with_string_length(benchmark):
    kernel = KastSpectrumKernel(cut_weight=2)
    lengths = (16, 32, 64, 128, 256)
    timings = {}
    for length in lengths:
        first = _synthetic_string(length, seed=1)
        second = _synthetic_string(length, seed=2)
        start = time.perf_counter()
        kernel.value(first, second)
        timings[length] = time.perf_counter() - start

    # The timed benchmark measures the largest size (stable measurement for
    # pytest-benchmark); the printed table shows the whole series.
    first = _synthetic_string(lengths[-1], seed=1)
    second = _synthetic_string(lengths[-1], seed=2)
    benchmark(lambda: kernel.value(first, second))

    print()
    print("E10a: single Kast kernel evaluation vs string length (tokens)")
    for length in lengths:
        print(f"  {length:5d} tokens : {timings[length] * 1000:8.2f} ms")

    # Sanity: evaluating 256-token strings stays comfortably interactive.
    assert timings[lengths[-1]] < 2.0


def test_bench_gram_matrix_scaling_with_corpus_size(benchmark, strings_with_bytes):
    kernel = KastSpectrumKernel(cut_weight=2)
    sizes = (20, 40, 80, 110)
    timings = {}
    for size in sizes:
        subset = strings_with_bytes[:size]
        start = time.perf_counter()
        GramEngine(KastSpectrumKernel(cut_weight=2)).compute(subset, repair=False)
        timings[size] = time.perf_counter() - start

    # Reference: the pure-Python serial backend on the full corpus.
    start = time.perf_counter()
    GramEngine(KastSpectrumKernel(cut_weight=2, backend="python")).compute(strings_with_bytes, repair=False)
    python_seconds = time.perf_counter() - start

    benchmark.pedantic(
        lambda: GramEngine(kernel).compute(strings_with_bytes, repair=False), rounds=1, iterations=1
    )

    print()
    print("E10b: Kast Gram-matrix construction vs corpus size (engine, numpy backend)")
    for size in sizes:
        pairs = size * (size - 1) // 2
        print(f"  {size:4d} examples ({pairs:5d} pairs) : {timings[size]:6.2f} s")
    print(f"  reference python backend, 110 examples : {python_seconds:6.2f} s")
    print(f"  engine speedup vs python serial        : {python_seconds / timings[110]:6.2f}x")
    print("  (see benchmarks/run_bench.py to record the trajectory as JSON)")

    # Quadratic-ish growth: the full corpus should cost no more than ~12x the
    # 20-example subset (a generous bound well above (110/20)^2 measurement noise
    # would need, but far below pathological blow-up).
    assert timings[110] < timings[20] * 60
    assert timings[110] < 60.0
    # The vectorised engine path must not regress behind the python reference
    # (generous noise margin: a single-core CI container throttles freely).
    assert timings[110] < python_seconds * 1.5
