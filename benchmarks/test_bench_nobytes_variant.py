"""E6 — the byte-free string variant (section 4.2, second half).

Paper claims for strings that ignore byte information:

* "For small cut weights only two clusters were identified: Random POSIX I/O
  (B) was the only group independently separated, while Flash I/O, Normal I/O
  and Random Access I/O (A-C-D) conformed a second group."
* Clustering quality is no better than with byte information ("the usage of
  the byte information permitted the separation between examples").
* The byte-free kernel evaluation is cheaper (shorter, more uniform strings).

The benchmark runs the byte-free sweep plus the explicit two-cluster cut at
cut weight 2 and asserts those claims.  The paper additionally reports that a
*larger* cut weight recovers three groups on its real traces; on the synthetic
corpus this sub-claim does not reproduce (see EXPERIMENTS.md), so it is
reported but not asserted.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import AnalysisPipeline
from repro.pipeline.report import summarise_sweep
from repro.pipeline.sweep import PAPER_CUT_WEIGHTS, cut_weight_sweep

CUT_WEIGHT = 2


def test_bench_nobytes_variant(benchmark, strings_with_bytes, strings_without_bytes):
    config = ExperimentConfig(
        spec=experiment_spec("kast"), use_byte_information=False, n_clusters=3, linkage="single"
    )

    sweep = benchmark.pedantic(
        lambda: cut_weight_sweep(config, cut_weights=PAPER_CUT_WEIGHTS, strings=strings_without_bytes),
        rounds=1,
        iterations=1,
    )

    print()
    print(summarise_sweep(sweep, title="E6: Kast kernel cut-weight sweep (byte information ignored)"))

    # Claim 1: at a small cut weight, the 2-cluster structure is {B} vs {A, C, D}.
    two_cluster = AnalysisPipeline(
        ExperimentConfig(
            spec=experiment_spec("kast", cut_weight=CUT_WEIGHT), use_byte_information=False, n_clusters=2
        )
    ).run_on_strings(strings_without_bytes)
    composition = {frozenset(counts) for counts in two_cluster.cluster_composition().values()}
    print(f"  2-cluster composition at cut weight 2: "
          f"{[dict(c) for c in two_cluster.cluster_composition().values()]}")
    assert frozenset({"B"}) in composition
    assert frozenset({"A", "C", "D"}) in composition

    # Claim 2: never better than the byte-carrying variant at the same cut weight.
    with_bytes = AnalysisPipeline(
        ExperimentConfig(spec=experiment_spec("kast", cut_weight=CUT_WEIGHT), n_clusters=3)
    ).run_on_strings(strings_with_bytes)
    nobytes_ari = sweep.points[0].metrics["adjusted_rand_index"]
    print(f"  ARI at cut weight 2: bytes={with_bytes.metrics['adjusted_rand_index']:.3f} "
          f"no-bytes={nobytes_ari:.3f}")
    assert with_bytes.metrics["adjusted_rand_index"] >= nobytes_ari

    # Claim 3: the byte-free kernel evaluations are cheaper.
    bytes_sweep = cut_weight_sweep(
        ExperimentConfig(spec=experiment_spec("kast"), n_clusters=3),
        cut_weights=(2,),
        strings=strings_with_bytes,
    )
    print(f"  kernel seconds at cut weight 2: bytes={bytes_sweep.points[0].kernel_seconds:.2f} "
          f"no-bytes={sweep.points[0].kernel_seconds:.2f}")
    assert sweep.points[0].kernel_seconds < bytes_sweep.points[0].kernel_seconds

    # Reported but not asserted: whether a larger cut weight recovers 3 groups.
    recovered = [point.cut_weight for point in sweep.points if point.metrics["misplacements_vs_expected"] == 0]
    print(f"  cut weights recovering the 3-group partition without bytes: {recovered or 'none'} "
          "(paper: achieved at larger cut weights on the real traces)")
