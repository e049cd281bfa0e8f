"""E5 / Figure 9 — single-linkage clustering of the Blended Spectrum Kernel matrix.

Paper claim (section 4.3): the blended-spectrum dendrogram only isolates
Flash I/O (A); Random POSIX I/O, Normal I/O and Random Access I/O form a
single group.  In particular the three-cluster cut does *not* recover the
{A} / {B} / {C u D} partition that the Kast kernel produces (Figure 7).

The benchmark times the blended kernel matrix + clustering on the full corpus
and asserts both halves of that claim.
"""

from __future__ import annotations

from repro.learn.metrics import adjusted_rand_index
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import AnalysisPipeline
from repro.pipeline.report import cluster_report
from repro.viz.dendro import cluster_tree_summary

CUT_WEIGHT = 2


def test_bench_fig9_hclust_blended(benchmark, strings_with_bytes):
    config = ExperimentConfig(
        spec=experiment_spec("blended", cut_weight=CUT_WEIGHT), n_clusters=2, linkage="single"
    )
    pipeline = AnalysisPipeline(config)

    result = benchmark.pedantic(lambda: pipeline.run_on_strings(strings_with_bytes), rounds=1, iterations=1)

    print()
    print("E5 / Figure 9: hierarchical clustering (single linkage), Blended Spectrum kernel, cut weight 2")
    print(cluster_report(result))
    print(cluster_tree_summary(result.clustering.dendrogram))

    # Two-cluster structure: {A} vs {B, C, D}.
    composition = {frozenset(counts) for counts in result.cluster_composition().values()}
    assert frozenset({"A"}) in composition
    assert frozenset({"B", "C", "D"}) in composition

    # The three-cluster cut does not recover the paper's Kast partition.
    three_config = ExperimentConfig(
        spec=experiment_spec("blended", cut_weight=CUT_WEIGHT), n_clusters=3, linkage="single"
    )
    three_result = AnalysisPipeline(three_config).run_on_strings(strings_with_bytes)
    labels = [label or "?" for label in three_result.labels]
    merged = ["CD" if label in ("C", "D") else label for label in labels]
    blended_ari = adjusted_rand_index(list(three_result.assignments), merged)
    print(f"  3-cluster cut matches Kast partition: {three_result.matches_expected_partition()}  "
          f"(ARI vs 3-group target: {blended_ari:.3f})")
    assert not three_result.matches_expected_partition()
    assert blended_ari < 1.0
