"""E3 / Figure 7 — single-linkage hierarchical clustering of the Kast kernel matrix.

Paper claim (section 4.2): with byte information and a small cut weight,
"both learning algorithms clearly separated the same 3 clusters": Flash I/O
(A) and Random POSIX I/O (B) each on their own, Normal I/O and Random Access
I/O (C-D) merged, and "there were not misplaced examples on any of the groups".

The benchmark times the full kernel matrix + clustering on the 110-example
corpus, prints the cluster composition and the dendrogram summary, and
asserts the exact three-group partition.
"""

from __future__ import annotations

from repro.learn.metrics import adjusted_rand_index, purity
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import AnalysisPipeline
from repro.pipeline.report import cluster_report
from repro.viz.dendro import cluster_tree_summary

CUT_WEIGHT = 2


def test_bench_fig7_hclust_kast(benchmark, strings_with_bytes):
    config = ExperimentConfig(
        spec=experiment_spec("kast", cut_weight=CUT_WEIGHT), n_clusters=3, linkage="single"
    )
    pipeline = AnalysisPipeline(config)

    result = benchmark.pedantic(lambda: pipeline.run_on_strings(strings_with_bytes), rounds=1, iterations=1)

    labels = [label or "?" for label in result.labels]
    merged_labels = ["CD" if label in ("C", "D") else label for label in labels]

    print()
    print("E3 / Figure 7: hierarchical clustering (single linkage), Kast kernel, cut weight 2")
    print(cluster_report(result))
    print(cluster_tree_summary(result.clustering.dendrogram))
    print(f"  ARI vs 3-group target : {adjusted_rand_index(list(result.assignments), merged_labels):.3f}  (paper: perfect grouping)")
    print(f"  purity vs 4 labels    : {purity(list(result.assignments), labels):.3f}")
    print(f"  misplaced examples    : {result.misplacements()}  (paper: 0)")

    # Paper shape: exactly {A}, {B}, {C u D} with no misplaced examples.
    assert result.matches_expected_partition()
    assert result.misplacements() == 0
    assert adjusted_rand_index(list(result.assignments), merged_labels) == 1.0
    sizes = sorted(sum(counts.values()) for counts in result.cluster_composition().values())
    assert sizes == [20, 40, 50]
