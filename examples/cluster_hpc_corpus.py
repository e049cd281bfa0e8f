"""Reproduce the paper's clustering experiment on the synthetic HPC corpus.

This is the example behind Figures 6 and 7 of the paper: build the
110-example corpus (four I/O categories, each original expanded with mutated
copies), compute the Kast Spectrum Kernel matrix, and analyse it with Kernel
PCA and single-linkage hierarchical clustering.

Run with::

    python examples/cluster_hpc_corpus.py            # full 110-example corpus
    python examples/cluster_hpc_corpus.py --small    # reduced corpus (fast)
"""

from __future__ import annotations

import argparse

from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import AnalysisPipeline
from repro.pipeline.report import summarise_result
from repro.viz.dendro import cluster_tree_summary
from repro.viz.scatter import scatter_from_kpca
from repro.workloads.corpus import CorpusConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="use the reduced 16-example corpus")
    parser.add_argument("--cut-weight", type=int, default=2, help="Kast kernel cut weight (paper: 2)")
    parser.add_argument("--seed", type=int, default=2017, help="corpus seed")
    arguments = parser.parse_args()

    corpus_config = CorpusConfig.small(seed=arguments.seed) if arguments.small else CorpusConfig.paper(seed=arguments.seed)
    config = ExperimentConfig(
        spec=experiment_spec("kast", cut_weight=arguments.cut_weight),
        n_clusters=3,
        linkage="single",
        corpus=corpus_config,
    )

    result = AnalysisPipeline(config).run()

    print(summarise_result(result, title="Kast Spectrum Kernel clustering of the I/O corpus"))
    print()
    print("Kernel PCA embedding (compare with Figure 6 of the paper):")
    print(scatter_from_kpca(result.kpca, title="  each mark is one example, labelled by its category"))
    print()
    print("Hierarchical clustering (compare with Figure 7 of the paper):")
    print(cluster_tree_summary(result.clustering.dendrogram))
    print()
    if result.matches_expected_partition():
        print("Result: the three groups {A}, {B}, {C+D} are recovered with no misplaced examples,")
        print("matching the paper's headline claim for the Kast kernel with byte information.")
    else:
        print("Result: the expected {A}, {B}, {C+D} partition was NOT recovered exactly.")
        print("Cluster composition:", result.cluster_composition())


if __name__ == "__main__":
    main()
