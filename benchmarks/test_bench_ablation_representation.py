"""E9 — ablation of the representation choices (ours, motivated by DESIGN.md).

The paper motivates three representation ingredients without isolating them:
the tree compaction step, the ``[LEVEL_UP]`` structure token and the
maximality (independent-occurrence) rule of the kernel.  This benchmark turns
each one off in turn on the full corpus and reports the clustering quality,
so the contribution of every ingredient is visible.  The assertions only pin
down the headline configuration (everything on) and require the ablated
variants not to beat it — the paper makes no quantitative claim about them.
"""

from __future__ import annotations

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.learn.hierarchical import HierarchicalClustering
from repro.learn.metrics import adjusted_rand_index
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.experiments import DEFAULT_SEED, paper_corpus
from repro.pipeline.pipeline import AnalysisPipeline
from repro.tree.compaction import CompactionConfig


def _ari(result) -> float:
    labels = [label or "?" for label in result.labels]
    merged = ["CD" if label in ("C", "D") else label for label in labels]
    return adjusted_rand_index(list(result.assignments), merged)


def _run_variant(corpus, compaction=None, emit_level_up=True) -> float:
    config = ExperimentConfig(
        spec=experiment_spec("kast", cut_weight=2),
        n_clusters=3,
        compaction=compaction or CompactionConfig.paper(),
        emit_level_up=emit_level_up,
    )
    result = AnalysisPipeline(config).run(traces=corpus)
    return _ari(result)


def _run_no_independence(strings) -> float:
    kernel = KastSpectrumKernel(cut_weight=2, require_independent_occurrence=False)
    matrix = GramEngine(kernel).compute(strings)
    clustering = HierarchicalClustering("single").fit_predict(matrix, n_clusters=3)
    labels = [label or "?" for label in matrix.labels]
    merged = ["CD" if label in ("C", "D") else label for label in labels]
    return adjusted_rand_index(list(clustering.assignments), merged)


def test_bench_ablation_representation(benchmark, strings_with_bytes):
    corpus = list(paper_corpus(DEFAULT_SEED))

    full_ari = benchmark.pedantic(lambda: _run_variant(corpus), rounds=1, iterations=1)

    no_compaction_ari = _run_variant(corpus, compaction=CompactionConfig.disabled())
    single_pass_ari = _run_variant(corpus, compaction=CompactionConfig(passes=1))
    fixpoint_ari = _run_variant(corpus, compaction=CompactionConfig(until_fixpoint=True))
    no_level_up_ari = _run_variant(corpus, emit_level_up=False)
    no_independence_ari = _run_no_independence(strings_with_bytes)

    print()
    print("E9: representation/kernel ablations (ARI vs the 3-group target, cut weight 2)")
    print(f"  full representation (paper)        : {full_ari:.3f}")
    print(f"  compaction disabled                : {no_compaction_ari:.3f}")
    print(f"  compaction: single pass            : {single_pass_ari:.3f}")
    print(f"  compaction: until fixpoint         : {fixpoint_ari:.3f}")
    print(f"  [LEVEL_UP] tokens disabled         : {no_level_up_ari:.3f}")
    print(f"  maximality rule disabled           : {no_independence_ari:.3f}")

    assert full_ari == 1.0
    for variant_ari in (no_compaction_ari, single_pass_ari, fixpoint_ari, no_level_up_ari, no_independence_ari):
        assert variant_ari <= full_ari + 1e-9
