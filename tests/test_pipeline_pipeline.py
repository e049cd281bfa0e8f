"""Tests for the end-to-end analysis pipeline (repro.pipeline.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import PAPER_EXPECTED_PARTITION, AnalysisPipeline, run_experiment
from repro.workloads.corpus import CorpusConfig


@pytest.fixture(scope="module")
def small_result():
    config = ExperimentConfig(corpus=CorpusConfig.small(seed=7), n_clusters=3)
    return AnalysisPipeline(config).run()


class TestAnalysisPipeline:
    def test_stages_produce_consistent_sizes(self, small_result):
        count = len(small_result.labels)
        assert count == 16
        assert len(small_result.strings) == count
        assert small_result.kernel_matrix.values.shape == (count, count)
        assert small_result.kpca.embedding.shape[0] == count
        assert len(small_result.clustering.assignments) == count

    def test_metrics_present(self, small_result):
        for key in ("purity", "adjusted_rand_index", "nmi", "silhouette", "n_clusters",
                    "misplacements_vs_expected", "separation_ratio"):
            assert key in small_result.metrics

    def test_timings_recorded(self, small_result):
        for key in ("corpus_seconds", "encoding_seconds", "kernel_matrix_seconds", "kpca_seconds", "clustering_seconds"):
            assert key in small_result.timings
            assert small_result.timings[key] >= 0.0

    def test_small_corpus_reproduces_three_group_structure(self, small_result):
        assert small_result.matches_expected_partition()
        assert small_result.misplacements() == 0
        assert small_result.metrics["purity"] >= 0.7

    def test_cluster_composition_counts_sum_to_total(self, small_result):
        composition = small_result.cluster_composition()
        assert sum(sum(counts.values()) for counts in composition.values()) == len(small_result.labels)

    def test_separation_ratio_above_one_for_clean_structure(self, small_result):
        assert small_result.separation_ratio() > 1.0

    def test_expected_partition_constant(self):
        assert PAPER_EXPECTED_PARTITION == (("A",), ("B",), ("C", "D"))

    def test_kernel_matrix_is_psd_and_normalized(self, small_result):
        matrix = small_result.kernel_matrix
        assert matrix.is_positive_semidefinite()
        # The negative-eigenvalue repair perturbs the cosine-normalised
        # diagonal slightly; it must stay close to 1.
        assert np.allclose(np.diag(matrix.values), 1.0, atol=0.1)

    def test_run_on_prebuilt_traces(self, small_corpus):
        config = ExperimentConfig(n_clusters=3)
        result = AnalysisPipeline(config).run(traces=small_corpus)
        assert len(result.labels) == len(small_corpus)

    def test_run_on_strings(self, small_corpus_strings):
        config = ExperimentConfig(n_clusters=2)
        result = AnalysisPipeline(config).run_on_strings(small_corpus_strings)
        assert len(result.labels) == len(small_corpus_strings)
        assert result.metrics["n_clusters"] == 2.0

    def test_run_experiment_convenience(self):
        result = run_experiment(ExperimentConfig(corpus=CorpusConfig.small(seed=3)))
        assert result.metrics["n_clusters"] == 3.0

    def test_blended_baseline_runs_through_pipeline(self, small_corpus_strings):
        config = ExperimentConfig(spec=experiment_spec("blended"), n_clusters=2)
        result = AnalysisPipeline(config).run_on_strings(small_corpus_strings)
        assert result.metrics["n_clusters"] == 2.0
