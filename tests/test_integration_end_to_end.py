"""End-to-end integration tests across all subsystems.

These tests follow the full path a user of the library would take: generate
traces, write them to disk, parse them back, convert to weighted strings,
compare with several kernels, analyse with Kernel PCA / clustering and check
the cluster structure — i.e. the complete reproduction pipeline, but on a
reduced corpus so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.learn.hierarchical import HierarchicalClustering
from repro.learn.kkmeans import KernelKMeans
from repro.learn.kpca import KernelPCA
from repro.learn.metrics import adjusted_rand_index, clusters_exactly_match_partition
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline
from repro.strings.encoder import trace_to_string
from repro.traces.parser import parse_trace_file
from repro.traces.writer import write_trace
from repro.workloads.corpus import CorpusConfig, build_corpus

EXPECTED_PARTITION = [["A"], ["B"], ["C", "D"]]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(originals_per_class={"A": 3, "B": 3, "C": 3, "D": 3}, copies_per_original=2, seed=99))


class TestDiskRoundTripPipeline:
    def test_full_pipeline_through_files(self, tmp_path, corpus):
        # 1. write every trace to disk, 2. parse back, 3. encode, 4. cluster.
        paths = []
        for trace in corpus:
            path = tmp_path / f"{trace.name}.trace"
            write_trace(trace, path)
            paths.append((path, trace.label))
        parsed = [parse_trace_file(path, label=label) for path, label in paths]
        strings = [trace_to_string(trace) for trace in parsed]
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings)
        clustering = HierarchicalClustering("single").fit_predict(matrix, n_clusters=3)
        labels = [label for _, label in paths]
        assert clusters_exactly_match_partition(list(clustering.assignments), labels, EXPECTED_PARTITION)


class TestKernelComparison:
    def test_kast_beats_blended_on_three_group_target(self, corpus):
        strings = [trace_to_string(trace) for trace in corpus]
        labels = ["CD" if trace.label in ("C", "D") else trace.label for trace in corpus]

        kast_matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings)
        blended = BlendedSpectrumKernel(max_length=3, weighted=False, min_weight=2)
        blended_matrix = GramEngine(blended).compute(strings)

        kast_ari = adjusted_rand_index(
            list(HierarchicalClustering("single").fit_predict(kast_matrix, 3).assignments), labels
        )
        blended_ari = adjusted_rand_index(
            list(HierarchicalClustering("single").fit_predict(blended_matrix, 3).assignments), labels
        )
        assert kast_ari == 1.0
        assert kast_ari >= blended_ari

    def test_three_readers_agree_on_kast_matrix(self, corpus):
        strings = [trace_to_string(trace) for trace in corpus]
        labels = ["CD" if trace.label in ("C", "D") else trace.label for trace in corpus]
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings)

        hierarchical = HierarchicalClustering("single").fit_predict(matrix, 3)
        kmeans = KernelKMeans(n_clusters=3, seed=5, n_restarts=10).fit_predict(matrix)
        assert adjusted_rand_index(list(hierarchical.assignments), labels) == 1.0
        assert adjusted_rand_index(list(kmeans.assignments), labels) > 0.7

    def test_kpca_separates_flash_io_on_first_components(self, corpus):
        strings = [trace_to_string(trace) for trace in corpus]
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings)
        embedding = KernelPCA(n_components=2).fit(matrix).embedding
        labels = np.array([trace.label for trace in corpus])
        centroid_a = embedding[labels == "A"].mean(axis=0)
        centroid_rest = embedding[labels != "A"].mean(axis=0)
        spread_a = np.linalg.norm(embedding[labels == "A"] - centroid_a, axis=1).mean()
        assert np.linalg.norm(centroid_a - centroid_rest) > spread_a


class TestByteInformationContrast:
    def test_byte_free_strings_lose_the_a_versus_cd_separation(self, corpus):
        config_bytes = ExperimentConfig(n_clusters=3)
        config_nobytes = ExperimentConfig(n_clusters=3, use_byte_information=False)
        with_bytes = AnalysisPipeline(config_bytes).run(traces=corpus)
        without_bytes = AnalysisPipeline(config_nobytes).run(traces=corpus)
        assert with_bytes.matches_expected_partition()
        assert with_bytes.metrics["adjusted_rand_index"] >= without_bytes.metrics["adjusted_rand_index"]

    def test_byte_free_strings_still_separate_random_posix(self, corpus):
        config = ExperimentConfig(n_clusters=2, use_byte_information=False)
        result = AnalysisPipeline(config).run(traces=corpus)
        composition = result.cluster_composition()
        assert any(set(counts) == {"B"} for counts in composition.values())
