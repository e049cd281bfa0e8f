"""End-to-end analysis pipeline: traces → strings → kernel matrix → analysis.

This is the orchestration layer every experiment, example and benchmark goes
through.  Given an :class:`~repro.pipeline.config.ExperimentConfig` it

1. builds (or accepts) a labelled trace corpus;
2. converts every trace to a weighted string (with or without byte
   information, with the configured compaction);
3. computes the normalised kernel matrix of the configured kernel spec
   through an :class:`~repro.api.session.AnalysisSession` and repairs
   negative eigenvalues;
4. runs Kernel PCA and hierarchical clustering on the matrix;
5. evaluates the clustering against the ground-truth labels and against the
   expected label partition (``{A} {B} {C, D}`` for the paper's main result).

The returned :class:`AnalysisResult` carries every intermediate artefact so
callers can inspect embeddings, dendrograms or individual similarities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import AnalysisSession
from repro.core.matrix import KernelMatrix
from repro.learn.hierarchical import ClusteringResult, HierarchicalClustering
from repro.learn.kpca import KernelPCA, KernelPCAResult
from repro.learn.metrics import (
    adjusted_rand_index,
    cluster_label_composition,
    clusters_exactly_match_partition,
    misplacement_count,
    normalized_mutual_information,
    purity,
    silhouette_from_distances,
)
from repro.pipeline.config import ExperimentConfig
from repro.strings.encoder import StringEncoder
from repro.strings.tokens import WeightedString
from repro.traces.model import IOTrace
from repro.workloads.corpus import build_corpus

__all__ = ["AnalysisResult", "AnalysisPipeline", "run_experiment", "PAPER_EXPECTED_PARTITION"]

#: The grouping the paper reports for the Kast kernel with byte information:
#: categories A and B separate on their own while C and D form one cluster.
PAPER_EXPECTED_PARTITION: Tuple[Tuple[str, ...], ...] = (("A",), ("B",), ("C", "D"))


@dataclass
class AnalysisResult:
    """Everything produced by one end-to-end experiment run."""

    config: ExperimentConfig
    strings: List[WeightedString]
    kernel_matrix: KernelMatrix
    kpca: KernelPCAResult
    clustering: ClusteringResult
    labels: Tuple[Optional[str], ...]
    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def assignments(self) -> Tuple[int, ...]:
        """Flat cluster assignments."""
        return self.clustering.assignments

    def cluster_composition(self) -> Dict[int, Dict[str, int]]:
        """Label composition of every cluster."""
        return cluster_label_composition(self.assignments, list(self.labels))

    def matches_expected_partition(
        self, expected: Sequence[Sequence[str]] = PAPER_EXPECTED_PARTITION
    ) -> bool:
        """Whether the flat clustering equals the expected label partition exactly."""
        return clusters_exactly_match_partition(self.assignments, list(self.labels), expected)

    def misplacements(self, expected: Sequence[Sequence[str]] = PAPER_EXPECTED_PARTITION) -> int:
        """Number of examples placed outside their expected group's cluster."""
        return misplacement_count(self.assignments, list(self.labels), expected)

    def separation_ratio(self) -> float:
        """How cleanly the retained clusters separate in the dendrogram.

        Ratio between the smallest merge height *undone* by the flat cut and
        the largest merge height *kept*.  Values well above 1 mean the chosen
        number of clusters corresponds to a clear gap in the dendrogram; a
        value near 1 means the cut is arbitrary (the paper's observation for
        the weaker kernels).
        """
        dendrogram = self.clustering.dendrogram
        heights = dendrogram.heights()
        if not heights:
            return 1.0
        kept = self.config.n_clusters
        boundary = len(heights) - (kept - 1)
        kept_heights = heights[:boundary]
        undone_heights = heights[boundary:]
        if not undone_heights:
            return 1.0
        largest_kept = max(kept_heights) if kept_heights else 0.0
        smallest_undone = min(undone_heights)
        if largest_kept <= 0.0:
            return float("inf") if smallest_undone > 0 else 1.0
        return smallest_undone / largest_kept


class AnalysisPipeline:
    """Run the full trace-comparison pipeline for one configuration.

    Parameters
    ----------
    config:
        The experiment configuration (defaults to the paper's main setting).
    session:
        The :class:`~repro.api.session.AnalysisSession` whose warm engine
        for the configuration's kernel spec computes every matrix (shared
        pair caches, shared token interner, the session's result cache).
        Defaults to a fresh session owned by this pipeline.
        :meth:`AnalysisSession.analyze` passes itself.
    """

    def __init__(
        self, config: Optional[ExperimentConfig] = None, session: Optional[AnalysisSession] = None
    ) -> None:
        self.config = config or ExperimentConfig()
        self.session = session if session is not None else AnalysisSession()

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def build_traces(self) -> List[IOTrace]:
        """Build the labelled trace corpus configured for this experiment."""
        return build_corpus(self.config.corpus)

    def encode(self, traces: Sequence[IOTrace]) -> List[WeightedString]:
        """Convert traces to weighted strings using the configured representation."""
        encoder = StringEncoder(
            emit_level_up=self.config.emit_level_up,
            include_bytes_in_literal=self.config.use_byte_information,
            use_byte_information=self.config.use_byte_information,
            compaction=self.config.compaction,
        )
        return encoder.encode_corpus(list(traces))

    def compute_matrix(self, strings: Sequence[WeightedString]) -> KernelMatrix:
        """The normalised, PSD-repaired kernel matrix from the session's engine."""
        return self.session.matrix(self.config.spec, list(strings), normalized=True, repair=True)

    def analyse_matrix(
        self,
        matrix: KernelMatrix,
        strings: Sequence[WeightedString],
        timings: Optional[Dict[str, float]] = None,
    ) -> AnalysisResult:
        """Run Kernel PCA + clustering + metrics on an existing kernel matrix."""
        timings = dict(timings or {})

        start = time.perf_counter()
        kpca = KernelPCA(n_components=self.config.n_components).fit(matrix)
        timings["kpca_seconds"] = time.perf_counter() - start

        start = time.perf_counter()
        clustering = HierarchicalClustering(linkage=self.config.linkage).fit_predict(
            matrix, n_clusters=self.config.n_clusters
        )
        timings["clustering_seconds"] = time.perf_counter() - start

        labels = matrix.labels
        label_list = [label if label is not None else "?" for label in labels]
        assignments = list(clustering.assignments)
        distances = matrix.to_distance_matrix()
        metrics = {
            "purity": purity(assignments, label_list),
            "adjusted_rand_index": adjusted_rand_index(assignments, label_list),
            "nmi": normalized_mutual_information(assignments, label_list),
            "silhouette": silhouette_from_distances(distances, assignments),
            "n_clusters": float(max(assignments) + 1 if assignments else 0),
        }
        result = AnalysisResult(
            config=self.config,
            strings=list(strings),
            kernel_matrix=matrix,
            kpca=kpca,
            clustering=clustering,
            labels=labels,
            metrics=metrics,
            timings=timings,
        )
        metrics["misplacements_vs_expected"] = float(result.misplacements())
        metrics["separation_ratio"] = result.separation_ratio()
        return result

    # ------------------------------------------------------------------
    # One-call entry points
    # ------------------------------------------------------------------
    def run(self, traces: Optional[Sequence[IOTrace]] = None) -> AnalysisResult:
        """Run the full pipeline; builds the corpus unless *traces* is given."""
        timings: Dict[str, float] = {}

        start = time.perf_counter()
        trace_list = list(traces) if traces is not None else self.build_traces()
        timings["corpus_seconds"] = time.perf_counter() - start

        start = time.perf_counter()
        strings = self.encode(trace_list)
        timings["encoding_seconds"] = time.perf_counter() - start

        start = time.perf_counter()
        matrix = self.compute_matrix(strings)
        timings["kernel_matrix_seconds"] = time.perf_counter() - start

        return self.analyse_matrix(matrix, strings, timings)

    def run_on_strings(self, strings: Sequence[WeightedString]) -> AnalysisResult:
        """Run the matrix + analysis stages on pre-encoded strings."""
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        matrix = self.compute_matrix(strings)
        timings["kernel_matrix_seconds"] = time.perf_counter() - start
        return self.analyse_matrix(matrix, strings, timings)


def run_experiment(config: Optional[ExperimentConfig] = None, traces: Optional[Sequence[IOTrace]] = None) -> AnalysisResult:
    """Convenience wrapper: build a pipeline for *config* and run it."""
    return AnalysisPipeline(config).run(traces)
