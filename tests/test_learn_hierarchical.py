"""Tests for hierarchical clustering (repro.learn.hierarchical)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.cluster import hierarchy as scipy_hierarchy
from scipy.spatial.distance import squareform

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.learn.hierarchical import HierarchicalClustering, cluster_kernel_matrix


def three_blob_distances() -> np.ndarray:
    """Distance matrix with three obvious groups of sizes 3, 3, 2."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack(
        [
            centers[0] + rng.normal(scale=0.2, size=(3, 2)),
            centers[1] + rng.normal(scale=0.2, size=(3, 2)),
            centers[2] + rng.normal(scale=0.2, size=(2, 2)),
        ]
    )
    differences = points[:, None, :] - points[None, :, :]
    return np.sqrt((differences**2).sum(axis=-1))


class TestAgainstScipy:
    """Our Lance-Williams implementation must agree with scipy's linkage."""

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_merge_heights_match_scipy(self, linkage):
        distances = three_blob_distances()
        ours = HierarchicalClustering(linkage=linkage).fit(distances)
        theirs = scipy_hierarchy.linkage(squareform(distances, checks=False), method=linkage)
        assert np.allclose(sorted(ours.heights()), sorted(theirs[:, 2]), atol=1e-9)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_flat_clusters_match_scipy(self, linkage):
        distances = three_blob_distances()
        ours = HierarchicalClustering(linkage=linkage).fit_predict(distances, n_clusters=3)
        theirs = scipy_hierarchy.fcluster(
            scipy_hierarchy.linkage(squareform(distances, checks=False), method=linkage),
            t=3,
            criterion="maxclust",
        )
        # Compare partitions up to relabelling.
        our_groups = {}
        their_groups = {}
        for index, (a, b) in enumerate(zip(ours.assignments, theirs)):
            our_groups.setdefault(a, set()).add(index)
            their_groups.setdefault(b, set()).add(index)
        assert sorted(map(frozenset, our_groups.values())) == sorted(map(frozenset, their_groups.values()))


class TestHierarchicalClustering:
    def test_invalid_linkage_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalClustering(linkage="centroid")

    def test_three_groups_recovered(self):
        result = HierarchicalClustering("single").fit_predict(three_blob_distances(), n_clusters=3)
        assert result.n_clusters == 3
        clusters = [sorted(members) for members in result.clusters()]
        assert sorted(clusters) == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_single_cluster_cut(self):
        result = HierarchicalClustering("single").fit_predict(three_blob_distances(), n_clusters=1)
        assert set(result.assignments) == {0}

    def test_n_clusters_capped_at_leaf_count(self):
        distances = three_blob_distances()
        result = HierarchicalClustering("single").fit_predict(distances, n_clusters=50)
        assert result.n_clusters == distances.shape[0]

    def test_merge_heights_non_decreasing(self):
        dendrogram = HierarchicalClustering("average").fit(three_blob_distances())
        heights = dendrogram.heights()
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalClustering().fit(np.zeros((2, 3)))

    def test_empty_matrix(self):
        dendrogram = HierarchicalClustering().fit(np.zeros((0, 0)))
        assert dendrogram.n_leaves == 0
        assert dendrogram.merges == ()

    def test_similarity_matrix_converted_when_flagged(self):
        similarities = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        result = HierarchicalClustering("single").fit_predict(similarities, n_clusters=2, is_distance=False)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[0] != result.assignments[2]

    def test_kernel_matrix_input_carries_names(self, small_corpus_strings):
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(small_corpus_strings)
        dendrogram = HierarchicalClustering("single").fit(matrix)
        assert dendrogram.names == matrix.names
        assert dendrogram.n_leaves == len(small_corpus_strings)

    def test_cluster_kernel_matrix_convenience(self, small_corpus_strings):
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(small_corpus_strings)
        result = cluster_kernel_matrix(matrix, n_clusters=3)
        assert result.n_clusters == 3
        assert len(result.assignments) == len(small_corpus_strings)
