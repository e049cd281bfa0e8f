"""Tests for kernel k-means (repro.learn.kkmeans)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.learn.kkmeans import KernelKMeans
from repro.learn.metrics import adjusted_rand_index


def blob_kernel() -> np.ndarray:
    """Linear kernel over two well separated blobs of 5 points each."""
    rng = np.random.default_rng(7)
    points = np.vstack(
        [
            rng.normal(loc=0.0, scale=0.3, size=(5, 2)),
            rng.normal(loc=8.0, scale=0.3, size=(5, 2)),
        ]
    )
    return points @ points.T


class TestKernelKMeans:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KernelKMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KernelKMeans(n_clusters=2, max_iterations=0)
        with pytest.raises(ValueError):
            KernelKMeans(n_clusters=2, n_restarts=0)

    def test_two_blobs_recovered(self):
        result = KernelKMeans(n_clusters=2, seed=0).fit_predict(blob_kernel())
        truth = [0] * 5 + [1] * 5
        assert adjusted_rand_index(list(result.assignments), truth) == 1.0
        assert result.converged

    def test_inertia_non_negative_and_decreasing_with_k(self):
        kernel = blob_kernel()
        inertia_2 = KernelKMeans(n_clusters=2, seed=1).fit_predict(kernel).inertia
        inertia_4 = KernelKMeans(n_clusters=4, seed=1, n_restarts=8).fit_predict(kernel).inertia
        assert inertia_2 >= 0.0
        assert inertia_4 <= inertia_2 + 1e-9

    def test_k_capped_at_example_count(self):
        result = KernelKMeans(n_clusters=10, seed=0).fit_predict(np.eye(4))
        assert result.n_clusters == 4

    def test_deterministic_given_seed(self):
        kernel = blob_kernel()
        first = KernelKMeans(n_clusters=2, seed=3).fit_predict(kernel)
        second = KernelKMeans(n_clusters=2, seed=3).fit_predict(kernel)
        assert first.assignments == second.assignments

    def test_empty_matrix(self):
        result = KernelKMeans(n_clusters=2).fit_predict(np.zeros((0, 0)))
        assert result.assignments == ()
        assert result.n_clusters == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            KernelKMeans(n_clusters=2).fit_predict(np.zeros((2, 3)))

    def test_clusters_listing(self):
        result = KernelKMeans(n_clusters=2, seed=0).fit_predict(blob_kernel())
        members = result.clusters()
        assert sum(len(group) for group in members) == 10

    def test_agrees_with_hierarchical_on_corpus(self, small_corpus_strings):
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(small_corpus_strings)
        result = KernelKMeans(n_clusters=3, seed=11, n_restarts=10).fit_predict(matrix)
        labels = [string.label for string in small_corpus_strings]
        merged_labels = ["CD" if label in ("C", "D") else label for label in labels]
        assert adjusted_rand_index(list(result.assignments), merged_labels) > 0.6
