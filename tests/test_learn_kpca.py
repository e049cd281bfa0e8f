"""Tests for Kernel PCA (repro.learn.kpca)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.learn.kpca import KernelPCA, kernel_pca_embedding


def linear_gram(points: np.ndarray) -> np.ndarray:
    return points @ points.T


class TestKernelPCAOnLinearKernel:
    """With a linear kernel, Kernel PCA must agree with ordinary PCA."""

    @pytest.fixture
    def points(self):
        rng = np.random.default_rng(42)
        base = rng.normal(size=(20, 2)) @ np.array([[3.0, 0.0], [0.0, 0.5]])
        return base - base.mean(axis=0)

    def test_explained_variance_ordering(self, points):
        result = KernelPCA(n_components=2).fit(linear_gram(points))
        assert result.eigenvalues[0] >= result.eigenvalues[1] >= 0.0
        assert result.explained_variance_ratio[0] > result.explained_variance_ratio[1]

    def test_embedding_variance_matches_eigenvalues(self, points):
        result = KernelPCA(n_components=2).fit(linear_gram(points))
        projected_norms = (result.embedding**2).sum(axis=0)
        assert np.allclose(projected_norms, result.eigenvalues, rtol=1e-8)

    def test_embedding_matches_classical_pca_up_to_sign(self, points):
        result = KernelPCA(n_components=2).fit(linear_gram(points))
        # Classical PCA scores.
        _, singular_values, rotation = np.linalg.svd(points, full_matrices=False)
        scores = points @ rotation.T
        for component in range(2):
            correlation = np.corrcoef(result.embedding[:, component], scores[:, component])[0, 1]
            assert abs(correlation) == pytest.approx(1.0, abs=1e-6)

    def test_components_are_orthogonal(self, points):
        result = KernelPCA(n_components=2).fit(linear_gram(points))
        dot = float(result.eigenvectors[:, 0] @ result.eigenvectors[:, 1])
        assert dot == pytest.approx(0.0, abs=1e-8)


class TestKernelPCAGeneral:
    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            KernelPCA(n_components=0)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            KernelPCA().fit(np.zeros((3, 4)))

    def test_requesting_more_components_than_rank_pads_with_zeros(self):
        gram = np.ones((4, 4))  # rank 1 before centring, rank 0 after
        result = KernelPCA(n_components=3).fit(gram)
        assert result.embedding.shape == (4, 3)
        assert np.allclose(result.embedding, 0.0)

    def test_fit_on_kernel_matrix_carries_names_and_labels(self, small_corpus_strings):
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(small_corpus_strings)
        result = KernelPCA(n_components=2).fit(matrix)
        assert result.names == matrix.names
        assert result.labels == matrix.labels
        assert result.embedding.shape == (len(small_corpus_strings), 2)

    def test_transform_reproduces_training_embedding(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(12, 3))
        gram = linear_gram(points)
        model = KernelPCA(n_components=2)
        result = model.fit(gram)
        projected = model.transform(gram)
        assert np.allclose(projected, result.embedding, atol=1e-8)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KernelPCA().transform(np.zeros((1, 3)))

    def test_transform_shape_validation(self):
        model = KernelPCA(n_components=1)
        model.fit(np.eye(3))
        with pytest.raises(ValueError):
            model.transform(np.zeros((2, 5)))

    def test_convenience_function(self):
        result = kernel_pca_embedding(np.eye(5), n_components=2)
        assert result.embedding.shape == (5, 2)

    def test_component_accessor(self):
        result = kernel_pca_embedding(np.eye(5), n_components=2)
        assert result.component(0).shape == (5,)
        assert result.n_components == 2
