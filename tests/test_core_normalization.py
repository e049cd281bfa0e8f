"""Tests for kernel-matrix numeric utilities (repro.core.normalization)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.normalization import (
    center_kernel_matrix,
    clip_negative_eigenvalues,
    cosine_normalize,
    is_positive_semidefinite,
    nearest_psd_projection,
    psd_repair,
)


class TestCosineNormalize:
    def test_unit_diagonal(self):
        matrix = np.array([[4.0, 2.0], [2.0, 16.0]])
        normalized = cosine_normalize(matrix)
        assert np.allclose(np.diag(normalized), 1.0)
        assert normalized[0, 1] == pytest.approx(2.0 / 8.0)

    def test_zero_row_stays_zero(self):
        matrix = np.array([[0.0, 0.0], [0.0, 9.0]])
        normalized = cosine_normalize(matrix)
        assert normalized[0, 0] == 0.0
        assert normalized[0, 1] == 0.0
        assert normalized[1, 1] == 1.0


class TestPSDRepair:
    def test_identity_is_psd(self):
        assert is_positive_semidefinite(np.eye(4))

    def test_indefinite_matrix_detected_and_repaired(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        assert not is_positive_semidefinite(matrix)
        repaired = clip_negative_eigenvalues(matrix)
        assert is_positive_semidefinite(repaired)
        # The positive eigenvalue is preserved.
        assert np.linalg.eigvalsh(repaired).max() == pytest.approx(3.0)

    def test_psd_matrix_unchanged_by_clipping(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(clip_negative_eigenvalues(matrix), matrix)

    def test_psd_repair_decides_like_the_check_and_clips_like_the_clip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.normal(size=(12, 12))
            matrix = raw @ raw.T if rng.random() < 0.5 else raw + raw.T
            repaired = psd_repair(matrix)
            if is_positive_semidefinite(matrix):
                assert repaired is None
            else:
                assert np.array_equal(repaired, clip_negative_eigenvalues(matrix))
        # Every decision and every repaired byte equal the single-eigh path,
        # also where the smallest eigenvalue sits at the tolerance itself.
        tolerance = 1e-8
        for size in (12, 40):
            for _ in range(10):
                raw = rng.normal(size=(size, size))
                matrix = raw @ raw.T if rng.random() < 0.5 else raw + raw.T
                matrix /= np.abs(matrix).max()
                smallest = np.linalg.eigh(matrix)[0].min()
                cases = [matrix] + [
                    matrix - (smallest + tolerance + offset) * np.eye(size)
                    for offset in (-1e-14, -1e-15, 0.0, 1e-15, 1e-14)
                ]
                for case in cases:
                    eigenvalues = np.linalg.eigh(0.5 * (case + case.T))[0]
                    repaired = psd_repair(case)
                    if eigenvalues.min() >= -tolerance:
                        assert repaired is None
                    else:
                        assert np.array_equal(repaired, clip_negative_eigenvalues(case))

    def test_nearest_psd_projection_restores_unit_diagonal(self):
        matrix = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        projected = nearest_psd_projection(matrix)
        assert is_positive_semidefinite(projected)
        assert np.allclose(np.diag(projected), 1.0)


class TestCentering:
    def test_centred_matrix_has_zero_row_means(self):
        rng = np.random.default_rng(0)
        factor = rng.normal(size=(6, 3))
        kernel = factor @ factor.T
        centred = center_kernel_matrix(kernel)
        assert np.allclose(centred.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(centred.mean(axis=1), 0.0, atol=1e-10)

    def test_empty_matrix(self):
        assert center_kernel_matrix(np.zeros((0, 0))).shape == (0, 0)


class TestProperties:
    @given(
        data=arrays(
            dtype=float,
            shape=st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)).map(
                lambda pair: (max(pair), max(pair))
            ),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_clipping_always_yields_psd(self, data):
        symmetric = 0.5 * (data + data.T)
        assert is_positive_semidefinite(clip_negative_eigenvalues(symmetric), tolerance=1e-6)

    @given(
        data=arrays(
            dtype=float,
            shape=(4, 4),
            elements=st.floats(min_value=0.1, max_value=5, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cosine_normalization_bounds_for_gram_matrices(self, data):
        gram = data @ data.T  # PSD by construction
        normalized = cosine_normalize(gram)
        assert np.all(normalized <= 1.0 + 1e-9)
        assert np.all(normalized >= -1.0 - 1e-9)
