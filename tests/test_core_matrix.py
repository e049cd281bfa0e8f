"""Tests for kernel matrices (repro.core.matrix)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.core.matrix import KernelMatrix
from repro.strings.tokens import WeightedString


@pytest.fixture
def strings():
    return [
        WeightedString.parse("a:5 b:3 c:7", name="s1", label="X"),
        WeightedString.parse("a:4 b:2 d:9", name="s2", label="X"),
        WeightedString.parse("q:6 r:8", name="s3", label="Y"),
    ]


@pytest.fixture
def matrix(strings):
    return GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings)


class TestComputeKernelMatrix:
    def test_shape_names_labels(self, matrix, strings):
        assert matrix.values.shape == (3, 3)
        assert matrix.names == ("s1", "s2", "s3")
        assert matrix.labels == ("X", "X", "Y")
        assert len(matrix) == 3

    def test_diagonal_is_one_when_normalized(self, matrix):
        assert np.allclose(np.diag(matrix.values), 1.0)

    def test_matrix_is_symmetric(self, matrix):
        assert matrix.is_symmetric()

    def test_similar_strings_more_similar_than_disjoint(self, matrix):
        assert matrix.similarity(0, 1) > matrix.similarity(0, 2)
        assert matrix.similarity(0, 2) == 0.0

    def test_unnormalized_matrix(self, strings):
        raw = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings, normalized=False, repair=False)
        assert raw.values[0, 0] == pytest.approx((5 + 3 + 7) ** 2)

    def test_repair_produces_psd_matrix(self, strings):
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(strings, repair=True)
        assert matrix.is_positive_semidefinite()


class TestKernelMatrixOperations:
    def test_index_of(self, matrix):
        assert matrix.index_of("s2") == 1
        with pytest.raises(KeyError):
            matrix.index_of("nope")

    def test_label_set(self, matrix):
        assert matrix.label_set() == ["X", "Y"]

    def test_submatrix(self, matrix):
        sub = matrix.submatrix([0, 2])
        assert sub.names == ("s1", "s3")
        assert sub.values.shape == (2, 2)
        assert sub.similarity(0, 1) == matrix.similarity(0, 2)

    def test_to_distance_matrix_properties(self, matrix):
        distances = matrix.to_distance_matrix()
        assert np.allclose(np.diag(distances), 0.0)
        assert np.all(distances >= 0.0)
        assert np.allclose(distances, distances.T)
        # Identical-normalisation entries: d = sqrt(2 - 2k).
        assert distances[0, 2] == pytest.approx(np.sqrt(2.0))

    def test_repaired_clips_negative_eigenvalues(self):
        values = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]])
        # Force an indefinite matrix by exaggerating correlations.
        values[0, 2] = values[2, 0] = -0.9
        matrix = KernelMatrix(values=values, names=("a", "b", "c"), labels=(None, None, None))
        assert not matrix.is_positive_semidefinite()
        assert matrix.repaired().is_positive_semidefinite()

    def test_psd_repaired_matches_check_then_repair(self):
        indefinite = np.array([[1.0, 0.99, -0.9], [0.99, 1.0, 0.99], [-0.9, 0.99, 1.0]])
        matrix = KernelMatrix(values=indefinite, names=("a", "b", "c"), labels=("x", None, "y"))
        repaired = matrix.psd_repaired()
        assert np.array_equal(repaired.values, matrix.repaired().values)
        assert (repaired.names, repaired.labels) == (matrix.names, matrix.labels)
        healthy = KernelMatrix(values=np.eye(3), names=("a", "b", "c"), labels=(None, None, None))
        assert healthy.psd_repaired() is healthy

    def test_renormalized_restores_unit_diagonal(self):
        values = np.array([[4.0, 2.0], [2.0, 9.0]])
        matrix = KernelMatrix(values=values, names=("a", "b"), labels=(None, None), normalized=False)
        renormalized = matrix.renormalized()
        assert np.allclose(np.diag(renormalized.values), 1.0)
        assert renormalized.values[0, 1] == pytest.approx(2.0 / 6.0)

    def test_dict_round_trip(self, matrix):
        rebuilt = KernelMatrix.from_dict(matrix.as_dict())
        assert rebuilt.names == matrix.names
        assert rebuilt.labels == matrix.labels
        assert np.allclose(rebuilt.values, matrix.values)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            KernelMatrix(values=np.zeros((2, 3)), names=("a", "b"), labels=(None, None))

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError):
            KernelMatrix(values=np.eye(2), names=("a",), labels=(None, None))
