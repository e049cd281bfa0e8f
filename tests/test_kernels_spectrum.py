"""Tests for the k-spectrum kernel baseline (repro.kernels.spectrum)."""

from __future__ import annotations

import pytest

from repro.kernels.spectrum import SpectrumKernel
from repro.strings.tokens import WeightedString


def ws(text: str) -> WeightedString:
    return WeightedString.parse(text)


class TestSpectrumKernel:
    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            SpectrumKernel(k=0)

    def test_unweighted_counts_shared_kgrams(self):
        kernel = SpectrumKernel(k=2, weighted=False)
        first = ws("a:1 b:1 c:1")   # bigrams: ab, bc
        second = ws("a:1 b:1 d:1")  # bigrams: ab, bd
        assert kernel.value(first, second) == 1.0

    def test_repeated_kgram_counts_multiply(self):
        kernel = SpectrumKernel(k=2, weighted=False)
        first = ws("a:1 b:1 a:1 b:1 a:1")   # ab x2, ba x2
        second = ws("a:1 b:1")              # ab x1
        assert kernel.value(first, second) == 2.0

    def test_weighted_variant_uses_token_weights(self):
        kernel = SpectrumKernel(k=1, weighted=True)
        first = ws("a:10")
        second = ws("a:3")
        assert kernel.value(first, second) == 30.0

    def test_string_shorter_than_k_has_no_features(self):
        kernel = SpectrumKernel(k=5)
        assert kernel.feature_map(ws("a:1 b:1")) == {}
        assert kernel.value(ws("a:1 b:1"), ws("a:1 b:1")) == 0.0

    def test_self_value_matches_value(self):
        kernel = SpectrumKernel(k=2)
        string = ws("a:2 b:3 a:2 b:3")
        assert kernel.self_value(string) == kernel.value(string, string)

    def test_normalized_value_bounds(self):
        kernel = SpectrumKernel(k=2)
        first = ws("a:2 b:3 c:4")
        second = ws("a:1 b:5 d:2")
        value = kernel.normalized_value(first, second)
        assert 0.0 <= value <= 1.0
        assert kernel.normalized_value(first, first) == pytest.approx(1.0)

    def test_symmetry(self):
        kernel = SpectrumKernel(k=3)
        first = ws("a:2 b:3 c:4 d:5")
        second = ws("b:1 c:2 d:3 e:4")
        assert kernel.value(first, second) == kernel.value(second, first)

    def test_matrix_shape_and_diagonal(self):
        kernel = SpectrumKernel(k=2)
        strings = [ws("a:1 b:2 c:3"), ws("a:2 b:1"), ws("x:5 y:6")]
        gram = kernel.matrix(strings, normalized=True)
        assert gram.shape == (3, 3)
        assert gram[0, 0] == pytest.approx(1.0)
        assert gram[0, 2] == 0.0

    def test_disjoint_alphabets_give_zero(self):
        kernel = SpectrumKernel(k=1)
        assert kernel.value(ws("a:1"), ws("b:1")) == 0.0


class TestFeatureCacheIdentity:
    def test_cache_not_fooled_by_id_reuse(self):
        # Regression: the feature cache was keyed on id(string) without
        # pinning the string, so a freed string's recycled id could serve
        # stale features (seen with process-executor workers unpickling
        # fresh strings per chunk).  Entries are now keyed by content.
        kernel = SpectrumKernel(k=1, weighted=False)
        for index in range(200):
            string = WeightedString.from_pairs([(f"op{index}", 1)], name="x")
            features = kernel.feature_map(string)
            assert list(features) == [(f"op{index}",)], index

    def test_cache_hit_requires_same_object(self):
        kernel = SpectrumKernel(k=1)
        string = WeightedString.from_pairs([("a", 1)], name="x")
        first = kernel.feature_map(string)
        assert kernel.feature_map(string) is first
