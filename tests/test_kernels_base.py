"""Tests for the shared kernel interface (repro.kernels.base)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kast import KastSpectrumKernel
from repro.kernels.bag import BagOfCharactersKernel
from repro.kernels.base import StringKernel
from repro.strings.tokens import WeightedString


def ws(text: str, name: str = "s", label: str = None) -> WeightedString:
    return WeightedString.parse(text, name=name, label=label)


class MinimalKernel(StringKernel):
    """A trivial kernel counting shared first tokens, for interface tests."""

    name = "minimal"

    def value(self, a, b):
        if len(a) == 0 or len(b) == 0:
            return 0.0
        return 1.0 if a[0].literal == b[0].literal else 0.0


class TestStringKernelInterface:
    def test_default_self_value_uses_value(self):
        kernel = MinimalKernel()
        assert kernel.self_value(ws("a:1 b:2")) == 1.0

    def test_normalized_value_handles_zero_self_similarity(self):
        kernel = MinimalKernel()
        empty = WeightedString([])
        assert kernel.normalized_value(empty, ws("a:1")) == 0.0

    def test_symmetric_matrix_shape_and_symmetry(self):
        kernel = BagOfCharactersKernel()
        strings = [ws("a:1 b:2"), ws("a:3"), ws("c:4")]
        gram = kernel.matrix(strings, normalized=False)
        assert gram.shape == (3, 3)
        assert np.allclose(gram, gram.T)
        assert gram[0, 1] == 3.0

    def test_normalized_matrix_unit_diagonal(self):
        kernel = KastSpectrumKernel(cut_weight=2)
        strings = [ws("a:2 b:3"), ws("a:4 c:5")]
        gram = kernel.matrix(strings, normalized=True)
        assert np.allclose(np.diag(gram), 1.0)

    def test_repr_mentions_class(self):
        assert "MinimalKernel" in repr(MinimalKernel())
