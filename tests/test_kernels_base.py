"""Tests for the shared kernel interface (repro.kernels.base)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import kernel_from_spec, make_spec, registered_kinds
from repro.api.spec import registry_entry
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


def _contract_specs():
    """One spec per configuration the ``self_value`` contract is checked on.

    Every registered kind: the Kast kernel on both backends under all four
    flag settings at cut weights 1, 2, 5 and 20; the other leaf kinds at
    their defaults; the composites over a Kast and a spectrum child.
    """
    specs = []
    for kind in registered_kinds():
        if kind == "kast":
            specs += [
                make_spec(
                    "kast", cut_weight=cut, backend=backend, filter_tokens_below_cut=filter_tokens,
                    require_independent_occurrence=independent,
                )
                for backend in ("numpy", "python")
                for filter_tokens in (False, True)
                for independent in (True, False)
                for cut in (1, 2, 5, 20)
            ]
        elif not registry_entry(kind).composite:
            specs.append(make_spec(kind))
        elif kind in ("sum", "product"):
            for backend in ("numpy", "python"):
                specs.append(make_spec(kind, children=[
                    make_spec("kast", cut_weight=5, backend=backend), make_spec("spectrum", k=2),
                ]))
        else:
            specs += [
                make_spec(kind, children=[child])
                for child in (
                    make_spec("kast", cut_weight=5, backend="numpy"),
                    make_spec("kast", cut_weight=5, backend="python", normalization="weight"),
                    make_spec("spectrum", k=2),
                )
            ]
    return specs


_CONTRACT_STRINGS = st.lists(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=25)), min_size=0, max_size=12
    ).map(WeightedString.from_pairs),
    min_size=1,
    max_size=4,
)


class TestSelfValueContract:
    """``self_value(a) == value(a, a)`` bit for bit, for every registered kernel.

    The Gram engine keeps ``k(a, a)`` and the pair of two content-identical
    strings under one key and computes both with ``self_value``, so a
    closed form that disagrees with ``value(a, a)`` would change a Gram
    entry.  Every example adds an empty string and a string lighter than
    every cut weight but 1.
    """

    @pytest.mark.parametrize("spec", _contract_specs(), ids=lambda spec: spec.canonical())
    @settings(max_examples=20, deadline=None)
    @given(strings=_CONTRACT_STRINGS)
    def test_self_value_is_value_with_itself(self, spec, strings):
        kernel = kernel_from_spec(spec)
        for string in [*strings, WeightedString([]), WeightedString.from_pairs([("b", 1)])]:
            assert kernel.self_value(string).hex() == float(kernel.value(string, string)).hex(), string
