"""Backend equivalence for the Kast kernel (numpy vs python).

The numpy backend (integer interning, vectorised match search, batched row
evaluation) must produce values identical to the pure-Python reference over
randomised corpora, for every combination of the kernel's interpretation
flags.  The values are integer arithmetic in both backends, so equality is
exact — the 1e-9 tolerance of the acceptance criterion is only a ceiling.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kast import KastSpectrumKernel
from repro.strings.interner import TokenInterner
from repro.strings.tokens import Token, WeightedString

_literals = st.sampled_from(["a", "b", "c", "d"])
_tokens = st.tuples(_literals, st.integers(min_value=1, max_value=30))
_strings = st.lists(_tokens, min_size=0, max_size=18).map(WeightedString.from_pairs)


def synthetic(length: int, seed: int, alphabet: int = 6) -> WeightedString:
    rng = random.Random(seed)
    tokens = [Token(f"op{rng.randrange(alphabet)}", rng.randint(1, 40)) for _ in range(length)]
    return WeightedString(tokens, name=f"synthetic_{seed}")


def kernels(cut: int, **kwargs):
    return (
        KastSpectrumKernel(cut_weight=cut, backend="python", **kwargs),
        KastSpectrumKernel(cut_weight=cut, backend="numpy", **kwargs),
    )


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            KastSpectrumKernel(backend="fortran")

    def test_python_backend_has_no_interner(self):
        assert KastSpectrumKernel(backend="python").interner is None

    def test_numpy_backend_creates_interner(self):
        assert KastSpectrumKernel(backend="numpy").interner is not None

    def test_shared_interner_is_adopted(self):
        interner = TokenInterner()
        kernel = KastSpectrumKernel(backend="numpy", interner=interner)
        assert kernel.interner is interner


class TestPropertyEquivalence:
    @given(first=_strings, second=_strings, cut=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_values_identical(self, first, second, cut):
        python_kernel, numpy_kernel = kernels(cut)
        assert python_kernel.value(first, second) == numpy_kernel.value(first, second)

    @given(first=_strings, second=_strings, cut=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_embeddings_identical(self, first, second, cut):
        python_kernel, numpy_kernel = kernels(cut)
        python_embedding = python_kernel.embed(first, second)
        numpy_embedding = numpy_kernel.embed(first, second)
        assert python_embedding.kernel_value == numpy_embedding.kernel_value
        assert [f.literals for f in python_embedding.features] == [
            f.literals for f in numpy_embedding.features
        ]
        assert python_embedding.vector_a == numpy_embedding.vector_a
        assert python_embedding.vector_b == numpy_embedding.vector_b

    @given(first=_strings, second=_strings, cut=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_flag_combinations_identical(self, first, second, cut):
        for filter_tokens in (False, True):
            for independent in (True, False):
                python_kernel, numpy_kernel = kernels(
                    cut,
                    filter_tokens_below_cut=filter_tokens,
                    require_independent_occurrence=independent,
                )
                assert python_kernel.value(first, second) == numpy_kernel.value(first, second)


class TestRandomCorpusEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("cut", [1, 2, 8])
    def test_random_corpus_values(self, seed, cut):
        rng = random.Random(seed)
        corpus = [
            synthetic(rng.randrange(0, 40), seed=seed * 100 + index, alphabet=rng.choice((2, 4, 8)))
            for index in range(8)
        ]
        python_kernel, numpy_kernel = kernels(cut)
        for i in range(len(corpus)):
            for j in range(len(corpus)):
                assert python_kernel.value(corpus[i], corpus[j]) == numpy_kernel.value(
                    corpus[i], corpus[j]
                ), (i, j)

    @pytest.mark.parametrize("cut", [1, 2, 8])
    def test_value_row_matches_pairwise(self, cut):
        rng = random.Random(cut)
        corpus = [synthetic(rng.randrange(0, 40), seed=cut * 10 + index) for index in range(10)]
        python_kernel, numpy_kernel = kernels(cut)
        row = numpy_kernel.value_row(corpus[0], corpus[1:])
        assert row == [python_kernel.value(corpus[0], other) for other in corpus[1:]]
        assert row == [numpy_kernel.value(corpus[0], other) for other in corpus[1:]]

    def test_value_row_empty_targets(self):
        kernel = KastSpectrumKernel(backend="numpy")
        assert kernel.value_row(synthetic(5, seed=1), []) == []

    def test_value_row_with_empty_strings(self):
        kernel = KastSpectrumKernel(backend="numpy")
        empty = WeightedString([])
        row = kernel.value_row(synthetic(5, seed=1), [empty, synthetic(5, seed=1)])
        assert row[0] == 0.0
        assert row[1] > 0.0

    def test_worked_example_on_both_backends(self):
        from repro.pipeline.experiments import worked_example_strings

        string_a, string_b = worked_example_strings()
        for backend in ("python", "numpy"):
            kernel = KastSpectrumKernel(cut_weight=4, normalization="weight", backend=backend)
            assert kernel.value(string_a, string_b) == 1018.0


class TestPreparedCache:
    def test_cache_is_content_keyed(self):
        kernel = KastSpectrumKernel(cut_weight=2)
        first = WeightedString.parse("a:5 b:3", name="first")
        second = WeightedString.parse("a:5 b:3", name="second")
        assert kernel._prepare(first) is kernel._prepare(second)

    def test_lru_evicts_one_at_a_time(self):
        kernel = KastSpectrumKernel(cut_weight=2, max_cache_size=4)
        strings = [WeightedString.parse(f"tok{i}:5") for i in range(6)]
        for string in strings:
            kernel._prepare(string)
        # Bounded, and the most recent entries survive (no wholesale clear).
        assert len(kernel._cache) == 4
        assert strings[-1].fingerprint in kernel._cache
        assert strings[-2].fingerprint in kernel._cache
        assert strings[0].fingerprint not in kernel._cache

    def test_recently_used_entry_survives_eviction(self):
        kernel = KastSpectrumKernel(cut_weight=2, max_cache_size=3)
        keep = WeightedString.parse("keep:9")
        kernel._prepare(keep)
        for index in range(2):
            kernel._prepare(WeightedString.parse(f"f{index}:1"))
        kernel._prepare(keep)  # refresh recency
        kernel._prepare(WeightedString.parse("g:1"))  # evicts the oldest, not `keep`
        assert keep.fingerprint in kernel._cache

    def test_setting_interner_clears_cache(self):
        kernel = KastSpectrumKernel(cut_weight=2, backend="numpy")
        string = WeightedString.parse("a:5 b:3")
        kernel._prepare(string)
        kernel.interner = TokenInterner()
        assert len(kernel._cache) == 0
        # Still evaluates correctly with the fresh id space.
        assert kernel.normalized_value(string, string) == pytest.approx(1.0)
