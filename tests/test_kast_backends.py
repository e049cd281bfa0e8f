"""Backend equivalence for the Kast kernel (numpy vs python).

The numpy backend (integer interning, vectorised match search, rows and
blocks of rows scored at once) must produce values identical to the
pure-Python reference over randomised corpora, for every combination of the
kernel's interpretation flags.  The values are integer arithmetic in both backends, so equality is
exact — the 1e-9 tolerance of the acceptance criterion is only a ceiling.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kast
from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.strings.interner import TokenInterner
from repro.strings.tokens import Token, WeightedString

_literals = st.sampled_from(["a", "b", "c", "d"])
_tokens = st.tuples(_literals, st.integers(min_value=1, max_value=30))
_strings = st.lists(_tokens, min_size=0, max_size=18).map(WeightedString.from_pairs)

#: Cut weights the row-path property test covers, and every flag combination.
_ROW_CUTS = (1, 2, 5, 20)
_FLAGS = [(filter_tokens, independent) for filter_tokens in (False, True) for independent in (True, False)]


@st.composite
def _rows(draw):
    """1-7 strings over a 1-4 letter alphabet, so patterns overlap themselves.

    A repeated string and an empty string may be mixed in, at any position
    (including the row's own string).
    """
    alphabet = "abcd"[: draw(st.integers(min_value=1, max_value=4))]
    tokens = st.tuples(st.sampled_from(alphabet), st.integers(min_value=1, max_value=25))
    strings = draw(st.lists(
        st.lists(tokens, min_size=0, max_size=14).map(WeightedString.from_pairs), min_size=1, max_size=5
    ))
    if draw(st.booleans()):
        strings.insert(draw(st.integers(0, len(strings))), strings[draw(st.integers(0, len(strings) - 1))])
    if draw(st.booleans()):
        strings.insert(draw(st.integers(0, len(strings))), WeightedString([]))
    return strings


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


class TestRowPathEquivalence:
    @given(strings=_rows())
    @settings(max_examples=120, deadline=None)
    def test_value_row_and_embed_match_python_pairwise(self, strings):
        first, rest = strings[0], strings[1:]
        for cut in _ROW_CUTS:
            for filter_tokens, independent in _FLAGS:
                python_kernel, numpy_kernel = kernels(
                    cut, filter_tokens_below_cut=filter_tokens, require_independent_occurrence=independent
                )
                expected = [python_kernel.value(first, other) for other in rest]
                assert numpy_kernel.value_row(first, rest) == expected, (cut, filter_tokens, independent)
                for other in rest:
                    assert numpy_kernel.embed(first, other) == python_kernel.embed(first, other), (
                        cut, filter_tokens, independent
                    )


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

    def test_value_row_exact_past_int64_products(self):
        # Weight sums near 2**33 make feature products pass 2**63.
        big = WeightedString.parse("a:4000000000 b:4000000000 a:4000000000 c:3")
        other = WeightedString.parse("a:4000000001 b:4000000001 c:4000000001 a:7")
        python_kernel, numpy_kernel = kernels(2)
        expected = [python_kernel.value(big, other), python_kernel.value(big, big)]
        assert expected[1] == float(12000000003**2)
        assert numpy_kernel.value_row(big, [other, big]) == expected

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


@contextlib.contextmanager
def block_budget(tokens):
    """Score with blocks of at most *tokens* query tokens."""
    saved = kast._BLOCK_QUERY_TOKENS
    kast._BLOCK_QUERY_TOKENS = tokens
    try:
        yield
    finally:
        kast._BLOCK_QUERY_TOKENS = saved


@st.composite
def _pair_sets(draw):
    """A corpus from :func:`_rows` and any pairs over it: reversed,
    repeated, self and non-triangular pairs included."""
    strings = draw(_rows())
    index = st.integers(min_value=0, max_value=len(strings) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=0, max_size=16))
    return strings, pairs


class TestBlockPathEquivalence:
    #: One query token a block (every row its own block, every longer
    #: query over budget), a budget that splits a Gram mid-way, and the
    #: module's own.
    BUDGETS = (1, 9, kast._BLOCK_QUERY_TOKENS)

    @given(case=_pair_sets())
    @settings(max_examples=80, deadline=None)
    def test_value_pairs_match_python_pair_by_pair(self, case):
        strings, pairs = case
        for cut in _ROW_CUTS:
            for filter_tokens, independent in _FLAGS:
                python_kernel, numpy_kernel = kernels(
                    cut, filter_tokens_below_cut=filter_tokens, require_independent_occurrence=independent
                )
                expected = [python_kernel.value(strings[i], strings[j]) for i, j in pairs]
                assert python_kernel.value_pairs(strings, pairs) == expected
                for budget in self.BUDGETS:
                    with block_budget(budget):
                        assert numpy_kernel.value_pairs(strings, pairs) == expected, (
                            cut, filter_tokens, independent, budget
                        )

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("cut", [1, 2, 8])
    def test_random_gram_matches_python(self, budget, cut):
        rng = random.Random(budget * 100 + cut)
        corpus = [synthetic(rng.randrange(0, 40), seed=cut * 10 + index, alphabet=rng.choice((2, 4))) for index in range(9)]
        corpus.insert(4, WeightedString([]))
        corpus.insert(2, WeightedString(corpus[6].tokens, name="twin"))
        pairs = [(i, j) for i in range(len(corpus)) for j in range(i + 1, len(corpus))]
        python_kernel, numpy_kernel = kernels(cut)
        with block_budget(budget):
            assert numpy_kernel.value_pairs(corpus, pairs) == [
                python_kernel.value(corpus[i], corpus[j]) for i, j in pairs
            ]

    def test_value_pairs_exact_past_int64_products(self):
        big = WeightedString.parse("a:4000000000 b:4000000000 a:4000000000 c:3")
        other = WeightedString.parse("a:4000000001 b:4000000001 c:4000000001 a:7")
        small = synthetic(12, seed=3, alphabet=3)
        strings = [small, big, other, small]
        pairs = [(0, 1), (1, 2), (1, 1), (0, 3), (2, 0)]
        python_kernel, numpy_kernel = kernels(2)
        expected = [python_kernel.value(strings[i], strings[j]) for i, j in pairs]
        assert expected[2] == float(12000000003**2)
        assert numpy_kernel.value_pairs(strings, pairs) == expected

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_every_row_is_read_through_value_row(self, budget, monkeypatch):
        # A profiler that wraps value_row must see each row's evaluations
        # and every block scoring call inside one of its row calls.
        rng = random.Random(budget)
        corpus = [synthetic(rng.randrange(1, 30), seed=index, alphabet=3) for index in range(10)]
        pairs = [(i, j) for i in range(len(corpus)) for j in range(i + 1, len(corpus))]
        kernel = KastSpectrumKernel(backend="numpy")
        rows, inside = [], []
        original_row, original_block = KastSpectrumKernel.value_row, KastSpectrumKernel._score_block

        def value_row(self, a, others, *args):
            rows.append(len(others))
            inside.append(True)
            try:
                return original_row(self, a, others, *args)
            finally:
                inside.pop()

        def score_block(self, *args, **kwargs):
            assert inside, "a block was scored outside value_row"
            return original_block(self, *args, **kwargs)

        monkeypatch.setattr(KastSpectrumKernel, "value_row", value_row)
        monkeypatch.setattr(KastSpectrumKernel, "_score_block", score_block)
        with block_budget(budget):
            values = kernel.value_pairs(corpus, pairs)
        assert rows == [len(corpus) - 1 - i for i in range(len(corpus) - 1)]
        assert values == [KastSpectrumKernel(backend="python").value(corpus[i], corpus[j]) for i, j in pairs]

    def test_empty_and_single_pair_calls(self):
        kernel = KastSpectrumKernel(backend="numpy")
        corpus = [synthetic(5, seed=1), WeightedString([])]
        assert kernel.value_pairs(corpus, []) == []
        assert kernel.value_pairs(corpus, [(0, 1), (1, 0), (1, 1)]) == [0.0, 0.0, 0.0]
        assert kernel.value_pairs(corpus, [(0, 0)]) == [kernel.value(corpus[0], corpus[0])]


class TestWorkCounts:
    @staticmethod
    def corpus(seed=5, size=9):
        rng = random.Random(seed)
        return [synthetic(rng.randrange(0, 30), seed=seed * 10 + index, alphabet=3) for index in range(size)]

    def test_pairwise_counts_agree_across_backends(self):
        corpus = self.corpus()
        for independent in (True, False):
            python_kernel, numpy_kernel = kernels(2, require_independent_occurrence=independent)
            for first in corpus:
                for second in corpus:
                    python_kernel.value(first, second)
                    numpy_kernel.value(first, second)
            assert python_kernel.work_counts() == numpy_kernel.work_counts()
            assert numpy_kernel.work_counts()["selected_features"] > 0

    def test_row_counts_per_pair_match_pairwise_calls(self):
        corpus = self.corpus()
        _, pairwise = kernels(2)
        _, row = kernels(2)
        for index, first in enumerate(corpus):
            for second in corpus[index + 1 :]:
                pairwise.value(first, second)
            row.value_row(first, corpus[index + 1 :])
        by_pair, by_row = pairwise.work_counts(), row.work_counts()
        for name in ("maximal_spans", "scored_candidates", "selected_features", "selected_occurrences"):
            assert by_row[name] == by_pair[name], name
        # Patterns are deduplicated across a whole row.
        assert by_row["distinct_patterns"] <= by_pair["distinct_patterns"]

    @pytest.mark.parametrize("budget", TestBlockPathEquivalence.BUDGETS)
    def test_block_counts_are_the_row_sums(self, budget):
        corpus = self.corpus(size=12)
        _, row = kernels(2)
        for index, first in enumerate(corpus):
            row.value_row(first, corpus[index + 1 :])
        _, block = kernels(2)
        with block_budget(budget):
            block.value_pairs(corpus, [(i, j) for i in range(len(corpus)) for j in range(i + 1, len(corpus))])
        by_row, by_block = row.work_counts(), block.work_counts()
        for name in ("maximal_spans", "scored_candidates", "selected_features", "selected_occurrences"):
            assert by_block[name] == by_row[name], name
        # Patterns are deduplicated across a whole block.
        assert by_block["distinct_patterns"] <= by_row["distinct_patterns"]

    def test_embed_counts_its_features_and_occurrences(self):
        first, second = self.corpus()[1:3]
        for backend in ("numpy", "python"):
            kernel = KastSpectrumKernel(cut_weight=2, backend=backend)
            embedding = kernel.embed(first, second)
            work = kernel.work_counts()
            assert work["selected_features"] == len(embedding.features)
            assert work["selected_occurrences"] == sum(
                len(feature.occurrences_a) + len(feature.occurrences_b) for feature in embedding.features
            )

    def test_threads_sharing_a_kernel_lose_no_counts(self):
        corpus = self.corpus(size=12)
        _, serial = kernels(2)
        for first in corpus:
            serial.value_row(first, corpus)
        _, shared = kernels(2)

        def run(part):
            for _ in range(3):
                for first in part:
                    shared.value_row(first, corpus)

        threads = [threading.Thread(target=run, args=(corpus[index::4],)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shared.work_counts() == {name: 3 * count for name, count in serial.work_counts().items()}


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


class TestPaperCorpusGram:
    def test_gram_is_bit_identical_to_the_row_scorer(self):
        # Digests of the cut-2 Gram over the 110-string paper corpus as the
        # one-row-per-call scorer built it: raw, then normalised.
        from repro.pipeline.experiments import paper_strings

        strings = list(paper_strings())
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        raw = engine.matrix(strings, normalized=False).values
        normalized = engine.matrix(strings).values
        assert hashlib.sha256(raw.tobytes()).hexdigest() == (
            "45e13470b091e540c5d749e21420c36d9245c93fc7096990912ef23de4813b5e"
        )
        assert hashlib.sha256(normalized.tobytes()).hexdigest() == (
            "d73e518a0b942deaca71e5752488b740faf5a32f06fba93a901bfc082741f9b0"
        )
        # The corpus has 104 distinct strings in 5 twin groups (sizes
        # 2, 2, 2, 2, 3).  A twin pair is its group's self value, a closed
        # form, so the 5 twin keys score nothing: the row scorer's counts
        # less one self comparison per group (67 spans, 21 candidates, 5
        # features, 10 occurrences).
        work = engine.kernel.work_counts()
        assert {name: work[name] for name in ("maximal_spans", "scored_candidates", "selected_features")} == {
            "maximal_spans": 1158372 - 67,
            "scored_candidates": 38854 - 21,
            "selected_features": 26460 - 5,
        }
        assert work["selected_occurrences"] == 115094 - 10
        assert engine.kernel_evals == 5356 + 104  # C(104, 2) cross pairs + 104 self values
        assert work["distinct_patterns"] <= 3669

    def test_fig7_clustering_is_unchanged(self):
        from repro.pipeline.experiments import experiment_fig7_hclust_kast

        fig7 = experiment_fig7_hclust_kast()
        assert round(fig7.metrics["adjusted_rand_index"], 4) == 0.8505
        assert fig7.misplacements() == 0
