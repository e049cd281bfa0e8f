"""Tests for the Gram-matrix evaluation engine (repro.core.engine)."""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest

from repro.api import AnalysisSession, make_spec
from repro.core.cachestore import MatrixCache
from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.core.matrix import KernelMatrix
from repro.core.pairstore import PairStore
from repro.kernels.spectrum import SpectrumKernel
from repro.pipeline.experiments import paper_strings
from repro.strings.interner import TokenInterner
from repro.strings.tokens import Token, WeightedString


def synthetic(length: int, seed: int, alphabet: int = 6, name: str = "") -> WeightedString:
    rng = random.Random(seed)
    tokens = [Token(f"op{rng.randrange(alphabet)}", rng.randint(1, 40)) for _ in range(length)]
    return WeightedString(tokens, name=name or f"synthetic_{seed}", label="A")


@pytest.fixture
def corpus():
    return [synthetic(12 + index, seed=index) for index in range(10)]


class CountingKernel(KastSpectrumKernel):
    """Kast kernel counting raw pair evaluations (cache observability)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value_calls = 0
        self.batch_values = 0

    def value(self, a, b):
        self.value_calls += 1
        return super().value(a, b)

    def value_pairs(self, strings, index_pairs):
        index_pairs = list(index_pairs)
        self.batch_values += len(index_pairs)
        return super().value_pairs(strings, index_pairs)


def segment_files(root):
    """Every pair-store segment file under *root*."""
    found = []
    for directory, _, names in os.walk(root):
        found.extend(os.path.join(directory, name) for name in names if name.startswith("seg-"))
    return sorted(found)


def stored_engine(kernel, root, **kwargs):
    """An engine whose pair layers persist to the pair store at *root*."""
    return GramEngine(kernel, pair_store=PairStore(root), **kwargs)


class TestPairCache:
    def test_symmetric_cache_hit(self, corpus):
        kernel = CountingKernel(cut_weight=2)
        engine = GramEngine(kernel)
        a, b = corpus[0], corpus[1]
        first = engine.pair_value(a, b)
        second = engine.pair_value(b, a)
        assert first == second
        assert kernel.value_calls == 1
        assert engine.cache_info()["pair_hits"] == 1

    def test_content_identical_pair_shares_entry(self, corpus):
        kernel = CountingKernel(cut_weight=2)
        engine = GramEngine(kernel)
        twin = WeightedString(corpus[1].tokens, name="twin")
        engine.pair_value(corpus[0], corpus[1])
        engine.pair_value(corpus[0], twin)
        assert kernel.value_calls == 1

    def test_self_value_cached(self, corpus):
        kernel = KastSpectrumKernel(cut_weight=2)
        engine = GramEngine(kernel)
        assert engine.self_value(corpus[0]) == engine.self_value(corpus[0])
        info = engine.cache_info()
        assert info["kernel_evals"] == 1  # the second call is a cache hit
        assert info["pair_entries"] == 1  # one diagonal entry in the one table
        assert info["pair_hits"] == info["pair_misses"] == 0  # not pair traffic

    def test_normalized_pair_value_in_unit_interval(self, corpus):
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        value = engine.normalized_pair_value(corpus[0], corpus[1])
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_gram_second_call_is_all_hits(self, corpus):
        kernel = CountingKernel(cut_weight=2)
        engine = GramEngine(kernel)
        first = engine.gram(corpus)
        evaluations = kernel.batch_values + kernel.value_calls
        second = engine.gram(corpus)
        assert kernel.batch_values + kernel.value_calls == evaluations
        np.testing.assert_array_equal(first, second)


class TestGram:
    def test_matches_direct_kernel_loop(self, corpus):
        kernel = KastSpectrumKernel(cut_weight=2)
        engine = GramEngine(kernel)
        gram = engine.gram(corpus, normalized=False)
        reference = KastSpectrumKernel(cut_weight=2, backend="python")
        for i in range(len(corpus)):
            for j in range(len(corpus)):
                if i == j:
                    assert gram[i, i] == reference.self_value(corpus[i])
                else:
                    assert gram[i, j] == reference.value(corpus[i], corpus[j])

    def test_normalized_unit_diagonal(self, corpus):
        gram = GramEngine(KastSpectrumKernel(cut_weight=2)).gram(corpus, normalized=True)
        np.testing.assert_allclose(np.diag(gram), 1.0)
        assert np.allclose(gram, gram.T)

    def test_kernel_without_value_row_matches_direct_loop(self, corpus):
        # SpectrumKernel has no value_row or value_pairs: exercises the per-pair fallback.
        kernel = SpectrumKernel(k=2)
        assert not hasattr(kernel, "value_row") and not hasattr(kernel, "value_pairs")
        gram = GramEngine(kernel).gram(corpus, normalized=False)
        reference = SpectrumKernel(k=2)
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                assert gram[i, j] == gram[j, i] == reference.value(corpus[i], corpus[j])

    def test_string_kernel_matrix_delegates_to_engine(self, corpus):
        kernel = KastSpectrumKernel(cut_weight=2)
        via_matrix = kernel.matrix(corpus, normalized=True)
        via_engine = GramEngine(KastSpectrumKernel(cut_weight=2)).gram(corpus, normalized=True)
        np.testing.assert_array_equal(via_matrix, via_engine)

    def test_shared_interner_injected(self, corpus):
        interner = TokenInterner()
        kernel = KastSpectrumKernel(cut_weight=2)
        GramEngine(kernel, interner=interner)
        assert kernel.interner is interner


class TestPersistence:
    """Values outliving one engine: the pair store and stamped matrix payloads."""

    def test_save_and_load_roundtrip(self, corpus, tmp_path):
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        matrix = engine.matrix(corpus)
        payload = engine.matrix_payload(matrix, corpus)
        cache = MatrixCache(str(tmp_path / "matrix-cache"))
        cache.store(payload)
        found = cache.lookup(
            payload["kernel_signature"], True, payload["fingerprints"], payload["names"], payload["labels"]
        )
        loaded = KernelMatrix.from_dict(found.payload)
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.names == matrix.names
        assert loaded.kernel_name == matrix.kernel_name

    def test_compute_writes_cache_file(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        assert segment_files(root)

    def test_compute_reuses_cache_without_evaluations(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        kernel = CountingKernel(cut_weight=2)
        engine = stored_engine(kernel, root)
        matrix = engine.compute(corpus)
        assert kernel.value_calls == 0 and kernel.batch_values == 0
        assert engine.kernel_evals == 0  # self values came from the store too
        reference = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(corpus)
        np.testing.assert_array_equal(matrix.values, reference.values)

    def test_incremental_extension_matches_full_recompute(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus[:6])
        kernel = CountingKernel(cut_weight=2)
        extended = stored_engine(kernel, root).compute(corpus)
        # Only pairs touching the 4 appended strings get evaluated:
        # 6*4 cross pairs + C(4,2) new pairs = 30 < C(10,2) = 45.
        assert kernel.value_calls + kernel.batch_values <= 30
        full = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(corpus)
        np.testing.assert_array_equal(extended.values, full.values)

    def test_mismatched_cache_triggers_recompute(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        # A kernel with another cut weight must not reuse the stored values.
        other = stored_engine(KastSpectrumKernel(cut_weight=64), root).compute(corpus)
        reference = GramEngine(KastSpectrumKernel(cut_weight=64)).compute(corpus)
        np.testing.assert_allclose(other.values, reference.values)

    @pytest.mark.parametrize("content", ["{not json", "[1, 2, 3]", '{"names": 7}', '{"values": "x"}'])
    def test_corrupt_cache_file_is_ignored(self, corpus, tmp_path, content):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        for path in segment_files(root):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        kernel = CountingKernel(cut_weight=2)
        matrix = stored_engine(kernel, root).compute(corpus)
        assert kernel.value_calls + kernel.batch_values > 0  # damage is never served
        reference = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(corpus)
        np.testing.assert_array_equal(matrix.values, reference.values)

    def test_full_cache_hit_skips_rewrite(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        segments = segment_files(root)
        store = PairStore(root)
        matrix = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store).compute(corpus)
        assert segment_files(root) == segments
        assert store.counters()["puts"] == 0
        fresh = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(corpus)
        np.testing.assert_array_equal(matrix.values, fresh.values)

    def test_tiny_pair_cache_eviction_never_aliases(self, corpus):
        # Forcing registry eviction must never hand out a previously used
        # key int (which would alias different-content pairs in the cache).
        engine = GramEngine(KastSpectrumKernel(cut_weight=2), pair_cache_size=2)
        reference = KastSpectrumKernel(cut_weight=2, backend="python")
        expected = [reference.value(corpus[0], other) for other in corpus[1:]]
        for _ in range(2):
            assert [engine.pair_value(corpus[0], other) for other in corpus[1:]] == expected

    def test_same_names_different_content_recomputes(self, corpus, tmp_path):
        # Same example names, different token content: the stored values
        # must NOT be reused (fingerprints catch what names cannot).
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        renamed = [
            WeightedString(synthetic(10 + index, seed=1000 + index).tokens, name=string.name, label=string.label)
            for index, string in enumerate(corpus)
        ]
        kernel = CountingKernel(cut_weight=2)
        cached = stored_engine(kernel, root).compute(renamed)
        assert kernel.value_calls + kernel.batch_values > 0
        fresh = GramEngine(KastSpectrumKernel(cut_weight=2)).compute(renamed)
        np.testing.assert_allclose(cached.values, fresh.values)

    def test_kernel_flag_change_recomputes(self, corpus, tmp_path):
        # Same kernel name "kast(cut=2)" but different value-affecting flag:
        # the kernel signature must keep the stored values apart.
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        flagged_kernel = CountingKernel(cut_weight=2, filter_tokens_below_cut=True)
        cached = stored_engine(flagged_kernel, root).compute(corpus)
        assert flagged_kernel.value_calls + flagged_kernel.batch_values > 0
        fresh = GramEngine(KastSpectrumKernel(cut_weight=2, filter_tokens_below_cut=True)).compute(corpus)
        np.testing.assert_allclose(cached.values, fresh.values)


class TestBackendIntegrity:
    def test_engine_does_not_flip_python_backend_to_numpy(self, corpus):
        kernel = KastSpectrumKernel(cut_weight=2, backend="python")
        GramEngine(kernel, interner=TokenInterner())
        assert kernel.interner is None
        prepared = kernel._prepare(corpus[0])
        assert prepared.row_ids is None  # still on the pure-python search path


class TestSpecIntegration:
    def test_engine_derives_spec_from_registered_kernel(self, corpus):
        from repro.api.spec import make_spec

        engine = GramEngine(KastSpectrumKernel(cut_weight=4))
        assert engine.spec == make_spec("kast", cut_weight=4)
        assert engine.kernel_signature() == engine.spec.signature()

    def test_engine_built_from_spec_alone(self, corpus):
        engine = GramEngine(spec="kast")
        assert isinstance(engine.kernel, KastSpectrumKernel)
        reference = GramEngine(KastSpectrumKernel(cut_weight=2)).gram(corpus)
        np.testing.assert_array_equal(engine.gram(corpus), reference)

    def test_engine_requires_kernel_or_spec(self):
        with pytest.raises(ValueError):
            GramEngine()

    def test_unregistered_kernel_falls_back_to_name(self, corpus):
        class OddKernel(SpectrumKernel.__bases__[0]):  # bare StringKernel
            name = "odd"

            def value(self, a, b):
                return 1.0

        engine = GramEngine(OddKernel())
        assert engine.spec is None
        assert engine.kernel_signature() == "odd"

    def test_backend_change_does_not_invalidate_cache(self, corpus, tmp_path):
        # The backends are value-equivalent; the spec signature exempts them.
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2, backend="numpy"), root).compute(corpus)
        kernel = CountingKernel(cut_weight=2, backend="python")
        stored_engine(kernel, root).compute(corpus)
        assert kernel.value_calls == 0 and kernel.batch_values == 0

    @pytest.mark.parametrize(
        "changed",
        [
            dict(cut_weight=3),
            dict(filter_tokens_below_cut=True),
            dict(require_independent_occurrence=False),
        ],
    )
    def test_any_spec_field_change_invalidates_persistence(self, corpus, tmp_path, changed):
        # Regression: values persisted under one spec signature must be
        # recomputed whenever any value-affecting spec field changes.
        root = str(tmp_path / "pairs")
        stored_engine(KastSpectrumKernel(cut_weight=2), root).compute(corpus)
        same = CountingKernel(cut_weight=2)
        stored_engine(same, root).compute(corpus)
        assert same.value_calls == 0 and same.batch_values == 0  # full reuse
        kwargs = dict(cut_weight=2)
        kwargs.update(changed)
        different = CountingKernel(**kwargs)
        stored_engine(different, root).compute(corpus)
        assert different.value_calls + different.batch_values > 0  # recomputed

    def test_matrix_payload_always_stamps(self, corpus):
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        matrix = engine.matrix(corpus)
        payload = engine.matrix_payload(matrix, corpus)
        assert payload["kernel_signature"] == engine.kernel_signature()
        assert len(payload["fingerprints"]) == len(corpus)
        with pytest.raises(ValueError):
            engine.matrix_payload(matrix, corpus[:-1])

    def test_compute_cache_file_carries_signature(self, corpus, tmp_path):
        root = str(tmp_path / "pairs")
        engine = stored_engine(KastSpectrumKernel(cut_weight=2), root)
        engine.compute(corpus)
        for path in segment_files(root):
            with open(path, "r", encoding="utf-8") as handle:
                assert json.load(handle)["signature"] == engine.kernel_signature()


class TestMatrixPayload:
    def test_payload_is_self_describing(self, corpus):
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        matrix = engine.matrix(corpus)
        payload = engine.matrix_payload(matrix, corpus)
        assert payload["kernel_signature"] == engine.kernel_signature()
        assert payload["kernel_spec"]["kind"] == "kast"
        assert len(payload["fingerprints"]) == len(corpus)
        # The payload still loads as a plain matrix.
        loaded = KernelMatrix.from_dict(payload)
        np.testing.assert_allclose(loaded.values, matrix.values)


class TestExplicitSpecShorthand:
    def test_kernel_plus_spec_shorthand_is_coerced(self, corpus):
        # Regression: a str/dict spec passed alongside a live kernel used to
        # be stored raw, crashing kernel_signature()/matrix_payload()/save.
        from repro.api.spec import make_spec

        engine = GramEngine(SpectrumKernel(k=2), spec="spectrum")
        assert engine.spec == make_spec("spectrum")
        assert engine.kernel_signature() == make_spec("spectrum").signature()
        payload = engine.matrix_payload(engine.matrix(corpus[:4]), corpus[:4])
        assert payload["kernel_spec"]["kind"] == "spectrum"

    def test_partial_spec_engine_matches_canonical_signature(self, corpus, tmp_path):
        # Values stored under the canonical spec must be reused by an
        # engine configured with the equivalent partial-JSON spec.
        root = str(tmp_path / "pairs")
        GramEngine(spec="kast", pair_store=PairStore(root)).compute(corpus)
        counting = CountingKernel(cut_weight=2)
        stored_engine(counting, root, spec='{"kind": "kast"}').compute(corpus)
        assert counting.value_calls == 0 and counting.batch_values == 0


class TestBlockSharding:
    """The block seam the service layer's sharded Gram jobs are built on."""

    def test_plan_index_blocks_partitions_the_range(self):
        from repro.core.engine import plan_index_blocks

        for count in (0, 1, 2, 7, 10, 110):
            for shards in (1, 2, 3, 5, 200):
                blocks = plan_index_blocks(count, shards)
                covered = [i for start, stop in blocks for i in range(start, stop)]
                assert covered == list(range(count))
                if count:
                    assert len(blocks) == min(shards, count)
                    sizes = [stop - start for start, stop in blocks]
                    assert max(sizes) - min(sizes) <= 1

    def test_plan_index_blocks_rejects_bad_arguments(self):
        from repro.core.engine import plan_index_blocks

        with pytest.raises(ValueError):
            plan_index_blocks(-1, 2)
        with pytest.raises(ValueError):
            plan_index_blocks(4, 0)

    def test_block_index_pairs_cover_upper_triangle_once(self):
        from repro.core.engine import block_index_pairs, plan_index_blocks

        count = 11
        blocks = plan_index_blocks(count, 3)
        seen = []
        for first_index, first in enumerate(blocks):
            for second in blocks[first_index:]:
                seen.extend(block_index_pairs(first, second))
        expected = [(i, j) for i in range(count) for j in range(i + 1, count)]
        assert sorted(seen) == expected
        assert len(seen) == len(set(seen))

    def test_block_index_pairs_rejects_overlap(self):
        from repro.core.engine import block_index_pairs

        with pytest.raises(ValueError):
            block_index_pairs((0, 4), (2, 6))

    def test_sharded_assembly_is_bit_identical_to_gram(self, corpus):
        from repro.core.engine import block_index_pairs, plan_index_blocks

        reference = GramEngine(KastSpectrumKernel(cut_weight=2)).gram(corpus)
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        blocks = plan_index_blocks(len(corpus), 3)
        raw = {}
        for first_index, first in enumerate(blocks):
            for second in blocks[first_index:]:
                pairs = block_index_pairs(first, second)
                if pairs:
                    raw.update(engine.evaluate_pairs(corpus, pairs))
        assembled = engine.assemble_gram(corpus, raw)
        assert np.array_equal(reference, assembled)

    def test_assemble_gram_rejects_missing_pairs(self, corpus):
        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        subset = corpus[:4]
        raw = engine.evaluate_pairs(subset, [(0, 1), (0, 2), (0, 3), (1, 2)])
        with pytest.raises(ValueError, match="does not cover"):
            engine.assemble_gram(subset, raw)

    def test_pair_value_codec_round_trips_exact_floats(self, corpus):
        from repro.core.engine import decode_pair_values, encode_pair_values

        engine = GramEngine(KastSpectrumKernel(cut_weight=2))
        subset = corpus[:5]
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        raw = engine.evaluate_pairs(subset, pairs)
        # The JSON wire trip (what a worker writes and the server reads)
        # must preserve every float bit-for-bit.
        rows = json.loads(json.dumps(encode_pair_values(raw)))
        assert decode_pair_values(rows) == raw

    def test_decode_pair_values_rejects_malformed_rows(self):
        from repro.core.engine import decode_pair_values

        with pytest.raises(ValueError):
            decode_pair_values([[0, 1]])
        with pytest.raises(ValueError):
            decode_pair_values(["0,1,2.0"])


class TestKeyRegistryEviction:
    def test_interning_past_the_bound_does_not_wipe_warm_caches(self):
        # Regression: interning one string past pair_cache_size distinct
        # token tuples used to clear the ENTIRE value cache.  Eviction
        # must be incremental — warm entries keep serving hits and the
        # kernel-eval counter must not spike across the boundary.
        kernel = CountingKernel(cut_weight=2)
        engine = GramEngine(kernel, pair_cache_size=8)
        corpus = [synthetic(10 + index, seed=100 + index) for index in range(8)]
        # Eight strings fill the key registry, and 4 pairs + 4 self values
        # fill the value LRU exactly.
        engine.evaluate_pairs(corpus, [(0, 1), (2, 3), (4, 5), (6, 7)])
        engine.self_values(corpus[4:])
        warm_pair_evaluations = kernel.value_calls + kernel.batch_values
        warm_evaluations = engine.kernel_evals  # 4 pairs + 4 self values
        assert warm_evaluations == 8
        assert engine.cache_info()["pair_entries"] == 8

        # One novel string pushes the registry past its bound (retiring
        # corpus[0]) and its self value pushes the oldest pair out of the
        # LRU...
        engine.self_value(synthetic(9, seed=999))
        # ...and the other warm entries must still be there: re-evaluating
        # cached pairs and self values costs zero kernel work.
        engine.pair_value(corpus[4], corpus[5])
        engine.self_value(corpus[6])
        assert kernel.value_calls + kernel.batch_values == warm_pair_evaluations
        assert engine.kernel_evals == warm_evaluations + 1  # the novel self value only

    def test_evicted_key_recomputes_only_itself(self):
        kernel = CountingKernel(cut_weight=2)
        engine = GramEngine(kernel, pair_cache_size=4)
        corpus = [synthetic(10 + index, seed=200 + index) for index in range(4)]
        for string in corpus:
            engine.self_value(string)
        # Four more strings retire the four original registry entries.
        for index in range(4):
            engine.self_value(synthetic(10 + index, seed=300 + index))
        before = engine.kernel_evals
        # A fresh object with the oldest content re-registers and recomputes
        # exactly one self value — not the whole corpus.
        revived = WeightedString(corpus[0].tokens, name="revived")
        engine.self_value(revived)
        assert engine.kernel_evals == before + 1


def gram_routes(spec, strings, tmp_path):
    """The pre-repair Gram over *strings* through every cache route, by name."""

    def matrix(session):
        return session.matrix(spec, strings, repair=False).values

    def self_values_first(session):
        session.engine(spec).self_values(strings)
        return matrix(session)

    fresh, primed = str(tmp_path / "fresh"), str(tmp_path / "self-first")
    routes = {"store-less, self values first": self_values_first(AnalysisSession())}
    routes["fresh store"] = matrix(AnalysisSession(pair_store=fresh))
    routes["self values stored first"] = self_values_first(AnalysisSession(pair_store=primed))
    routes["reopened in a fresh session"] = matrix(AnalysisSession(pair_store=fresh))
    routes["reopened after self values"] = matrix(AnalysisSession(pair_store=primed))
    return routes


class TestSelfAndTwinKeys:
    """A twin pair (two content-identical strings) equals ``k(a, a)``.

    Both are the diagonal key ``(k, k)`` of one table and ``(fp, fp)`` in the
    pair store, so whichever route computes or stores the value first, the
    Gram matches the store-less one — light strings (weight below the cut,
    ``k(a, a) = 0``) included.
    """

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("cut_weight", [2, 5, 20])
    def test_light_twins_match_the_store_less_gram(self, backend, cut_weight, tmp_path):
        light = WeightedString.from_pairs([("b", 1)], name="b")
        strings = [
            light,
            WeightedString(light.tokens, name="b-renamed"),
            WeightedString.from_pairs([("a", 3), ("b", 2)], name="ab"),
        ]
        spec = make_spec("kast", cut_weight=cut_weight, backend=backend)
        expected = AnalysisSession().matrix(spec, strings, repair=False).values
        raw = AnalysisSession().matrix(spec, strings, normalized=False, repair=False).values
        assert raw[0, 1] == raw[0, 0] == raw[1, 1] == 0.0  # b:1 is light at every cut here
        assert expected[0, 1] == expected[0, 0] == 0.0
        for route, values in gram_routes(spec, strings, tmp_path).items():
            np.testing.assert_array_equal(values, expected, err_msg=route)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("cut_weight", [1, 2, 5])
    def test_a_twin_pair_costs_no_evaluation_beyond_its_self_value(self, backend, cut_weight):
        heavy = WeightedString.from_pairs([("a", 3), ("b", 2)], name="ab")
        strings = [heavy, WeightedString(heavy.tokens, name="ab-renamed"), synthetic(6, seed=3)]
        kernel = KastSpectrumKernel(cut_weight=cut_weight, backend=backend)
        engine = GramEngine(kernel)
        raw = engine.gram(strings, normalized=False)
        # Distinct keys: the twin pair and both twins' self values are the
        # one (ab, ab) entry, plus (ab, s), (s, s) — 3 evaluations, not the
        # 2 pairs + 2 self values the 3x3 Gram has by position.
        assert engine.kernel_evals == 3
        assert raw[0, 1] == raw[0, 0] == raw[1, 1] == kernel.value(heavy, heavy)
        engine.pair_value(strings[0], strings[1])
        engine.self_value(WeightedString(heavy.tokens, name="third"))
        assert engine.kernel_evals == 3

    def test_paper_corpus_at_a_high_cut_matches_the_store_less_gram(self, tmp_path):
        strings = list(paper_strings())
        spec = make_spec("kast", cut_weight=1024)
        expected = AnalysisSession().matrix(spec, strings, repair=False).values
        assert len({string.fingerprint for string in strings}) < len(strings)  # twins present
        for route, values in gram_routes(spec, strings, tmp_path).items():
            np.testing.assert_array_equal(values, expected, err_msg=route)


class TestPairRecency:
    @pytest.mark.parametrize("hit", ["evaluate_pairs", "pair_value"])
    def test_a_hit_refreshes_the_pair_lru(self, hit):
        # Six pairs fill a six-entry cache; hitting the oldest must make it
        # the newest, so the next novel pair evicts another one.
        corpus = [synthetic(10 + index, seed=400 + index) for index in range(5)]
        engine = GramEngine(KastSpectrumKernel(cut_weight=2), pair_cache_size=6)
        engine.evaluate_pairs(corpus, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert engine.cache_info()["pair_entries"] == 6
        if hit == "evaluate_pairs":
            engine.evaluate_pairs(corpus, [(0, 1)])
        else:
            engine.pair_value(corpus[0], corpus[1])
        engine.evaluate_pairs(corpus, [(0, 4)])
        before = engine.kernel_evals
        engine.evaluate_pairs(corpus, [(0, 1)])
        assert engine.kernel_evals == before
