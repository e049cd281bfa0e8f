"""Unit tests for the persistent pair-value store (repro.core.pairstore)."""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.core.engine import GramEngine, string_fingerprint
from repro.core.kast import KastSpectrumKernel
from repro.core.pairstore import PairStore, PairStoreError
from repro.strings.tokens import Token, WeightedString

SIG = "kast|cut_weight=2"


def synthetic(length: int, seed: int, alphabet: int = 6) -> WeightedString:
    rng = random.Random(seed)
    tokens = [Token(f"op{rng.randrange(alphabet)}", rng.randint(1, 40)) for _ in range(length)]
    return WeightedString(tokens, name=f"synthetic_{seed}", label="A")


def fp(index: int) -> str:
    return f"{index:040x}"


def segment_paths(store: PairStore):
    found = []
    for root, _, names in os.walk(store.root):
        found.extend(os.path.join(root, name) for name in names if name.startswith("seg-"))
    return sorted(found)


class TestRoundTrip:
    def test_put_then_get_returns_exact_floats(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        values = {(fp(1), fp(2)): 0.1 + 0.2, (fp(3), fp(4)): 1e-17, (fp(5), fp(6)): 123456.75}
        assert store.put_many(SIG, values) == 3
        found = store.get_many(SIG, list(values))
        assert found == values  # bit-identical floats, not approximately equal

    def test_symmetric_canonical_ordering(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(9), fp(1)): 2.5})
        # Either orientation finds the value; the result is keyed canonically.
        assert store.get_many(SIG, [(fp(1), fp(9))]) == {(fp(1), fp(9)): 2.5}
        assert store.get_many(SIG, [(fp(9), fp(1))]) == {(fp(1), fp(9)): 2.5}

    def test_missing_pairs_are_absent_and_counted(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        found = store.get_many(SIG, [(fp(1), fp(2)), (fp(3), fp(4))])
        assert found == {(fp(1), fp(2)): 1.0}
        counters = store.counters()
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_signatures_are_isolated(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        assert store.get_many("other-kernel", [(fp(1), fp(2))]) == {}

    def test_values_survive_reopening(self, tmp_path):
        PairStore(str(tmp_path / "pairs")).put_many(SIG, {(fp(1), fp(2)): 7.5})
        reopened = PairStore(str(tmp_path / "pairs"))
        assert reopened.get_many(SIG, [(fp(1), fp(2))]) == {(fp(1), fp(2)): 7.5}

    def test_empty_fingerprints_rejected(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        with pytest.raises(PairStoreError):
            store.put_many(SIG, {("", fp(1)): 1.0})

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PairStore(str(tmp_path / "a"), max_bytes=0)
        with pytest.raises(ValueError):
            PairStore(str(tmp_path / "b"), ttl=-1)


class TestSegments:
    def test_one_batch_writes_at_most_one_segment_per_bucket(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(i), fp(i + 1000)): float(i) for i in range(200)})
        # 200 pairs land in exactly one segment: one file, one fsync.
        assert len(segment_paths(store)) == 1

    def test_torn_segment_is_healed_not_served(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (path,) = segment_paths(store)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"v": 1, "pairs": [["')  # torn mid-write
        # The writer verified its segment once, when it wrote it.
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {(fp(1), fp(2)): 1.0}
        reader = PairStore(str(tmp_path / "pairs"))
        assert reader.get_many(SIG, [(fp(1), fp(2))]) == {}
        assert not os.path.exists(path)  # self-healed
        assert reader.counters()["invalid"] == 1

    def test_checksum_mismatch_is_treated_as_damage(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (path,) = segment_paths(store)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["pairs"][0][2] = 99.0  # flipped value, stale checksum
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {(fp(1), fp(2)): 1.0}
        reader = PairStore(str(tmp_path / "pairs"))
        assert reader.get_many(SIG, [(fp(1), fp(2))]) == {}
        assert reader.counters()["invalid"] == 1

    def test_compaction_merges_a_bucket_and_keeps_every_value(self, tmp_path, monkeypatch):
        monkeypatch.setattr(PairStore, "COMPACT_SEGMENTS", 3)
        store = PairStore(str(tmp_path / "pairs"))
        # A sweep that meets only damage learns no signature from it; the
        # merges below must still write segments under the right one.
        os.makedirs(store._signature_dir(SIG))
        with open(os.path.join(store._signature_dir(SIG), "seg-torn.json"), "w", encoding="utf-8") as handle:
            handle.write("{")
        store.sweep()
        # Each put adds one small segment until the threshold triggers a merge.
        values = {(fp(index), fp(index)): float(index) for index in range(8)}
        for pair, value in values.items():
            store.put_many(SIG, {pair: value})
        assert store.counters()["compactions"] >= 1
        assert len(segment_paths(store)) <= 3
        assert store.get_many(SIG, list(values)) == values
        assert PairStore(store.root).get_many(SIG, list(values)) == values


class TestIndex:
    @staticmethod
    def count_parses(monkeypatch, store):
        parsed = []
        load = PairStore._load_segment

        def counting(self, path, signature):
            if self is store:
                parsed.append(path)
            return load(self, path, signature)

        monkeypatch.setattr(PairStore, "_load_segment", counting)
        return parsed

    def test_lookups_parse_each_segment_once_and_stay_flat(self, tmp_path, monkeypatch):
        root = str(tmp_path / "pairs")
        writer, reader = PairStore(root), PairStore(root)
        parsed = self.count_parses(monkeypatch, reader)
        stored = {}
        for batch in range(6):
            values = {(fp(batch * 100 + i), fp(batch * 100 + i + 50)): float(i) for i in range(40)}
            writer.put_many(SIG, values)
            stored.update(values)
            wanted = list(stored) + [(fp(9000), fp(9001))]
            del parsed[:]
            assert reader.get_many(SIG, wanted) == stored
            assert len(parsed) == 1  # only the new segment, however many exist
            for _ in range(3):
                assert reader.get_many(SIG, wanted) == stored
            assert len(parsed) == 1  # repeated lookups parse nothing

    def test_a_hit_touches_only_the_segment_that_served_it(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (older,) = segment_paths(store)
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (newer,) = set(segment_paths(store)) - {older}
        store.put_many(SIG, {(fp(3), fp(4)): 2.0})
        (other,) = set(segment_paths(store)) - {older, newer}
        for path in (older, newer, other):
            os.utime(path, (1, 1))
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {(fp(1), fp(2)): 1.0}
        assert os.path.getmtime(newer) > 1
        assert os.path.getmtime(older) == 1
        assert os.path.getmtime(other) == 1

    def test_other_instances_see_written_and_swept_segments(self, tmp_path):
        root = str(tmp_path / "pairs")
        first, second = PairStore(root), PairStore(root)
        pair = (fp(1), fp(2))
        assert first.get_many(SIG, [pair]) == {}
        second.put_many(SIG, {pair: 3.5})
        assert first.get_many(SIG, [pair]) == {pair: 3.5}
        first.put_many(SIG, {(fp(3), fp(4)): 4.5})
        assert second.get_many(SIG, [(fp(3), fp(4))]) == {(fp(3), fp(4)): 4.5}
        second.sweep(ttl=0)
        assert first.get_many(SIG, [pair, (fp(3), fp(4))]) == {}
        assert first.counters()["invalid"] == 0

    @pytest.mark.parametrize("drop", ["sweep", "clear"])
    def test_pre_log_bucket_directories_are_ignored_then_removed(self, tmp_path, drop):
        store = PairStore(str(tmp_path / "pairs"))
        bucket = os.path.join(store._signature_dir(SIG), "a")
        os.makedirs(bucket)
        rows = [[fp(1), fp(2), 99.0]]
        checksum = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        payload = {"v": 1, "signature": SIG, "pairs": rows, "sha256": checksum}
        with open(os.path.join(bucket, "seg-0.json"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {}
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {(fp(1), fp(2)): 1.0}
        assert store.stats()["entries"] == 1
        getattr(store, drop)()
        assert not os.path.exists(bucket)
        assert store.counters()["invalid"] == 0


class TestSweep:
    def test_ttl_sweep_drops_idle_segments(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"), ttl=100.0)
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (path,) = segment_paths(store)
        now = os.path.getmtime(path)
        assert store.sweep(now=now + 50) == []
        removed = store.sweep(now=now + 200)
        assert removed == [path]
        assert store.get_many(SIG, [(fp(1), fp(2))]) == {}

    def test_size_sweep_evicts_least_recently_used_first(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (old_path,) = segment_paths(store)
        os.utime(old_path, (1, 1))  # ancient
        store.put_many(SIG, {(fp(3), fp(4)): 2.0})
        removed = store.sweep(max_bytes=os.path.getsize(old_path))
        assert old_path in removed
        assert store.get_many(SIG, [(fp(3), fp(4))]) == {(fp(3), fp(4)): 2.0}

    def test_read_hits_refresh_the_lru_order(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0})
        (path,) = segment_paths(store)
        os.utime(path, (1, 1))
        store.get_many(SIG, [(fp(1), fp(2))])  # hit touches the segment
        assert os.path.getmtime(path) > 1

    def test_clear_empties_the_store(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(i), fp(i + 7)): float(i) for i in range(20)})
        before = len(segment_paths(store))
        assert store.clear() == before
        assert segment_paths(store) == []
        assert store.clear() == 0  # idempotent
        assert store.stats()["entries"] == 0


class TestStats:
    def test_stats_report_entries_segments_and_counters(self, tmp_path):
        store = PairStore(str(tmp_path / "pairs"))
        store.put_many(SIG, {(fp(1), fp(2)): 1.0, (fp(3), fp(4)): 2.0})
        store.get_many(SIG, [(fp(1), fp(2))])
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["segments"] == len(segment_paths(store))
        assert stats["payload_bytes"] > 0
        assert stats["hits"] == 1 and stats["puts"] == 2


class TestEngineSeam:
    def test_engine_populates_and_reuses_the_store(self, tmp_path):
        corpus = [synthetic(12 + index, seed=index) for index in range(6)]
        store = PairStore(str(tmp_path / "pairs"))
        warm = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store)
        first = warm.gram(corpus)
        assert warm.kernel_evals == 15 + 6  # every pair and self value computed

        # A cold engine sharing the store computes NOTHING.
        cold = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store)
        second = cold.gram(corpus)
        assert cold.kernel_evals == 0
        assert cold.store_misses == 0
        assert (first == second).all()

    def test_pair_value_round_trips_through_the_store(self, tmp_path):
        corpus = [synthetic(12, seed=1), synthetic(13, seed=2)]
        store = PairStore(str(tmp_path / "pairs"))
        warm = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store)
        value = warm.pair_value(corpus[0], corpus[1])
        cold = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store)
        assert cold.pair_value(corpus[1], corpus[0]) == value
        assert cold.kernel_evals == 0 and cold.store_hits == 1

    def test_store_key_is_content_not_identity(self, tmp_path):
        corpus = [synthetic(12, seed=1), synthetic(13, seed=2)]
        store = PairStore(str(tmp_path / "pairs"))
        GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store).pair_value(*corpus)
        twins = [WeightedString(s.tokens, name=f"twin-{i}") for i, s in enumerate(corpus)]
        assert string_fingerprint(twins[0]) == string_fingerprint(corpus[0])
        cold = GramEngine(KastSpectrumKernel(cut_weight=2), pair_store=store)
        cold.pair_value(*twins)
        assert cold.kernel_evals == 0
