"""Tests for the persistent Gram-result cache (repro.core.cachestore)."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import AnalysisSession, make_spec
from repro.core.cachestore import MatrixCache, MatrixCacheError, payload_identity
from repro.strings.tokens import WeightedString


def make_payload(signature="sig-a", count=3, normalized=True, start=0, salt=""):
    """A synthetic stamped matrix payload covering examples [start, start+count)."""
    indices = list(range(start, start + count))
    return {
        "kernel": "kast(cut=2)",
        "normalized": normalized,
        "names": [f"trace{i}" for i in indices],
        "labels": ["A" if i % 2 == 0 else None for i in indices],
        "values": [[float(i == j) for j in indices] for i in indices],
        "fingerprints": [f"fp{salt}{i}" for i in indices],
        "kernel_signature": signature,
    }


def identity_args(payload):
    """lookup() arguments matching *payload* exactly."""
    return (
        payload["kernel_signature"],
        payload["normalized"],
        payload["fingerprints"],
        payload["names"],
        payload["labels"],
    )


def entry_files(cache):
    """Every file under the cache's signature buckets."""
    files = []
    for bucket in os.listdir(cache.root):
        for name in os.listdir(os.path.join(cache.root, bucket)):
            files.append(os.path.join(cache.root, bucket, name))
    return sorted(files)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def cache(tmp_path):
    return MatrixCache(str(tmp_path / "cache"))


class TestStoreAndLookup:
    def test_exact_hit_round_trips_the_payload(self, cache):
        payload = make_payload()
        cache.store(payload)
        found = cache.lookup(*identity_args(payload))
        assert found.status == "hit"
        assert found.payload == payload

    def test_miss_on_empty_cache(self, cache):
        assert cache.lookup("sig-a", True, ["fp0"], ["trace0"], ["A"]).status == "miss"

    def test_cached_strict_prefix_is_a_miss(self, cache):
        # Only exact corpora are served; a grown corpus's overlap is the
        # pair layers' job, not the result cache's.
        cache.store(make_payload(count=2))
        cache.store(make_payload(count=4))
        found = cache.lookup(*identity_args(make_payload(count=6)))
        assert found.status == "miss"
        assert found.payload is None

    def test_exact_match_wins_over_shorter_prefixes(self, cache):
        cache.store(make_payload(count=2))
        exact = make_payload(count=4)
        cache.store(exact)
        found = cache.lookup(*identity_args(exact))
        assert found.status == "hit"
        assert found.payload == exact

    def test_lookup_reads_only_the_requested_entry(self, cache):
        # The entry key is computed from the request, so damage elsewhere
        # in the signature's bucket is neither read, counted nor removed.
        payloads = [make_payload(salt=salt) for salt in ("a", "b", "c")]
        for payload in payloads:
            cache.store(payload)
        [unrelated] = [
            path
            for path in entry_files(cache)
            if path.endswith(".meta.json")
            and read_json(path)["fingerprints"] == payloads[0]["fingerprints"]
        ]
        with open(unrelated, "w", encoding="utf-8") as handle:
            handle.write("not json")
        files = entry_files(cache)
        found = cache.lookup(*identity_args(payloads[2]))
        assert found.status == "hit"
        assert found.payload == payloads[2]
        assert cache.stats()["invalid"] == 0
        assert entry_files(cache) == files  # the corrupt entry is left in place

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"signature": "sig-b"},
            {"normalized": False},
            {"salt": "x"},  # same names, different content fingerprints
        ],
    )
    def test_value_relevant_mismatches_miss(self, cache, kwargs):
        cache.store(make_payload())
        request = make_payload(**kwargs)
        assert cache.lookup(*identity_args(request)).status == "miss"

    def test_name_and_label_mismatches_miss(self, cache):
        cache.store(make_payload())
        payload = make_payload()
        renamed = dict(payload, names=["other0"] + payload["names"][1:])
        assert cache.lookup(*identity_args(renamed)).status == "miss"
        relabeled = dict(payload, labels=["Z"] + payload["labels"][1:])
        assert cache.lookup(*identity_args(relabeled)).status == "miss"

    def test_unstamped_payload_is_refused(self, cache):
        with pytest.raises(MatrixCacheError):
            cache.store({"values": [[1.0]], "names": ["a"], "labels": [None]})
        with pytest.raises(MatrixCacheError):
            payload_identity({"kernel_signature": "s"})

    def test_empty_corpus_payload_is_refused(self, cache):
        with pytest.raises(MatrixCacheError):
            cache.store(make_payload(count=0))

    def test_restore_same_entry_is_idempotent(self, cache):
        payload = make_payload()
        assert cache.store(payload) == cache.store(payload)
        assert cache.stats()["entries"] == 1


class TestDamageHandling:
    def test_corrupt_payload_checksum_invalidates_entry(self, cache):
        payload = make_payload()
        cache.store(payload)
        [payload_file] = [f for f in entry_files(cache) if f.endswith(".payload.json")]
        with open(payload_file, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(payload, values=[[9.0] * 3] * 3)))
        found = cache.lookup(*identity_args(payload))
        assert found.status == "miss"
        assert cache.stats()["invalid"] == 1
        assert entry_files(cache) == []  # damage self-heals by removal

    def test_torn_payload_invalidates_entry(self, cache):
        payload = make_payload()
        cache.store(payload)
        [payload_file] = [f for f in entry_files(cache) if f.endswith(".payload.json")]
        with open(payload_file, "w", encoding="utf-8") as handle:
            handle.write('{"truncated": ')
        assert cache.lookup(*identity_args(payload)).status == "miss"

    def test_damaged_meta_invalidates_entry(self, cache):
        payload = make_payload()
        cache.store(payload)
        [meta_file] = [f for f in entry_files(cache) if f.endswith(".meta.json")]
        with open(meta_file, "w", encoding="utf-8") as handle:
            handle.write("not json")
        assert cache.lookup(*identity_args(payload)).status == "miss"
        assert entry_files(cache) == []

    def test_meta_without_payload_is_a_miss(self, cache):
        payload = make_payload()
        cache.store(payload)
        [payload_file] = [f for f in entry_files(cache) if f.endswith(".payload.json")]
        os.remove(payload_file)
        assert cache.lookup(*identity_args(payload)).status == "miss"


class TestFormatUpgrade:
    def test_version_1_entries_are_dropped_and_recomputed(self, tmp_path):
        # A version-1 entry normalised a string lighter than the cut weight
        # by the squared string weight: b:1 at cut 2 had a diagonal of 1.0.
        root = str(tmp_path / "cache")
        light = WeightedString.from_pairs([("b", 1)], name="b")
        strings = [light, WeightedString.from_pairs([("a", 3), ("b", 2)], name="ab")]
        spec = make_spec("kast", cut_weight=2)
        expected, status = AnalysisSession(matrix_cache=root).matrix_cached(spec, strings, repair=False)
        assert status == "miss" and expected.values[0, 0] == 0.0
        cache = MatrixCache(root)
        [meta_file] = [f for f in entry_files(cache) if f.endswith(".meta.json")]
        [payload_file] = [f for f in entry_files(cache) if f.endswith(".payload.json")]
        payload = read_json(payload_file)
        payload["values"][0][0] = 1.0
        text = json.dumps(payload, sort_keys=True)
        with open(payload_file, "w", encoding="utf-8") as handle:
            handle.write(text)
        meta = dict(read_json(meta_file), v=1, payload_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
        with open(meta_file, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

        session = AnalysisSession(matrix_cache=root)
        matrix, status = session.matrix_cached(spec, strings, repair=False)
        assert status == "miss"
        assert (matrix.values == expected.values).all()
        assert session.matrix_cache.counters()["invalid"] == 1
        assert read_json([f for f in entry_files(cache) if f.endswith(".meta.json")][0])["v"] == 2
        assert AnalysisSession(matrix_cache=root).matrix_cached(spec, strings, repair=False)[1] == "hit"


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        cache = MatrixCache(str(tmp_path), max_entries=2)
        first = make_payload(signature="sig-1")
        second = make_payload(signature="sig-2")
        cache.store(first)
        cache.store(second)
        # Serve `first` so it becomes the most recently used entry.
        assert cache.lookup(*identity_args(first)).status == "hit"
        cache.store(make_payload(signature="sig-3"))
        # store() never evicts: the bound waits for a sweep.
        assert cache.stats()["entries"] == 3
        assert len(cache.sweep()) == 1
        assert cache.lookup(*identity_args(first)).status == "hit"
        assert cache.lookup(*identity_args(second)).status == "miss"
        assert cache.stats()["entries"] == 2
        assert cache.stats()["evictions"] == 1

    def test_ttl_sweep_drops_idle_entries(self, cache):
        payload = make_payload()
        cache.store(payload)
        assert cache.sweep(ttl=3600) == []
        evicted = cache.sweep(ttl=0)
        assert len(evicted) == 1
        assert cache.lookup(*identity_args(payload)).status == "miss"

    def test_clear_removes_everything(self, cache):
        cache.store(make_payload(signature="sig-1"))
        cache.store(make_payload(signature="sig-2"))
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            MatrixCache(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError):
            MatrixCache(str(tmp_path), ttl=-1)


class TestStats:
    def test_counters_track_outcomes(self, cache):
        payload = make_payload()
        cache.lookup(*identity_args(payload))
        cache.store(payload)
        cache.lookup(*identity_args(payload))
        stats = cache.stats()
        assert "prefix_hits" not in stats
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["stores"] == 1
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0
