"""End-to-end tests for the service-layer matrix result cache.

Covers the PR-5 acceptance criteria: resubmitting an identical
``submit-matrix`` to a live or restarted server returns a byte-identical
payload without re-evaluating kernel pairs (asserted via the engine cache
counters), grown corpora miss the result cache but reuse the cached
values through the pair store, identical in-flight
submissions coalesce onto one job, and the cache is observable over the
wire (``cache-stats``) and bypassable (``use_cache=False``).
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api import AnalysisSession, make_spec
from repro.service import DEFAULT_TENANT, AnalysisServer
from repro.service.protocol import (
    CacheStatsRequest,
    ResultRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    check_response,
    encode_corpus,
)

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)


@pytest.fixture
def server(tmp_path):
    with AnalysisServer(state_dir=str(tmp_path / "state")) as live:
        yield live


def submit(server, strings, **options):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **options
            ).to_payload()
        )
    )
    return response


def wait_result(server, job_id, wait=120.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload())
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def pair_counters(server):
    info = server.session.engine(SPEC).cache_info()
    return info["pair_hits"], info["pair_misses"]


def kernel_evals(server):
    return server.session.engine(SPEC).cache_info()["kernel_evals"]


def cold_payload(count):
    """The payload of a cold, cache-free computation over the first *count* strings."""
    with AnalysisSession() as cold:
        cold_strings = cold.corpus(small=True, seed=7)[:count]
        matrix = cold.matrix(SPEC, cold_strings)
        return cold.engine(SPEC).matrix_payload(matrix, cold_strings)


#: Values a grown 12-string corpus adds to a cached 8-string one: the
#: pairs involving an appended string (8+9+10+11) and their self values.
APPENDED_VALUES = 38 + 4


class TestLiveResubmission:
    def test_identical_resubmission_is_a_byte_identical_hit(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus)["job_id"])
        counters = pair_counters(server)
        second = wait_result(server, submit(server, corpus)["job_id"])
        assert first.get("cache") == "miss"
        assert second.get("cache") == "hit"
        assert canonical(first["payload"]) == canonical(second["payload"])
        # No kernel-pair work at all: the engine caches were never consulted.
        assert pair_counters(server) == counters

    def test_sharded_resubmission_hits_too(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus, shards=3)["job_id"])
        counters = pair_counters(server)
        second = wait_result(server, submit(server, corpus, shards=3)["job_id"])
        assert second.get("cache") == "hit"
        assert canonical(first["payload"]) == canonical(second["payload"])
        assert pair_counters(server) == counters

    def test_use_cache_false_bypasses_but_stays_identical(self, server, strings):
        corpus = strings[:8]
        first = wait_result(server, submit(server, corpus)["job_id"])
        bypassed = wait_result(server, submit(server, corpus, use_cache=False)["job_id"])
        assert bypassed.get("cache") == "bypass"
        assert canonical(first["payload"]) == canonical(bypassed["payload"])

    def test_status_carries_the_cache_outcome(self, server, strings):
        from repro.service.protocol import StatusRequest

        job_id = submit(server, strings[:6])["job_id"]
        wait_result(server, job_id)
        status = check_response(server.handle(StatusRequest(job_id=job_id).to_payload()))
        assert status.get("cache") == "miss"


class TestDurableWrites:
    def test_a_cold_matrix_job_makes_eight_durable_writes(self, server, strings, monkeypatch, tmp_path):
        # Record create and claim, two pair-store segments, the matrix-cache
        # payload and meta, then the result payload before the record that
        # marks the job done and carries its cache outcome.
        from repro.core import atomicio, cachestore, pairstore
        from repro.service import jobstore

        written = []
        original = atomicio.write_text_atomic

        def counting(path, text):
            written.append(path)
            original(path, text)

        for module in (atomicio, cachestore, jobstore, pairstore):
            monkeypatch.setattr(module, "write_text_atomic", counting)
        job_id = submit(server, strings[:8])["job_id"]
        result = wait_result(server, job_id)
        assert result.get("cache") == "miss"
        assert len(written) == 8, written
        record = server.tenants.context(DEFAULT_TENANT).store.get(job_id)
        assert record.options["cache"] == "miss"
        assert os.path.basename(written[-2]) == f"{job_id}.json" and "payloads" in written[-2]
        assert "payloads" not in written[-1] and job_id in written[-1]


class TestRestartResubmission:
    def test_restarted_server_serves_from_cache_with_a_cold_engine(self, tmp_path, strings):
        corpus = strings[:8]
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first_server:
            original = wait_result(first_server, submit(first_server, corpus)["job_id"])
        with AnalysisServer(state_dir=state_dir) as second_server:
            again = wait_result(second_server, submit(second_server, corpus)["job_id"])
            assert again.get("cache") == "hit"
            # A freshly started server: zero pair evaluations ever happened.
            assert pair_counters(second_server) == (0, 0)
        assert canonical(original["payload"]) == canonical(again["payload"])

    def test_extended_corpus_reuses_cached_prefix_after_restart(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first_server:
            wait_result(first_server, submit(first_server, strings[:8])["job_id"])
        with AnalysisServer(state_dir=state_dir) as second_server:
            extended = wait_result(second_server, submit(second_server, strings[:12])["job_id"])
            # The result cache answers exact corpora only; the pair store
            # answers every value the 8-string job already computed.
            assert extended.get("cache") == "miss"
            assert 0 < kernel_evals(second_server) <= APPENDED_VALUES
        # Bit-identical to a cold full computation.
        assert canonical(cold_payload(12)) == canonical(extended["payload"])


class TestDistributedPrefixReuse:
    def test_distributed_grown_corpus_reuses_pair_values(self, tmp_path, strings):
        created_blocks = []
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            wait_result(server, submit(server, strings[:8])["job_id"])

            original_create = server.store.create

            def counting_create(kind, *args, **kwargs):
                record = original_create(kind, *args, **kwargs)
                if kind == "block":
                    created_blocks.append(record.options)
                return record

            server.store.create = counting_create
            evals_before = kernel_evals(server)
            extended = wait_result(
                server, submit(server, strings[:12], shards=3, distributed=True)["job_id"]
            )
            evals = kernel_evals(server) - evals_before
        assert extended.get("cache") == "miss"
        # Blocks: (0,4), (4,8), (8,12).  Every block pair becomes a
        # leasable record; the ones inside the 8-string corpus are answered
        # by the pair layers instead of the kernel.
        assert len(created_blocks) == 6
        assert 0 < evals <= APPENDED_VALUES
        # And the result equals a cold full computation bit for bit.
        assert canonical(cold_payload(12)) == canonical(extended["payload"])

    def test_distributed_exact_hit_creates_no_blocks(self, tmp_path, strings):
        created = []
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            wait_result(server, submit(server, strings[:8])["job_id"])
            original_create = server.store.create
            server.store.create = lambda kind, *a, **k: (
                created.append(kind) if kind == "block" else None,
                original_create(kind, *a, **k),
            )[1]
            hit = wait_result(
                server, submit(server, strings[:8], shards=2, distributed=True)["job_id"]
            )
        assert hit.get("cache") == "hit"
        assert created == []


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_job(self, tmp_path, strings):
        corpus = strings[:6]
        with AnalysisServer(state_dir=str(tmp_path / "state"), max_job_workers=1) as server:
            release = threading.Event()
            server.tenants.context(DEFAULT_TENANT).executor.submit(release.wait, 30)
            try:
                first = submit(server, corpus)
                second = submit(server, corpus)
                third = submit(server, corpus, normalized=False)  # different work
            finally:
                release.set()
            assert second["job_id"] == first["job_id"]
            assert second.get("coalesced") is True
            assert third["job_id"] != first["job_id"]
            assert not third.get("coalesced")
            payload = wait_result(server, first["job_id"])
            assert payload["payload"]["normalized"] is True
            wait_result(server, third["job_id"])

    def test_every_coalesced_waiter_can_fetch_with_forget(self, tmp_path, strings):
        # Regression: all coalesced clients poll with forget=True (the
        # default client path); the record must survive until the LAST
        # waiter collected it.
        corpus = strings[:6]
        with AnalysisServer(state_dir=str(tmp_path / "state"), max_job_workers=1) as server:
            release = threading.Event()
            server.tenants.context(DEFAULT_TENANT).executor.submit(release.wait, 30)
            try:
                job_id = submit(server, corpus)["job_id"]
                coalesced = submit(server, corpus)
                assert coalesced["job_id"] == job_id and coalesced["coalesced"] is True
            finally:
                release.set()
            first = check_response(
                server.handle(ResultRequest(job_id=job_id, wait=120, forget=True).to_payload())
            )
            second = check_response(
                server.handle(ResultRequest(job_id=job_id, wait=10, forget=True).to_payload())
            )
            assert canonical(first["payload"]) == canonical(second["payload"])
            # Only the last waiter's fetch actually dropped the record.
            with pytest.raises(KeyError):
                server.store.get(job_id)

    def test_finished_job_is_not_coalesced_onto(self, server, strings):
        corpus = strings[:6]
        first = submit(server, corpus)
        wait_result(server, first["job_id"])
        again = submit(server, corpus)
        assert again["job_id"] != first["job_id"]
        assert wait_result(server, again["job_id"]).get("cache") == "hit"


class TestCacheStats:
    def test_stats_track_hits_and_stores(self, server, strings):
        corpus = strings[:6]
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        assert stats["enabled"] is True
        assert stats["entries"] == 0
        wait_result(server, submit(server, corpus)["job_id"])
        wait_result(server, submit(server, corpus)["job_id"])
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        assert stats["entries"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1

    def test_analyze_jobs_look_the_cache_up_once(self, server, strings):
        corpus = strings[:6]

        def analyze():
            response = check_response(
                server.handle(
                    SubmitAnalyzeRequest(
                        spec=SPEC.to_dict(), strings=tuple(encode_corpus(corpus))
                    ).to_payload()
                )
            )
            return wait_result(server, response["job_id"])

        first, second = analyze(), analyze()
        assert first.get("cache") == "miss"
        assert second.get("cache") == "hit"
        assert canonical(first["payload"]) == canonical(second["payload"])
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        assert (stats["misses"], stats["hits"], stats["stores"]) == (1, 1, 1)

    def test_disabled_cache_reports_disabled(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), result_cache=False, pair_store=False
        ) as server:
            stats = check_response(server.handle(CacheStatsRequest().to_payload()))
            assert stats["enabled"] is False
            assert stats["pair_store"] == {"enabled": False}
            # The model store rides on the state dir and is always present
            # (empty here) — only the cache layers have an off switch.
            assert stats["models"]["enabled"] is True
            assert stats["models"]["models"] == 0
            # Jobs still run, stamped as bypass.
            done = wait_result(server, submit(server, strings[:5])["job_id"])
            assert done.get("cache") is None or done.get("cache") == "bypass"

    def test_stats_report_the_pair_store_section(self, server, strings):
        wait_result(server, submit(server, strings[:5])["job_id"])
        stats = check_response(server.handle(CacheStatsRequest().to_payload()))
        section = stats["pair_store"]
        assert section["enabled"] is True
        # 10 off-diagonal pairs + 5 self values, all novel on a cold store.
        assert section["entries"] == 15
        assert section["puts"] == 15
        assert section["invalid"] == 0

    def test_maintenance_sweep_enforces_the_lru_bound(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), max_cache_entries=1, gc_interval=3600
        ) as server:
            wait_result(server, submit(server, strings[:4])["job_id"])
            wait_result(server, submit(server, strings[:6])["job_id"])
            # store() self-enforces the bound; the maintenance tick would too.
            assert server.matrix_cache.stats()["entries"] == 1
            server._maintenance_tick()
            assert server.matrix_cache.stats()["entries"] == 1
