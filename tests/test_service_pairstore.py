"""End-to-end tests for the persistent pair-level kernel value store.

The acceptance story: resubmitting a *reordered* or *subset* corpus of
previously computed traces — which misses the matrix-level result cache —
performs zero kernel evaluations (every raw pair and self value comes from
the pair store) and yields a Gram payload bit-identical to cold compute,
both in-session and across a server restart.  The store is shared by
concurrent processes (servers and pull-loop workers alike) without torn
segments or lost values.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.api import AnalysisSession, make_spec
from repro.core.pairstore import PairStore
from repro.service import AnalysisServer, JobStore
from repro.service.protocol import (
    HealthRequest,
    ResultRequest,
    SubmitMatrixRequest,
    check_response,
    encode_corpus,
)

from test_service_worker import spawn_worker_process, wait_for

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)


def submit(server, corpus, **options):
    return check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(corpus)), **options
            ).to_payload()
        )
    )


def wait_result(server, job_id, wait=120.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload())
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


def cold_reference_payload(corpus):
    """The payload a cache-free cold computation of *corpus* produces."""
    with AnalysisSession() as session:
        matrix = session.matrix(SPEC, corpus)
        return session.engine(SPEC).matrix_payload(matrix, corpus)


def engine_counters(server):
    info = server.session.engine(SPEC).cache_info()
    return info["kernel_evals"], info["store_misses"]


class TestWarmResubmission:
    def test_reordered_resubmit_in_session_does_no_kernel_work(self, tmp_path, strings):
        corpus = strings[:8]
        reordered = list(corpus)
        random.Random(13).shuffle(reordered)
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            first = wait_result(server, submit(server, corpus)["job_id"])
            assert first.get("cache") == "miss"
            evaluations, _ = engine_counters(server)
            second = wait_result(server, submit(server, reordered)["job_id"])
            # A reordering misses the matrix cache but the pair store
            # covers every value: zero new kernel evaluations.
            assert second.get("cache") == "miss"
            assert engine_counters(server)[0] == evaluations
        assert canonical(second["payload"]) == canonical(cold_reference_payload(reordered))

    def test_reordered_and_subset_resubmits_after_restart(self, tmp_path, strings):
        corpus = strings[:8]
        reordered = list(corpus)
        random.Random(13).shuffle(reordered)
        subset = corpus[2:7]
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as primer:
            wait_result(primer, submit(primer, corpus)["job_id"])
        with AnalysisServer(state_dir=state_dir) as server:
            # Cold engine, warm pair store: neither variant matches the
            # matrix cache, both must come entirely from stored values.
            for variant in (reordered, subset):
                payload = wait_result(server, submit(server, variant)["job_id"])["payload"]
                assert canonical(payload) == canonical(cold_reference_payload(variant))
            evaluations, store_misses = engine_counters(server)
            assert evaluations == 0
            assert store_misses == 0

    def test_interleaved_superset_pays_only_for_novel_pairs(self, tmp_path, strings):
        known = strings[:6]
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as primer:
            wait_result(primer, submit(primer, known)["job_id"])
        interleaved = known[0::2] + strings[6:8] + known[1::2]
        with AnalysisServer(state_dir=state_dir) as server:
            payload = wait_result(server, submit(server, interleaved)["job_id"])["payload"]
            evaluations, _ = engine_counters(server)
            # 8-string corpus = 28 pairs + 8 self values; the 6 known
            # strings' 15 pairs + 6 self values come from the store.
            assert evaluations == (28 - 15) + 2
        assert canonical(payload) == canonical(cold_reference_payload(interleaved))


class TestHealth:
    def test_healthz_reports_queue_depth_and_hit_rates(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as server:
            health = check_response(server.handle(HealthRequest().to_payload()))
            assert health["queue_depth"] == 0
            assert health["matrix_cache"]["hit_rate"] is None  # no lookups yet
            assert health["pair_store"]["hits"] == 0
            wait_result(server, submit(server, strings[:5])["job_id"])
            health = check_response(server.handle(HealthRequest().to_payload()))
            # A cold corpus: every pair and self value missed the store.
            assert health["pair_store"] == {"hits": 0, "misses": 15, "hit_rate": 0.0}
        with AnalysisServer(state_dir=state_dir) as server:
            wait_result(server, submit(server, list(reversed(strings[:5])))["job_id"])
            health = check_response(server.handle(HealthRequest().to_payload()))
            # Cold engine, warm store: every value was a store hit.
            assert health["pair_store"] == {"hits": 15, "misses": 0, "hit_rate": 1.0}
            assert health["matrix_cache"]["hit_rate"] == 0.0  # reordering missed it


_PROCESS_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core.pairstore import PairStore

    root, start = sys.argv[1], int(sys.argv[2])
    PairStore.COMPACT_SEGMENTS = 2  # aggressive compaction races
    store = PairStore(root)
    signature = "proc-shared"
    own = {(f"{i:040x}", f"{i + 5000:040x}"): float(i) for i in range(start, start + 150)}
    shared = {(f"{i:040x}", f"{i + 9000:040x}"): float(i) for i in range(50)}
    for batch in (own, shared):
        for offset in range(0, 150, 30):
            chunk = dict(list(batch.items())[offset:offset + 30])
            if chunk:
                store.put_many(signature, chunk)
    found = store.get_many(signature, list(own))
    assert found == own, "wrote values must be readable by the writer"
    """
)


class TestMultiProcessSharing:
    def test_concurrent_spawned_writers_lose_nothing(self, tmp_path):
        # Two real processes hammer one store — disjoint ranges plus an
        # overlapping shared range (same pairs, same deterministic values)
        # with compaction forced to race against the writes.
        root = str(tmp_path / "pairs")
        env = dict(os.environ)
        source_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH", "")
        processes = [
            subprocess.Popen([sys.executable, "-c", _PROCESS_SCRIPT, root, str(start)], env=env)
            for start in (1000, 2000)
        ]
        for process in processes:
            assert process.wait(timeout=120) == 0
        store = PairStore(root)
        signature = "proc-shared"
        expected = {}
        for start in (1000, 2000):
            expected.update({(f"{i:040x}", f"{i + 5000:040x}"): float(i) for i in range(start, start + 150)})
        expected.update({(f"{i:040x}", f"{i + 9000:040x}"): float(i) for i in range(50)})
        assert store.get_many(signature, list(expected)) == expected  # no lost values
        stats = store.stats()  # full checksum walk
        assert stats["invalid"] == 0  # no torn segments
        assert stats["entries"] == len(expected)


class TestWorkersShareTheStore:
    def test_distributed_job_by_worker_processes_uses_the_warm_store(self, tmp_path, strings):
        corpus = strings[:8]
        state_dir = str(tmp_path / "state")
        # Prime the store through a monolithic run, then restart cold.
        with AnalysisServer(state_dir=state_dir) as primer:
            wait_result(primer, submit(primer, corpus)["job_id"])
        reference = cold_reference_payload(corpus)
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit(server, corpus, shards=3, distributed=True, use_cache=False)["job_id"]
            worker = spawn_worker_process(state_dir, "--idle-exit", "3", "--worker-id", "warmed")
            try:
                payload = wait_result(server, job_id, wait=180.0)["payload"]
            finally:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
            assert canonical(payload) == canonical(reference)
            # The worker's engine served every pair from the shared store:
            # its store counters moved, no segment was damaged.
            counters = server.pair_store.counters()
            assert counters["invalid"] == 0

    def test_sigkilled_worker_leaves_the_store_consistent(self, tmp_path, strings):
        corpus = strings[:8]
        state_dir = str(tmp_path / "state")
        reference = cold_reference_payload(corpus)
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit(server, corpus, shards=2, distributed=True)["job_id"]
            doomed = spawn_worker_process(
                state_dir, "--throttle", "60", "--lease-seconds", "1", "--worker-id", "doomed"
            )
            store_view = JobStore(state_dir, recover=False)

            def doomed_holds_a_block():
                return any(
                    record.status == "running" and record.worker_id == "doomed"
                    for record in store_view.records(kind="block")
                )

            try:
                assert wait_for(doomed_holds_a_block), "doomed worker never claimed a block"
            finally:
                doomed.send_signal(signal.SIGKILL)
                doomed.wait(timeout=30)
            survivor = spawn_worker_process(
                state_dir, "--idle-exit", "5", "--worker-id", "survivor"
            )
            try:
                payload = wait_result(server, job_id, wait=180.0)["payload"]
            finally:
                try:
                    survivor.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    survivor.kill()
            assert canonical(payload) == canonical(reference)
        # A SIGKILLed writer leaves at worst an orphaned temp file, never a
        # torn segment: the full checksum walk finds nothing invalid, and a
        # cold engine replays the whole corpus purely from the store.
        store = PairStore(os.path.join(state_dir, "pair-store"))
        assert store.stats()["invalid"] == 0
        with AnalysisSession(pair_store=store) as session:
            matrix = session.matrix(SPEC, corpus)
            payload = session.engine(SPEC).matrix_payload(matrix, corpus)
            assert canonical(payload) == canonical(reference)
            info = session.engine(SPEC).cache_info()
            assert info["kernel_evals"] == 0
