"""Tests for the on-disk job store (repro.service.jobstore)."""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time

import pytest

from repro.core.atomicio import temp_name_for
from repro.service.jobstore import Doorbell, JobRecord, JobStore, JobStoreError, LeaseError
from repro.service.tenancy import StateDir, sweep_namespace


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "state"))


class TestLifecycle:
    def test_create_get_round_trip(self, store):
        record = store.create("matrix", input={"spec": {"kind": "kast"}}, options={"shards": 2})
        loaded = store.get(record.job_id)
        assert loaded == record
        assert loaded.status == "queued"
        assert loaded.input == {"spec": {"kind": "kast"}}
        assert loaded.options == {"shards": 2}
        assert not loaded.finished

    def test_a_legacy_top_level_spec_is_dropped_not_quarantined(self, store):
        # Older records carried a copy of their input's spec at the top
        # level; such a record still loads, and recovery keeps it.
        record = store.create("matrix", input={"spec": {"kind": "kast"}})
        path = os.path.join(store.jobs_dir, f"{record.job_id}.json")
        with open(path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
        assert "spec" not in stored
        stored["spec"] = {"kind": "kast"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stored, handle)
        reopened = JobStore(store.root)
        assert reopened.recovery.quarantined == ()
        assert reopened.recovery.requeued == (record.job_id,)
        assert reopened.get(record.job_id).input == {"spec": {"kind": "kast"}}

    def test_job_ids_are_unique_and_kind_prefixed(self, store):
        ids = {store.create("matrix").job_id for _ in range(20)}
        assert len(ids) == 20
        assert all(job_id.startswith("matrix-") for job_id in ids)

    def test_status_transitions(self, store):
        record = store.create("matrix")
        assert store.mark_running(record.job_id).status == "running"
        done = store.store_result(record.job_id, {"answer": 42})
        assert done.status == "done"
        assert done.payload_sha256

    def test_terminal_statuses_are_final(self, store):
        record = store.create("matrix")
        store.mark_error(record.job_id, "boom")
        with pytest.raises(JobStoreError):
            store.mark_running(record.job_id)

    def test_unknown_job_raises_key_error(self, store):
        with pytest.raises(KeyError):
            store.get("matrix-missing")

    def test_records_sorted_oldest_first(self, store):
        first = store.create("matrix")
        second = store.create("analyze")
        assert [record.job_id for record in store.records()] == [first.job_id, second.job_id]

    def test_forget_only_finished_jobs(self, store):
        record = store.create("matrix")
        assert store.forget(record.job_id) is False
        store.store_result(record.job_id, {"x": 1})
        assert store.forget(record.job_id) is True
        assert store.forget(record.job_id) is False
        with pytest.raises(KeyError):
            store.get(record.job_id)

    def test_record_validation(self):
        with pytest.raises(JobStoreError):
            JobRecord(job_id="x", kind="matrix", status="exploded")
        with pytest.raises(JobStoreError):
            JobRecord.from_dict({"job_id": "x", "kind": "m", "surprise": 1})


class TestResults:
    def test_store_and_load_result(self, store):
        record = store.create("matrix")
        payload = {"values": [[1.0, 0.5], [0.5, 1.0]], "names": ["a", "b"]}
        store.store_result(record.job_id, payload)
        assert store.load_result(record.job_id) == payload

    def test_load_result_requires_done(self, store):
        record = store.create("matrix")
        with pytest.raises(JobStoreError, match="not done"):
            store.load_result(record.job_id)

    def test_tampered_payload_is_quarantined_on_load(self, store):
        record = store.create("matrix")
        store.store_result(record.job_id, {"x": 1})
        payload_path = os.path.join(store.payloads_dir, f"{record.job_id}.json")
        with open(payload_path, "w", encoding="utf-8") as handle:
            handle.write('{"x": 2}')  # valid JSON, wrong checksum
        with pytest.raises(JobStoreError, match="checksum"):
            store.load_result(record.job_id)
        assert not os.path.exists(payload_path)
        assert os.listdir(store.quarantine_dir)
        assert store.get(record.job_id).status == "error"


class TestCrashRecovery:
    """Restarting on the same state dir must keep results and quarantine damage."""

    def test_done_results_survive_restart(self, store):
        record = store.create("matrix")
        payload = {"values": [[1.0]], "names": ["a"]}
        store.store_result(record.job_id, payload)
        reopened = JobStore(store.root)
        assert reopened.recovery.quarantined == ()
        assert reopened.get(record.job_id).status == "done"
        assert reopened.load_result(record.job_id) == payload

    def test_queued_jobs_requeued_and_leaseless_running_interrupted(self, store):
        # The recovery bugfix: work that never started (queued) is safe to
        # rerun and must be requeued; only non-resumable in-flight work —
        # a running record with no lease, whose callable died with its
        # process — dead-ends as interrupted.
        queued = store.create("matrix")
        running = store.create("analyze")
        store.mark_running(running.job_id)
        reopened = JobStore(store.root)
        assert set(reopened.recovery.requeued) == {queued.job_id}
        assert set(reopened.recovery.interrupted) == {running.job_id}
        assert reopened.get(queued.job_id).status == "queued"
        interrupted = reopened.get(running.job_id)
        assert interrupted.status == "interrupted"
        assert "restart" in (interrupted.error or "")

    def test_queued_records_are_listed_but_not_rewritten(self, store):
        # A queued record is already claimable: recovery reports it and
        # leaves its file (and its updated_at) alone.
        queued = [store.create("matrix") for _ in range(3)]
        reopened = JobStore(store.root)
        assert set(reopened.recovery.requeued) == {record.job_id for record in queued}
        for record in queued:
            assert reopened.get(record.job_id).updated_at == record.updated_at

    def test_expired_lease_requeued_and_live_lease_untouched(self, store):
        expired = store.create("block")
        live = store.create("block")
        assert store.claim_job(expired.job_id, "w1", lease_seconds=0.001)
        assert store.claim_job(live.job_id, "w2", lease_seconds=3600)
        time.sleep(0.01)
        reopened = JobStore(store.root)
        assert set(reopened.recovery.requeued) == {expired.job_id}
        assert reopened.recovery.interrupted == ()
        requeued = reopened.get(expired.job_id)
        assert requeued.status == "queued"
        assert requeued.worker_id is None and requeued.lease_expires_at is None
        assert requeued.attempts == 1  # retry accounting survives the requeue
        untouched = reopened.get(live.job_id)
        assert untouched.status == "running" and untouched.worker_id == "w2"

    def test_worker_store_skips_recovery(self, store):
        running = store.create("matrix")
        store.mark_running(running.job_id)
        joined = JobStore(store.root, recover=False)
        assert joined.recovery.interrupted == ()
        assert joined.get(running.job_id).status == "running"

    def test_half_written_payload_quarantined(self, store):
        record = store.create("matrix")
        store.store_result(record.job_id, {"values": [[1.0]], "names": ["a"]})
        payload_path = os.path.join(store.payloads_dir, f"{record.job_id}.json")
        with open(payload_path, "w", encoding="utf-8") as handle:
            handle.write('{"values": [[1.0')  # torn mid-write
        reopened = JobStore(store.root)
        assert any(name.startswith(record.job_id) for name, _ in reopened.recovery.quarantined)
        assert not os.path.exists(payload_path)
        assert reopened.get(record.job_id).status == "error"
        with pytest.raises(JobStoreError):
            reopened.load_result(record.job_id)

    def test_done_record_with_missing_payload_flipped_to_error(self, store):
        record = store.create("matrix")
        store.store_result(record.job_id, {"x": 1})
        os.remove(os.path.join(store.payloads_dir, f"{record.job_id}.json"))
        reopened = JobStore(store.root)
        assert reopened.get(record.job_id).status == "error"

    def test_done_record_whose_payload_is_not_an_object_flipped_to_error(self, store):
        # A payload with a matching checksum that parses, but not to a JSON
        # object, is as unusable at recovery as it is to load_result.
        record = store.create("matrix")
        store.store_result(record.job_id, {"x": 1})
        text = "[1]"
        with open(os.path.join(store.payloads_dir, f"{record.job_id}.json"), "w", encoding="utf-8") as handle:
            handle.write(text)
        store.update(record.job_id, payload_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
        reopened = JobStore(store.root)
        assert dict(reopened.recovery.quarantined) == {f"{record.job_id}.json": "payload is not a JSON object"}
        damaged = reopened.get(record.job_id)
        assert damaged.status == "error" and "not a JSON object" in damaged.error

    def test_unreadable_record_quarantined_with_payload(self, store):
        record = store.create("matrix")
        store.store_result(record.job_id, {"x": 1})
        with open(os.path.join(store.jobs_dir, f"{record.job_id}.json"), "w") as handle:
            handle.write("{torn")
        reopened = JobStore(store.root)
        assert len(reopened.recovery.quarantined) == 2  # record + its payload
        with pytest.raises(KeyError):
            reopened.get(record.job_id)

    def test_orphan_payloads_quarantined_and_stale_temporaries_swept(self, store):
        with open(os.path.join(store.payloads_dir, "ghost-1.json"), "w") as handle:
            json.dump({"x": 1}, handle)
        # A live write's temporary (another process may still rename it
        # into place) and a dead writer's one, two hours old.
        fresh = temp_name_for(os.path.join(store.payloads_dir, "live.json"))
        stale = temp_name_for(os.path.join(store.payloads_dir, "dead.json"))
        for path in (fresh, stale):
            with open(path, "w") as handle:
                handle.write('{"x"')
        two_hours_ago = time.time() - 2 * 3600
        os.utime(stale, (two_hours_ago, two_hours_ago))
        state = StateDir(store.root)
        reopened = state.open().store
        assert "ghost-1.json" in dict(reopened.recovery.quarantined)
        assert sorted(os.listdir(reopened.payloads_dir)) == sorted(
            os.path.basename(path) for path in (fresh, stale)
        )
        sweep_namespace(state.open())
        assert os.listdir(reopened.payloads_dir) == [os.path.basename(fresh)]

    def test_record_with_malformed_fields_quarantined_not_crashing(self, store):
        # Regression: a record that is valid JSON but has e.g. a non-numeric
        # timestamp must be quarantined at start-up, not crash the server.
        record = store.create("matrix")
        path = os.path.join(store.jobs_dir, f"{record.job_id}.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["created_at"] = "yesterday"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        reopened = JobStore(store.root)
        assert any(name.startswith(record.job_id) for name, _ in reopened.recovery.quarantined)
        with pytest.raises(KeyError):
            reopened.get(record.job_id)

    def test_quarantine_names_do_not_collide(self, store):
        for _ in range(2):
            with open(os.path.join(store.payloads_dir, "ghost.json"), "w") as handle:
                json.dump({"x": 1}, handle)
            store.recovery = store.recover()
        assert len(os.listdir(store.quarantine_dir)) == 2


class TestLeasing:
    def test_claim_takes_oldest_queued_and_stamps_lease(self, store):
        first = store.create("block")
        store.create("block")
        claimed = store.claim("w1", lease_seconds=30)
        assert claimed is not None and claimed.job_id == first.job_id
        assert claimed.status == "running"
        assert claimed.worker_id == "w1"
        assert claimed.attempts == 1
        assert claimed.lease_expires_at is not None
        assert claimed.lease_expires_at > time.time() + 25

    def test_claim_skips_live_leases_and_reclaims_expired(self, store):
        record = store.create("block")
        assert store.claim_job(record.job_id, "w1", lease_seconds=0.05) is not None
        assert store.claim("w2", lease_seconds=30) is None  # lease still live
        time.sleep(0.06)
        reclaimed = store.claim("w2", lease_seconds=30)
        assert reclaimed is not None and reclaimed.job_id == record.job_id
        assert reclaimed.worker_id == "w2"
        assert reclaimed.attempts == 2

    def test_claim_never_touches_terminal_or_leaseless_running(self, store):
        done = store.create("block")
        store.store_result(done.job_id, {"x": 1})
        inprocess = store.create("matrix")
        store.mark_running(inprocess.job_id)  # no lease: in-process job
        assert store.claim("w1", lease_seconds=30) is None

    def test_claim_kind_filter(self, store):
        store.create("matrix")
        block = store.create("block", options={"parent": "matrix-a"})
        claimed = store.claim("w1", lease_seconds=30, kinds=("block",))
        assert claimed is not None and claimed.job_id == block.job_id
        assert store.claim("w1", lease_seconds=30, kinds=("block",)) is None

    def test_renew_extends_only_for_the_owner(self, store):
        record = store.create("block")
        store.claim_job(record.job_id, "w1", lease_seconds=1)
        renewed = store.renew_lease(record.job_id, "w1", lease_seconds=60)
        assert renewed.lease_expires_at > time.time() + 55
        with pytest.raises(LeaseError):
            store.renew_lease(record.job_id, "imposter", lease_seconds=60)

    def test_release_requeues_and_keeps_attempts(self, store):
        record = store.create("block")
        store.claim_job(record.job_id, "w1", lease_seconds=30)
        with pytest.raises(LeaseError):
            store.release(record.job_id, "imposter")
        released = store.release(record.job_id, "w1")
        assert released.status == "queued"
        assert released.worker_id is None and released.lease_expires_at is None
        assert released.attempts == 1
        again = store.claim("w2", lease_seconds=30)
        assert again is not None and again.attempts == 2

    def test_requeue_expired_moves_only_lapsed_leases(self, store):
        lapsed = store.create("block")
        live = store.create("block")
        store.claim_job(lapsed.job_id, "w1", lease_seconds=0.01)
        store.claim_job(live.job_id, "w2", lease_seconds=3600)
        time.sleep(0.02)
        assert store.requeue_expired() == [lapsed.job_id]
        assert store.get(lapsed.job_id).status == "queued"
        assert store.get(live.job_id).status == "running"

    def test_store_result_clears_the_lease(self, store):
        record = store.create("block")
        store.claim_job(record.job_id, "w1", lease_seconds=30)
        done = store.store_result(record.job_id, {"pairs": []})
        assert done.status == "done"
        assert done.lease_expires_at is None
        assert done.worker_id == "w1"  # kept for observability


class TestSweep:
    def test_sweep_drops_only_expired_terminal_jobs(self, store):
        old_done = store.create("matrix")
        store.store_result(old_done.job_id, {"x": 1})
        old_error = store.create("matrix")
        store.mark_error(old_error.job_id, "boom")
        fresh_done = store.create("matrix")
        store.store_result(fresh_done.job_id, {"x": 2})
        queued = store.create("matrix")
        running = store.create("matrix")
        store.mark_running(running.job_id)
        # Backdate the two old terminal records past the TTL.
        for job_id in (old_done.job_id, old_error.job_id):
            store.update(job_id, updated_at=time.time() - 100.0)
        swept = store.sweep(ttl_seconds=50.0)
        assert set(swept) == {old_done.job_id, old_error.job_id}
        survivors = {record.job_id for record in store.records()}
        assert survivors == {fresh_done.job_id, queued.job_id, running.job_id}
        # Payload and lock files of the swept jobs are gone too.
        assert not os.path.exists(os.path.join(store.payloads_dir, f"{old_done.job_id}.json"))
        assert not os.path.exists(os.path.join(store.locks_dir, f"{old_done.job_id}.lock"))

    def test_sweep_zero_ttl_drops_every_terminal_job(self, store):
        done = store.create("matrix")
        store.store_result(done.job_id, {"x": 1})
        queued = store.create("matrix")
        assert store.sweep(0) == [done.job_id]
        assert [record.job_id for record in store.records()] == [queued.job_id]

    def test_sweep_dry_run_removes_nothing(self, store):
        done = store.create("matrix")
        store.store_result(done.job_id, {"x": 1})
        assert store.sweep(0, dry_run=True) == [done.job_id]
        assert store.get(done.job_id).status == "done"
        assert store.load_result(done.job_id) == {"x": 1}

    def test_sweep_rejects_negative_ttl(self, store):
        with pytest.raises(JobStoreError):
            store.sweep(-1)


# ----------------------------------------------------------------------
# Cross-process safety (module-level helpers so multiprocessing can spawn)
# ----------------------------------------------------------------------
def _increment_counter(root: str, job_id: str, repeats: int) -> None:
    """One contender in the lost-update race: repeats read-modify-writes."""
    contender = JobStore(root, recover=False)
    for _ in range(repeats):
        contender.mutate(
            job_id,
            lambda record: {"options": {**record.options, "count": record.options.get("count", 0) + 1}},
        )


def _drain_claims(root: str, worker_id: str, output_path: str) -> None:
    """One contender in the claim race: claims until the queue is dry."""
    contender = JobStore(root, recover=False)
    claimed = []
    while True:
        record = contender.claim(worker_id, lease_seconds=60)
        if record is None:
            break
        claimed.append(record.job_id)
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(claimed, handle)


class TestCrossProcessSafety:
    """Two stores on one dir must never lose each other's updates.

    Regression for the cross-process lost-update bug: JobStore.update()
    used to guard its read→replace→write with an in-process lock only, so
    a second process could interleave and silently drop a transition.
    The per-record file lock must serialise every read-modify-write, for
    threads and for separate processes alike.
    """

    REPEATS = 40

    def test_threaded_stores_do_not_lose_updates(self, store):
        import threading

        record = store.create("matrix", options={"count": 0})
        contenders = [
            threading.Thread(target=_increment_counter, args=(store.root, record.job_id, self.REPEATS))
            for _ in range(4)
        ]
        for thread in contenders:
            thread.start()
        for thread in contenders:
            thread.join()
        assert store.get(record.job_id).options["count"] == 4 * self.REPEATS

    def test_multiprocess_stores_do_not_lose_updates(self, store):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        record = store.create("matrix", options={"count": 0})
        contenders = [
            context.Process(target=_increment_counter, args=(store.root, record.job_id, self.REPEATS))
            for _ in range(2)
        ]
        for process in contenders:
            process.start()
        for process in contenders:
            process.join(timeout=120)
            assert process.exitcode == 0
        assert store.get(record.job_id).options["count"] == 2 * self.REPEATS

    def test_racing_processes_claim_disjoint_jobs(self, store, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        jobs = {store.create("block").job_id for _ in range(12)}
        outputs = [str(tmp_path / f"claims-{index}.json") for index in range(2)]
        contenders = [
            context.Process(target=_drain_claims, args=(store.root, f"w{index}", output))
            for index, output in enumerate(outputs)
        ]
        for process in contenders:
            process.start()
        for process in contenders:
            process.join(timeout=120)
            assert process.exitcode == 0
        claims = []
        for output in outputs:
            with open(output, "r", encoding="utf-8") as handle:
                claims.append(set(json.load(handle)))
        assert claims[0] | claims[1] == jobs      # every job claimed...
        assert claims[0] & claims[1] == set()     # ...by exactly one worker


class TestSweepBlockGuard:
    def test_sweep_keeps_done_blocks_of_in_flight_parents(self, store):
        # A finished block task is input to its parent's assembly: the TTL
        # sweep must not collect it while the parent is still running.
        parent = store.create("matrix", input={"spec": {"kind": "kast"}, "strings": []})
        store.claim_job(parent.job_id, "server-1", lease_seconds=3600)
        child = store.create("block", options={"parent": parent.job_id, "first": [0, 1], "second": [0, 1]})
        store.store_result(child.job_id, {"pairs": []})
        store.update(child.job_id, updated_at=time.time() - 1000)
        assert store.sweep(ttl_seconds=50) == []
        assert store.get(child.job_id).status == "done"
        # Once the parent finishes, the block becomes sweepable garbage.
        store.store_result(parent.job_id, {"values": []})
        store.update(parent.job_id, updated_at=time.time() - 1000)
        assert set(store.sweep(ttl_seconds=50)) == {parent.job_id, child.job_id}

    def test_sweep_drops_blocks_whose_parent_is_gone(self, store):
        orphan = store.create("block", options={"parent": "matrix-vanished", "first": [0, 1], "second": [0, 1]})
        store.store_result(orphan.job_id, {"pairs": []})
        store.update(orphan.job_id, updated_at=time.time() - 1000)
        assert store.sweep(ttl_seconds=50) == [orphan.job_id]


class TestResultOwnership:
    def test_zombie_worker_cannot_store_over_a_reclaimed_lease(self, store):
        record = store.create("block")
        store.claim_job(record.job_id, "zombie", lease_seconds=0.01)
        time.sleep(0.02)
        store.claim_job(record.job_id, "owner", lease_seconds=3600)  # reclaim
        with pytest.raises(LeaseError):
            store.store_result(record.job_id, {"pairs": []}, worker_id="zombie")
        assert store.get(record.job_id).status == "running"  # owner undisturbed
        done = store.store_result(record.job_id, {"pairs": []}, worker_id="owner")
        assert done.status == "done"

    def test_store_result_without_worker_id_keeps_legacy_behavior(self, store):
        record = store.create("matrix")
        store.mark_running(record.job_id)
        assert store.store_result(record.job_id, {"x": 1}).status == "done"


class TestDoorbell:
    def test_a_ring_wakes_a_waiter_long_before_its_fallback(self, store):
        bell = Doorbell()
        assert bell.watch(store)  # just registered: the caller looks again
        assert not bell.watch(store)
        try:
            seen = bell.generation
            started = time.monotonic()
            store.create("block")  # queued: rings
            assert bell.wait(seen, 60.0)
            assert time.monotonic() - started < 2.0
            seen = bell.generation
            record = store.create("block")
            assert bell.wait(seen, 60.0)
            # A claim (or a lease renewal) rings nobody.
            time.sleep(0.2)
            seen = bell.generation
            store.claim_job(record.job_id, "w1", lease_seconds=30)
            store.renew_lease(record.job_id, "w1", lease_seconds=30)
            assert not bell.wait(seen, 0.3)
            store.store_result(record.job_id, {"x": 1}, worker_id="w1")  # done: rings
            assert bell.wait(seen, 60.0)
        finally:
            bell.close()
        assert os.listdir(store.wake_dir) == []  # close unregisters the pipe

    def test_a_dead_waiters_pipe_is_removed_on_the_next_ring(self, store):
        bell = Doorbell()
        bell.watch(store)
        try:
            (live,) = os.listdir(store.wake_dir)
            assert live.startswith(f"{socket.gethostname()}-{os.getpid()}-")
            dead = os.path.join(store.wake_dir, f"{socket.gethostname()}-1-deadbeef.fifo")
            os.mkfifo(dead)  # a pipe whose reader is gone
            store.ring()
            assert os.listdir(store.wake_dir) == [live]
        finally:
            bell.close()

    def test_a_ring_leaves_other_hosts_pipes_alone(self, store):
        # On a state dir shared across hosts another host's pipe has no
        # reader visible here; removing it would silence that host's bell.
        host = socket.gethostname()
        foreign = sorted([f"other-{host}-1-deadbeef.fifo", f"{host}-x-1-deadbeef.fifo"])
        os.makedirs(store.wake_dir)
        for name in foreign:
            os.mkfifo(os.path.join(store.wake_dir, name))
        store.ring()
        store.create("block")
        assert sorted(os.listdir(store.wake_dir)) == foreign

    def test_ringing_an_empty_or_missing_wake_dir_never_raises(self, store):
        assert not os.path.exists(store.wake_dir)
        store.ring()
        os.makedirs(store.wake_dir)
        store.ring()
        with open(os.path.join(store.wake_dir, "stray.txt"), "w") as handle:
            handle.write("not a pipe")
        store.ring()
        assert os.listdir(store.wake_dir) == ["stray.txt"]

    def test_ring_self_wakes_and_a_closed_bell_never_sleeps(self, store):
        bell = Doorbell()
        bell.watch(store)
        seen = bell.generation
        started = time.monotonic()
        bell.ring_self()
        assert bell.wait(seen, 60.0)
        bell.close()
        assert bell.wait(bell.generation, 60.0)
        assert time.monotonic() - started < 2.0

    def test_no_waiting_thread_misses_a_ring(self, store):
        # More waiters than cores, switching threads as often as possible:
        # a lost wake-up strands a waiter for its whole 60 s fallback.
        import sys
        import threading

        target = 25
        bell = Doorbell()
        bell.watch(store)
        finished = []

        def waiter() -> None:
            while True:
                seen = bell.generation
                if len(store.records()) >= target:
                    finished.append(True)
                    return
                bell.wait(seen, 60.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=waiter) for _ in range(6)]
            for thread in threads:
                thread.start()
            for _ in range(target):
                store.create("block")
                time.sleep(0.002)
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
            bell.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == 6

    def test_recover_sweep_and_gc_ignore_the_wake_dir(self, tmp_path):
        from repro.cli import main

        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        done = store.create("matrix")
        store.store_result(done.job_id, {"x": 1})
        bell = Doorbell()
        bell.watch(store)
        try:
            os.mkfifo(os.path.join(store.wake_dir, "1-deadbeef.fifo"))
            os.mkfifo(os.path.join(store.wake_dir, ".2-staging.fifo"))
            before = sorted(os.listdir(store.wake_dir))
            report = JobStore(state_dir).recovery
            assert (report.quarantined, report.requeued, report.interrupted) == ((), (), ())
            assert store.sweep(ttl_seconds=0, dry_run=True) == [done.job_id]
            assert main(["gc", "--state-dir", state_dir, "--ttl", "0"]) == 0
            with pytest.raises(KeyError):
                store.get(done.job_id)
            assert sorted(os.listdir(store.wake_dir)) == before
            assert os.listdir(store.quarantine_dir) == []
        finally:
            bell.close()
