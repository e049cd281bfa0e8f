"""End-to-end tests for worker-pull distributed block execution.

The acceptance story: a ``shards=N`` matrix job executed by external
worker processes sharing the server's state dir produces a payload
byte-identical to the in-process monolithic path, and killing a worker
mid-block only delays (never corrupts or loses) the job — the lease
expires, the block is reclaimed, and the job completes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import AnalysisSession, make_spec
from repro.core.engine import plan_index_blocks
from repro.obs.metrics import MetricsRegistry
from repro.service import DEFAULT_TENANT, AnalysisServer, Authenticator, JobStore, Worker
from repro.service import server as server_module
from repro.service.protocol import (
    ResultRequest,
    StatusRequest,
    SubmitMatrixRequest,
    check_response,
    encode_corpus,
)
from repro.service.worker import ShutdownRequested, execute_block_task, run_claimed_job

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)[:8]


@pytest.fixture(scope="module")
def local_payload(strings):
    """The monolithic in-process payload every distributed run must equal."""
    with AnalysisSession() as session:
        matrix = session.matrix(SPEC, strings)
        return session.engine(SPEC).matrix_payload(matrix, strings)


def submit_distributed(server, strings, shards=3, **options):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(),
                strings=tuple(encode_corpus(strings)),
                shards=shards,
                distributed=True,
                **options,
            ).to_payload()
        )
    )
    return response["job_id"]


def wait_payload(server, job_id, wait=120.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload())
    )["payload"]


def spawn_worker_process(state_dir, *extra_args):
    """Launch ``python -m repro worker`` against *state_dir* (real process)."""
    command = [
        sys.executable, "-m", "repro", "worker",
        "--state-dir", state_dir,
        *extra_args,
    ]
    env = dict(os.environ)
    source_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_for(condition, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


class TestInlineDistributed:
    def test_distributed_job_completes_with_zero_workers(self, tmp_path, strings, local_payload):
        # inline_blocks (the default) makes the coordinator chew through
        # its own block queue, so distribution degrades gracefully.
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            job_id = submit_distributed(server, strings, shards=3)
            payload = wait_payload(server, job_id)
            assert payload == local_payload
            record = server.store.get(job_id)
            assert record.options["workers"] == [server.worker_id]
            # The finished block-task records were tidied away.
            assert server.store.records(kind="block") == []

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("repair", [True, False])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_distributed_payload_serialises_byte_identically(
        self, tmp_path, strings, normalized, repair, use_cache
    ):
        options = {"normalized": normalized, "repair": repair, "use_cache": use_cache}
        # Every shard count from 1 to 4 meets every option somewhere.
        shards = 1 + (4 * normalized + 2 * repair + use_cache) % 4
        with AnalysisSession() as session:
            matrix = session.matrix(SPEC, strings, normalized=normalized, repair=repair)
            local_payload = session.engine(SPEC).matrix_payload(matrix, strings)
        envelopes = {}
        for distributed in (False, True):
            with AnalysisServer(state_dir=str(tmp_path / f"state-{distributed}")) as server:
                response = check_response(
                    server.handle(
                        SubmitMatrixRequest(
                            spec=SPEC.to_dict(),
                            strings=tuple(encode_corpus(strings)),
                            shards=shards,
                            distributed=distributed,
                            **options,
                        ).to_payload()
                    )
                )
                envelopes[distributed] = check_response(
                    server.handle(ResultRequest(job_id=response["job_id"], wait=120.0).to_payload())
                )
        local_bytes = json.dumps(local_payload, sort_keys=True).encode("utf-8")
        for envelope in envelopes.values():
            assert json.dumps(envelope["payload"], sort_keys=True).encode("utf-8") == local_bytes
        assert envelopes[True]["cache"] == envelopes[False]["cache"] == ("miss" if use_cache else "bypass")


class TestExternalWorkers:
    def test_in_process_workers_drain_the_blocks(self, tmp_path, strings, local_payload):
        # Two Worker instances (same API the CLI runs) against a server
        # that leaves block execution entirely to them.
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit_distributed(server, strings, shards=3)
            workers = [Worker(state_dir, worker_id=f"puller-{index}") for index in range(2)]
            threads = [
                threading.Thread(target=worker.run_forever, kwargs={"idle_exit": 2.0})
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            try:
                payload = wait_payload(server, job_id)
            finally:
                for worker in workers:
                    worker.stop()
                for thread in threads:
                    thread.join(timeout=10)
                for worker in workers:
                    worker.close()
            assert payload == local_payload
            record = server.store.get(job_id)
            assert record.options["workers"]
            assert all(worker_id.startswith("puller-") for worker_id in record.options["workers"])
            blocks = plan_index_blocks(len(strings), record.input["shards"])
            assert sum(worker.completed for worker in workers) == len(blocks) * (len(blocks) + 1) // 2

    def test_two_worker_processes_drain_the_blocks(self, tmp_path, strings, local_payload):
        # The acceptance criterion: >= 2 external worker *processes*
        # sharing the server's state dir, payload byte-identical to the
        # monolithic local path.
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit_distributed(server, strings, shards=3)
            processes = [
                spawn_worker_process(state_dir, "--idle-exit", "3", "--worker-id", f"proc-{index}")
                for index in range(2)
            ]
            try:
                payload = wait_payload(server, job_id)
            finally:
                for process in processes:
                    try:
                        process.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        process.kill()
            assert json.dumps(payload, sort_keys=True) == json.dumps(local_payload, sort_keys=True)
            record = server.store.get(job_id)
            assert record.options["workers"]
            assert all(worker_id.startswith("proc-") for worker_id in record.options["workers"])

    def test_sigkilled_worker_mid_block_only_delays_the_job(self, tmp_path, strings, local_payload):
        # A worker claims a block (short lease), is SIGKILLed while holding
        # it (--throttle keeps it mid-task deterministically), and the
        # lease expiry hands the block to the surviving worker.
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit_distributed(server, strings, shards=2)
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
                payload = wait_payload(server, job_id, wait=180.0)
            finally:
                try:
                    survivor.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    survivor.kill()
            assert payload == local_payload
            record = server.store.get(job_id)
            assert record.status == "done"
            # Every block was ultimately computed by the survivor — the
            # doomed worker's claim was reclaimed, not lost.
            assert record.options["workers"] == ["survivor"]


class TestWorkerUnit:
    def test_execute_block_task_stores_raw_pairs(self, tmp_path, strings):
        store = JobStore(str(tmp_path / "state"))
        parent = store.create(
            "matrix",
            input={"spec": SPEC.to_dict(), "strings": list(encode_corpus(strings))},
        )
        child = store.create(
            "block",
            options={"parent": parent.job_id, "first": [0, 4], "second": [4, 8]},
        )
        claimed = store.claim_job(child.job_id, "w1", lease_seconds=30)
        with AnalysisSession() as session:
            execute_block_task(store, claimed, session)
            payload = store.load_result(child.job_id)
            assert payload["parent"] == parent.job_id
            # One raw value per cross pair, exactly the engine's floats.
            assert len(payload["pairs"]) == 16
            engine = session.engine(SPEC)
            for i, j, value in payload["pairs"]:
                assert value == engine.pair_value(strings[i], strings[j])

    def test_failing_task_is_released_then_errored(self, tmp_path):
        # A block task whose parent is missing fails deterministically: it
        # must be retried (released) while under the attempt cap and
        # dead-ended as error after it.
        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        child = store.create("block", options={"parent": "matrix-gone", "first": [0, 1], "second": [0, 1]})
        with Worker(state_dir, worker_id="w1", max_attempts=2, lease_seconds=30) as worker:
            assert worker.run_once() == child.job_id
            assert store.get(child.job_id).status == "queued"  # attempt 1: released
            assert worker.run_once() == child.job_id
            final = store.get(child.job_id)
            assert final.status == "error"  # attempt 2 == cap: dead-ended
            assert "matrix-gone" in (final.error or "")
            assert worker.failed == 2 and worker.completed == 0

    @pytest.mark.parametrize(
        "error, outcome, status",
        [(ValueError("synthetic"), "error", "error"), (ShutdownRequested(), "released", "queued")],
        ids=["error", "shutdown"],
    )
    def test_runner_failure_policy_at_one_attempt(self, tmp_path, error, outcome, status):
        # The server's policy (max_attempts=1): a failing job is dead-ended
        # at once, while a job interrupted by shutdown goes back on the queue.
        store = JobStore(str(tmp_path / "state"))
        record = store.create("matrix")
        claimed = store.claim_job(record.job_id, "w1", lease_seconds=30)
        metrics = MetricsRegistry()

        def payload(_record):
            raise error

        assert run_claimed_job(
            store, claimed, payload, worker_id="w1", lease_seconds=30, metrics=metrics,
        ) == outcome
        final = store.get(record.job_id)
        assert final.status == status
        if status == "error":
            assert final.error == "ValueError: synthetic"
        assert f'repro_jobs_executed_total{{kind="matrix",outcome="{outcome}"}} 1' in metrics.render()

    def test_worker_idle_exit_and_max_tasks(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        parent = store.create(
            "matrix",
            input={"spec": SPEC.to_dict(), "strings": list(encode_corpus(strings))},
        )
        for start in range(2):
            store.create(
                "block",
                options={"parent": parent.job_id, "first": [start, start + 1], "second": [start, start + 1]},
            )
        with Worker(state_dir, worker_id="w1") as worker:
            assert worker.run_forever(max_tasks=1) == 1
            assert worker.run_forever(idle_exit=0.2) == 1  # drains the rest, then exits
        statuses = [record.status for record in store.records(kind="block")]
        assert statuses == ["done", "done"]


class TestCoordinatorFailure:
    def test_failed_block_fails_the_job_and_abandons_siblings(self, tmp_path, strings):
        # When one block dead-ends, the parent must fail promptly and the
        # surviving block records must not linger as claimable orphans.
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            job_id = submit_distributed(server, strings, shards=2)

            def a_block_exists():
                return bool(server.store.records(kind="block"))

            assert wait_for(a_block_exists)
            doomed_block = server.store.records(kind="block")[0]
            claimed = server.store.claim_job(doomed_block.job_id, "saboteur", lease_seconds=30)
            server.store.mark_error(claimed.job_id, "synthetic block failure")
            response = server.handle(ResultRequest(job_id=job_id, wait=60.0).to_payload())
            assert response["ok"] is False
            assert response["error"]["code"] == "job-failed"
            assert "synthetic block failure" in response["error"]["message"]
            assert server.store.records(kind="block") == []  # siblings abandoned


#: Fallback bound of every wait in the wake-up tests: far longer than any
#: of their deadlines, so only the doorbell can make them pass.
FALLBACK_SECONDS = 60.0


@pytest.fixture
def slow_fallback(monkeypatch):
    """Coordinators and result waits fall back to a 60 s rescan too."""
    monkeypatch.setattr(server_module, "DEFAULT_POLL_INTERVAL", FALLBACK_SECONDS)


def start_sleeping_worker(state_dir):
    """A Worker with a 60 s fallback, running in a thread on a dry queue."""
    worker = Worker(state_dir, worker_id="sleeper", poll_interval=FALLBACK_SECONDS)
    thread = threading.Thread(target=worker.run_forever)
    thread.start()
    time.sleep(0.5)  # let it find the queue dry and go to sleep
    return worker, thread


def stop_worker(worker, thread):
    worker.stop()
    thread.join(timeout=10)
    worker.close()
    assert not thread.is_alive()


class TestWakeUps:
    def test_sleeping_worker_claims_a_new_block_within_two_seconds(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        store = JobStore(state_dir)
        parent = store.create(
            "matrix",
            input={"spec": SPEC.to_dict(), "strings": list(encode_corpus(strings))},
        )
        worker, thread = start_sleeping_worker(state_dir)
        try:
            created = threading.Thread(
                target=store.create,
                args=("block",),
                kwargs={"options": {"parent": parent.job_id, "first": [0, 1], "second": [0, 1]}},
            )
            started = time.monotonic()
            created.start()
            created.join()
            assert wait_for(lambda: worker.completed == 1, timeout=2.0, interval=0.01)
            assert time.monotonic() - started < 2.0
        finally:
            stop_worker(worker, thread)

    def test_distributed_job_drained_by_a_sleeping_worker_finishes_quickly(
        self, tmp_path, strings, local_payload, slow_fallback
    ):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            worker, thread = start_sleeping_worker(state_dir)
            try:
                started = time.monotonic()
                job_id = submit_distributed(server, strings, shards=3)
                payload = wait_payload(server, job_id, wait=FALLBACK_SECONDS)
                elapsed = time.monotonic() - started
            finally:
                stop_worker(worker, thread)
        assert payload == local_payload
        assert worker.completed == 6
        assert elapsed < 10.0

    def test_a_local_job_ends_its_result_wait_without_a_pipe(
        self, tmp_path, strings, local_payload, slow_fallback, monkeypatch
    ):
        # Without mkfifo no wait can register a pipe; a job this server runs
        # must still end a client's result wait as soon as it is stored.
        monkeypatch.delattr(os, "mkfifo", raising=False)
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            release = threading.Event()
            for _ in range(2):  # hold the job queued until the wait sleeps
                server.tenants.context(DEFAULT_TENANT).executor.submit(release.wait)
            job_id = check_response(
                server.handle(
                    SubmitMatrixRequest(
                        spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                    ).to_payload()
                )
            )["job_id"]
            threading.Timer(0.5, release.set).start()
            started = time.monotonic()
            payload = wait_payload(server, job_id, wait=FALLBACK_SECONDS)
            elapsed = time.monotonic() - started
        assert payload == local_payload
        assert elapsed < 10.0

    def test_a_new_tenant_namespace_wakes_a_worker_waiting_on_the_root(
        self, tmp_path, strings, local_payload, slow_fallback
    ):
        state_dir = str(tmp_path / "state")
        auth = Authenticator.single("acme-secret", tenant="acme")
        with AnalysisServer(state_dir=state_dir, authenticator=auth, inline_blocks=False) as server:
            worker, thread = start_sleeping_worker(state_dir)
            assert not os.path.exists(os.path.join(state_dir, "tenants", "acme"))
            try:
                started = time.monotonic()
                job_id = check_response(
                    server.handle(
                        SubmitMatrixRequest(
                            spec=SPEC.to_dict(),
                            strings=tuple(encode_corpus(strings)),
                            shards=2,
                            distributed=True,
                        ).to_payload(),
                        token="acme-secret",
                    )
                )["job_id"]
                payload = check_response(
                    server.handle(
                        ResultRequest(job_id=job_id, wait=FALLBACK_SECONDS).to_payload(),
                        token="acme-secret",
                    )
                )["payload"]
                elapsed = time.monotonic() - started
            finally:
                stop_worker(worker, thread)
        assert payload == local_payload
        assert worker.completed == 3
        assert elapsed < 10.0

    def test_worker_stop_ends_a_sleeping_loop_within_a_second(self, tmp_path):
        worker, thread = start_sleeping_worker(str(tmp_path / "state"))
        started = time.monotonic()
        worker.stop()
        thread.join(timeout=10)
        elapsed = time.monotonic() - started
        worker.close()
        assert not thread.is_alive()
        assert elapsed < 1.0

    def test_server_close_ends_a_waiting_coordinator_within_a_second(
        self, tmp_path, strings, slow_fallback
    ):
        # No worker drains the blocks, so the coordinator and the client's
        # result wait both sleep until close() rings them.
        server = AnalysisServer(state_dir=str(tmp_path / "state"), inline_blocks=False)
        try:
            job_id = submit_distributed(server, strings, shards=2)
            assert wait_for(lambda: len(server.store.records(kind="block")) == 3)
            responses = []
            waiter = threading.Thread(
                target=lambda: responses.append(
                    server.handle(ResultRequest(job_id=job_id, wait=FALLBACK_SECONDS).to_payload())
                )
            )
            waiter.start()
            time.sleep(0.5)
        finally:
            started = time.monotonic()
            server.close()
            waiter.join(timeout=10)
            elapsed = time.monotonic() - started
        assert not waiter.is_alive()
        assert elapsed < 1.0
        assert responses[0]["ok"] is False  # still pending: handed to the next server

    def test_processes_that_never_wait_register_no_pipe(self, tmp_path, strings, local_payload):
        # A result wait answered by this server's own session future, an
        # inline coordinator that always has a block to claim, and a worker
        # that only runs once never sleep on the store — so no pipe, no
        # listener thread, and no ring costs anyone a write.
        state_dir = str(tmp_path / "state")
        wake_dir = os.path.join(state_dir, "wake")
        with AnalysisServer(state_dir=state_dir) as server:
            job_id = check_response(
                server.handle(
                    SubmitMatrixRequest(
                        spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                    ).to_payload()
                )
            )["job_id"]
            assert wait_payload(server, job_id) == local_payload
            assert wait_payload(server, submit_distributed(server, strings)) == local_payload
            with Worker(state_dir, worker_id="once") as worker:
                assert worker.run_once() is None
            assert not os.path.exists(wake_dir)
