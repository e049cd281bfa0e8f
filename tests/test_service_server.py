"""End-to-end tests for the analysis server and client (repro.service)."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import AnalysisSession, make_spec
from repro.core.engine import plan_index_blocks
from repro.core.matrix import KernelMatrix
from repro.service import (
    DEFAULT_TENANT,
    AnalysisServer,
    JobStore,
    JobTimeout,
    ServiceClient,
    StdioTransport,
    serve_stdio,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    CancelRequest,
    ResultRequest,
    StatusRequest,
    SubmitMatrixRequest,
    UnknownJob,
    check_response,
    encode_corpus,
)

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)[:8]


@pytest.fixture(scope="module")
def local_matrix(strings):
    with AnalysisSession() as session:
        return session.matrix(SPEC, strings)


@pytest.fixture
def server(tmp_path):
    with AnalysisServer(state_dir=str(tmp_path / "state")) as live:
        yield live


def submit_matrix(server, strings, **options):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **options
            ).to_payload()
        )
    )
    return response["job_id"]


def fill_job_pool(server, release):
    """Occupy both of the default tenant's job threads until *release* is set."""
    for _ in range(2):
        server.tenants.context(DEFAULT_TENANT).executor.submit(release.wait)


def wait_for_empty(tenant, timeout=10.0):
    """Whether the tenant's queued set drains (a pool task discards its id
    just after storing the result a waiter may already have read)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with tenant.lock:
            if not tenant.queued:
                return True
        time.sleep(0.01)
    return False


def wait_result(server, job_id, wait=60.0, forget=False):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait, forget=forget).to_payload())
    )["payload"]


class TestInProcessProtocol:
    def test_submit_status_result_flow(self, server, strings, local_matrix):
        job_id = submit_matrix(server, strings)
        status = check_response(server.handle(StatusRequest(job_id=job_id).to_payload()))
        assert status["status"] in ("queued", "running", "done")
        payload = wait_result(server, job_id)
        matrix = KernelMatrix.from_dict(payload)
        assert np.array_equal(matrix.values, local_matrix.values)
        assert matrix.names == local_matrix.names
        assert matrix.labels == local_matrix.labels
        # The payload is stamped exactly like the engine's persistence format.
        assert payload["kernel_signature"] == SPEC.signature()
        assert len(payload["fingerprints"]) == len(strings)
        assert payload["kernel_spec"] == SPEC.to_dict()

    def test_omitted_and_explicit_single_shard_record_one(self, server, strings):
        # A submission that omits shards runs as one shard, exactly like
        # one that asks for shards=1.
        defaulted = submit_matrix(server, strings, distributed=True)
        explicit = submit_matrix(server, strings, shards=1, distributed=True, use_cache=False)
        assert server.store.get(defaulted).input["shards"] == 1
        assert server.store.get(explicit).input["shards"] == 1
        assert wait_result(server, defaulted) == wait_result(server, explicit)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_sharded_job_bit_identical(self, server, strings, local_matrix, shards):
        job_id = submit_matrix(server, strings, shards=shards)
        record = server.store.get(job_id)
        assert record.input["shards"] == shards
        assert len(plan_index_blocks(len(strings), record.input["shards"])) == min(shards, len(strings))
        matrix = KernelMatrix.from_dict(wait_result(server, job_id))
        assert np.array_equal(matrix.values, local_matrix.values)

    def test_bad_spec_is_a_typed_error(self, server, strings):
        response = server.handle(
            SubmitMatrixRequest(spec="no-such-kernel", strings=tuple(encode_corpus(strings))).to_payload()
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_empty_corpus_rejected(self, server):
        response = server.handle(SubmitMatrixRequest(spec="kast", strings=()).to_payload())
        assert response["error"]["code"] == "bad-request"

    def test_unknown_job(self, server):
        response = server.handle(StatusRequest(job_id="matrix-missing").to_payload())
        assert response["error"]["code"] == "unknown-job"
        assert response["error"]["details"]["job_id"] == "matrix-missing"

    def test_failed_job_reports_job_failed(self, server):
        # A corpus whose strings are valid but whose spec rejects evaluation
        # is hard to fabricate; instead make the kernel fail by feeding a
        # spec that coerces but then errors at engine time: simplest is a
        # corpus of one string with a composite spec missing children —
        # which coerce_spec rejects as bad-request.  So instead exercise the
        # store path: mark a job as error and ask for its result.
        record = server.store.create("matrix")
        server.store.mark_error(record.job_id, "synthetic failure")
        response = server.handle(ResultRequest(job_id=record.job_id).to_payload())
        assert response["error"]["code"] == "job-failed"
        assert "synthetic failure" in response["error"]["message"]

    def test_result_forget_drops_job_from_store(self, server, strings):
        job_id = submit_matrix(server, strings)
        wait_result(server, job_id, forget=True)
        response = server.handle(StatusRequest(job_id=job_id).to_payload())
        assert response["error"]["code"] == "unknown-job"

    def test_health_and_specs(self, server, strings):
        health = check_response(server.handle({"v": PROTOCOL_VERSION, "type": "health"}))
        assert health["status"] == "ok" and health["protocol"] == PROTOCOL_VERSION
        job_id = submit_matrix(server, strings)
        wait_result(server, job_id)
        specs = check_response(server.handle({"v": PROTOCOL_VERSION, "type": "specs"}))
        assert any(entry["kind"] == "kast" for entry in specs["kinds"])
        assert SPEC.to_dict() in specs["warm"]


class TestValidation:
    @pytest.mark.parametrize(
        "options", [{"max_job_workers": 0}, {"job_ttl": -1}], ids=["max_job_workers", "job_ttl"]
    )
    def test_bad_constructor_arguments(self, tmp_path, options):
        with pytest.raises(ValueError):
            AnalysisServer(state_dir=str(tmp_path / "state"), **options)


class TestQueueControl:
    def test_pending_then_cancel_with_saturated_pool(self, server, strings):
        release = threading.Event()
        try:
            # Fill both job workers so the next job stays queued.
            fill_job_pool(server, release)
            job_id = submit_matrix(server, strings)
            response = server.handle(ResultRequest(job_id=job_id, wait=0.0).to_payload())
            assert response["error"]["code"] == "job-pending"
            cancel = check_response(server.handle(CancelRequest(job_id=job_id).to_payload()))
            assert cancel["status"] == "cancelled"
            assert server.store.get(job_id).status == "cancelled"
            # A cancelled job's result is a job-failed error, not a hang.
            response = server.handle(ResultRequest(job_id=job_id).to_payload())
            assert response["error"]["code"] == "job-failed"
        finally:
            release.set()

    def test_queued_job_is_claimed_once_across_maintenance_ticks(
        self, server, strings, local_matrix, monkeypatch
    ):
        executor = server.tenants.context(DEFAULT_TENANT).executor
        scheduled = []
        submit = executor.submit
        monkeypatch.setattr(
            executor, "submit", lambda fn, *args: scheduled.append(fn) or submit(fn, *args)
        )
        release = threading.Event()
        try:
            fill_job_pool(server, release)
            job_id = submit_matrix(server, strings)
            for _ in range(3):  # each tick adopts the store's queued records
                server._maintenance_tick()
            assert server.store.get(job_id).status == "queued"
            assert len(scheduled) == 3  # two blockers and the job, once
        finally:
            release.set()
        matrix = KernelMatrix.from_dict(wait_result(server, job_id))
        assert np.array_equal(matrix.values, local_matrix.values)
        assert server.store.counters()["claims"] == 1

    def test_concurrent_submissions_and_ticks_claim_each_job_once(self, tmp_path, strings):
        # More pool threads than cores, submitters racing maintenance ticks
        # and a short switch interval: every job is still claimed once, and
        # leaves no id behind in the tenant's queued set.
        with AnalysisServer(state_dir=str(tmp_path / "state"), max_job_workers=4) as server:
            tenant = server.tenants.context(DEFAULT_TENANT)
            job_ids = []
            stop = threading.Event()

            def tick():
                while not stop.is_set():
                    server._maintenance_tick()

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                ticker = threading.Thread(target=tick)
                ticker.start()
                submitters = [
                    threading.Thread(
                        target=lambda start=start: job_ids.append(
                            submit_matrix(server, strings[start:start + 3])
                        )
                    )
                    for start in range(6)
                ]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(timeout=60)
                for job_id in list(job_ids):
                    wait_result(server, job_id)
                stop.set()
                ticker.join(timeout=60)
            finally:
                stop.set()
                sys.setswitchinterval(interval)
            assert not ticker.is_alive()
            assert not any(thread.is_alive() for thread in submitters)
            assert len(set(job_ids)) == 6
            assert server.store.counters()["claims"] == 6
            assert wait_for_empty(tenant)

    def test_finished_job_cannot_cancel(self, server, strings):
        job_id = submit_matrix(server, strings)
        wait_result(server, job_id)
        response = server.handle(CancelRequest(job_id=job_id).to_payload())
        assert response["error"]["code"] == "cannot-cancel"


class TestRestartRecovery:
    def test_done_result_retrievable_after_restart(self, tmp_path, strings, local_matrix):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first:
            job_id = submit_matrix(first, strings, shards=2)
            wait_result(first, job_id)
        # A fresh server object on the same state dir — the original session,
        # engines and futures are gone.
        with AnalysisServer(state_dir=state_dir) as second:
            status = check_response(second.handle(StatusRequest(job_id=job_id).to_payload()))
            assert status["status"] == "done"
            matrix = KernelMatrix.from_dict(wait_result(second, job_id))
            assert np.array_equal(matrix.values, local_matrix.values)

    def test_mid_queue_jobs_recovered_after_restart(self, tmp_path, strings, local_matrix):
        # Simulate a server killed mid-queue: its store holds a queued and a
        # running record, but the process (and its futures) are gone.  The
        # queued job carries its input, so the next server requeues and
        # *re-runs* it; the running one (in-flight, no lease — its callable
        # died with the process) is the only one dead-ended as interrupted.
        state_dir = str(tmp_path / "state")
        dead = JobStore(state_dir)
        queued = dead.create(
            "matrix",
            input={
                "spec": SPEC.to_dict(),
                "strings": list(encode_corpus(strings)),
                "normalized": True,
                "repair": True,
                "shards": 2,
                "distributed": False,
            },
        )
        running = dead.create("matrix")
        dead.mark_running(running.job_id)
        with AnalysisServer(state_dir=state_dir) as second:
            assert set(second.store.recovery.requeued) == {queued.job_id}
            assert set(second.store.recovery.interrupted) == {running.job_id}
            matrix = KernelMatrix.from_dict(wait_result(second, queued.job_id))
            assert np.array_equal(matrix.values, local_matrix.values)
            response = second.handle(ResultRequest(job_id=running.job_id).to_payload())
            assert response["error"]["code"] == "job-failed"
            assert "interrupted" in response["error"]["message"]

    def test_queued_job_without_input_is_dead_ended(self, tmp_path):
        # Records predating input persistence cannot be resumed: the
        # adopting server must answer clients definitively instead of
        # leaving them queued forever.
        state_dir = str(tmp_path / "state")
        dead = JobStore(state_dir)
        legacy = dead.create("matrix")
        with AnalysisServer(state_dir=state_dir) as second:
            assert legacy.job_id in second.store.recovery.requeued
            response = second.handle(ResultRequest(job_id=legacy.job_id).to_payload())
            assert response["error"]["code"] == "job-failed"
            assert "interrupted" in response["error"]["message"]

    def test_half_written_payload_quarantined_on_restart(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as first:
            job_id = submit_matrix(first, strings)
            wait_result(first, job_id)
        payload_path = os.path.join(state_dir, "payloads", f"{job_id}.json")
        with open(payload_path, "w", encoding="utf-8") as handle:
            handle.write('{"values": [[0.')  # torn write
        with AnalysisServer(state_dir=state_dir) as second:
            assert second.store.recovery.quarantined
            assert not os.path.exists(payload_path)
            response = second.handle(ResultRequest(job_id=job_id).to_payload())
            assert response["error"]["code"] == "job-failed"


class TestHTTPTransport:
    @pytest.fixture
    def client(self, server):
        host, port = server.start_http()
        with ServiceClient(f"http://{host}:{port}") as live:
            yield live

    def test_matrix_matches_in_process_session(self, client, strings, local_matrix):
        remote = client.matrix(SPEC, strings, timeout=120)
        assert np.array_equal(remote.values, local_matrix.values)
        assert remote.names == local_matrix.names

    def test_sharded_matrix_matches(self, client, strings, local_matrix):
        remote = client.matrix(SPEC, strings, shards=3, timeout=120)
        assert np.array_equal(remote.values, local_matrix.values)

    def test_submit_status_result_handles(self, client, strings, local_matrix):
        job_id = client.submit(SPEC, strings, shards=2)
        assert client.status(job_id) in ("queued", "running", "done")
        result = client.result(job_id, timeout=120)
        assert isinstance(result, KernelMatrix)
        assert np.array_equal(result.values, local_matrix.values)

    def test_unknown_job_raises_typed_error(self, client):
        with pytest.raises(UnknownJob) as caught:
            client.status("matrix-nope")
        assert caught.value.job_id == "matrix-nope"

    def test_health_and_specs(self, client):
        assert client.health()["status"] == "ok"
        assert any(entry["kind"] == "kast" for entry in client.specs()["kinds"])

    def test_timeout_raises_job_timeout_with_id(self, server, client, strings, local_matrix):
        release = threading.Event()
        try:
            fill_job_pool(server, release)
            job_id = client.submit(SPEC, strings)
            with pytest.raises(JobTimeout) as caught:
                client.result(job_id, timeout=0.3)
            assert caught.value.job_id == job_id
            assert caught.value.timeout == 0.3
            # JobTimeout stays catchable as the builtin TimeoutError.
            assert isinstance(caught.value, TimeoutError)
        finally:
            release.set()
        # The timed-out job kept running; its result is still collectable.
        result = client.result(job_id, timeout=120)
        assert np.array_equal(result.values, local_matrix.values)

    def test_slow_job_survives_short_transport_timeout(self, server, strings, local_matrix):
        # Regression: the per-poll server-side wait hint used to be a flat
        # 2 s, so a transport whose socket timeout is shorter surfaced a
        # raw URLError mid-wait even though the job was healthy.  The hint
        # must be clamped below the socket timeout and the client must
        # keep polling to the *caller's* deadline.
        from repro.service import HTTPTransport, ServiceClient

        host, port = server.start_http()
        release = threading.Event()
        with ServiceClient(HTTPTransport(f"http://{host}:{port}", timeout=1.0)) as client:
            assert client._clamped_poll_wait() < 1.0
            try:
                # Saturate both job workers so the matrix job stays queued
                # for ~2.5 s — several polls, each longer than the socket
                # timeout would allow un-clamped.
                fill_job_pool(server, release)
                job_id = client.submit(SPEC, strings)
                threading.Timer(2.5, release.set).start()
                result = client.result(job_id, timeout=120)
            finally:
                release.set()
        assert np.array_equal(result.values, local_matrix.values)

    def test_analyze_reports_metrics(self, client, strings):
        report = client.analyze(SPEC, strings, n_clusters=4, timeout=240)
        assert set(report["names"]) == {string.name for string in strings}
        assert "purity" in report["metrics"]
        with AnalysisSession() as session:
            from repro.pipeline.config import ExperimentConfig

            local = session.analyze(
                ExperimentConfig(spec=SPEC, n_clusters=4), strings=list(strings)
            )
        assert report["metrics"]["purity"] == pytest.approx(local.metrics["purity"])
        assert report["assignments"] == list(local.assignments)

    @pytest.mark.parametrize(
        "spec",
        [
            make_spec("sum", children=[make_spec("kast", cut_weight=2), make_spec("bag-of-words")]),
            make_spec("kast", filter_tokens_below_cut=True),
        ],
        ids=["sum-composite", "kast-filter-ablation"],
    )
    def test_analyze_runs_any_spec_a_matrix_job_accepts(self, client, strings, spec):
        report = client.analyze(spec, strings, n_clusters=3, timeout=240)
        from repro.pipeline.config import ExperimentConfig

        with AnalysisSession() as session:
            local = session.analyze(ExperimentConfig(spec=spec), strings=list(strings))
        assert report["metrics"] == {name: float(value) for name, value in local.metrics.items()}
        assert report["assignments"] == list(local.assignments)
        assert report["config"] == local.config.describe()

    def test_healthz_get_endpoint(self, server, client):
        import urllib.request

        host, port = server.http_address()
        with urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=10) as response:
            assert response.status == 200
            assert b'"ok": true' in response.read()


class TestStdioTransport:
    @pytest.fixture
    def client(self, server):
        server_read, client_write = os.pipe()
        client_read, server_write = os.pipe()
        server_in = os.fdopen(server_read, "r")
        server_out = os.fdopen(server_write, "w")
        thread = threading.Thread(
            target=serve_stdio, args=(server, server_in, server_out), daemon=True
        )
        thread.start()
        transport = StdioTransport(os.fdopen(client_read, "r"), os.fdopen(client_write, "w"))
        with ServiceClient(transport) as live:
            yield live
        thread.join(timeout=5)
        server_in.close()
        server_out.close()

    def test_matrix_over_stdio(self, client, strings, local_matrix):
        remote = client.matrix(SPEC, strings, shards=2, timeout=120)
        assert np.array_equal(remote.values, local_matrix.values)

    def test_junk_line_gets_error_envelope(self, server):
        import io

        output = io.StringIO()
        served = serve_stdio(server, io.StringIO("{not json\n\n"), output)
        assert served == 1
        assert '"ok":false' in output.getvalue().replace(" ", "")


class TestStoreIsSharedFormat:
    def test_store_payload_equals_engine_payload(self, server, strings):
        """The persisted payload is exactly the engine's stamped format."""
        job_id = submit_matrix(server, strings)
        wait_result(server, job_id)
        stored = JobStore(server.store.root).load_result(job_id)
        engine = server.session.engine(SPEC)
        matrix = server.session.matrix(SPEC, strings)
        assert stored == engine.matrix_payload(matrix, strings)


def _submissions(strings):
    """One submission of each job kind, and the ``input`` its record stores.

    The inputs are written out field by field, as the service stored them
    before a record's input was defined as its wire request, so a change
    to what a record holds shows here.
    """
    corpus = list(encode_corpus(strings))
    return [
        (
            "matrix",
            {"v": PROTOCOL_VERSION, "type": "submit-matrix", "spec": "kast", "strings": corpus},
            {"spec": make_spec("kast").to_dict(), "strings": corpus, "normalized": True, "repair": True,
             "shards": 1, "distributed": False, "use_cache": True},
        ),
        (
            "analyze",
            {"v": PROTOCOL_VERSION, "type": "submit-analyze", "spec": SPEC.to_dict(), "strings": corpus,
             "linkage": "ward"},
            {"spec": SPEC.to_dict(), "strings": corpus, "n_clusters": 3, "n_components": 2,
             "linkage": "ward"},
        ),
        (
            "fit-model",
            {"v": PROTOCOL_VERSION, "type": "fit-model", "spec": SPEC.to_dict(), "strings": corpus,
             "name": "inputs", "landmarks": 3, "trace_id": "fit-trace"},
            {"spec": SPEC.to_dict(), "strings": corpus, "name": "inputs", "landmarks": 3,
             "strategy": "kcenter", "seed": 2017, "n_components": 2, "n_clusters": None,
             "use_cache": True},
        ),
    ]


class TestJobRecordsStoreTheirRequest:
    def test_input_is_the_request_and_options_are_run_metadata(self, server, strings):
        release = threading.Event()
        job_ids = []
        try:
            fill_job_pool(server, release)  # every record stays as created
            for kind, payload, expected_input in _submissions(strings):
                response = check_response(server.handle(payload))
                record = server.store.get(response["job_id"])
                assert record.kind == kind and record.status == "queued"
                assert json.dumps(record.input, sort_keys=True) == json.dumps(expected_input, sort_keys=True)
                assert set(record.options) == {"tenant", "trace_id", "span_id"}
                assert record.options["trace_id"] == payload.get("trace_id", response["trace_id"])
                assert "spec" not in record.to_dict()
                job_ids.append(response["job_id"])
        finally:
            release.set()
        for job_id in job_ids:
            wait_result(server, job_id)

    def test_an_unknown_linkage_is_refused_before_any_work(self, server, strings):
        response = server.handle({
            "v": PROTOCOL_VERSION, "type": "submit-analyze", "spec": SPEC.to_dict(),
            "strings": list(encode_corpus(strings)), "linkage": "foo",
        })
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "linkage" in response["error"]["message"]
        assert server.store.records() == []
        assert server.session.engine_counters()["kernel_evals"] == 0

    def test_records_in_the_older_format_still_run(self, tmp_path, strings):
        # Records written before the input became the only job description:
        # a top-level spec, and most input fields copied into the options.
        state_dir = str(tmp_path / "state")
        jobs_dir = os.path.join(state_dir, "jobs")
        os.makedirs(jobs_dir)
        corpus = list(encode_corpus(strings))
        trace = {"tenant": DEFAULT_TENANT, "trace_id": "old-trace", "span_id": "old-span"}
        matrix_input = {"spec": SPEC.to_dict(), "strings": corpus, "normalized": True, "repair": True,
                        "shards": 2, "distributed": True, "use_cache": True}
        fit_input = {"spec": SPEC.to_dict(), "strings": corpus, "name": "legacy", "landmarks": 3,
                     "strategy": "kcenter", "seed": 2017, "n_components": 2, "n_clusters": None,
                     "use_cache": True}
        old_records = {
            "matrix-0000000000aa": ("matrix", matrix_input, {
                "normalized": True, "repair": True, "shards": 2, "distributed": True, "use_cache": True,
                "examples": len(strings), "blocks": [[0, 1, 2, 3], [4, 5, 6, 7]],
                "submission_key": "0" * 64, **trace,
            }),
            "fit-model-0000000000bb": ("fit-model", fit_input, {
                "model": "legacy", "landmarks": 3, "strategy": "kcenter", "examples": len(strings), **trace,
            }),
        }
        for job_id, (kind, stored_input, options) in old_records.items():
            record = {
                "job_id": job_id, "kind": kind, "status": "queued", "spec": SPEC.to_dict(),
                "options": options, "input": stored_input, "error": None, "payload_sha256": None,
                "worker_id": None, "lease_expires_at": None, "attempts": 0,
                "created_at": 1.0, "updated_at": 1.0,
            }
            with open(os.path.join(jobs_dir, f"{job_id}.json"), "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
        with AnalysisServer(state_dir=state_dir) as fresh:
            assert fresh.store.recovery.quarantined == ()
            assert set(fresh.store.recovery.requeued) == set(old_records)
            payload = wait_result(fresh, "matrix-0000000000aa")
            summary = wait_result(fresh, "fit-model-0000000000bb")
        with AnalysisSession() as session:
            expected = session.engine(SPEC).matrix_payload(session.matrix(SPEC, strings), strings)
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert summary["name"] == "legacy" and summary["landmarks"] == 3
