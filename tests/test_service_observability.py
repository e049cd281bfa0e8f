"""End-to-end observability tests: /metrics, tracing, structured logs.

The acceptance story: a client-supplied trace id rides the job record,
every derived block record, both processes' log lines, and the result
envelope — while the matrix payload itself stays byte-identical — and
``GET /metrics`` renders a fleet-aggregated Prometheus page covering the
server's and every worker's counters.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.request

import pytest

from repro.api import AnalysisSession, make_spec
from repro.obs.tracing import valid_trace_id
from repro.service import AnalysisServer, Worker
from repro.service.protocol import (
    BadRequest,
    HealthRequest,
    ResultRequest,
    StatusRequest,
    SubmitMatrixRequest,
    check_response,
    encode_corpus,
)
from repro.service.server import _ServiceHTTPHandler

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)[:6]


@pytest.fixture(scope="module")
def local_payload(strings):
    with AnalysisSession() as session:
        matrix = session.matrix(SPEC, strings)
        return session.engine(SPEC).matrix_payload(matrix, strings)


def submit_matrix(server, strings, **kwargs):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **kwargs
            ).to_payload()
        )
    )
    return response


def wait_result(server, job_id, wait=120.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload())
    )


def wait_for(condition, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Trace-id propagation (client -> job -> blocks -> worker -> envelope)
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_client_trace_rides_job_blocks_worker_and_envelope(
        self, tmp_path, strings, local_payload, caplog
    ):
        state_dir = str(tmp_path / "state")
        trace_id = "cli-trace-001"
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            with caplog.at_level(logging.INFO, logger="repro.service"):
                response = submit_matrix(
                    server, strings, shards=3, distributed=True, trace_id=trace_id
                )
                job_id = response["job_id"]
                assert response["trace_id"] == trace_id

                # The job record carries the trace plus its own span.
                record = server.store.get(job_id)
                assert record.options["trace_id"] == trace_id
                parent_span = record.options["span_id"]
                assert valid_trace_id(parent_span)

                # Block children appear once the coordinator starts; each
                # inherits the trace under a span of its own.
                expected_blocks = 3 * 4 // 2
                assert wait_for(
                    lambda: len(server.store.records(kind="block")) >= expected_blocks
                ), "block records never appeared"
                blocks = server.store.records(kind="block")
                spans = set()
                for block in blocks:
                    assert block.options["trace_id"] == trace_id
                    assert block.options["span_id"] != parent_span
                    spans.add(block.options["span_id"])
                assert len(spans) == len(blocks), "block spans must be distinct"

                worker = Worker(state_dir, worker_id="obs-worker")
                thread = threading.Thread(
                    target=worker.run_forever, kwargs={"idle_exit": 2.0}
                )
                thread.start()
                try:
                    envelope = wait_result(server, job_id)
                finally:
                    worker.stop()
                    thread.join(timeout=15)
                    worker.close()

            # Envelope echoes the trace; the payload itself is untouched.
            assert envelope["trace_id"] == trace_id
            assert envelope["payload"] == local_payload
            assert json.dumps(envelope["payload"], sort_keys=True) == json.dumps(
                local_payload, sort_keys=True
            )
            status = check_response(
                server.handle(StatusRequest(job_id=job_id).to_payload())
            )
            assert status["trace_id"] == trace_id

        # Both executors' log lines mention the trace.  One runner logs
        # every job, naming the executor that started it.
        job_lines = [
            r.getMessage() for r in caplog.records if r.name == "repro.service.worker"
        ]
        for executor in ("obs-worker", server.worker_id):
            assert any(
                trace_id in line and f"started by {executor}," in line for line in job_lines
            ), job_lines

    def test_server_mints_trace_when_client_omits_it(self, tmp_path, strings):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            response = submit_matrix(server, strings)
            minted = response["trace_id"]
            assert valid_trace_id(minted)
            assert server.store.get(response["job_id"]).options["trace_id"] == minted
            wait_result(server, response["job_id"])

    def test_invalid_trace_id_rejected_at_the_protocol(self, strings):
        with pytest.raises(BadRequest, match="trace_id"):
            SubmitMatrixRequest(
                spec=SPEC.to_dict(),
                strings=tuple(encode_corpus(strings)),
                trace_id="bad trace id!",
            )

    def test_coalesced_submission_reports_the_working_jobs_trace(
        self, tmp_path, strings
    ):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            first = submit_matrix(server, strings, trace_id="trace-first")
            second = submit_matrix(server, strings, trace_id="trace-second")
            if second["job_id"] == first["job_id"]:  # coalesced in flight
                assert second["trace_id"] == "trace-first"
            wait_result(server, first["job_id"])


# ----------------------------------------------------------------------
# /metrics: content, HTTP endpoint, fleet aggregation
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_metrics_text_covers_the_instrumented_layers(self, tmp_path, strings):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            response = submit_matrix(server, strings, trace_id="metrics-trace")
            wait_result(server, response["job_id"])
            server.handle(HealthRequest().to_payload())
            text = server.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert 'method="submit-matrix"' in text and 'status="ok"' in text
        assert "repro_request_seconds_bucket" in text
        assert "repro_engine_kernel_evals_total" in text
        assert "repro_matrix_cache_hits_total" in text
        assert "repro_pair_store_hits_total" in text
        assert "repro_jobstore_created_total" in text
        assert "repro_jobs_executed_total" in text
        assert "repro_uptime_seconds" in text
        assert f'origin="{server.worker_id}"' in text

    def test_http_get_metrics_serves_prometheus_text(self, tmp_path, strings):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            host, port = server.start_http()
            submit_response = submit_matrix(server, strings)
            wait_result(server, submit_response["job_id"])
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as reply:
                assert reply.status == 200
                assert reply.headers["Content-Type"].startswith("text/plain")
                body = reply.read().decode("utf-8")
        assert "repro_requests_total" in body
        assert body.endswith("\n")

    def test_fleet_aggregation_merges_worker_snapshots(self, tmp_path):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir) as server:
            metrics_dir = os.path.join(server.store.root, "metrics")
            os.makedirs(metrics_dir, exist_ok=True)
            snapshot = {
                "origin": "worker-fake-1",
                "written_at": 0.0,
                "families": [
                    {
                        "name": "repro_worker_tasks_completed_total",
                        "type": "counter",
                        "help": "",
                        "samples": [{"labels": {}, "value": 9.0}],
                    }
                ],
            }
            with open(os.path.join(metrics_dir, "worker-fake-1.json"), "w") as handle:
                json.dump(snapshot, handle)
            # A corrupt snapshot must not break the scrape.
            with open(os.path.join(metrics_dir, "broken.json"), "w") as handle:
                handle.write("{not json")
            text = server.metrics_text()
        assert 'repro_worker_tasks_completed_total{origin="worker-fake-1"} 9' in text
        assert f'origin="{server.worker_id}"' in text

    def test_real_worker_persists_a_snapshot_the_server_aggregates(
        self, tmp_path, strings
    ):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(state_dir=state_dir, inline_blocks=False) as server:
            response = submit_matrix(server, strings, shards=2, distributed=True)
            worker = Worker(state_dir, worker_id="snapshot-worker")
            thread = threading.Thread(
                target=worker.run_forever, kwargs={"idle_exit": 2.0}
            )
            thread.start()
            try:
                wait_result(server, response["job_id"])
            finally:
                worker.stop()
                thread.join(timeout=15)
                worker.close()
            snapshot_path = os.path.join(
                server.store.root, "metrics", "snapshot-worker.json"
            )
            assert os.path.exists(snapshot_path)
            with open(snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            assert snapshot["origin"] == "snapshot-worker"
            text = server.metrics_text()
        assert 'origin="snapshot-worker"' in text
        assert 'repro_job_seconds_count{kind="block",origin="snapshot-worker"}' in text


# ----------------------------------------------------------------------
# Health uptime fields (satellite: started_at / uptime_seconds / pid)
# ----------------------------------------------------------------------
class TestHealthUptime:
    def test_health_reports_started_at_uptime_and_pid(self, tmp_path):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            health = check_response(server.handle(HealthRequest().to_payload()))
        assert health["pid"] == os.getpid()
        assert health["started_at"] <= time.time()
        assert health["uptime_seconds"] >= 0.0
        assert health["uptime_seconds"] == pytest.approx(
            time.time() - health["started_at"], abs=5.0
        )


# ----------------------------------------------------------------------
# HTTP access-log routing (satellite: errors at WARNING, access at DEBUG)
# ----------------------------------------------------------------------
class TestHTTPLogRouting:
    def _bare_handler(self):
        handler = _ServiceHTTPHandler.__new__(_ServiceHTTPHandler)
        handler.client_address = ("127.0.0.1", 12345)
        return handler

    def test_access_lines_go_to_debug(self, caplog):
        handler = self._bare_handler()
        with caplog.at_level(logging.DEBUG, logger="repro.service.server"):
            handler.log_message('"GET /healthz HTTP/1.1" %s -', "200")
        (record,) = [r for r in caplog.records if "healthz" in r.getMessage()]
        assert record.levelno == logging.DEBUG

    def test_error_lines_go_to_warning(self, caplog):
        handler = self._bare_handler()
        with caplog.at_level(logging.DEBUG, logger="repro.service.server"):
            handler.log_error("code %d, message %s", 400, "Bad request syntax")
        (record,) = [r for r in caplog.records if "Bad request" in r.getMessage()]
        assert record.levelno == logging.WARNING


# ----------------------------------------------------------------------
# CLI: remote metrics / remote health round trips
# ----------------------------------------------------------------------
class TestRemoteCLI:
    def test_remote_metrics_prints_the_prometheus_page(self, tmp_path, capsys):
        from repro.cli import main

        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            host, port = server.start_http()
            server.handle(HealthRequest().to_payload())
            assert main(["remote", "--url", f"http://{host}:{port}", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert "repro_uptime_seconds" in out

    def test_remote_health_prints_uptime_summary(self, tmp_path, capsys):
        from repro.cli import main

        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            host, port = server.start_http()
            assert main(["remote", "--url", f"http://{host}:{port}", "health"]) == 0
        captured = capsys.readouterr()
        health = json.loads(captured.out)
        assert health["pid"] > 0
        assert "# up " in captured.err and "pid" in captured.err

    def test_stdio_transport_has_no_metrics_side_channel(self, tmp_path):
        from repro.service import ServiceClient
        from repro.service.protocol import ServiceError
        from repro.service.server import serve_stdio  # noqa: F401 - import check

        class _NullTransport:
            def request(self, payload):
                raise AssertionError("unused")

            def close(self):
                pass

        client = ServiceClient.__new__(ServiceClient)
        client.transport = _NullTransport()
        with pytest.raises(ServiceError, match="HTTP transport"):
            client.metrics_text()


# ----------------------------------------------------------------------
# Layer counters feeding the collectors
# ----------------------------------------------------------------------
class TestLayerCounters:
    def test_jobstore_counters_track_lifecycle(self, tmp_path, strings):
        with AnalysisServer(state_dir=str(tmp_path / "state")) as server:
            response = submit_matrix(server, strings)
            wait_result(server, response["job_id"])
            counts = server.store.counters()
        assert counts["created"] >= 1
        assert counts["claims"] >= 1
        assert counts["results"] >= 1

    def test_session_engine_counters_aggregate(self, tmp_path, strings):
        with AnalysisSession() as session:
            session.matrix(SPEC, strings)
            totals = session.engine_counters()
        assert totals["kernel_evals"] > 0
        assert set(totals) >= {"kernel_evals", "pair_hits", "store_hits"}
