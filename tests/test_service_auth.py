"""Auth, tenancy, quota and resilience tests for the service pipeline.

The acceptance story of the multi-tenant refactor: two tenants submitting
the identical corpus get bit-identical payloads while sharing *nothing* —
separate job stores, separate caches, separate models — and every
budget violation is a typed, retryable answer, not a hung socket.
"""

from __future__ import annotations

import json
import io
import os
import re
import threading

import pytest

from repro.api import AnalysisSession, make_spec
from repro.service import (
    AnalysisServer,
    Authenticator,
    HTTPTransport,
    ServiceClient,
    TenantQuotas,
    TransportError,
    Worker,
    serve_stdio,
)
from repro.service.protocol import (
    HealthRequest,
    QuotaExceeded,
    RateLimited,
    RequestTooLarge,
    ResultRequest,
    SpecsRequest,
    StatusRequest,
    SubmitMatrixRequest,
    Unauthorized,
    check_response,
    encode_corpus,
)
from repro.service.tenancy import DEFAULT_TENANT, TokenBucket, valid_tenant_id

SPEC = make_spec("kast", cut_weight=2)

TWO_TENANTS = {
    "tenants": {
        "alpha": {"token": "alpha-secret"},
        "beta": {"token": "beta-secret"},
    }
}


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)[:6]


@pytest.fixture
def tenants_file(tmp_path):
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(TWO_TENANTS), encoding="utf-8")
    return str(path)


@pytest.fixture
def auth_server(tmp_path, tenants_file):
    with AnalysisServer(
        state_dir=str(tmp_path / "state"),
        authenticator=Authenticator.from_file(tenants_file),
    ) as live:
        yield live


def submit_matrix(server, strings, token, **options):
    response = check_response(
        server.handle(
            SubmitMatrixRequest(
                spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **options
            ).to_payload(),
            token=token,
        )
    )
    return response["job_id"]


def wait_payload(server, job_id, token, wait=60.0):
    return check_response(
        server.handle(ResultRequest(job_id=job_id, wait=wait).to_payload(), token=token)
    )["payload"]


class TestAuthenticator:
    def test_disabled_resolves_every_caller_to_default(self):
        auth = Authenticator.disabled()
        assert not auth.enabled
        assert auth.authenticate(None) == DEFAULT_TENANT
        assert auth.authenticate("anything") == DEFAULT_TENANT

    def test_single_token_mode(self):
        auth = Authenticator.single("s3cret")
        assert auth.enabled
        assert auth.authenticate("s3cret") == DEFAULT_TENANT
        with pytest.raises(Unauthorized):
            auth.authenticate(None)
        with pytest.raises(Unauthorized):
            auth.authenticate("wrong")

    def test_tenants_file_round_trip(self, tenants_file):
        auth = Authenticator.from_file(tenants_file)
        assert auth.tenant_ids == ["alpha", "beta"]
        assert auth.authenticate("alpha-secret") == "alpha"
        assert auth.authenticate("beta-secret") == "beta"

    def test_tenants_file_quota_overrides(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "tenants": {
                "alpha": {"token": "a", "quotas": {"requests_per_second": 5,
                                                   "max_corpus_strings": 10}},
            }
        }), encoding="utf-8")
        auth = Authenticator.from_file(str(path))
        assert auth.quota_overrides["alpha"].requests_per_second == 5.0
        assert auth.quota_overrides["alpha"].max_corpus_strings == 10

    @pytest.mark.parametrize("payload", [
        [],                                             # not an object
        {},                                             # no tenants key
        {"tenants": {}},                                # no tenants configured
        {"tenants": {"alpha": {}}},                     # missing token
        {"tenants": {"bad id!": {"token": "x"}}},       # invalid tenant id
        {"tenants": {"a": {"token": "x"}, "b": {"token": "x"}}},  # duplicate token
        {"tenants": {"a": {"token": "x", "oops": 1}}},  # unknown key
    ])
    def test_malformed_tenants_files_rejected(self, tmp_path, payload):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError):
            Authenticator.from_file(str(path))

    def test_tenant_id_validation(self):
        assert valid_tenant_id("alpha-1")
        assert not valid_tenant_id("has space")
        assert not valid_tenant_id("")
        assert not valid_tenant_id("../escape")


class TestTokenBucket:
    def test_burst_then_refill_hint(self):
        bucket = TokenBucket(rate=1.0, capacity=2)
        assert bucket.acquire() is None
        assert bucket.acquire() is None
        retry_after = bucket.acquire()
        assert retry_after is not None and retry_after > 0


class TestUnauthorized:
    def test_missing_and_wrong_token_are_typed_errors(self, auth_server):
        for token in (None, "not-a-token"):
            response = auth_server.handle(SpecsRequest().to_payload(), token=token)
            assert response["ok"] is False
            assert response["error"]["code"] == "unauthorized"

    def test_health_stays_unauthenticated(self, auth_server):
        response = check_response(auth_server.handle(HealthRequest().to_payload()))
        assert response["status"] == "ok"
        assert response["auth"] is True

    def test_http_401_without_token(self, auth_server, strings):
        host, port = auth_server.start_http()
        with ServiceClient(f"http://{host}:{port}", retries=0) as client:
            with pytest.raises(Unauthorized):
                client.specs()
            # /healthz needs no secret — load balancers must stay happy.
            assert client.health()["status"] == "ok"
        with ServiceClient(f"http://{host}:{port}", token="alpha-secret") as client:
            assert "kinds" in client.specs()

    def test_stdio_envelope_token(self, auth_server):
        lines = (
            json.dumps(SpecsRequest().to_payload()) + "\n"
            + json.dumps({**SpecsRequest().to_payload(), "token": "beta-secret"}) + "\n"
        )
        output = io.StringIO()
        serve_stdio(auth_server, io.StringIO(lines), output)
        first, second = [json.loads(line) for line in output.getvalue().splitlines()]
        assert first["error"]["code"] == "unauthorized"
        assert second["ok"] is True


class TestTenantIsolation:
    def test_identical_corpus_identical_payload_zero_sharing(self, auth_server, strings):
        job_a = submit_matrix(auth_server, strings, token="alpha-secret")
        job_b = submit_matrix(auth_server, strings, token="beta-secret")
        payload_a = wait_payload(auth_server, job_a, token="alpha-secret")
        payload_b = wait_payload(auth_server, job_b, token="beta-secret")
        # Bit-identical answers...
        assert json.dumps(payload_a, sort_keys=True) == json.dumps(payload_b, sort_keys=True)
        # ...from disjoint namespaces on disk.
        root = auth_server.store.root
        for tenant_id, job_id in (("alpha", job_a), ("beta", job_b)):
            namespace = os.path.join(root, "tenants", tenant_id)
            assert os.path.isdir(os.path.join(namespace, "matrix-cache"))
            record = auth_server.tenants.context(tenant_id).store.get(job_id)
            assert record.options["tenant"] == tenant_id

    def test_jobs_are_invisible_across_tenants(self, auth_server, strings):
        job_a = submit_matrix(auth_server, strings, token="alpha-secret")
        wait_payload(auth_server, job_a, token="alpha-secret")
        response = auth_server.handle(
            StatusRequest(job_id=job_a).to_payload(), token="beta-secret"
        )
        assert response["error"]["code"] == "unknown-job"

    def test_caches_do_not_leak_across_tenants(self, auth_server, strings):
        # Same corpus twice as alpha: second run is a cache hit for alpha.
        first = submit_matrix(auth_server, strings, token="alpha-secret")
        wait_payload(auth_server, first, token="alpha-secret")
        again = submit_matrix(auth_server, strings, token="alpha-secret")
        wait_payload(auth_server, again, token="alpha-secret")
        stats_alpha = check_response(
            auth_server.handle({"type": "cache-stats", "v": 1}, token="alpha-secret")
        )
        assert stats_alpha["tenant"] == "alpha"
        assert stats_alpha["hits"] >= 1
        # Beta computing the identical corpus must MISS: values were never
        # shared, so its cache has no entry to hit.
        job_b = submit_matrix(auth_server, strings, token="beta-secret")
        wait_payload(auth_server, job_b, token="beta-secret")
        stats_beta = check_response(
            auth_server.handle({"type": "cache-stats", "v": 1}, token="beta-secret")
        )
        assert stats_beta["tenant"] == "beta"
        assert stats_beta["hits"] == 0
        assert stats_beta["entries"] == 1

    def test_health_reports_per_tenant_namespaces(self, auth_server, strings):
        job_a = submit_matrix(auth_server, strings, token="alpha-secret")
        wait_payload(auth_server, job_a, token="alpha-secret")
        health = check_response(
            auth_server.handle(HealthRequest().to_payload(), token="alpha-secret")
        )
        assert health["tenant"] == "alpha"
        assert "alpha" in health["tenants"]
        assert sum(health["tenants"]["alpha"]["jobs"].values()) >= 1

    def test_metrics_carry_tenant_labels(self, auth_server, strings):
        job_a = submit_matrix(auth_server, strings, token="alpha-secret")
        wait_payload(auth_server, job_a, token="alpha-secret")
        text = auth_server.metrics_text()
        assert 'tenant="alpha"' in text
        assert "repro_tenants" in text

    def test_namespaces_survive_restart(self, tmp_path, tenants_file, strings):
        state_dir = str(tmp_path / "state")
        auth = Authenticator.from_file(tenants_file)
        with AnalysisServer(state_dir=state_dir, authenticator=auth) as server:
            job_a = submit_matrix(server, strings, token="alpha-secret")
            wait_payload(server, job_a, token="alpha-secret")
        with AnalysisServer(state_dir=state_dir, authenticator=auth) as server:
            # The restarted server re-discovers alpha's namespace and record.
            record = server.tenants.context("alpha").store.get(job_a)
            assert record.status == "done"


def request_samples(text):
    """``repro_requests_total`` samples by ``(method, status, tenant)``."""
    samples = {}
    for line in text.splitlines():
        match = re.match(r"repro_requests_total\{(.*)\} (\S+)$", line)
        if match:
            labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1)))
            key = (labels["method"], labels["status"], labels["tenant"])
            samples[key] = samples.get(key, 0.0) + float(match.group(2))
    return samples


class TestRequestMetrics:
    def test_every_front_end_outcome_is_counted_under_its_labels(self, tmp_path, strings):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "tenants": {
                "alpha": {"token": "alpha-secret"},
                "small": {"token": "small-secret", "quotas": {"max_corpus_strings": 2}},
            }
        }), encoding="utf-8")
        with AnalysisServer(
            state_dir=str(tmp_path / "state"),
            authenticator=Authenticator.from_file(str(path)),
            default_quotas=TenantQuotas(requests_per_second=0.001, burst=1),
        ) as server:
            specs = SpecsRequest().to_payload()
            assert server.handle(specs, token="alpha-secret")["ok"]
            assert server.handle(specs, token="alpha-secret")["error"]["code"] == "rate-limited"
            oversized = SubmitMatrixRequest(spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)))
            refused = server.handle(oversized.to_payload(), token="small-secret")
            assert refused["error"]["code"] == "quota-exceeded"
            assert server.handle("not a JSON object")["error"]["code"] == "bad-request"
            assert server.handle(specs)["error"]["code"] == "unauthorized"
            for _ in range(2):
                assert server.handle(HealthRequest().to_payload())["ok"]
            text = server.metrics_text()
        assert request_samples(text) == {
            ("specs", "ok", "alpha"): 1,
            ("specs", "rate-limited", "alpha"): 1,
            ("submit-matrix", "quota-exceeded", "small"): 1,
            ("invalid", "bad-request", "unauthenticated"): 1,
            ("specs", "unauthorized", "unauthenticated"): 1,
            ("health", "ok", "default"): 2,
        }
        for method, count in (("specs", 3), ("submit-matrix", 1), ("invalid", 1), ("health", 2)):
            assert re.search(
                rf'repro_request_seconds_count\{{method="{method}",origin="[^"]+"\}} {count}$',
                text, re.MULTILINE,
            )


class TestQuotas:
    def test_rate_limit_is_typed_with_retry_after(self, tmp_path):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"),
            default_quotas=TenantQuotas(requests_per_second=0.001, burst=1),
        ) as server:
            assert check_response(server.handle(SpecsRequest().to_payload()))
            response = server.handle(SpecsRequest().to_payload())
            assert response["error"]["code"] == "rate-limited"
            assert response["error"]["details"]["retry_after"] > 0
            # Health is exempt: probes must not burn the budget.
            assert check_response(server.handle(HealthRequest().to_payload()))

    def test_corpus_quota_has_no_retry_after(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"),
            default_quotas=TenantQuotas(max_corpus_strings=2),
        ) as server:
            response = server.handle(
                SubmitMatrixRequest(
                    spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                ).to_payload()
            )
            assert response["error"]["code"] == "quota-exceeded"
            assert "retry_after" not in response["error"]["details"]

    def test_queued_jobs_quota(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"),
            default_quotas=TenantQuotas(max_queued_jobs=1),
        ) as server:
            submit_matrix(server, strings, token=None)
            response = server.handle(
                SubmitMatrixRequest(
                    spec=SPEC.to_dict(),
                    strings=tuple(encode_corpus(strings)),
                    use_cache=False,
                ).to_payload()
            )
            # Either the first job already finished (tiny corpus) or the
            # second submission is refused with a drain hint.
            if response["ok"] is False:
                assert response["error"]["code"] == "quota-exceeded"
                assert response["error"]["details"]["retry_after"] > 0

    def test_per_tenant_quota_overrides_from_file(self, tmp_path, strings):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "tenants": {
                "small": {"token": "small-secret", "quotas": {"max_corpus_strings": 2}},
                "big": {"token": "big-secret"},
            }
        }), encoding="utf-8")
        with AnalysisServer(
            state_dir=str(tmp_path / "state"),
            authenticator=Authenticator.from_file(str(path)),
        ) as server:
            refused = server.handle(
                SubmitMatrixRequest(
                    spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                ).to_payload(),
                token="small-secret",
            )
            assert refused["error"]["code"] == "quota-exceeded"
            job_id = submit_matrix(server, strings, token="big-secret")
            assert wait_payload(server, job_id, token="big-secret")


class TestRequestTooLarge:
    def test_http_413_before_reading_the_body(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), max_request_bytes=2048
        ) as server:
            host, port = server.start_http()
            with ServiceClient(f"http://{host}:{port}", retries=0) as client:
                with pytest.raises(RequestTooLarge):
                    client.submit(SPEC, strings)
                # Small requests still work on the same server.
                assert client.health()["status"] == "ok"

    def test_stdio_oversized_line(self, tmp_path, strings):
        with AnalysisServer(
            state_dir=str(tmp_path / "state"), max_request_bytes=2048
        ) as server:
            line = json.dumps(
                SubmitMatrixRequest(
                    spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings))
                ).to_payload()
            )
            assert len(line) > 2048
            output = io.StringIO()
            serve_stdio(server, io.StringIO(line + "\n"), output)
            response = json.loads(output.getvalue().splitlines()[0])
            assert response["error"]["code"] == "request-too-large"

    def test_minimum_budget_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            AnalysisServer(state_dir=str(tmp_path / "state"), max_request_bytes=10)


class _FlakyTransport:
    """Scripted transport: raises queued exceptions, then delegates answers."""

    def __init__(self, failures, response):
        self.failures = list(failures)
        self.response = response
        self.calls = 0

    def request(self, payload):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.response

    def close(self):
        pass


class _ScriptedTransport:
    """Returns each queued wire answer in turn (the last one repeats)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def request(self, payload):
        self.calls += 1
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]

    def close(self):
        pass


class TestClientRetries:
    OK_HEALTH = {"v": 1, "ok": True, "type": "health", "status": "ok"}

    def test_transport_errors_retried_on_idempotent_calls(self):
        transport = _FlakyTransport(
            [TransportError("boom"), TransportError("boom")], self.OK_HEALTH
        )
        client = ServiceClient(transport, retries=3, backoff=0.001, max_backoff=0.002)
        assert client.health()["status"] == "ok"
        assert transport.calls == 3

    def test_retries_zero_fails_fast(self):
        transport = _FlakyTransport([TransportError("boom")], self.OK_HEALTH)
        client = ServiceClient(transport, retries=0)
        with pytest.raises(TransportError):
            client.health()
        assert transport.calls == 1

    def test_submissions_never_resent_on_transport_failure(self, strings):
        # A submit that died mid-flight may still have been queued; blind
        # replay could double the work, so the error surfaces instead.
        transport = _FlakyTransport([TransportError("boom")], self.OK_HEALTH)
        client = ServiceClient(transport, retries=3, backoff=0.001, max_backoff=0.002)
        with pytest.raises(TransportError):
            client.submit(SPEC, strings)
        assert transport.calls == 1

    def test_rate_limited_retried_with_server_hint(self, strings):
        error = {
            "v": 1, "ok": False, "type": "error",
            "error": {"code": "rate-limited", "message": "slow down",
                      "details": {"retry_after": 0.001}},
        }
        ok = {"v": 1, "ok": True, "type": "submit-matrix", "job_id": "matrix-1"}
        transport = _ScriptedTransport([error, error, ok])
        client = ServiceClient(transport, retries=3, backoff=0.001, max_backoff=0.002)
        # Non-idempotent calls also retry on rate-limited: the server
        # explicitly refused *before* doing any work.
        assert client.submit(SPEC, strings) == "matrix-1"
        assert transport.calls == 3

    def test_rate_limited_without_hint_raises(self):
        error = {
            "v": 1, "ok": False, "type": "error",
            "error": {"code": "rate-limited", "message": "slow down"},
        }
        transport = _FlakyTransport([], error)
        client = ServiceClient(transport, retries=3, backoff=0.001, max_backoff=0.002)
        with pytest.raises(RateLimited):
            client.health()
        assert transport.calls == 1

    def test_quota_exceeded_without_hint_raises_immediately(self):
        error = {
            "v": 1, "ok": False, "type": "error",
            "error": {"code": "quota-exceeded", "message": "corpus too large",
                      "details": {"max_corpus_strings": 2}},
        }
        transport = _FlakyTransport([], error)
        client = ServiceClient(transport, retries=5, backoff=0.001, max_backoff=0.002)
        with pytest.raises(QuotaExceeded):
            client.health()
        assert transport.calls == 1

    def test_token_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "env-secret")
        client = ServiceClient(_FlakyTransport([], self.OK_HEALTH))
        assert client.token == "env-secret"
        monkeypatch.delenv("REPRO_SERVICE_TOKEN")
        assert ServiceClient(_FlakyTransport([], self.OK_HEALTH)).token is None

    def test_token_stamped_into_envelope(self):
        seen = {}

        class Recorder:
            def request(self, payload):
                seen.update(payload)
                return TestClientRetries.OK_HEALTH

            def close(self):
                pass

        ServiceClient(Recorder(), token="stamp-me").health()
        assert seen["token"] == "stamp-me"


class TestWorkerAcrossTenants:
    def test_one_worker_drains_both_tenant_namespaces(self, tmp_path, tenants_file, strings):
        state_dir = str(tmp_path / "state")
        with AnalysisServer(
            state_dir=state_dir,
            authenticator=Authenticator.from_file(tenants_file),
            inline_blocks=False,
        ) as server:
            job_a = submit_matrix(
                server, strings, token="alpha-secret", shards=2, distributed=True
            )
            job_b = submit_matrix(
                server, strings, token="beta-secret", shards=2, distributed=True
            )
            with Worker(state_dir, worker_id="puller") as worker:
                thread = threading.Thread(
                    target=worker.run_forever, kwargs={"idle_exit": 3.0}
                )
                thread.start()
                try:
                    payload_a = wait_payload(server, job_a, token="alpha-secret", wait=120.0)
                    payload_b = wait_payload(server, job_b, token="beta-secret", wait=120.0)
                finally:
                    worker.stop()
                    thread.join(timeout=30)
            assert json.dumps(payload_a, sort_keys=True) == json.dumps(payload_b, sort_keys=True)
            assert worker.completed >= 1
            # Each tenant's pair store was written in its own namespace.
            for tenant in ("alpha", "beta"):
                root = os.path.join(state_dir, "tenants", tenant)
                assert os.path.isdir(root)
