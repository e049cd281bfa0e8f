"""Service smoke over real sockets: the CLI's ``serve``, ``worker``, ``remote``, ``model`` and ``gc``.

Every command runs as its own ``python -m repro`` process, exactly as an
operator would type it; servers listen on ``--port 0`` and publish the
port through ``--port-file``.  Two scenarios:

* **round trip** — a server that leaves distributed blocks to an external
  worker must answer sharded, worker-distributed and cache-served matrix
  jobs byte-identically to the in-process ``repro matrix``; a model fit and
  two classifies, ``/healthz``, ``cache-stats`` and ``/metrics`` must show
  the work; an analyze job looks the result cache up once; a restarted
  server answers a half-size subset from the pair store alone; ``gc``
  sweeps the state dir.
* **multi-tenant auth** — a token-configured server answers 401 without a
  token, gives two tenants identical payloads in separate namespaces,
  answers a typed 429 once a tenant's request budget is spent, and labels
  its ``/metrics`` samples per tenant.

The ``processes`` fixture kills and waits for every process it started,
so a failing assertion leaves no server behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

import pytest

SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Seconds one finishing CLI command (a remote job included) may take.
COMMAND_TIMEOUT = 300.0


def _environment(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SOURCE_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SERVICE_TOKEN", None)
    env.update(extra or {})
    return env


def repro(*args: str, env: Optional[Dict[str, str]] = None) -> subprocess.CompletedProcess:
    """Run one ``python -m repro`` command to completion; it must succeed."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_environment(env), capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
    )
    assert completed.returncode == 0, (
        f"repro {' '.join(args)} exited {completed.returncode}:\n{completed.stderr}"
    )
    return completed


class Processes:
    """Background ``python -m repro`` processes of one test, reaped at teardown."""

    def __init__(self, log_dir: str) -> None:
        self._log_dir = log_dir
        self._started: List[Tuple[subprocess.Popen, object]] = []

    def start(self, *args: str) -> subprocess.Popen:
        log = open(os.path.join(self._log_dir, f"{args[0]}-{len(self._started)}.log"), "w")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=_environment(), stdout=log, stderr=subprocess.STDOUT,
        )
        self._started.append((process, log))
        return process

    def serve(self, state_dir: str, port_file: str, *extra: str) -> Tuple[subprocess.Popen, str]:
        """Start ``repro serve`` on an ephemeral port; the process and its base URL."""
        with_port = ("--port", "0", "--port-file", port_file)
        process = self.start("serve", "--state-dir", state_dir, *with_port, *extra)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
                with open(port_file, "r", encoding="utf-8") as handle:
                    return process, f"http://127.0.0.1:{int(handle.read())}"
            assert process.poll() is None, f"repro serve exited {process.returncode}"
            time.sleep(0.1)
        raise AssertionError("repro serve published no port within 30 s")

    @staticmethod
    def stop(*processes: subprocess.Popen) -> None:
        """SIGTERM (the shell's ``kill``) and wait, as the operator would."""
        for process in processes:
            process.terminate()
        for process in processes:
            process.wait(timeout=60)

    def close(self) -> None:
        for process, log in self._started:
            if process.poll() is None:
                process.kill()
            process.wait()
            log.close()


@pytest.fixture
def processes(tmp_path):
    launched = Processes(str(tmp_path))
    try:
        yield launched
    finally:
        launched.close()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("smoke") / "corpus")
    repro("generate", directory, "--small", "--seed", "7")
    return directory


def http_get(url: str) -> bytes:
    """``curl -fsS``: the body of a 2xx answer, an exception otherwise."""
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.read()


def http_post(url: str, body: str, token: Optional[str] = None) -> Tuple[int, bytes]:
    """``curl -s -X POST -d``: the status code and body, whatever the status."""
    request = urllib.request.Request(url, data=body.encode("utf-8"), method="POST")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()


def load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_samples(metrics: str, name: str) -> List[float]:
    out = []
    for line in metrics.splitlines():
        if line.startswith(name + "{") or line == name or line.startswith(name + " "):
            out.append(float(line.rsplit(" ", 1)[1]))
    return out


def test_remote_vs_local_matrix_round_trip(tmp_path, corpus, processes):
    state = str(tmp_path / "service-state")
    out = str(tmp_path)
    path = lambda name: os.path.join(out, name)  # noqa: E731 - a local shorthand
    # --no-inline-blocks: distributed block tasks are executed only by the
    # external worker, so this run proves the worker-pull path.
    server, url = processes.serve(state, path("port.txt"), "--no-inline-blocks")
    repro("remote", "--url", url, "health")
    # --poll-interval 60: only the job-store wake-up can make the worker
    # claim promptly, so a broken wake-up fails the --timeout 30 below.
    worker = processes.start("worker", "--state-dir", state, "--poll-interval", "60")
    repro("matrix", corpus, "--output", path("local.json"))
    repro("remote", "--url", url, "matrix", corpus, "--shards", "2", "--output", path("remote.json"))
    # --no-cache: without it the prior submission's cached result would
    # satisfy this job instantly and the worker-pull path would go untested.
    repro(
        "remote", "--url", url, "--timeout", "30", "matrix", corpus, "--shards", "3",
        "--distributed", "--no-cache", "--output", path("distributed.json"),
    )
    # Resubmitting the same matrix must be served from the persistent
    # result cache — byte-identical payload, cache-stats shows the hit.
    repro("remote", "--url", url, "matrix", corpus, "--shards", "2", "--output", path("resubmit.json"))
    # Streaming tier: fit a landmark model from the same corpus, then
    # classify one live trace through HTTP — twice, so the second request
    # proves the zero-evaluation warm path.
    repro("model", "--url", url, "fit", corpus, "--name", "smoke", "--landmarks", "4")
    trace = os.path.join(corpus, sorted(os.listdir(corpus))[0])
    repro("model", "--url", url, "classify", trace, "--name", "smoke", "--output", path("classify.json"))
    repro("model", "--url", url, "classify", trace, "--name", "smoke")
    models = json.loads(repro("model", "--url", url, "list").stdout)
    stats = json.loads(repro("remote", "--url", url, "cache-stats").stdout)
    health = json.loads(http_get(f"{url}/healthz"))
    # Scraped after the distributed job + classifies so the page must
    # aggregate server-side requests AND the worker's persisted snapshot.
    metrics = http_get(f"{url}/metrics").decode("utf-8")

    local = load(path("local.json"))
    assert local == load(path("remote.json")), "remote sharded payload differs from the in-process payload"
    assert local == load(path("distributed.json")), "worker-distributed payload differs from the in-process payload"
    assert local == load(path("resubmit.json")), "cache-served resubmission differs from the cold payload"
    assert stats["enabled"] and stats["hits"] >= 1, f"expected a result-cache hit, got {stats}"
    pair = stats["pair_store"]
    assert pair["enabled"] and pair["entries"] > 0 and pair["invalid"] == 0, \
        f"expected a populated, undamaged pair store, got {pair}"
    assert health["queue_depth"] == 0, f"expected a drained queue, got {health}"
    assert health["matrix_cache"]["hit_rate"] is not None, f"expected matrix hit-rate, got {health}"
    assert health["pair_store"]["hit_rate"] is not None, f"expected pair hit-rate, got {health}"
    classify = load(path("classify.json"))
    assert classify["results"], f"expected at least one classify result, got {classify}"
    assert models["count"] >= 1, f"expected a stored model, got {models}"
    served = health["models"]
    assert served["count"] >= 1, f"expected a model in /healthz, got {health}"
    assert served["requests"] >= 2, f"expected classify counters in /healthz, got {served}"
    assert served["warm_traces"] >= 1, f"expected a warm (0-eval) repeat classify, got {served}"
    assert stats["models"]["models"] >= 1, f"expected a models cache-stats section, got {stats}"
    assert health["uptime_seconds"] > 0 and health["pid"] > 0, f"expected uptime fields, got {health}"
    requests = metric_samples(metrics, "repro_requests_total")
    assert requests and sum(requests) > 0, "expected non-zero repro_requests_total in /metrics"
    evals = metric_samples(metrics, "repro_engine_kernel_evals_total")
    assert evals and sum(evals) > 0, "expected non-zero repro_engine_kernel_evals_total in /metrics"
    assert "repro_request_seconds_bucket" in metrics, "expected request latency histogram in /metrics"
    assert "repro_model_serve_seconds" in metrics, "expected per-model serve metrics in /metrics"
    origins = {line.split('origin="', 1)[1].split('"', 1)[0]
               for line in metrics.splitlines() if 'origin="' in line}
    assert any(o.startswith("server-") for o in origins), f"no server origin in /metrics, got {origins}"
    assert any(o.startswith("worker-") for o in origins), f"no worker origin in /metrics, got {origins}"
    # One job runner feeds both processes: the server's matrix jobs and
    # the worker's block tasks land in the same executed-jobs family.
    executed = {line.split('origin="', 1)[1].split("-", 1)[0]
                for line in metrics.splitlines()
                if line.startswith("repro_jobs_executed_total{") and 'origin="' in line}
    assert {"server", "worker"} <= executed, \
        f"expected repro_jobs_executed_total from server and worker origins, got {executed}"

    # An analyze job looks the result cache up once: the same analyze
    # submitted twice (under a spec no earlier job used) is a miss and then
    # a hit, and each moves its cache-stats counter by exactly 1.
    analyze_stats = [json.loads(repro("remote", "--url", url, "cache-stats").stdout)]
    analyzed = []
    for _ in range(2):
        answer = repro("remote", "--url", url, "analyze", corpus, "--cut-weight", "3")
        analyzed.append(answer)
        analyze_stats.append(json.loads(repro("remote", "--url", url, "cache-stats").stdout))
    assert "# matrix cache: miss" in analyzed[0].stderr.splitlines()
    assert "# matrix cache: hit" in analyzed[1].stderr.splitlines()
    before, first, second = analyze_stats
    assert first["misses"] - before["misses"] == 1, f"first analyze: {before} -> {first}"
    assert first["hits"] == before["hits"], f"first analyze: {before} -> {first}"
    assert second["hits"] - first["hits"] == 1, f"second analyze: {first} -> {second}"
    assert second["misses"] == first["misses"], f"second analyze: {first} -> {second}"
    assert json.loads(analyzed[0].stdout) == json.loads(analyzed[1].stdout), \
        "the cache-served analyze differs from the cold one"
    processes.stop(worker, server)

    # A restarted server reads the pair-store segments the old server and
    # the worker wrote, on its first lookup: a half-size subset misses the
    # matrix cache, so every value comes from the store.
    names = sorted(os.listdir(corpus))
    half = path("corpus-half")
    os.makedirs(half)
    for name in names[: len(names) // 2]:
        shutil.copy(os.path.join(corpus, name), half)
    repro("matrix", half, "--output", path("half-local.json"))
    os.remove(path("port.txt"))
    server, url = processes.serve(state, path("port.txt"))
    repro("remote", "--url", url, "matrix", half, "--output", path("half-remote.json"))
    health = json.loads(http_get(f"{url}/healthz"))
    processes.stop(server)
    assert load(path("half-local.json")) == load(path("half-remote.json")), \
        "restarted server's subset payload differs from the in-process payload"
    pair = health["pair_store"]
    assert pair["misses"] == 0 and pair["hits"] > 0, f"expected every value from the pair store, got {pair}"
    repro("gc", "--state-dir", state, "--ttl", "0", "--cache-ttl", "0", "--pair-ttl", "0")


def test_multi_tenant_auth(tmp_path, corpus, processes):
    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({
        "tenants": {
            "alpha": {"token": "alpha-secret"},
            "beta": {"token": "beta-secret", "quotas": {"requests_per_second": 2, "burst": 2}},
        }
    }))
    state = str(tmp_path / "tenant-state")
    server, url = processes.serve(state, str(tmp_path / "tenant-port.txt"), "--tenants", str(tenants))
    # Health needs no secret; any protocol request without one is a 401.
    http_get(f"{url}/healthz")
    code, body = http_post(f"{url}/v1", '{"v":1,"type":"specs"}')
    assert code == 401, f"expected 401 without a token, got {code}"
    assert b'"unauthorized"' in body
    # Identical corpus as two tenants: identical payloads, separate namespaces.
    alpha, beta = str(tmp_path / "alpha.json"), str(tmp_path / "beta.json")
    repro("remote", "--url", url, "--token", "alpha-secret", "matrix", corpus, "--output", alpha)
    repro("remote", "--url", url, "--token", "beta-secret", "matrix", corpus, "--output", beta)
    health = json.loads(
        repro("remote", "--url", url, "health", env={"REPRO_SERVICE_TOKEN": "alpha-secret"}).stdout
    )
    # Burst past beta's token bucket with raw requests (no client backoff):
    # at least one answer must be a typed 429.
    limited = None
    for _ in range(8):
        code, body = http_post(f"{url}/v1", '{"v":1,"type":"specs"}', token="beta-secret")
        if code == 429:
            limited = body
            break
    assert limited is not None, "expected a 429 once beta's budget was exhausted"
    assert b'"retry_after"' in limited
    metrics = http_get(f"{url}/metrics").decode("utf-8")

    assert load(alpha) == load(beta), "tenants computing the identical corpus must get identical payloads"
    assert health["auth"] is True and health["tenant"] == "alpha", f"unexpected health identity: {health}"
    assert set(health["tenants"]) >= {"alpha", "beta"}, f"expected per-tenant summaries, got {health['tenants']}"
    for tenant in ("alpha", "beta"):
        namespace = os.path.join(state, "tenants", tenant)
        assert os.path.isdir(os.path.join(namespace, "matrix-cache")), f"missing namespace for {tenant}"
    assert 'tenant="alpha"' in metrics and 'tenant="beta"' in metrics, \
        "expected tenant-labelled samples in /metrics"
    assert "repro_tenants" in metrics, "expected the repro_tenants gauge in /metrics"
    processes.stop(server)
    repro("gc", "--state-dir", state, "--ttl", "0", "--cache-ttl", "0", "--pair-ttl", "0")
