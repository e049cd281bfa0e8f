"""The service client: the ``AnalysisSession`` surface over a transport.

:class:`ServiceClient` speaks the :mod:`repro.service.protocol` messages and
mirrors the session facade — ``matrix()``/``analyze()`` block for a result —
so moving a workload from in-process to remote is a one-line change; its
``submit()``/``result()``/``status()``/``cancel()`` manage the server's
job-store records, the service's only jobs::

    from repro.api import AnalysisSession
    from repro.service import ServiceClient

    with AnalysisSession() as session:
        strings = session.corpus(small=True, seed=7)
        local = session.matrix("kast", strings)

    with ServiceClient("http://127.0.0.1:8123") as client:
        remote = client.matrix("kast", strings)        # bit-identical values

Two transports ship:

* :class:`HTTPTransport` — ``urllib``-based, one ``POST /v1`` per request;
  works across hosts.
* :class:`StdioTransport` — line-framed JSON over a pair of file objects
  (e.g. the pipes of a ``repro-iokast serve --stdio`` child process); the
  zero-port single-host transport.

Server-side failures arrive as the same typed
:class:`~repro.service.protocol.ServiceError` hierarchy the server raised,
and result polling raises :class:`JobTimeout` with the job id attached
when the caller's timeout expires.

Resilience: the client distinguishes *transport* failures (connection
refused/reset, non-protocol 5xx — raised as :class:`TransportError`) from
typed protocol errors.  Idempotent calls (health, specs, status, result
polls, models, metrics) retry transport failures and opaque ``internal``
errors with jittered exponential backoff; ``rate-limited`` /
``quota-exceeded`` answers carrying a ``retry_after`` hint are honoured
with a capped backoff on *every* call type, because the server rejected
them before doing any work.  ``retries=0`` restores fail-fast behaviour.

Authentication: pass ``token=...`` (or set ``REPRO_SERVICE_TOKEN``) and the
client stamps it into every request envelope — which authenticates
identically over HTTP and stdio transports.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, TextIO, Type, Union

from repro.api.spec import KernelSpec, coerce_spec
from repro.core.matrix import KernelMatrix
from repro.obs.tracing import new_trace_id
from repro.service.protocol import (
    CacheStatsRequest,
    CancelRequest,
    ClassifyRequest,
    FitModelRequest,
    HealthRequest,
    JobPending,
    ModelsRequest,
    QuotaExceeded,
    RateLimited,
    Request,
    ResultRequest,
    ServiceError,
    SpecsRequest,
    StatusRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    check_response,
    dump_message,
    encode_corpus,
    load_message,
)
from repro.strings.tokens import WeightedString

__all__ = [
    "HTTPTransport",
    "JobTimeout",
    "ServiceClient",
    "StdioTransport",
    "TransportError",
    "spawn_stdio_server",
]

#: Environment variable the client reads a bearer token from when none is
#: passed explicitly (mirrors the CLI's ``--token`` flags).
TOKEN_ENV_VAR = "REPRO_SERVICE_TOKEN"


class TransportError(ServiceError):
    """The request never produced a protocol answer (network/stream failure).

    Distinct from the wire's typed errors so retry policy can tell "the
    server refused" (definitive, do not blindly retry) from "the server
    never answered" (safe to retry when the call is idempotent).
    """

    code = "transport"


class JobTimeout(TimeoutError):
    """Raised by :meth:`ServiceClient.result` when *timeout* expires.

    A :class:`TimeoutError` subclass (so ``except TimeoutError`` callers
    keep working) that carries the job id and the timeout that expired, so
    callers can report or retry the specific job; the job itself keeps
    running and its result can still be collected later.
    """

    def __init__(self, job_id: str, timeout: Optional[float] = None) -> None:
        detail = f" within {timeout}s" if timeout is not None else ""
        super().__init__(f"job {job_id!r} did not finish{detail}")
        self.job_id = job_id
        self.timeout = timeout


#: Spec shorthands the client accepts (mirrors the session's SpecLike).
SpecLike = Union[KernelSpec, Mapping[str, Any], str]

#: Default per-request server-side wait used while polling for a result.
_POLL_WAIT_SECONDS = 2.0

#: Fraction of the transport's socket timeout a server-side wait hint may
#: use.  The rest is headroom for the server to answer and the payload to
#: travel — a wait hint at (or beyond) the socket timeout would make every
#: slow poll die as a transport error instead of a clean job-pending.
_POLL_WAIT_TIMEOUT_FRACTION = 0.5


class HTTPTransport:
    """One ``POST /v1`` per request against a server base URL."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        body = dump_message(payload).encode("utf-8")
        http_request = urllib.request.Request(
            f"{self.base_url}/v1",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            # Typed protocol errors travel in the body with a 4xx/5xx status;
            # surface them as the envelope so check_response re-raises them.
            text = exc.read().decode("utf-8", errors="replace")
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                raise TransportError(f"HTTP {exc.code} from {self.base_url}: {text[:200]}") from exc
        except urllib.error.URLError as exc:
            raise TransportError(f"cannot reach analysis server at {self.base_url}: {exc.reason}") from exc
        except OSError as exc:  # reset/refused surfacing outside URLError
            raise TransportError(f"connection to {self.base_url} failed: {exc}") from exc
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise TransportError(f"server returned non-JSON response: {text[:200]}") from exc

    def fetch_text(self, path: str) -> str:
        """GET a plain-text endpoint of the server (e.g. ``/metrics``)."""
        try:
            with urllib.request.urlopen(
                f"{self.base_url}/{path.lstrip('/')}", timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise TransportError(f"HTTP {exc.code} from {self.base_url}{path}") from exc
        except urllib.error.URLError as exc:
            raise TransportError(f"cannot reach analysis server at {self.base_url}: {exc.reason}") from exc

    def close(self) -> None:
        """HTTP requests are one-shot; nothing to release."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"HTTPTransport({self.base_url!r})"


class StdioTransport:
    """Line-framed JSON over a (reader, writer) pair of text streams.

    The request/response exchange is serialised under a lock, so one
    transport may be shared by several threads of a single-host client.
    When constructed via :func:`spawn_stdio_server` the transport owns the
    child process and terminates it on :meth:`close`.
    """

    def __init__(
        self,
        reader: TextIO,
        writer: TextIO,
        process: Optional[subprocess.Popen] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._process = process
        self._lock = threading.Lock()

    def request(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._writer.write(dump_message(payload) + "\n")
            self._writer.flush()
            line = self._reader.readline()
        if not line:
            raise TransportError("stdio server closed the stream without answering")
        return load_message(line)

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:  # pragma: no cover - stream already gone
                pass
        if self._process is not None:
            try:
                self._process.terminate()
                self._process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                self._process.kill()
            self._process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"StdioTransport(process={self._process.pid if self._process else None})"


def spawn_stdio_server(
    state_dir: str,
    python: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> StdioTransport:
    """Launch ``python -m repro serve --stdio`` and wrap its pipes.

    The child inherits the current interpreter's environment (including
    ``PYTHONPATH``), so this works from a source checkout; *extra_args* are
    appended to the ``serve`` invocation (e.g. ``["--job-workers", "4"]``).
    """
    command = [
        python or sys.executable,
        "-m",
        "repro",
        "serve",
        "--stdio",
        "--state-dir",
        state_dir,
        *extra_args,
    ]
    process = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    assert process.stdin is not None and process.stdout is not None
    return StdioTransport(process.stdout, process.stdin, process=process)


class ServiceClient:
    """Remote mirror of the :class:`~repro.api.session.AnalysisSession` surface.

    Parameters
    ----------
    transport:
        An :class:`HTTPTransport`, a :class:`StdioTransport`, or a bare
        ``http(s)://`` URL string (wrapped in an HTTP transport).
    poll_wait:
        Seconds of *server-side* wait requested per result poll.  The
        effective wait is clamped well below the transport's socket
        timeout (when it has one), so an unbounded
        ``result_payload(timeout=None)`` keeps politely polling instead of
        surfacing a transport timeout mid-wait.
    token:
        Bearer token stamped into every request envelope.  ``None`` falls
        back to the ``REPRO_SERVICE_TOKEN`` environment variable; empty /
        unset means unauthenticated (fine against a no-auth server).
    retries:
        Extra attempts granted to transient failures: transport errors and
        opaque ``internal`` answers on *idempotent* calls, and
        ``rate-limited`` / ``quota-exceeded`` answers carrying a
        ``retry_after`` hint on every call.  ``0`` fails fast (the
        pre-retry behaviour).
    backoff / max_backoff:
        Base and cap (seconds) of the jittered exponential backoff between
        attempts; a server ``retry_after`` hint is always honoured in full.
    """

    def __init__(
        self,
        transport: Union[str, HTTPTransport, StdioTransport],
        poll_wait: float = _POLL_WAIT_SECONDS,
        token: Optional[str] = None,
        retries: int = 3,
        backoff: float = 0.25,
        max_backoff: float = 8.0,
    ) -> None:
        if isinstance(transport, str):
            transport = HTTPTransport(transport)
        if poll_wait <= 0:
            raise ValueError(f"poll_wait must be > 0, got {poll_wait}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff <= 0 or max_backoff < backoff:
            raise ValueError(f"need 0 < backoff <= max_backoff, got {backoff}/{max_backoff}")
        self.transport = transport
        self.poll_wait = float(poll_wait)
        if token is None:
            token = os.environ.get(TOKEN_ENV_VAR) or None
        self.token = token
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)

    def _clamped_poll_wait(self) -> float:
        """The per-poll server-side wait hint, kept under the socket timeout.

        A transport with a finite request timeout (HTTP) cannot sit in one
        request longer than that timeout: a wait hint at or above it would
        turn every quiet poll into a spurious ``URLError`` even though the
        job is healthy.  Capping the hint at half the socket timeout keeps
        each poll comfortably answerable; the *caller's* deadline is still
        honoured by the polling loop in :meth:`result_payload`.
        """
        wait = self.poll_wait
        transport_timeout = getattr(self.transport, "timeout", None)
        if transport_timeout is not None:
            wait = min(wait, max(0.05, float(transport_timeout) * _POLL_WAIT_TIMEOUT_FRACTION))
        return wait

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send(self, request: Request) -> Dict[str, Any]:
        payload = request.to_payload()
        if self.token is not None:
            payload["token"] = self.token
        return check_response(self.transport.request(payload))

    def _call(self, request: Request, idempotent: bool = False) -> Dict[str, Any]:
        return self._with_retries(lambda: self._send(request), idempotent=idempotent)

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential delay before retry number *attempt* (0-based)."""
        base = min(self.max_backoff, self.backoff * (2 ** attempt))
        return base * (0.5 + random.random() / 2)

    def _with_retries(self, send: Callable[[], Any], idempotent: bool) -> Any:
        """Run *send*, retrying the failures that retrying can actually fix.

        * ``rate-limited`` / ``quota-exceeded`` answers carrying a
          ``retry_after`` hint are retried on *every* call — the server
          itself promised the condition is temporary — sleeping at least
          the hinted interval.  Without the hint (e.g. an oversized
          corpus) the error is permanent and re-raises immediately.
        * Transport failures and opaque ``internal`` errors are retried
          only on idempotent calls: a submission that died mid-flight may
          still have been queued, and resending it is not the client's
          decision to make.
        """
        attempt = 0
        while True:
            try:
                return send()
            except (RateLimited, QuotaExceeded) as exc:
                retry_after = exc.retry_after
                if retry_after is None or attempt >= self.retries:
                    raise
                delay = max(retry_after, self._backoff_delay(attempt))
            except TransportError:
                if not idempotent or attempt >= self.retries:
                    raise
                delay = self._backoff_delay(attempt)
            except ServiceError as exc:
                # Only the opaque catch-all ("internal") is plausibly
                # transient; typed subclasses are deliberate answers.
                if type(exc) is not ServiceError or not idempotent or attempt >= self.retries:
                    raise
                delay = self._backoff_delay(attempt)
            attempt += 1
            time.sleep(delay)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The server's health snapshot (uptime, job counts, recovery info).

        Includes the warm-routing fields: ``queue_depth`` plus the
        ``matrix_cache`` / ``pair_store`` hit-rate summaries (``None``
        for a disabled layer).
        """
        return self._call(HealthRequest(), idempotent=True)

    def specs(self) -> Dict[str, Any]:
        """Registered kernel kinds and the server session's warm specs."""
        return self._call(SpecsRequest(), idempotent=True)

    def cache_stats(self) -> Dict[str, Any]:
        """The server's persistent cache state and counters.

        ``enabled`` is ``False`` when the server runs without a matrix
        result cache; otherwise the top level carries entry counts,
        payload bytes and the hit/miss/store/eviction counters
        of :meth:`MatrixCache.stats
        <repro.core.cachestore.MatrixCache.stats>`.  The ``pair_store``
        key reports the pair-value store the same way (its own
        ``enabled`` flag plus :meth:`PairStore.stats
        <repro.core.pairstore.PairStore.stats>`).
        """
        response = self._call(CacheStatsRequest(), idempotent=True)
        return {key: value for key, value in response.items() if key not in ("v", "ok", "type")}

    def metrics_text(self) -> str:
        """The server's ``GET /metrics`` Prometheus page (HTTP transport only).

        Fleet-aggregated: the server merges its own registry with every
        worker snapshot in the shared state dir, one ``origin`` label per
        process.  Raises a :class:`ServiceError` over transports without a
        GET side channel (stdio).
        """
        fetch = getattr(self.transport, "fetch_text", None)
        if fetch is None:
            raise ServiceError(
                "metrics are only available over the HTTP transport (GET /metrics)"
            )
        return self._with_retries(lambda: fetch("/metrics"), idempotent=True)

    # ------------------------------------------------------------------
    # Job handles
    # ------------------------------------------------------------------
    # A job's fields and their defaults are those of its request dataclass
    # (SubmitMatrixRequest, SubmitAnalyzeRequest, FitModelRequest); the
    # methods below forward them as keywords and restate none of them.
    def _submit(
        self, request_type: Type[Request], spec: SpecLike, strings: Sequence[WeightedString],
        trace_id: Optional[str], fields: Mapping[str, Any],
    ) -> str:
        """Queue one *request_type* job; returns its id.

        *trace_id* (client-minted when empty) follows the job through the
        server, its block records and the worker logs.
        """
        request = request_type(
            spec=coerce_spec(spec).to_dict(),
            strings=tuple(encode_corpus(strings)),
            trace_id=trace_id or new_trace_id(),
            **fields,
        )
        return str(self._call(request)["job_id"])

    def _run(
        self, request_type: Type[Request], spec: SpecLike, strings: Sequence[WeightedString],
        trace_id: Optional[str], timeout: Optional[float], fields: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Submit + wait: ``{"job_id", "payload", "cache", "trace_id"}``."""
        job_id = self._submit(request_type, spec, strings, trace_id, fields)
        return self._finished_job(job_id, timeout)

    def submit(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        **fields: Any,
    ) -> str:
        """Queue a matrix job (:class:`SubmitMatrixRequest` *fields*); returns its id.

        ``distributed=True`` splits the evaluation into ``shards`` index
        blocks and persists them as leasable worker tasks, so
        ``repro-iokast worker`` processes sharing the server's state dir
        execute them (values stay bit-identical either way).
        ``use_cache=False`` makes the server bypass its persistent result
        cache and re-evaluate every kernel pair.  An identical submission
        already in flight is *coalesced*: the returned id names the job
        the equal submissions share.
        """
        return self._submit(SubmitMatrixRequest, spec, strings, trace_id, fields)

    def submit_analyze(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        **fields: Any,
    ) -> str:
        """Queue a full pipeline run (:class:`SubmitAnalyzeRequest` *fields*); returns its job id."""
        return self._submit(SubmitAnalyzeRequest, spec, strings, trace_id, fields)

    def submit_fit_model(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        **fields: Any,
    ) -> str:
        """Queue a landmark-model fit (:class:`FitModelRequest` *fields*); returns its job id."""
        return self._submit(FitModelRequest, spec, strings, trace_id, fields)

    def status(self, job_id: str) -> str:
        """The job's store status (``queued``/``running``/``done``/...)."""
        return str(self._call(StatusRequest(job_id=job_id), idempotent=True)["status"])

    def _result_response(
        self, job_id: str, timeout: Optional[float] = None, forget: bool = False
    ) -> Dict[str, Any]:
        """Poll for a job's full result envelope (payload + metadata)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        poll_wait = self._clamped_poll_wait()
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise JobTimeout(job_id, timeout)
            wait = poll_wait if remaining is None else max(0.0, min(poll_wait, remaining))
            try:
                response = self._call(
                    ResultRequest(job_id=job_id, wait=wait, forget=forget),
                    idempotent=not forget,
                )
            except JobPending:
                continue
            payload = response.get("payload")
            if not isinstance(payload, dict):
                raise ServiceError(f"job {job_id!r} returned a malformed result payload")
            return response

    def _finished_job(self, job_id: str, timeout: Optional[float]) -> Dict[str, Any]:
        """Wait for *job_id*, forget it server-side, and return its envelope.

        The envelope is ``{"job_id", "payload", "cache", "trace_id"}``:
        ``cache`` is the server's result-cache outcome for the job
        (``"hit"``, ``"miss"`` or ``"bypass"``; ``None`` from a server
        predating the cache) and ``trace_id`` the id the job ran under.
        """
        response = self._result_response(job_id, timeout=timeout, forget=True)
        return {
            "job_id": job_id,
            "payload": response["payload"],
            "cache": response.get("cache"),
            "trace_id": response.get("trace_id"),
        }

    def result_payload(
        self, job_id: str, timeout: Optional[float] = None, forget: bool = False
    ) -> Dict[str, Any]:
        """Block (poll) for a job's raw payload dict.

        Each poll asks the server to wait a short interval server-side, so
        the client does not busy-loop; *timeout* bounds the total wait and
        raises :class:`JobTimeout` carrying the job id.
        """
        return self._result_response(job_id, timeout=timeout, forget=forget)["payload"]

    def result(
        self, job_id: str, timeout: Optional[float] = None, forget: bool = False
    ) -> Union[KernelMatrix, Dict[str, Any]]:
        """A job's decoded result: matrices as :class:`KernelMatrix`, else the dict."""
        payload = self.result_payload(job_id, timeout=timeout, forget=forget)
        if "values" in payload and "names" in payload:
            return KernelMatrix.from_dict(payload)
        return payload

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (typed ``cannot-cancel`` error if it started)."""
        return self._call(CancelRequest(job_id=job_id))["status"] == "cancelled"

    # ------------------------------------------------------------------
    # Blocking conveniences (the session look-alikes)
    # ------------------------------------------------------------------
    def matrix(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        timeout: Optional[float] = None, **fields: Any,
    ) -> KernelMatrix:
        """Compute a labelled kernel matrix remotely (submit + wait + decode).

        The finished job is forgotten server-side after delivery, matching
        the one-shot semantics of :meth:`AnalysisSession.matrix`.
        """
        job = self._run(SubmitMatrixRequest, spec, strings, trace_id, timeout, fields)
        return KernelMatrix.from_dict(job["payload"])

    def matrix_job(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        timeout: Optional[float] = None, **fields: Any,
    ) -> Dict[str, Any]:
        """Submit + wait, returning ``{"job_id", "payload", "cache", "trace_id"}``.

        ``cache`` is the server's result-cache outcome for the job —
        ``"hit"``, ``"miss"`` or ``"bypass"`` (``None``
        when talking to a server predating the cache).  ``trace_id`` is the
        id the job ran under (the caller's, or a freshly minted one).  The
        payload is bit-identical across all outcomes.
        """
        return self._run(SubmitMatrixRequest, spec, strings, trace_id, timeout, fields)

    def analyze(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        timeout: Optional[float] = None, **fields: Any,
    ) -> Dict[str, Any]:
        """Run the full pipeline remotely; returns the metrics/assignments report."""
        return self._run(SubmitAnalyzeRequest, spec, strings, trace_id, timeout, fields)["payload"]

    def analyze_job(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        timeout: Optional[float] = None, **fields: Any,
    ) -> Dict[str, Any]:
        """Submit + wait a pipeline run: ``{"job_id", "payload", "cache", "trace_id"}``.

        ``cache`` is the matrix-stage result-cache outcome (``"hit"`` /
        ``"miss"`` / ``"bypass"``, ``None`` from a server
        predating the stamp) — the same envelope field :meth:`matrix_job`
        reports, so remote analyses are auditable the same way.
        """
        return self._run(SubmitAnalyzeRequest, spec, strings, trace_id, timeout, fields)

    # ------------------------------------------------------------------
    # Streaming serving (landmark models)
    # ------------------------------------------------------------------
    def fit_model(
        self, spec: SpecLike, strings: Sequence[WeightedString], *, trace_id: Optional[str] = None,
        timeout: Optional[float] = None, **fields: Any,
    ) -> Dict[str, Any]:
        """Fit and persist a landmark model server-side (submit + wait).

        Returns ``{"job_id", "payload", "cache", "trace_id"}`` where the
        payload is the stored model's summary and ``cache`` the fitting
        Gram's result-cache outcome.
        """
        return self._run(FitModelRequest, spec, strings, trace_id, timeout, fields)

    def classify(
        self,
        name: str,
        strings: Sequence[WeightedString],
        embed: bool = False,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Classify traces against stored model *name* (synchronous).

        The response dict carries ``results`` (one ``{"name", "label",
        "scores", "kernel_evals", "warm"}`` entry per input trace, plus
        ``"embedding"`` with ``embed=True``), the request's total
        ``kernel_evals``/``warm_traces`` and its server-side latency.
        """
        response = self._call(
            ClassifyRequest(
                name=name,
                strings=tuple(encode_corpus(strings)),
                embed=embed,
                trace_id=trace_id or new_trace_id(),
            )
        )
        return {key: value for key, value in response.items() if key not in ("v", "ok", "type")}

    def models(self) -> Dict[str, Any]:
        """The server's stored landmark models with their serve counters."""
        response = self._call(ModelsRequest(), idempotent=True)
        return {key: value for key, value in response.items() if key not in ("v", "ok", "type")}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ServiceClient(transport={self.transport!r})"
