"""The analysis server: one warm :class:`AnalysisSession` behind a transport.

:class:`AnalysisServer` is transport-agnostic — :meth:`AnalysisServer.handle`
maps one protocol request onto the on-disk
:class:`~repro.service.jobstore.JobStore`, whose records are the only job
lifecycle — and two thin front ends drive it:

* **HTTP** — a stdlib ``ThreadingHTTPServer`` accepting ``POST /v1`` with
  one JSON request per call (plus ``GET /healthz`` for probes).  Threaded
  handlers all talk to the same session, so every client shares the warm
  engines and caches.
* **stdio** — :func:`serve_stdio`, one JSON message per line over a pipe;
  the single-host transport ``repro-iokast serve --stdio`` exposes.

Block-sharded matrix jobs
-------------------------
``shards=k`` takes effect only together with ``distributed=True``: the
corpus index range is split into ``k`` contiguous blocks
(:func:`~repro.core.engine.plan_index_blocks`), and every unordered block
pair becomes one individually *leasable* ``block`` record in the job
store.  Pull-loop workers (:class:`~repro.service.worker.Worker`,
``repro-iokast worker``) in other processes or on other hosts claim them
under the store's cross-process file locks and run each as one
:meth:`~repro.core.engine.GramEngine.evaluate_pairs` task; the server
merges the finished blocks' raw values through
:meth:`~repro.core.engine.GramEngine.assemble_gram`, reclaiming any block
whose worker died and whose lease expired.  Raw pair values are
deterministic and the assembly arithmetic is the monolithic path's, so
the distributed payload is bit-identical to the monolithic one.  When
``inline_blocks`` is on (the default) the coordinating job also executes
blocks itself, so a distributed job completes even with zero external
workers.  A coordinator with nothing to claim sleeps on the job store's
doorbell (:class:`~repro.service.jobstore.Doorbell`): a block finishing in
any process on the host wakes it at once, and
:data:`~repro.service.worker.DEFAULT_POLL_INTERVAL` bounds the sleep when
no ring arrives.

Both kinds of matrix job run through one
:meth:`AnalysisSession.matrix_cached` call, which owns the result-cache
lookup, the assembly, the cache store and the PSD repair.  The block
coordinator only supplies the raw pair values on a miss or a bypass; a
non-distributed job lets the session's engine evaluate them, serially,
whatever its ``shards`` value.  Leased block records are the service's
only cross-core parallelism.

Job lifecycle, persistence and recovery
---------------------------------------
A submission creates one store record and queues it on its tenant's job
pool (``max_job_workers`` threads per tenant).  The queued task claims
the record through :meth:`JobStore.claim_job` and runs it through
:func:`~repro.service.worker.run_claimed_job`, the runner ``repro
worker`` processes use too: one lease keeper, trace context, log lines,
metrics and failure policy for every job.  Status, result waits and
cancellation read and write only the record: a result wait sleeps on the
store's doorbell, which a job finishing in this process rings directly,
and a cancel flips a still-``queued`` record atomically, which makes its
pool task a no-op.  Every record carries its *input*, the validated
submit request (:func:`~repro.service.protocol.job_input`) that is read
back through the same dataclass, so it is resumable: start-up recovery
requeues queued / expired-lease jobs and the server re-adopts them — a
restart re-runs interrupted work instead of dead-ending it.  Because every
run claims first, two servers sharing one state dir never compute the
same job twice.  A background maintenance thread requeues expired leases,
adopts orphaned queued jobs, and (when a ``job_ttl`` is set)
garbage-collects terminal records so long-lived state dirs stop growing
without bound.

Result caching and request coalescing
-------------------------------------
The server keeps a persistent, signature-keyed
:class:`~repro.core.cachestore.MatrixCache` in its state dir (shared with
the session, and with the workers and any sibling server on the same state
dir), whose bounds only the maintenance sweep and ``gc`` enforce.  Matrix
jobs consult it before evaluating anything: an identical ``(spec, corpus,
normalized)`` request — to this server, a restarted one, or a sibling — is
served bit-identically with zero kernel evaluations (``cache="hit"`` in
the result envelope), and a distributed hit creates no block records at
all.  The result cache answers exact hits only: any other corpus is a
``cache="miss"`` whose overlap with earlier work — grown, reordered or
subset corpora — is answered by the engine's pair layers (the in-memory
pair cache and the persistent pair store), so it costs only its novel
pairs.  Identical *in-flight* submissions coalesce onto the already-queued
job (the submit response carries ``coalesced=true``), so a thundering herd
of equal requests costs one engine run.  ``use_cache=False`` opts a
submission out entirely.

Streaming serving tier
----------------------
Next to the batch job path the server keeps a
:class:`~repro.streaming.store.ModelStore`: ``fit-model`` jobs freeze a
:class:`~repro.streaming.model.LandmarkModel` from an inline corpus
(through the same result cache as matrix jobs) and persist it;
synchronous ``classify`` requests then score arriving traces against only
the model's ``m`` landmarks through a warm
:class:`~repro.streaming.scorer.StreamingScorer` — at most ``m`` kernel
evaluations per cold trace, zero per one repeated while the server runs,
because the scorer shares the session's engines with the batch tier.  The
scorer reads the persistent pair store (rows a matrix job stored cost
nothing) but never writes it, so a classify request makes no durable
write; after a restart a repeated trace costs ``m`` again.  Per-model serve counters (requests, warm traces, kernel
evaluations, latency) surface in ``health``/``/healthz`` and
``cache-stats``.

Request path, auth and tenancy
------------------------------
Every request — HTTP, stdio, or an in-process call — is one
:meth:`AnalysisServer.handle` call, which runs the front-end steps in one
place and in one order: count and time the request, parse it,
authenticate its bearer token, resolve the tenant, charge the tenant's
quotas, log it under its trace id, and dispatch it through a
:class:`~repro.service.router.Router` to a handler method taking
``(request, tenant)``.  With an :class:`~repro.service.auth.Authenticator`
configured, tokens resolve to per-tenant namespaces of the state dir, so
caches and models never leak across tenants; quotas answer with typed
``rate-limited`` / ``quota-exceeded`` errors, the retryable ones carrying
``retry_after``.  With auth disabled (the default) every request is the
*default tenant*, whose namespace is the state dir itself — the exact
pre-tenancy behaviour.  Health probes (``/healthz``) need no token and
spend no quota.

The state-dir layout, and how every namespace in it is opened, swept,
summarised and counted, belong to :mod:`~repro.service.tenancy` (README,
"State directory layout").
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.api.session import AnalysisSession
from repro.api.spec import KernelSpec, coerce_spec, registered_kinds, registry_entry
from repro.core.atomicio import remove_stale_temp_files
from repro.obs.metrics import MetricsRegistry, render_fleet
from repro.obs.tracing import new_span_id, new_trace_id, trace_context
from repro.core.engine import decode_pair_values, plan_index_blocks, string_fingerprint, thread_tally
from repro.service.auth import Authenticator
from repro.service.jobstore import Doorbell, JobRecord, JobStoreError
from repro.service.protocol import (
    JOB_REQUESTS,
    PROTOCOL_VERSION,
    BadRequest,
    CacheStatsRequest,
    CancelRequest,
    CannotCancel,
    ClassifyRequest,
    FitModelRequest,
    HealthRequest,
    JobFailed,
    JobPending,
    ModelsRequest,
    Request,
    RequestTooLarge,
    ResultRequest,
    ServiceError,
    SpecsRequest,
    StatusRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    UnknownJob,
    decode_corpus,
    dump_message,
    error_response,
    http_status_for_response,
    job_input,
    load_message,
    ok_response,
    parse_request,
    payload_token,
)
from repro.service.router import Router
from repro.service.tenancy import (
    DEFAULT_TENANT,
    StateDir,
    TenantContext,
    TenantQuotas,
    TenantRegistry,
    enforce_quotas,
    job_counts,
    mirror_namespace_counters,
    namespace_stats,
    sweep_namespace,
)
from repro.service.worker import (
    DEFAULT_POLL_INTERVAL,
    JobResult,
    ShutdownRequested,
    execute_block_task,
    fit_model_payload,
    run_claimed_job,
    stored_request,
)
from repro.streaming.scorer import StreamingScorer
from repro.strings.tokens import WeightedString

__all__ = ["AnalysisServer", "serve_stdio"]

logger = logging.getLogger(__name__)

#: The job kind each submission request creates.
_JOB_KINDS = {request_type: kind for kind, request_type in JOB_REQUESTS.items()}

#: Default bound on one request body (HTTP ``POST /v1`` or one stdio line).
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024


class AnalysisServer:
    """Protocol front end owning a single session and a persistent job store.

    Parameters
    ----------
    state_dir:
        Directory for the job store (records, payloads, locks,
        quarantine).  When omitted a private temporary directory is used —
        jobs then survive *server object* restarts only if the caller
        reuses the directory.
    session:
        An existing :class:`AnalysisSession` to serve the default tenant
        with; a result cache or pair store it carries is used instead of
        the state dir's.  When omitted the server creates one.
    max_job_workers:
        Threads in each tenant's job pool: how many of one tenant's jobs
        run at once.
    inline_blocks:
        Whether distributed jobs' coordinators also execute block tasks
        in-process.  On (the default), a distributed job completes with
        zero workers; off, block execution is left entirely to external
        ``repro-iokast worker`` processes (a dedicated-coordinator
        deployment).
    lease_seconds:
        Lease stamped on jobs this server claims (and on its inline block
        claims); renewed while coordinating.  Other processes may reclaim
        this server's work only after it dies and the lease lapses.
    job_ttl:
        When set, terminal store records older than this many seconds are
        garbage-collected by the maintenance thread.
    gc_interval:
        Seconds between maintenance passes (lease requeue, orphan-job
        adoption, TTL sweep, result-cache and pair-store sweep).
    max_cache_entries / cache_ttl:
        LRU bound and optional idle TTL of the persistent matrix result
        cache (:class:`~repro.core.cachestore.MatrixCache`), enforced by
        the maintenance sweep once per *gc_interval*, never on a store.
    max_pair_bytes / pair_ttl:
        Size bound and optional idle TTL of the persistent pair-value
        store (:class:`~repro.core.pairstore.PairStore`), enforced the
        same way.  The store memoises *individual* kernel values by
        content fingerprint, so reordered / subset / interleaved
        resubmissions of previously computed traces — which miss the
        matrix cache — skip every already-known kernel evaluation (workers
        share the same directory).
    authenticator:
        The bearer-token :class:`~repro.service.auth.Authenticator`.
        Omitted or :meth:`Authenticator.disabled`, every request is the
        default tenant and no token is required (the pre-auth behaviour).
    default_quotas:
        :class:`~repro.service.tenancy.TenantQuotas` applied to tenants
        without a per-tenant override from the tenants file.
    max_request_bytes:
        Upper bound on one request body; larger HTTP posts (and stdio
        lines) are refused with a typed ``request-too-large`` error
        before the body is read into memory.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        session: Optional[AnalysisSession] = None,
        max_job_workers: int = 2,
        inline_blocks: bool = True,
        lease_seconds: float = 900.0,
        job_ttl: Optional[float] = None,
        gc_interval: float = 30.0,
        max_cache_entries: int = 64,
        cache_ttl: Optional[float] = None,
        max_pair_bytes: Optional[int] = None,
        pair_ttl: Optional[float] = None,
        authenticator: Optional[Authenticator] = None,
        default_quotas: Optional[TenantQuotas] = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        if max_job_workers < 1:
            raise ValueError(f"max_job_workers must be >= 1, got {max_job_workers}")
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if job_ttl is not None and job_ttl < 0:
            raise ValueError(f"job_ttl must be >= 0 or None, got {job_ttl}")
        if gc_interval <= 0:
            raise ValueError(f"gc_interval must be > 0, got {gc_interval}")
        if max_request_bytes < 1024:
            raise ValueError(f"max_request_bytes must be >= 1024, got {max_request_bytes}")
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if state_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            state_dir = self._tempdir.name
        #: The state dir; every tenant namespace in it is opened with these
        #: bounds.
        self.state = StateDir(
            state_dir, max_cache_entries=max_cache_entries, cache_ttl=cache_ttl,
            max_pair_bytes=max_pair_bytes, pair_ttl=pair_ttl,
        )
        # The default tenant's namespace is the state dir itself.
        root = self.state.open(session=session)
        self.store, self.session = root.store, root.session
        #: The persistent result cache the session serves matrix jobs from,
        #: and the pair-value store its engines consult.
        self.matrix_cache, self.pair_store = root.matrix_cache, root.pair_store
        #: Persistent landmark models (the streaming serving tier), shared
        #: through the state dir with workers executing ``fit-model`` jobs.
        self.model_store = root.model_store
        self.inline_blocks = inline_blocks
        self.lease_seconds = float(lease_seconds)
        self.job_ttl = job_ttl
        self.gc_interval = float(gc_interval)
        self.max_request_bytes = int(max_request_bytes)
        #: Resolves each request's bearer token to its tenant (see :meth:`handle`).
        self.auth = authenticator if authenticator is not None else Authenticator.disabled()
        #: Identity stamped into records this server claims.
        self.worker_id = f"server-{uuid.uuid4().hex[:8]}"
        #: Process-local metrics; ``GET /metrics`` renders this registry
        #: merged with every worker snapshot found under
        #: ``<state-dir>/metrics/`` (fleet-wide view, per-process origins).
        self.metrics = MetricsRegistry()
        self.metrics_dir = self.state.metrics_dir
        self.metrics.add_collector(self._collect_metrics)
        self._started = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        # The default tenant wraps the server's own namespace; every other
        # tenant's context is built on first use.
        self._tenants = TenantRegistry(
            self.state,
            max_job_workers=max_job_workers,
            default_quotas=default_quotas,
            quota_overrides=self.auth.quota_overrides,
        )
        #: Maps each parsed request to its handler (the last step of :meth:`handle`).
        self.router = Router()
        self._register_routes()
        # Wakes this process's waits on its stores: coordinators and
        # result waits on records other processes own.
        self._doorbell = Doorbell()
        # Wake every namespace already on disk, resume whatever recovery
        # put back on the queues, then keep the stores healthy in the
        # background.
        for context in self._tenants.refresh():
            self._adopt_queued_jobs(context)
        self._maintenance_stop = threading.Event()
        self._maintenance_thread = threading.Thread(
            target=self._maintenance_loop, name="repro-service-maintenance", daemon=True
        )
        self._maintenance_thread.start()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(
        self, payload: Any, token: Optional[str] = None, transport: str = "inproc"
    ) -> Dict[str, Any]:
        """Answer one wire request; every failure becomes a typed error envelope.

        HTTP, stdio and in-process callers all come through here, so they
        are authenticated and rate-limited alike.  The steps, in order:

        1. parse the wire object into a typed request.  *token* is the
           transport's bearer token (the HTTP front end passes the
           ``Authorization`` header's); an envelope-level ``token`` field
           is used only when the transport supplied none, so a body field
           cannot override a header a proxy set;
        2. authenticate the token to a tenant id.  A health probe without a
           token is the default tenant: load balancers and uptime probes
           must be able to ask without holding a secret;
        3. resolve the tenant's :class:`~repro.service.tenancy.TenantContext`;
        4. charge the tenant's quotas (:func:`~repro.service.tenancy.enforce_quotas`);
           health probes are exempt, for the same reason;
        5. log one ``request`` line under the request's trace id, and run
           the handler the router maps the request to.

        Every request is counted in ``repro_requests_total{method,status,tenant}``
        and timed in ``repro_request_seconds{method}``, including the ones
        that fail: ``method`` is ``invalid`` until the request parses,
        ``tenant`` is ``unauthenticated`` until the token authenticates,
        and ``status`` is ``ok`` or the error code.  A request a front end
        refuses before it gets here is counted the same way (:meth:`refuse`).
        No exception of any kind escapes to a transport.
        """
        started = time.perf_counter()
        request: Optional[Request] = None
        tenant_id: Optional[str] = None
        status = "error"
        try:
            envelope_token = payload_token(payload)
            if token is None:
                token = envelope_token
            request = parse_request(payload)
            if isinstance(request, HealthRequest) and token is None:
                tenant_id = DEFAULT_TENANT
            else:
                tenant_id = self.auth.authenticate(token)
            tenant = self._tenants.context(tenant_id)
            if not isinstance(request, HealthRequest):
                enforce_quotas(tenant, request)
            trace_id = getattr(request, "trace_id", None)
            with trace_context(trace_id):
                logger.debug(
                    "request %s tenant=%s transport=%s trace=%s",
                    request.TYPE, tenant_id, transport, trace_id,
                    extra={"event": "request", "method": request.TYPE,
                           "tenant": tenant_id, "transport": transport},
                )
                response = self.router.dispatch(request, tenant)
            status = "ok"
            return response
        except ServiceError as exc:
            status = exc.code
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the wire must always get an envelope
            status = "internal"
            logger.exception("unhandled error serving request")
            return error_response(ServiceError(f"internal error: {type(exc).__name__}: {exc}"))
        finally:
            method = request.TYPE if request is not None else "invalid"
            self._count_request(method, status, tenant_id, started)

    def refuse(self, error: ServiceError) -> Dict[str, Any]:
        """The envelope of a request a front end refused before :meth:`handle`.

        An unknown endpoint, a bad ``Content-Length``, an oversized or
        non-JSON body or stdio line: counted as a request that did not
        parse (``method="invalid"``, ``tenant="unauthenticated"``).
        """
        self._count_request("invalid", error.code, None, time.perf_counter())
        return error_response(error)

    def _count_request(self, method: str, status: str, tenant_id: Optional[str], started: float) -> None:
        self.metrics.counter(
            "repro_requests_total", "Protocol requests by method, outcome and tenant.",
            method=method, status=status, tenant=tenant_id or "unauthenticated",
        ).inc()
        self.metrics.histogram(
            "repro_request_seconds", "Protocol request latency by method.", method=method,
        ).observe(time.perf_counter() - started)

    def _register_routes(self) -> None:
        for request_type, handler in (
            (SubmitMatrixRequest, self._handle_submit),
            (SubmitAnalyzeRequest, self._handle_submit),
            (FitModelRequest, self._handle_submit),
            (ClassifyRequest, self._handle_classify),
            (ModelsRequest, self._handle_models),
            (StatusRequest, self._handle_status),
            (ResultRequest, self._handle_result),
            (CancelRequest, self._handle_cancel),
            (SpecsRequest, self._handle_specs),
            (HealthRequest, self._handle_health),
            (CacheStatsRequest, self._handle_cache_stats),
        ):
            self.router.register(request_type, handler)

    @property
    def tenants(self) -> TenantRegistry:
        """The tenant-namespace registry (the default tenant is always live)."""
        return self._tenants

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def _submission_key(
        self, tenant: TenantContext, stored: Mapping[str, Any], strings: List[WeightedString]
    ) -> str:
        """Content identity of one matrix submission: its stored input, with
        the spec by kernel signature and the corpus by string content."""
        identity = {name: value for name, value in stored.items() if name not in ("spec", "strings")}
        identity.update(
            signature=tenant.session.engine(coerce_spec(stored["spec"])).kernel_signature(),
            fingerprints=[string_fingerprint(string) for string in strings],
            names=[string.name for string in strings],
            labels=[string.label for string in strings],
        )
        return hashlib.sha256(
            json.dumps(identity, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()

    def _handle_submit(self, request: Request, tenant: TenantContext) -> Dict[str, Any]:
        """Store a submission as one queued job record and start it.

        The record's ``input`` is the validated request itself
        (:func:`~repro.service.protocol.job_input`); its ``options`` start
        as run metadata only: the tenant, and the trace the job runs
        under.
        """
        kind = _JOB_KINDS[type(request)]
        stored = job_input(request)
        strings = decode_corpus(request.strings)
        if not strings:
            raise BadRequest(f"{request.TYPE} requires a non-empty corpus")
        # The trace follows the *request*; coalesced duplicates are answered
        # with the trace of the job actually doing the work, so their logs
        # still join up.  The submission key deliberately excludes the trace.
        trace_id = request.trace_id or new_trace_id()
        options = {"tenant": tenant.tenant_id, "trace_id": trace_id, "span_id": new_span_id()}
        submission_key = self._submission_key(tenant, stored, strings) if kind == "matrix" else None
        # Coalesce identical in-flight matrix submissions onto the job
        # already queued for them: the whole check-and-create runs under
        # the tenant's lock, so two racing equal submissions get one record
        # and one engine run.  Coalescing is per-tenant by construction —
        # the inflight map lives on the tenant — so equal submissions from
        # two tenants run twice, once in each namespace.
        with tenant.lock:
            existing = None
            if submission_key in tenant.inflight:
                existing = self._unfinished_record(tenant, tenant.inflight[submission_key])
                if existing is None:
                    # The finished job's result_waiters entry (if any) stays:
                    # its uncollected waiters still hold the old job id.
                    del tenant.inflight[submission_key]
            if existing is not None:
                tenant.result_waiters[existing.job_id] = tenant.result_waiters.get(existing.job_id, 1) + 1
                return ok_response(
                    "job",
                    job_id=existing.job_id,
                    status=existing.status,
                    kind=kind,
                    coalesced=True,
                    trace_id=existing.options.get("trace_id"),
                )
            record = tenant.store.create(kind, options=options, input=stored)
            if submission_key is not None:
                tenant.inflight[submission_key] = record.job_id
        self._start_record(tenant, record)
        return ok_response("job", job_id=record.job_id, status="queued", kind=kind, trace_id=trace_id)

    def _unfinished_record(self, tenant: TenantContext, job_id: str) -> Optional[JobRecord]:
        """The live (non-terminal) record for *job_id*, else ``None``."""
        try:
            record = tenant.store.get(job_id)
        except (KeyError, JobStoreError):
            return None
        return None if record.finished else record

    def _release_result_waiter(self, tenant: TenantContext, job_id: str) -> bool:
        """One waiter collected the result; whether the record may be dropped.

        Jobs with no waiter entry (analyze jobs, records adopted after a
        restart) behave as single-waiter: forget applies immediately.
        """
        with tenant.lock:
            remaining = tenant.result_waiters.get(job_id, 1) - 1
            if remaining > 0:
                tenant.result_waiters[job_id] = remaining
                return False
            tenant.result_waiters.pop(job_id, None)
            return True

    def _start_record(self, tenant: TenantContext, record: JobRecord) -> None:
        """Queue a stored record on the tenant's job pool, once.

        The queued task *claims* the record before computing, so a record
        adopted by several servers sharing one state dir (or re-adopted
        after a restart) runs exactly once; the loser of the claim race,
        and a task whose record was cancelled while it waited, simply
        returns.  A record already queued here is not queued again.
        """
        job_id = record.job_id

        def run() -> None:
            try:
                claimed = tenant.store.claim_job(job_id, self.worker_id, self.lease_seconds)
                if claimed is not None:
                    run_claimed_job(
                        tenant.store, claimed, functools.partial(self._payload_for_record, tenant),
                        worker_id=self.worker_id, lease_seconds=self.lease_seconds,
                        metrics=self.metrics,
                    )
            except Exception:  # noqa: BLE001 - nobody reads the pool's futures
                logger.exception("job %s could not be run", job_id)
            finally:
                with tenant.lock:
                    tenant.queued.discard(job_id)
                # After the discard: a result wait that saw the id queued
                # here sleeps without the state dir's pipe, and this wakes it.
                self._doorbell.ring_self()

        with tenant.lock:
            if job_id in tenant.queued:
                return
            tenant.queued.add(job_id)
        tenant.executor.submit(run)

    # ------------------------------------------------------------------
    # Job computation
    # ------------------------------------------------------------------
    def _payload_for_record(self, tenant: TenantContext, record: JobRecord) -> JobResult:
        """Compute the stamped payload (and cache outcome) a claimed record describes.

        Everything needed comes from the request the record stores as its
        ``input``, so this works identically for freshly submitted jobs and
        for jobs requeued by recovery in a later server process.
        """
        if record.kind == "fit-model":
            result = fit_model_payload(tenant.namespace, record)
            # Serve the fresh fit even where the file's mtime cannot tell.
            with tenant.lock:
                tenant.scorers.pop(result.payload["name"], None)
            return result
        request = stored_request(record)
        if isinstance(request, SubmitMatrixRequest):
            return self._matrix_payload(tenant, record.job_id, request)
        if isinstance(request, SubmitAnalyzeRequest):
            return self._analyze_payload(tenant, request)
        raise JobStoreError(f"job {record.job_id!r} has unexecutable kind {record.kind!r}")

    def _matrix_payload(self, tenant: TenantContext, job_id: str, request: SubmitMatrixRequest) -> JobResult:
        """The stamped payload of a matrix job, distributed or not.

        Runs :meth:`AnalysisSession.matrix_cached` — an exact result-cache
        hit is served with zero kernel evaluations and, for a distributed
        job, without creating a single block record; anything else is
        assembled from raw pair values, stored and repaired there — with
        the outcome as the result's ``cache`` (``options["cache"]``).  A
        distributed job's raw values come from its block records
        (:meth:`_block_pair_values`); every other job's from the session's
        engine and its pair layers.
        """
        spec = coerce_spec(request.spec)
        strings = decode_corpus(request.strings)
        pair_values = None
        if request.distributed:
            pair_values = functools.partial(
                self._block_pair_values, tenant, job_id, spec, strings, request.shard_count
            )
        matrix, status = tenant.session.matrix_cached(
            spec,
            strings,
            normalized=request.normalized,
            repair=request.repair,
            use_cache=request.use_cache,
            pair_values=pair_values,
        )
        return JobResult(tenant.session.engine(spec).matrix_payload(matrix, strings), cache=status)

    def _block_pair_values(
        self,
        tenant: TenantContext,
        job_id: str,
        spec: KernelSpec,
        strings: List[WeightedString],
        shards: int,
    ) -> Dict[Tuple[int, int], float]:
        """Coordinate a worker-pull sharded job and collect its raw pair values.

        One leasable ``block`` record is persisted per unordered
        index-block pair (idempotently — a requeued coordination reuses
        the children that already exist, including finished ones).  The
        coordinator then drains the queue: claiming blocks and running
        them inline through :func:`~repro.service.worker.run_claimed_job`
        (when ``inline_blocks``), requeueing blocks whose worker's
        lease expired, and waiting on blocks leased to live external
        workers — until every block is ``done`` — then reads every block's
        raw ``{(i, j): value}`` rows and forgets the finished children.
        The wait sleeps on the store's doorbell, so a block stored by any
        process on this host wakes it at once; ``DEFAULT_POLL_INTERVAL``
        bounds each sleep for rings that cannot arrive (a worker on another
        host sharing the state dir) and for leases that expire.  Raw values
        are deterministic and JSON floats round-trip exactly, so the
        matrix :meth:`AnalysisSession.matrix_cached` assembles from them is
        bit-identical to the in-process one no matter who computed which
        block.  The blocks' pair values that earlier work already produced
        come from the pair layers of whoever evaluates them.
        """
        blocks = plan_index_blocks(len(strings), shards)
        # Children inherit the parent's trace id (each with a span of its
        # own), so a worker claiming a block logs under the same trace the
        # client submitted.
        try:
            trace_id = tenant.store.get(job_id).options.get("trace_id")
        except (KeyError, JobStoreError):
            trace_id = None
        existing: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], JobRecord] = {}
        for child in tenant.store.records(kind="block"):
            if child.options.get("parent") == job_id:
                key = (tuple(child.options["first"]), tuple(child.options["second"]))
                existing[key] = child
        child_ids: List[str] = []
        for first_index, first in enumerate(blocks):
            for second in blocks[first_index:]:
                key = (tuple(first), tuple(second))
                child = existing.get(key)
                if child is None:
                    child_options: Dict[str, Any] = {
                        "parent": job_id, "first": list(first), "second": list(second),
                        "tenant": tenant.tenant_id,
                    }
                    if trace_id is not None:
                        child_options["trace_id"] = trace_id
                        child_options["span_id"] = new_span_id()
                    child = tenant.store.create("block", options=child_options)
                child_ids.append(child.job_id)
        corpus_cache = {job_id: strings}
        done_ids: set = set()
        try:
            while True:
                # Read before the store, so a ring during the scan is kept.
                seen = self._doorbell.generation
                if self._maintenance_stop.is_set():
                    # The wait could otherwise outlive close() forever when
                    # no worker ever drains the queue.
                    raise ShutdownRequested()
                # Only unfinished children are re-read — done is terminal,
                # so finished blocks never need another disk round trip.
                pending = [
                    tenant.store.get(child_id) for child_id in child_ids if child_id not in done_ids
                ]
                failed = [
                    child for child in pending if child.status in ("error", "cancelled", "interrupted")
                ]
                if failed:
                    raise JobStoreError(
                        f"block task {failed[0].job_id!r} ended as {failed[0].status}: {failed[0].error}"
                    )
                done_ids.update(child.job_id for child in pending if child.status == "done")
                if len(done_ids) == len(child_ids):
                    break
                progressed = False
                if self.inline_blocks:
                    # Claim directly from the known child list (queued
                    # children and expired leases of dead workers alike) —
                    # no full store scan per iteration.
                    now = time.time()
                    candidate = next((child for child in pending if child.claimable(now)), None)
                    if candidate is not None:
                        task = tenant.store.claim_job(candidate.job_id, self.worker_id, self.lease_seconds)
                        if task is not None:
                            # The one job runner: a failed block is marked
                            # error, and the scan above fails the parent.
                            run_claimed_job(
                                tenant.store, task,
                                lambda block: execute_block_task(
                                    tenant.store, block, tenant.session, corpus_cache=corpus_cache
                                ),
                                worker_id=self.worker_id, lease_seconds=self.lease_seconds,
                                metrics=self.metrics,
                            )
                            progressed = True
                if not progressed and not self._doorbell.watch(tenant.store):
                    # Every remaining block is leased to a live worker (or
                    # inline execution is off): wait for their results;
                    # expired leases are reclaimed by the workers' own
                    # claim scans and the maintenance tick.  (A first
                    # watch() looks at the store again before waiting.)
                    self._doorbell.wait(seen, DEFAULT_POLL_INTERVAL)
        except ShutdownRequested:
            raise  # blocks stay claimable for the next server
        except Exception:
            # The job cannot finish: stop workers from burning time on the
            # surviving blocks and keep the state dir free of orphans.
            self._abandon_blocks(tenant, child_ids)
            raise
        raw_by_pair: Dict[Tuple[int, int], float] = {}
        block_workers = set()
        for child_id in child_ids:
            child = tenant.store.get(child_id)
            if child.worker_id:
                block_workers.add(child.worker_id)
            raw_by_pair.update(decode_pair_values(tenant.store.load_result(child_id)["pairs"]))
        # Record who computed the blocks (observability), then drop the
        # finished children — their values live on in the assembled matrix.
        with contextlib.suppress(JobStoreError, KeyError):
            tenant.store.mutate(
                job_id,
                lambda current: {"options": {**current.options, "workers": sorted(block_workers)}},
            )
        for child_id in child_ids:
            tenant.store.forget(child_id)
        return raw_by_pair

    def _abandon_blocks(self, tenant: TenantContext, child_ids: List[str]) -> None:
        """Best-effort cancel + drop of a failed job's surviving block tasks."""
        for child_id in child_ids:
            with contextlib.suppress(JobStoreError, KeyError):
                tenant.store.mark_cancelled(child_id)
            with contextlib.suppress(JobStoreError, KeyError):
                tenant.store.forget(child_id)

    def _analyze_payload(self, tenant: TenantContext, request: SubmitAnalyzeRequest) -> JobResult:
        from repro.pipeline.config import ExperimentConfig
        from repro.pipeline.pipeline import AnalysisPipeline
        from repro.pipeline.report import summarise_result

        strings = decode_corpus(request.strings)
        config = ExperimentConfig(
            spec=coerce_spec(request.spec),
            n_clusters=request.n_clusters,
            n_components=request.n_components,
            linkage=request.linkage,
        )
        # One result-cache lookup: the matrix (and the hit/miss outcome the
        # record reports, as the matrix path does) feed the analysis stages.
        matrix, status = tenant.session.matrix_cached(config.spec, strings)
        result = AnalysisPipeline(config, session=tenant.session).analyse_matrix(matrix, strings)
        payload = {
            "config": config.describe(),
            "metrics": {name: float(value) for name, value in result.metrics.items()},
            "assignments": [int(assignment) for assignment in result.assignments],
            "names": [string.name for string in result.strings],
            "labels": [label for label in result.labels],
            "summary": summarise_result(result, title="service analyze"),
        }
        return JobResult(payload, cache=status)

    # ------------------------------------------------------------------
    # Streaming serving (landmark models)
    # ------------------------------------------------------------------
    def _scorer(self, tenant: TenantContext, name: str) -> StreamingScorer:
        """The tenant's warm scorer for *name*, reloaded when its file changed.

        Raises the store's typed errors (``model-not-found`` when no such
        model exists, ``model-damaged`` after quarantining a broken file);
        a syntactically invalid name is a ``bad-request``.
        """
        try:
            path = tenant.model_store.path(name)
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            mtime = -1.0  # no file: let load() raise the typed not-found
        with tenant.lock:
            cached = tenant.scorers.get(name)
            if cached is not None and cached[0] == mtime:
                return cached[1]
        scorer = StreamingScorer(tenant.model_store.load(name), tenant.session)
        with tenant.lock:
            tenant.scorers[name] = (mtime, scorer)
        return scorer

    def _handle_classify(self, request: ClassifyRequest, tenant: TenantContext) -> Dict[str, Any]:
        strings = decode_corpus(request.strings)
        if not strings:
            raise BadRequest("classify requires at least one trace")
        scorer = self._scorer(tenant, request.name)
        started = time.perf_counter()
        results: List[Dict[str, Any]] = []
        evals_total = 0
        warm_traces = 0
        try:
            for string in strings:
                # Counted on this thread: other requests share the engine.
                before = thread_tally()["kernel_evals"]
                if request.embed:
                    outcome, embedding = scorer.classify_with_embedding(string)
                else:
                    outcome, embedding = scorer.classify(string), None
                evals = thread_tally()["kernel_evals"] - before
                evals_total += evals
                if evals == 0:
                    warm_traces += 1
                entry: Dict[str, Any] = {
                    "name": string.name,
                    "label": outcome.label,
                    "scores": {label: float(score) for label, score in outcome.scores.items()},
                    "kernel_evals": evals,
                    "warm": evals == 0,
                }
                if embedding is not None:
                    entry["embedding"] = [float(value) for value in embedding]
                results.append(entry)
        except ValueError as exc:  # e.g. a model with no labelled landmarks
            raise BadRequest(str(exc)) from exc
        elapsed = time.perf_counter() - started
        self._note_model_request(
            tenant, request.name, traces=len(strings), warm=warm_traces,
            evals=evals_total, seconds=elapsed,
        )
        self.metrics.histogram(
            "repro_model_serve_seconds", "Classify request latency by model.",
            model=request.name,
        ).observe(elapsed)
        with trace_context(request.trace_id):
            logger.debug(
                "classify model=%s traces=%d warm=%d kernel_evals=%d elapsed=%.4fs trace=%s",
                request.name, len(strings), warm_traces, evals_total, elapsed,
                request.trace_id,
                extra={"model": request.name, "event": "classify"},
            )
        response = ok_response(
            "classify",
            model=request.name,
            model_id=scorer.model.model_id,
            results=results,
            kernel_evals=evals_total,
            warm_traces=warm_traces,
            elapsed_seconds=elapsed,
        )
        if request.trace_id is not None:
            response["trace_id"] = request.trace_id
        return response

    def _note_model_request(
        self, tenant: TenantContext, name: str,
        traces: int, warm: int, evals: int, seconds: float
    ) -> None:
        with tenant.lock:
            metrics = tenant.model_metrics.setdefault(
                name,
                {"requests": 0, "traces": 0, "warm_traces": 0,
                 "kernel_evals": 0, "total_seconds": 0.0},
            )
            metrics["requests"] += 1
            metrics["traces"] += traces
            metrics["warm_traces"] += warm
            metrics["kernel_evals"] += evals
            metrics["total_seconds"] += seconds

    @staticmethod
    def _served_metrics(metrics: Optional[Dict[str, float]]) -> Dict[str, Any]:
        """JSON-ready serve counters with derived rates (zeros when unserved)."""
        if not metrics:
            metrics = {}
        requests = int(metrics.get("requests", 0))
        traces = int(metrics.get("traces", 0))
        warm = int(metrics.get("warm_traces", 0))
        return {
            "requests": requests,
            "traces": traces,
            "warm_traces": warm,
            "kernel_evals": int(metrics.get("kernel_evals", 0)),
            "warm_rate": warm / traces if traces else None,
            "avg_latency_ms": (
                float(metrics.get("total_seconds", 0.0)) / requests * 1000.0
                if requests else None
            ),
        }

    def _handle_models(self, request: ModelsRequest, tenant: TenantContext) -> Dict[str, Any]:
        entries = tenant.model_store.entries()
        with tenant.lock:
            metrics = {name: dict(values) for name, values in tenant.model_metrics.items()}
        for entry in entries:
            entry["metrics"] = self._served_metrics(metrics.get(entry.get("name")))
        return ok_response("models", models=entries, count=len(entries))

    # ------------------------------------------------------------------
    # Maintenance: lease requeue, orphan adoption, TTL garbage collection
    # ------------------------------------------------------------------
    def _adopt_queued_jobs(self, tenant: TenantContext) -> None:
        """Queue the store's queued records on the tenant's job pool.

        Covers jobs requeued by recovery and jobs orphaned by another
        (dead) server sharing the state dir; records already queued here
        are skipped by :meth:`_start_record`.  Block tasks are skipped —
        they are executed through the claim path by coordinators and
        workers, never adopted into the job pool.  Queued jobs with no
        stored input predate input persistence and cannot be resumed; they
        are dead-ended as ``interrupted`` so clients get a definite answer
        instead of an eternal ``queued``.
        """
        for record in tenant.store.records():
            if record.status != "queued" or record.kind == "block":
                continue
            if record.input is None:
                with contextlib.suppress(JobStoreError, KeyError):
                    tenant.store.update(
                        record.job_id,
                        status="interrupted",
                        error="interrupted: queued job carries no stored input to resume from",
                    )
                continue
            self._start_record(tenant, record)

    def _maintenance_tick(self) -> None:
        # Namespaces created on disk by a sibling server since the last
        # tick get woken here, so their orphaned jobs are adopted too.
        for tenant in self._tenants.refresh():
            self._maintain_tenant(tenant)
        remove_stale_temp_files(self.metrics_dir)

    def _maintain_tenant(self, tenant: TenantContext) -> None:
        requeued = tenant.store.requeue_expired()
        if requeued:
            logger.info(
                "tenant %s: requeued %d expired-lease job(s): %s",
                tenant.tenant_id, len(requeued), requeued,
            )
        self._adopt_queued_jobs(tenant)
        swept = sweep_namespace(tenant.namespace, self.job_ttl)
        if swept["jobs"]:
            logger.info("swept %d expired job(s) from the state dir", len(swept["jobs"]))
            with tenant.lock:
                for job_id in swept["jobs"]:
                    tenant.result_waiters.pop(job_id, None)
        if swept["matrix_cache"]:
            logger.info("evicted %d result-cache entr(ies)", len(swept["matrix_cache"]))
        if swept["pair_store"]:
            logger.info("evicted %d pair-store segment(s)", len(swept["pair_store"]))
        # Drop coalescing entries whose job finished or vanished — a later
        # identical submission must get a fresh job (usually a cache hit) —
        # and waiter counts whose record no longer exists at all.
        with tenant.lock:
            stale = [
                key for key, job_id in tenant.inflight.items()
                if self._unfinished_record(tenant, job_id) is None
            ]
            for key in stale:
                del tenant.inflight[key]
            orphaned = []
            for job_id in tenant.result_waiters:
                try:
                    tenant.store.get(job_id)
                except KeyError:
                    orphaned.append(job_id)
                except JobStoreError:
                    pass  # unreadable, not gone: keep the count
            for job_id in orphaned:
                del tenant.result_waiters[job_id]

    def _maintenance_loop(self) -> None:
        while not self._maintenance_stop.wait(self.gc_interval):
            try:
                self._maintenance_tick()
            except Exception:  # noqa: BLE001 - maintenance must never die
                logger.exception("maintenance pass failed")

    # ------------------------------------------------------------------
    # Job queries
    # ------------------------------------------------------------------
    def _record(self, tenant: TenantContext, job_id: str) -> JobRecord:
        """*job_id*'s record in the tenant's own store — a job id from a
        different tenant is indistinguishable from a nonexistent one, so
        job ids cannot be used to probe across namespaces."""
        try:
            return tenant.store.get(job_id)
        except KeyError:
            raise UnknownJob(f"no job {job_id!r}", details={"job_id": job_id}) from None
        except JobStoreError as exc:
            raise ServiceError(f"job record {job_id!r} unreadable: {exc}", details={"job_id": job_id}) from exc

    def _handle_status(self, request: StatusRequest, tenant: TenantContext) -> Dict[str, Any]:
        record = self._record(tenant, request.job_id)
        response = ok_response(
            "status",
            job_id=record.job_id,
            kind=record.kind,
            status=record.status,
            error=record.error,
        )
        if "cache" in record.options:
            response["cache"] = record.options["cache"]
        if "trace_id" in record.options:
            response["trace_id"] = record.options["trace_id"]
        return response

    def _wait_for_record(self, tenant: TenantContext, job_id: str, wait: float) -> JobRecord:
        """Wait (bounded) for a record to finish; the record as last read.

        The record is re-read whenever the doorbell rings, and at least
        every ``DEFAULT_POLL_INTERVAL``, until it finishes, the wait
        elapses or the server closes.  A job queued in this process rings
        the doorbell itself when it ends (see :meth:`_start_record`), so
        waiting on it needs no pipe; a job owned by another process (a
        worker, or a sibling server that won the claim) is heard through
        the state dir's ``wake/`` pipe, which the first such wait
        registers before it reads the record again.
        """
        deadline = time.monotonic() + max(0.0, wait)
        while True:
            seen = self._doorbell.generation
            # Checked before the record is read: a local job leaves the set
            # only after storing its result, and rings after leaving it.
            with tenant.lock:
                local = job_id in tenant.queued
            record = self._record(tenant, job_id)
            remaining = deadline - time.monotonic()
            if record.finished or remaining <= 0 or self._maintenance_stop.is_set():
                return record
            if local or not self._doorbell.watch(tenant.store):
                self._doorbell.wait(seen, min(DEFAULT_POLL_INTERVAL, remaining))

    def _handle_result(self, request: ResultRequest, tenant: TenantContext) -> Dict[str, Any]:
        record = self._wait_for_record(tenant, request.job_id, request.wait)
        if record.status == "done":
            try:
                payload = tenant.store.load_result(record.job_id)
            except JobStoreError as exc:
                raise JobFailed(str(exc), details={"job_id": record.job_id}) from exc
            response = ok_response(
                "result", job_id=record.job_id, kind=record.kind, payload=payload
            )
            if "cache" in record.options:
                # Envelope-level stamp: the payload itself stays bit-identical
                # whether it was computed cold or served from the cache.
                response["cache"] = record.options["cache"]
            if "trace_id" in record.options:
                response["trace_id"] = record.options["trace_id"]
            if request.forget and self._release_result_waiter(tenant, record.job_id):
                tenant.store.forget(record.job_id)
            return response
        if record.status in ("error", "interrupted", "cancelled"):
            raise JobFailed(
                record.error or f"job {record.job_id!r} ended as {record.status}",
                details={"job_id": record.job_id, "status": record.status},
            )
        raise JobPending(
            f"job {record.job_id!r} is {record.status}",
            details={"job_id": record.job_id, "status": record.status},
        )

    def _handle_cancel(self, request: CancelRequest, tenant: TenantContext) -> Dict[str, Any]:
        record = self._record(tenant, request.job_id)
        if record.finished:
            raise CannotCancel(
                f"job {record.job_id!r} already ended as {record.status}",
                details={"job_id": record.job_id, "status": record.status},
            )

        # One atomic mutate: the queued-check and the flip happen under the
        # record lock, so a claimant racing us either loses (sees cancelled,
        # and its pool task is a no-op) or wins (we report cannot-cancel) —
        # never both.
        def cancel_if_still_queued(current: JobRecord) -> Dict[str, Any]:
            if current.status != "queued":
                raise JobStoreError(
                    f"job {current.job_id!r} already started and cannot be cancelled"
                )
            return {"status": "cancelled", "worker_id": None, "lease_expires_at": None}

        try:
            tenant.store.mutate(record.job_id, cancel_if_still_queued)
        except (JobStoreError, KeyError) as exc:
            raise CannotCancel(str(exc), details={"job_id": record.job_id}) from exc
        return ok_response("cancel", job_id=record.job_id, status="cancelled")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _handle_specs(self, request: SpecsRequest, tenant: TenantContext) -> Dict[str, Any]:
        kinds = []
        for kind in registered_kinds():
            entry = registry_entry(kind)
            kinds.append(
                {
                    "kind": kind,
                    "description": entry.description,
                    "composite": entry.composite,
                    "defaults": dict(entry.defaults),
                }
            )
        return ok_response(
            "specs",
            kinds=kinds,
            warm=[spec.to_dict() for spec in tenant.session.specs()],
        )

    @staticmethod
    def _hit_rate(hits: int, misses: int) -> Optional[float]:
        total = hits + misses
        return hits / total if total else None

    def _tenant_health_summary(self, tenant: TenantContext) -> Dict[str, Any]:
        """One tenant's line in the per-namespace health summary."""
        stats = namespace_stats(tenant.namespace)
        return {
            "root": tenant.root,
            "jobs": stats["jobs"],
            "queue_depth": stats["jobs"].get("queued", 0),
            "matrix_cache_entries": stats["matrix_cache"]["entries"],
            "models": stats["model_store"]["models"],
        }

    def _handle_health(self, request: HealthRequest, tenant: TenantContext) -> Dict[str, Any]:
        stats = namespace_stats(tenant.namespace)
        counts, matrix, pairs = stats["jobs"], stats["matrix_cache"], stats["pair_store"]
        # Warm-routing signals for load balancers: how deep the queue is
        # and how warm each persistent cache layer runs on this replica.
        matrix_health = {
            "hits": matrix["hits"],
            "misses": matrix["misses"],
            "entries": matrix["entries"],
            "hit_rate": self._hit_rate(matrix["hits"], matrix["misses"]),
        }
        pair_health = {
            "hits": pairs["hits"],
            "misses": pairs["misses"],
            "hit_rate": self._hit_rate(pairs["hits"], pairs["misses"]),
        }
        # Streaming tier: stored models plus aggregate serve counters —
        # warm_rate is the share of classified traces that cost zero
        # kernel evaluations.
        model_stats = stats["model_store"]
        with tenant.lock:
            totals: Dict[str, float] = {
                "requests": 0, "traces": 0, "warm_traces": 0,
                "kernel_evals": 0, "total_seconds": 0.0,
            }
            for metrics in tenant.model_metrics.values():
                for key in totals:
                    totals[key] += metrics.get(key, 0)
        models_health = {
            "count": model_stats["models"],
            "quarantined": model_stats["quarantined"],
            **self._served_metrics(totals),
        }
        response = ok_response(
            "health",
            status="ok",
            protocol=PROTOCOL_VERSION,
            uptime_seconds=time.time() - self._started,
            started_at=self._started,
            pid=os.getpid(),
            state_dir=self.store.root,
            tenant=tenant.tenant_id,
            auth=self.auth.enabled,
            jobs=counts,
            queue_depth=counts.get("queued", 0),
            warm_specs=len(tenant.session.specs()),
            worker_id=self.worker_id,
            result_cache=True,
            matrix_cache=matrix_health,
            pair_store=pair_health,
            models=models_health,
            recovered_quarantined=len(self.store.recovery.quarantined),
            recovered_interrupted=len(self.store.recovery.interrupted),
            recovered_requeued=len(self.store.recovery.requeued),
        )
        # When tenancy is live, surface a per-namespace roll-up (counts
        # only, never payloads) so operators see the whole fleet at once.
        if self._tenants.multi_tenant or self.auth.enabled:
            response["tenants"] = {
                context.tenant_id: self._tenant_health_summary(context)
                for context in self._tenants.contexts()
            }
        return response

    def _handle_cache_stats(self, request: CacheStatsRequest, tenant: TenantContext) -> Dict[str, Any]:
        stats = namespace_stats(tenant.namespace, full=True)
        with tenant.lock:
            served = {
                name: self._served_metrics(metrics)
                for name, metrics in tenant.model_metrics.items()
            }
        models_section = {"enabled": True, **stats["model_store"], "served": served}
        return ok_response(
            "cache-stats",
            enabled=True,
            tenant=tenant.tenant_id,
            pair_store={"enabled": True, **stats["pair_store"]},
            models=models_section,
            **stats["matrix_cache"],
        )

    # ------------------------------------------------------------------
    # Metrics (/metrics)
    # ------------------------------------------------------------------
    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Pull point-in-time state into the registry before every render.

        Instrumenting every read path of the engine and the stores would
        scatter registry handles through the hot loops; instead the layers
        keep their own cheap counters and this collector mirrors them into
        Prometheus families at scrape time.
        """
        registry.gauge("repro_uptime_seconds", "Seconds since this process started.").set(
            time.time() - self._started
        )
        registry.gauge(
            "repro_process_start_time_seconds", "Unix time this process started."
        ).set(self._started)
        contexts = self._tenants.contexts()
        registry.gauge("repro_tenants", "Live tenant namespaces in this process.").set(
            len(contexts)
        )
        total_queued = 0
        for tenant in contexts:
            tenant_id = tenant.tenant_id
            counts = job_counts(tenant.store)
            total_queued += counts.get("queued", 0)
            for status, count in counts.items():
                registry.gauge(
                    "repro_jobs", "Job records in the store by status and tenant.",
                    status=status, tenant=tenant_id,
                ).set(count)
            mirror_namespace_counters(tenant.namespace, registry)
            with tenant.lock:
                model_metrics = {
                    name: dict(values) for name, values in tenant.model_metrics.items()
                }
            for name, values in model_metrics.items():
                registry.counter(
                    "repro_model_requests_total", "Classify requests served, by model.",
                    model=name, tenant=tenant_id,
                ).set_total(values.get("requests", 0))
                registry.counter(
                    "repro_model_traces_total", "Traces classified, by model.",
                    model=name, tenant=tenant_id,
                ).set_total(values.get("traces", 0))
                registry.counter(
                    "repro_model_warm_traces_total",
                    "Traces classified with zero kernel evaluations, by model.",
                    model=name, tenant=tenant_id,
                ).set_total(values.get("warm_traces", 0))
                registry.counter(
                    "repro_model_kernel_evals_total",
                    "Kernel evaluations spent serving, by model.",
                    model=name, tenant=tenant_id,
                ).set_total(values.get("kernel_evals", 0))
        registry.gauge("repro_queue_depth", "Queued job records across all tenants.").set(
            total_queued
        )

    def _read_worker_snapshots(self) -> List[Dict[str, Any]]:
        """Metric snapshots workers persisted under ``<state-dir>/metrics/``.

        Unreadable or foreign files are skipped — a half-written snapshot
        must never break a scrape (writes are atomic, but be defensive).
        """
        sources: List[Dict[str, Any]] = []
        try:
            names = sorted(os.listdir(self.metrics_dir))
        except OSError:
            return sources
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.metrics_dir, name), "r", encoding="utf-8") as handle:
                    snapshot = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(snapshot, Mapping):
                continue
            origin = snapshot.get("origin")
            families = snapshot.get("families")
            if isinstance(origin, str) and isinstance(families, list):
                sources.append({"origin": origin, "families": families})
        return sources

    def metrics_text(self) -> str:
        """The fleet-wide Prometheus page behind ``GET /metrics``.

        This server's registry plus every worker snapshot in the shared
        state dir, each sample labelled with its ``origin`` process.
        """
        sources = [{"origin": self.worker_id, "families": self.metrics.snapshot()}]
        sources.extend(self._read_worker_snapshots())
        return render_fleet(sources)

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and serve HTTP on a background thread; returns (host, port).

        ``port=0`` binds an ephemeral port — the returned port is the real
        one, which tests and the CLI's ``--port-file`` rely on.
        """
        if self._httpd is not None:
            # repro: lint-ok[REP005] operator lifecycle misuse in-process; never reaches the wire encoder
            raise RuntimeError("HTTP front end already started")
        self._httpd = _build_http_server(self, host, port)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._http_thread.start()
        return self.http_address()

    def http_address(self) -> Tuple[str, int]:
        """The bound (host, port) of the HTTP front end."""
        if self._httpd is None:
            # repro: lint-ok[REP005] operator lifecycle misuse in-process; never reaches the wire encoder
            raise RuntimeError("HTTP front end is not running")
        address = self._httpd.server_address
        return str(address[0]), int(address[1])

    def serve_http_forever(self, host: str = "127.0.0.1", port: int = 0,
                           ready: Optional[Callable[[str, int], None]] = None) -> None:
        """Blocking HTTP serve loop (the CLI's ``serve`` command).

        *ready* is called with the bound address after the socket exists but
        before the first request is accepted — the hook the CLI uses to
        write its ``--port-file``.
        """
        self._httpd = _build_http_server(self, host, port)
        bound_host, bound_port = self.http_address()
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self._httpd = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the front ends, the maintenance thread and every tenant's job pool."""
        self._maintenance_stop.set()
        self._doorbell.ring_self()  # coordinators and result waits see the stop now
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
            self._http_thread = None
        self._maintenance_thread.join(timeout=5)
        self._tenants.close()  # waits for running jobs; unstarted ones stay queued
        self._doorbell.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "AnalysisServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"AnalysisServer(state_dir={self.store.root!r}, jobs={len(self.store.records())})"


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """One JSON request per POST; GET /healthz for load-balancer probes."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # Set by _build_http_server on the server class.
    analysis_server: AnalysisServer

    def _respond(self, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(http_status_for_response(payload))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _bearer_token(self) -> Optional[str]:
        """The ``Authorization: Bearer <token>`` header's token, if any."""
        header = self.headers.get("Authorization")
        if header is None:
            return None
        scheme, _, credentials = header.partition(" ")
        if scheme.lower() != "bearer":
            return None
        return credentials.strip() or None

    def _refuse(self, error: ServiceError) -> None:
        self._respond(self.analysis_server.refuse(error))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") not in ("", "/v1"):
            self._refuse(BadRequest(f"unknown endpoint {self.path!r}; POST /v1"))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._refuse(BadRequest("Content-Length header is not an integer"))
            return
        # Refuse oversized bodies before reading a single byte of them:
        # an unbounded read would let one client balloon server memory.
        limit = self.analysis_server.max_request_bytes
        if length > limit:
            self.close_connection = True  # the unread body poisons the connection
            self._refuse(RequestTooLarge(
                f"request body of {length} bytes exceeds the server's limit of {limit}",
                details={"max_request_bytes": limit, "content_length": length},
            ))
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
            payload = load_message(body)
        except (ValueError, UnicodeDecodeError) as exc:
            self._refuse(BadRequest(f"request body is not JSON: {exc}"))
            return
        except BadRequest as exc:
            self._refuse(exc)
            return
        self._respond(
            self.analysis_server.handle(payload, token=self._bearer_token(), transport="http")
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") in ("/healthz", "/v1/health"):
            self._respond(
                self.analysis_server.handle(
                    HealthRequest().to_payload(), token=self._bearer_token(), transport="http"
                )
            )
            return
        if self.path.rstrip("/") == "/metrics":
            body = self.analysis_server.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._refuse(BadRequest(f"unknown endpoint {self.path!r}; POST /v1"))

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("http %s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args: Any) -> None:  # noqa: A002
        # BaseHTTPRequestHandler funnels errors through log_message, which
        # the override above demotes to DEBUG — route them to WARNING so
        # misbehaving clients (bad request lines, oversized headers,
        # mid-body disconnects) stay diagnosable at default log levels.
        logger.warning("http %s - %s", self.address_string(), format % args)


def _build_http_server(analysis_server: AnalysisServer, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("BoundServiceHTTPHandler", (_ServiceHTTPHandler,), {"analysis_server": analysis_server})
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return httpd


# ----------------------------------------------------------------------
# stdio front end
# ----------------------------------------------------------------------
def serve_stdio(server: AnalysisServer, input_stream: TextIO, output_stream: TextIO) -> int:
    """Serve line-framed protocol messages until *input_stream* hits EOF.

    Every input line is one request, every output line one response —
    including a typed error envelope for lines that are not valid JSON, so
    a confused client always gets an answer.  Returns the number of
    messages served.
    """
    served = 0
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        if len(line) > server.max_request_bytes:
            response = server.refuse(RequestTooLarge(
                f"request line of {len(line)} bytes exceeds the server's limit "
                f"of {server.max_request_bytes}",
                details={"max_request_bytes": server.max_request_bytes},
            ))
        else:
            try:
                payload = load_message(line)
            except BadRequest as exc:
                response = server.refuse(exc)
            else:
                response = server.handle(payload, transport="stdio")
        output_stream.write(dump_message(response) + "\n")
        output_stream.flush()
        served += 1
    return served
