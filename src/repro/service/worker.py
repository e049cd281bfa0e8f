"""The one job runner, and the pull-loop worker built on it.

:func:`run_claimed_job` executes one job-store record that a process has
already claimed.  It is the service's only execution path: the server's
per-tenant job pools and :class:`Worker` both call it, so every job —
whoever runs it — keeps its lease alive the same way, logs the same
``job-started`` / ``job-finished`` lines under the client's trace, feeds
the same ``repro_jobs_executed_total{kind,outcome}`` and
``repro_job_seconds{kind}`` families, and follows one failure policy.
Each record kind has one payload function, and every one of them reads
its job's description — the wire request stored as the record's
``input`` — through :func:`stored_request`:

* ``block`` — :func:`execute_block_task`, run by ``repro worker``
  processes and, unless ``inline_blocks`` is off, by the server
  coordinating the parent matrix job;
* ``fit-model`` — :func:`fit_model_payload`, run by the server's job pool
  and by workers alike, so a fit runs the same body in either;
* ``matrix`` and ``analyze`` — the server's own payloads, run only in the
  server, whose matrix job coordinates its block records.

:class:`Worker` is the pull loop.  A ``submit-matrix`` request with
``distributed=True`` makes the server persist one *block-task* record per
symmetric index-block pair, and any number of workers — threads, processes
on the same host, or hosts mounting the same state dir — drain that queue
by *pulling*::

    repro-iokast serve  --state-dir /srv/repro-state --port 8123 &
    repro-iokast worker --state-dir /srv/repro-state &
    repro-iokast worker --state-dir /srv/repro-state &

Each loop iteration claims the oldest claimable task through
:meth:`JobStore.claim <repro.service.jobstore.JobStore.claim>` under the
store's cross-process file locks, so racing workers always walk away with
distinct tasks.  When the queue is dry the worker sleeps on the store's
doorbell (:class:`~repro.service.jobstore.Doorbell`): a job queued by any
process on the same host wakes it at once.  ``poll_interval`` only bounds
that sleep, for wake-ups that cannot arrive — a server on another host
sharing the state dir, or a platform without named pipes.

While a task runs, a background :class:`_LeaseKeeper` thread renews the
worker's lease; if the worker is SIGKILLed mid-block the renewals stop,
the lease expires, and the block is reclaimed by another worker (or the
server's own inline execution) — a dead worker delays a job, never
corrupts or loses it.

A worker owns a warm :class:`~repro.api.session.AnalysisSession`, so
repeated blocks under one spec share kernel caches exactly like the
server's in-process evaluation.  Its engine evaluates one block serially:
running more worker processes is how a fleet uses more cores — leased
block records are the library's only cross-core parallelism.  Raw pair
values are serialised through
:func:`~repro.core.engine.encode_pair_values`, whose JSON floats
round-trip bit-identically — the assembled distributed Gram matrix equals
the monolithic one byte for byte.

Workers never run the store's start-up recovery (that is the serving
process's job) and claim ``block`` and ``fit-model`` records by default —
a fleet of workers drains streaming model fits exactly like matrix
blocks, writing the frozen models into the shared model store the server
serves ``classify`` from.

One worker drains every namespace of the state dir from a single pull
loop: every scan claims from the root namespace first, then from each
tenant's (listed afresh each time, so tenants created after the worker
started are picked up).  Execution stays isolated per namespace —
results, pair-store values and fitted models land in the owning tenant's
namespace, through its own session, never in another tenant's.  The
layout, and how a namespace is opened and counted, belong to
:mod:`~repro.service.tenancy` (README, "State directory layout").
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import logging
import os
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.api.session import AnalysisSession
from repro.api.spec import coerce_spec
from repro.core.atomicio import write_text_atomic
from repro.core.engine import block_index_pairs, encode_pair_values, thread_tally
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace_context
from repro.service.jobstore import Doorbell, JobRecord, JobStore, JobStoreError, LeaseError
from repro.service.protocol import Request, decode_corpus, job_request
from repro.service.tenancy import StateDir, StateNamespace, mirror_namespace_counters
from repro.strings.tokens import WeightedString

__all__ = [
    "Worker",
    "ShutdownRequested",
    "JobResult",
    "execute_block_task",
    "fit_model_payload",
    "run_claimed_job",
    "stored_request",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_POLL_INTERVAL",
]

logger = logging.getLogger(__name__)

#: Default upper bound, in seconds, on one idle wait when no wake-up
#: arrives: the fallback rescan interval of workers and coordinators.
DEFAULT_POLL_INTERVAL = 0.5

#: Default lease duration stamped on claimed tasks (renewed while running).
DEFAULT_LEASE_SECONDS = 30.0

#: Claim attempts after which a repeatedly failing task is marked ``error``
#: instead of being released back to the queue.
MAX_TASK_ATTEMPTS = 3


class JobResult(NamedTuple):
    """What a payload function hands back for the runner to store.

    ``cache`` is the job's result-cache outcome (``hit``, ``miss``,
    ``bypass``, ...), or ``None`` for a job that has none.  The runner
    stores it in the record's options in the same write that marks the
    job ``done``; ``status`` and ``result`` answers report it as the
    envelope's ``cache`` field.
    """

    payload: Dict[str, Any]
    cache: Optional[str] = None


#: A job's payload function: the claimed record in, its result out
#: (``None`` when the job stored its own result, as block tasks do).
PayloadFunction = Callable[[JobRecord], Optional[JobResult]]


class ShutdownRequested(Exception):
    """Raised by job code that saw its process shutting down mid-job.

    :func:`run_claimed_job` hands such a job back to the queue instead of
    failing it, so the next process (or this one, restarted) resumes it.
    """


def stored_request(record: JobRecord) -> Request:
    """The validated wire request a job record's ``input`` holds.

    The one reader of a stored input (:func:`~repro.service.protocol.job_request`),
    so the request dataclass alone owns each field's default and validation.
    """
    if record.input is None:
        raise JobStoreError(f"job {record.job_id!r} carries no stored input")
    return job_request(record.kind, record.input)


def execute_block_task(
    store: JobStore,
    record: JobRecord,
    session: AnalysisSession,
    corpus_cache: Optional[Dict[str, List[WeightedString]]] = None,
) -> None:
    """Evaluate one claimed block-task record and store its raw pair values.

    The task's parent matrix record carries the work description (its
    stored :class:`~repro.service.protocol.SubmitMatrixRequest`: spec,
    encoded corpus); the task's options name the parent and the two index
    blocks.  The payload is ``{"parent", "first", "second",
    "pairs"}`` with ``pairs`` in :func:`encode_pair_values` form — *raw*
    kernel values only, because normalisation denominators and the
    diagonal are applied once, by the assembling server.  Used identically
    by external workers and the server's inline block execution.

    *corpus_cache* (parent id → decoded strings) lets a caller executing
    many blocks of one job skip re-decoding the corpus per block.
    """
    parent_id = record.options.get("parent")
    if not parent_id:
        raise JobStoreError(f"block task {record.job_id!r} names no parent job")
    parent = store.get(str(parent_id))
    request = stored_request(parent)
    strings: Optional[List[WeightedString]] = None
    if corpus_cache is not None:
        strings = corpus_cache.get(parent.job_id)
    if strings is None:
        strings = decode_corpus(request.strings)
        if corpus_cache is not None:
            corpus_cache.clear()  # one warm corpus at a time is enough
            corpus_cache[parent.job_id] = strings
    spec = coerce_spec(request.spec)
    first = tuple(int(index) for index in record.options["first"])
    second = tuple(int(index) for index in record.options["second"])
    pairs = block_index_pairs(first, second)
    raw_by_pair = session.engine(spec).evaluate_pairs(strings, pairs)
    store.store_result(
        record.job_id,
        {
            "parent": parent.job_id,
            "first": list(first),
            "second": list(second),
            "pairs": encode_pair_values(raw_by_pair),
        },
        # Refused with LeaseError if this claim was reclaimed meanwhile —
        # the reclaiming owner's result wins.
        worker_id=record.worker_id,
    )


def fit_model_payload(namespace: StateNamespace, record: JobRecord) -> JobResult:
    """Fit and persist the landmark model a claimed ``fit-model`` record describes.

    *record* is one of *namespace*'s; its ``input`` is the self-contained
    :class:`~repro.service.protocol.FitModelRequest` (spec, encoded
    corpus, model name and fit options), so the server and any worker
    sharing the state dir run this same body.  The full Gram
    goes through the namespace session's
    :meth:`~repro.api.session.AnalysisSession.matrix_cached`, and its
    outcome is the result's ``cache`` (``options["cache"]``).  A worker
    opens no result cache, so a worker-run fit reports ``bypass``.  The
    frozen model lands in the namespace's model store via an atomic
    checksum-stamped write; the server's per-name scorer cache keys on the
    model file's mtime, so a fit written by any process is served by the
    next ``classify``.  The returned payload is the small model summary.
    """
    request = stored_request(record)
    options = {
        field.name: getattr(request, field.name)
        for field in dataclasses.fields(request)
        if field.name not in ("spec", "strings", "trace_id")
    }
    model, status = namespace.session.fit_landmark_model(
        coerce_spec(request.spec), decode_corpus(request.strings), **options
    )
    path = namespace.model_store.save(model)
    summary = model.summary()
    summary["path"] = path
    summary["cache"] = status
    return JobResult(summary, cache=status)


class _LeaseKeeper(threading.Thread):
    """Background renewal of one claimed task's lease while it executes.

    Renews at a third of the lease period; stops silently when the task
    ends or when renewal fails (the lease was lost — the executing code
    discovers that when it tries to write its result).
    """

    def __init__(self, store: JobStore, job_id: str, worker_id: str, lease_seconds: float) -> None:
        super().__init__(name=f"repro-lease-{job_id}", daemon=True)
        self._store = store
        self._job_id = job_id
        self._worker_id = worker_id
        self._lease_seconds = lease_seconds
        # NB: not named _stop — threading.Thread.join() calls an internal
        # method of that name.
        self._halt = threading.Event()

    def run(self) -> None:
        interval = max(0.05, self._lease_seconds / 3.0)
        while not self._halt.wait(interval):
            try:
                self._store.renew_lease(self._job_id, self._worker_id, self._lease_seconds)
            except (LeaseError, JobStoreError):
                return

    def stop(self) -> None:
        self._halt.set()


def run_claimed_job(
    store: JobStore,
    record: JobRecord,
    payload: PayloadFunction,
    *,
    worker_id: str,
    lease_seconds: float,
    metrics: MetricsRegistry,
    max_attempts: int = 1,
) -> str:
    """Execute one record this process has claimed; returns the outcome.

    While *payload* computes the job's result, a :class:`_LeaseKeeper`
    renews the claim, so only a dead process's lease expires.  The job
    runs inside the trace context stamped on the record and logs
    ``job-started`` / ``job-finished`` (with the kernel evaluations and
    pair-store hits it cost, counted on this thread: the jobs and requests
    other threads run on the same engines meanwhile are not).  A returned
    payload is stored under this claim.

    The outcome is ``done``; ``released`` (back on the queue); ``error``;
    or ``lease-lost`` (the claim was reclaimed while the job ran, and the
    new owner's result wins).  It is counted in
    ``repro_jobs_executed_total{kind,outcome}`` and the wall clock in
    ``repro_job_seconds{kind}`` of *metrics*.

    The failure policy: a failing job is released while its claim count
    is under *max_attempts* — transient failures retry, possibly in
    another process — and marked ``error`` after that, so deterministic
    failures do not ping-pong forever.  A job that raises
    :class:`ShutdownRequested` is released whatever its attempts.
    """
    job_id, kind = record.job_id, record.kind
    trace_id = record.options.get("trace_id")
    keeper = _LeaseKeeper(store, job_id, worker_id, lease_seconds)
    keeper.start()
    started = time.perf_counter()
    tally_before = thread_tally()
    outcome = "done"
    with trace_context(trace_id, record.options.get("span_id")):
        logger.info(
            "job %s (%s) started by %s, attempt %d, trace=%s",
            job_id, kind, worker_id, record.attempts, trace_id,
            extra={"job_id": job_id, "kind": kind, "worker_id": worker_id, "event": "job-started"},
        )
        try:
            result = payload(record)
            if result is not None:
                store.store_result(job_id, result.payload, worker_id=worker_id, cache=result.cache)
        except ShutdownRequested:
            outcome = "released"
            with contextlib.suppress(LeaseError, JobStoreError, KeyError):
                store.release(job_id, worker_id)
        except LeaseError:
            outcome = "lease-lost"
            logger.warning("job %s lost its lease mid-run; dropping this result", job_id)
        except Exception as exc:  # noqa: BLE001 - the queue must keep moving
            message = f"{type(exc).__name__}: {exc}"
            outcome = "released" if record.attempts < max_attempts else "error"
            logger.warning("job %s failed on attempt %d (%s): %s", job_id, record.attempts, outcome, message)
            # The job moved on without us when these raise; nothing left to record.
            with contextlib.suppress(LeaseError, JobStoreError, KeyError):
                if outcome == "released":
                    store.release(job_id, worker_id)
                else:
                    store.mark_error(job_id, message)
        finally:
            keeper.stop()
            keeper.join(timeout=1.0)
            elapsed = time.perf_counter() - started
            tally_after = thread_tally()
            metrics.counter(
                "repro_jobs_executed_total", "Jobs this process executed, by kind and outcome.",
                kind=kind, outcome=outcome,
            ).inc()
            metrics.histogram(
                "repro_job_seconds", "Job execution wall-clock by kind.", kind=kind
            ).observe(elapsed)
            logger.info(
                "job %s (%s) %s in %.3fs trace=%s kernel_evals=%d store_hits=%d",
                job_id, kind, outcome, elapsed, trace_id,
                tally_after["kernel_evals"] - tally_before["kernel_evals"],
                tally_after["store_hits"] - tally_before["store_hits"],
                extra={"job_id": job_id, "kind": kind, "worker_id": worker_id, "event": "job-finished"},
            )
    return outcome


class Worker:
    """A pull-loop executor over one shared state directory.

    Parameters
    ----------
    state_dir:
        The job store directory shared with the server (and other
        workers).  Opened *without* recovery — joining workers must not
        second-guess records the serving process owns.
    worker_id:
        Stable identity stamped into claimed records; defaults to a
        host/pid-qualified unique id.
    poll_interval / lease_seconds:
        Upper bound on one idle wait when no wake-up arrives (a job queued
        on this host wakes the worker at once), and the lease stamped on
        claims (renewed automatically while a task runs).
    kinds:
        Record kinds this worker claims (default: block tasks and
        streaming model fits).
    throttle:
        Seconds to sleep between claiming a task and executing it.  An
        operational rate-limit knob — also what the kill-a-worker tests
        use to hold a worker mid-block deterministically.
    session:
        Existing :class:`AnalysisSession` to evaluate with; when omitted
        the worker creates one.
    max_attempts:
        Claims after which a failing task is marked ``error`` instead of
        released (see :func:`run_claimed_job`).
    pair_store:
        Whether to share each namespace's persistent pair-value store (on
        by default — the same directory the server opens).  Two workers
        computing overlapping corpora then each pay only for their novel
        pairs, and a restarted worker starts warm.  A session that already
        carries a store keeps it.
    """

    def __init__(
        self,
        state_dir: str,
        worker_id: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        kinds: Sequence[str] = ("block", "fit-model"),
        throttle: float = 0.0,
        session: Optional[AnalysisSession] = None,
        max_attempts: int = MAX_TASK_ATTEMPTS,
        pair_store: bool = True,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        #: The state dir; a worker recovers nothing and opens no result cache.
        self.state = StateDir(state_dir, recover=False, result_cache=False, pair_store=pair_store)
        root = self.state.open(session=session)
        self.store, self.session = root.store, root.session
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.poll_interval = float(poll_interval)
        self.lease_seconds = float(lease_seconds)
        self.kinds = tuple(kinds)
        self.throttle = float(throttle)
        self.max_attempts = max_attempts
        self._corpus_cache: Dict[str, List[WeightedString]] = {}
        self._stop = threading.Event()
        # Sleeps run_forever on the state dir's wake/ (tenant stores share it).
        self._doorbell = Doorbell()
        #: Tasks completed / failed by this worker (observability).
        self.completed = 0
        self.failed = 0
        #: Process-local metrics, persisted as a JSON snapshot into the state
        #: dir's metrics directory after every task so the server's
        #: ``/metrics`` can aggregate the fleet.
        self.metrics = MetricsRegistry()
        self.metrics_path = os.path.join(self.state.metrics_dir, f"{self.worker_id}.json")
        self._started = time.time()
        self.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        registry.gauge("repro_uptime_seconds", "Seconds since this process started.").set(
            time.time() - self._started
        )
        registry.gauge(
            "repro_process_start_time_seconds", "Unix time this process started."
        ).set(self._started)
        # Every namespace this worker has run work in, tenants' included.
        for namespace in self.state.opened():
            mirror_namespace_counters(namespace, registry)

    def persist_metrics(self) -> None:
        """Atomically write this worker's metrics snapshot into the state dir.

        Best effort — a full disk or permission problem must never take
        the work loop down with it.
        """
        try:
            os.makedirs(os.path.dirname(self.metrics_path), exist_ok=True)
            snapshot = {
                "origin": self.worker_id,
                "written_at": time.time(),
                "families": self.metrics.snapshot(),
            }
            write_text_atomic(self.metrics_path, json.dumps(snapshot))
        except OSError:
            logger.debug("worker %s could not persist its metrics snapshot", self.worker_id)

    def _claim_any(self) -> Optional[Tuple[JobRecord, StateNamespace]]:
        """One claimable record plus the namespace that owns it.

        The root namespace is scanned first, then each tenant's in sorted
        order — a deterministic sweep that lists the tenants afresh every
        time, so namespaces created while the worker runs join the
        rotation without a restart.
        """
        for namespace in self.state.namespaces():
            record = namespace.store.claim(self.worker_id, self.lease_seconds, kinds=self.kinds)
            if record is not None:
                return record, namespace
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_once(self) -> Optional[str]:
        """Claim and execute one task; its job id, or ``None`` when idle.

        The claimed task runs through :func:`run_claimed_job`; a failing
        task is released back to the queue while its claim count is under
        ``max_attempts`` and marked ``error`` after that.
        """
        claimed = self._claim_any()
        if claimed is None:
            return None
        record, namespace = claimed
        outcome = run_claimed_job(
            namespace.store, record, functools.partial(self._payload, namespace),
            worker_id=self.worker_id, lease_seconds=self.lease_seconds,
            metrics=self.metrics, max_attempts=self.max_attempts,
        )
        if outcome == "done":
            self.completed += 1
        else:
            self.failed += 1
        self.persist_metrics()
        return record.job_id

    def _payload(self, namespace: StateNamespace, record: JobRecord) -> Optional[JobResult]:
        # The sleep runs under the lease keeper: a live-but-slow worker
        # keeps renewing, so only a *dead* worker's lease expires.
        if self.throttle > 0:
            time.sleep(self.throttle)
        if record.kind == "block":
            execute_block_task(
                namespace.store, record, namespace.session, corpus_cache=self._corpus_cache
            )
            return None
        if record.kind == "fit-model":
            return fit_model_payload(namespace, record)
        raise JobStoreError(f"worker cannot execute {record.kind!r} tasks")

    def run_forever(
        self,
        max_tasks: Optional[int] = None,
        idle_exit: Optional[float] = None,
    ) -> int:
        """Pull tasks until stopped; returns how many tasks were executed.

        *max_tasks* bounds the number of executed tasks; *idle_exit* exits
        after the queue has stayed dry for that many seconds (both are how
        tests and batch deployments get a terminating worker).
        :meth:`stop` (e.g. from a signal handler) ends the loop too.

        A dry queue puts the loop to sleep until a job in the state dir or
        any of its tenant namespaces is queued or finished (see
        :class:`~repro.service.jobstore.Doorbell`), or for at most
        ``poll_interval`` seconds.
        """
        executed = 0
        idle_since: Optional[float] = None
        self._doorbell.watch(self.store)
        while True:
            # Read before the scan, so a ring during the scan is kept.
            seen = self._doorbell.generation
            if self._stop.is_set():
                break
            job_id = self.run_once()
            if job_id is not None:
                executed += 1
                idle_since = None
                if max_tasks is not None and executed >= max_tasks:
                    break
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            timeout = self.poll_interval
            if idle_exit is not None:
                remaining = idle_since + idle_exit - now
                if remaining <= 0:
                    break
                timeout = min(timeout, remaining)
            self._doorbell.wait(seen, timeout)
        return executed

    def stop(self) -> None:
        """Ask :meth:`run_forever` to exit after the current task.

        Safe from a signal handler: it sets a flag and rings the worker's
        own wake-up pipe.
        """
        self._stop.set()
        self._doorbell.ring_self()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.stop()
        self.persist_metrics()
        self._doorbell.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Worker(id={self.worker_id!r}, state_dir={self.store.root!r}, "
            f"completed={self.completed}, failed={self.failed})"
        )
