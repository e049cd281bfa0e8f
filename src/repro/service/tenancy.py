"""State-dir namespaces, and per-tenant contexts and resource budgets.

This module owns the state-dir layout (README, "State directory layout").
:class:`StateDir` opens the root namespace and every ``tenants/<id>/`` one
the same way and walks them in one order; :func:`sweep_namespace`,
:func:`namespace_stats` and :func:`mirror_namespace_counters` sweep,
summarise and count one namespace for ``gc``, the server's maintenance
loop, ``health`` / ``cache-stats`` and ``/metrics`` alike.

Each authenticated tenant resolves to a :class:`TenantContext` around its
own namespace, and nothing is shared across namespaces: two tenants
submitting the identical corpus each pay for (and keep) their own cache
entries, pair values and models.  The *default* tenant's namespace is the
state dir itself, so a server with auth disabled keeps the single-tenant
layout.  :class:`TenantQuotas` bounds a tenant's resource use (request
rate through a :class:`TokenBucket`, queued jobs, corpus size), and
:func:`enforce_quotas`, which every request but a health probe passes
through, turns an exhausted budget into the typed ``rate-limited`` /
``quota-exceeded`` wire errors.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple, TYPE_CHECKING

from repro.api.session import AnalysisSession
from repro.core.atomicio import remove_stale_temp_files
from repro.core.cachestore import MatrixCache
from repro.core.pairstore import PairStore
from repro.obs.metrics import MetricsRegistry
from repro.service.jobstore import JobStore
from repro.service.protocol import JOB_REQUESTS, BadRequest, QuotaExceeded, RateLimited, Request
from repro.streaming.store import ModelStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming.scorer import StreamingScorer

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_ID_PATTERN",
    "StateDir",
    "StateNamespace",
    "TenantQuotas",
    "TokenBucket",
    "TenantContext",
    "TenantRegistry",
    "enforce_quotas",
    "job_counts",
    "mirror_namespace_counters",
    "namespace_stats",
    "sweep_namespace",
    "valid_tenant_id",
]

logger = logging.getLogger(__name__)

#: The tenant every unauthenticated deployment serves; its namespace is the
#: state directory itself (the pre-tenancy layout).
DEFAULT_TENANT = "default"

#: Tenant ids become path components under ``<state-dir>/tenants/`` and
#: metric label values — same charset rule as model names.
TENANT_ID_PATTERN = r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$"

#: Directory (under the state dir) holding the non-default tenant namespaces.
TENANTS_DIRNAME = "tenants"


def valid_tenant_id(value: Any) -> bool:
    """Whether *value* is a syntactically valid (path-safe) tenant id."""
    return isinstance(value, str) and re.match(TENANT_ID_PATTERN, value) is not None


def require_tenant_id(value: Any) -> str:
    """Validate a tenant id (typed ``bad-request`` on junk)."""
    if not valid_tenant_id(value):
        raise BadRequest(f"tenant id must match {TENANT_ID_PATTERN}, got {value!r}")
    return str(value)


@dataclass(frozen=True)
class StateNamespace:
    """One namespace of a state dir: its job store and the layers beside it.

    The session carries the namespace's result cache and pair store
    (``None`` where that layer is off).
    """

    tenant_id: str
    store: JobStore
    session: AnalysisSession
    model_store: ModelStore

    @property
    def root(self) -> str:
        return self.store.root


class StateDir:
    """A state directory whose namespaces are all opened one way.

    The options hold for every namespace: *recover* runs the job store's
    start-up recovery (serving processes only; a worker or an offline
    tool joining a live state dir must not); *result_cache* and
    *pair_store* open those layers, bounded by *max_cache_entries* /
    *cache_ttl* and *max_pair_bytes* / *pair_ttl* (``None`` keeps the
    pair store's default size bound).  Each namespace is opened once and
    kept.
    """

    def __init__(
        self,
        path: str,
        *,
        recover: bool = True,
        result_cache: bool = True,
        max_cache_entries: int = 64,
        cache_ttl: Optional[float] = None,
        pair_store: bool = True,
        max_pair_bytes: Optional[int] = None,
        pair_ttl: Optional[float] = None,
    ) -> None:
        self.path = os.path.abspath(path)
        #: Where each worker process keeps its metrics snapshot.
        self.metrics_dir = os.path.join(self.path, "metrics")
        self.recover = recover
        self._cache_options: Optional[Dict[str, Any]] = (
            {"max_entries": max_cache_entries, "ttl": cache_ttl} if result_cache else None
        )
        self._pair_options: Optional[Dict[str, Any]] = None
        if pair_store:
            self._pair_options = {"ttl": pair_ttl}
            if max_pair_bytes is not None:
                self._pair_options["max_bytes"] = max_pair_bytes
        self._namespaces: Dict[str, StateNamespace] = {}
        self._lock = threading.Lock()

    def open(
        self, tenant_id: str = DEFAULT_TENANT, session: Optional[AnalysisSession] = None
    ) -> StateNamespace:
        """The namespace of *tenant_id*: the state dir itself, or ``tenants/<id>/``.

        A caller-supplied *session* keeps any layer it already carries.
        The first open of a namespace is the one every later call gets.
        """
        tenant_id = require_tenant_id(tenant_id)
        with self._lock:
            found = self._namespaces.get(tenant_id)
        if found is not None:
            return found
        # Opened outside the lock: recovery reads and repairs the disk.
        if tenant_id == DEFAULT_TENANT:
            store = JobStore(self.path, recover=self.recover)
        else:
            wake_dir = self.open().store.wake_dir
            store = JobStore(os.path.join(self.path, TENANTS_DIRNAME, tenant_id), recover=self.recover)
            # One wake/ per state dir: a waiting process hears every
            # namespace through its one pipe.
            store.wake_dir = wake_dir
        recovery = store.recovery
        if recovery.quarantined or recovery.interrupted or recovery.requeued:
            logger.warning("tenant %s: %s", tenant_id, recovery.describe())
        logger.info("tenant %r namespace ready at %s", tenant_id, store.root)
        session = session if session is not None else AnalysisSession()
        if self._cache_options is not None and session.matrix_cache is None:
            session.matrix_cache = MatrixCache(
                os.path.join(store.root, "matrix-cache"), **self._cache_options
            )
        if self._pair_options is not None and session.pair_store is None:
            session.set_pair_store(PairStore(os.path.join(store.root, "pair-store"), **self._pair_options))
        namespace = StateNamespace(
            tenant_id, store, session, ModelStore(os.path.join(store.root, "models"))
        )
        with self._lock:
            return self._namespaces.setdefault(tenant_id, namespace)

    def namespaces(self) -> Iterator[StateNamespace]:
        """Open and yield the root namespace, then each tenant's in sorted order.

        The tenants are listed after the root namespace is yielded, and
        afresh on every call, so a namespace a sibling process created
        since the last call is included.
        """
        yield self.open()
        base = os.path.join(self.path, TENANTS_DIRNAME)
        try:
            names = sorted(os.listdir(base))
        except OSError:
            return
        for name in names:
            if (
                name != DEFAULT_TENANT and valid_tenant_id(name)
                and os.path.isdir(os.path.join(base, name))
            ):
                yield self.open(name)

    def opened(self) -> List[StateNamespace]:
        """The namespaces opened so far (the root one first: a tenant's opens it)."""
        with self._lock:
            return list(self._namespaces.values())


def sweep_namespace(
    namespace: StateNamespace,
    job_ttl: Optional[float] = None,
    *,
    matrix_cache: bool = True,
    pair_store: bool = True,
    dry_run: bool = False,
) -> Dict[str, List[str]]:
    """Sweep *namespace* under the bounds it was opened with; what went, per layer.

    Terminal job records older than *job_ttl* seconds go (none when it is
    ``None``); the result cache and the pair store, where open and not
    opted out, evict past their TTL and size bounds; dead writers'
    temporary files go from ``jobs/``, ``payloads/`` and ``models/``.
    *dry_run* lists the jobs that would go and leaves every layer as it is.
    """
    session = namespace.session
    swept: Dict[str, List[str]] = {
        "jobs": namespace.store.sweep(job_ttl, dry_run=dry_run) if job_ttl is not None else [],
        "matrix_cache": [],
        "pair_store": [],
    }
    if not dry_run:
        remove_stale_temp_files(namespace.store.jobs_dir)
        remove_stale_temp_files(namespace.store.payloads_dir)
        remove_stale_temp_files(namespace.model_store.root)
        if matrix_cache and session.matrix_cache is not None:
            swept["matrix_cache"] = session.matrix_cache.sweep()
        if pair_store and session.pair_store is not None:
            swept["pair_store"] = session.pair_store.sweep()
    return swept


def job_counts(store: JobStore) -> Dict[str, int]:
    """The store's job records counted by status."""
    return dict(Counter(record.status for record in store.records()))


def namespace_stats(namespace: StateNamespace, full: bool = False) -> Dict[str, Any]:
    """Per-layer state of *namespace*; a layer that is off is ``None``.

    ``jobs`` counts records by status; ``matrix_cache`` and
    ``model_store`` are those stores' stats.  ``pair_store`` is the store's in-memory
    counters, or with *full* its stats, which read and checksum every
    segment (too slow for a health probe).
    """
    session = namespace.session
    pair_store = session.pair_store
    return {
        "jobs": job_counts(namespace.store),
        "matrix_cache": session.matrix_cache.stats() if session.matrix_cache is not None else None,
        "pair_store": (
            None if pair_store is None else pair_store.stats() if full else pair_store.counters()
        ),
        "model_store": namespace.model_store.stats(),
    }


def mirror_namespace_counters(namespace: StateNamespace, registry: MetricsRegistry) -> None:
    """Mirror *namespace*'s counters into *registry* under its ``tenant`` label.

    The session's engine counters summed across specs, then the result
    cache's, the pair store's (each where open) and the job store's —
    every layer's own cheap in-memory counters, read at scrape time.
    """
    session = namespace.session
    for layer, description, counters in (
        ("engine", "Warm-engine counters summed across specs.", session.engine_counters()),
        ("matrix_cache", "Persistent matrix result-cache counters.",
         session.matrix_cache.counters() if session.matrix_cache is not None else {}),
        ("pair_store", "Persistent pair-value store counters.",
         session.pair_store.counters() if session.pair_store is not None else {}),
        ("jobstore", "Job-store lifecycle counters (this process).", namespace.store.counters()),
    ):
        for key, value in counters.items():
            registry.counter(
                f"repro_{layer}_{key}_total", description, tenant=namespace.tenant_id
            ).set_total(value)


@dataclass(frozen=True)
class TenantQuotas:
    """Resource bounds applied to one tenant (``None`` = unlimited).

    ``requests_per_second`` feeds a :class:`TokenBucket` (with ``burst``
    capacity, default twice the rate); ``max_queued_jobs`` bounds the
    tenant's live (queued + running) job records; ``max_corpus_strings``
    bounds the inline corpus size of one submission.
    """

    requests_per_second: Optional[float] = None
    burst: Optional[int] = None
    max_queued_jobs: Optional[int] = None
    max_corpus_strings: Optional[int] = None

    def __post_init__(self) -> None:
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ValueError(f"requests_per_second must be > 0, got {self.requests_per_second}")
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_queued_jobs is not None and self.max_queued_jobs < 1:
            raise ValueError(f"max_queued_jobs must be >= 1, got {self.max_queued_jobs}")
        if self.max_corpus_strings is not None and self.max_corpus_strings < 1:
            raise ValueError(f"max_corpus_strings must be >= 1, got {self.max_corpus_strings}")

    @property
    def unlimited(self) -> bool:
        return (
            self.requests_per_second is None
            and self.max_queued_jobs is None
            and self.max_corpus_strings is None
        )

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "TenantQuotas":
        """Build quotas from a ``tenants.json`` ``quotas`` object."""
        unknown = set(payload) - {
            "requests_per_second", "burst", "max_queued_jobs", "max_corpus_strings",
        }
        if unknown:
            raise ValueError(f"unknown quota keys {sorted(unknown)}")
        try:
            return TenantQuotas(
                requests_per_second=(
                    float(payload["requests_per_second"])
                    if payload.get("requests_per_second") is not None else None
                ),
                burst=int(payload["burst"]) if payload.get("burst") is not None else None,
                max_queued_jobs=(
                    int(payload["max_queued_jobs"])
                    if payload.get("max_queued_jobs") is not None else None
                ),
                max_corpus_strings=(
                    int(payload["max_corpus_strings"])
                    if payload.get("max_corpus_strings") is not None else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid quota values: {exc}") from exc


class TokenBucket:
    """Classic token-bucket rate limiter (thread-safe, monotonic clock).

    ``rate`` tokens refill per second up to ``capacity``; :meth:`acquire`
    takes one token and returns ``None``, or returns the seconds until a
    token will be available (the wire's ``retry_after``) without blocking.
    """

    def __init__(self, rate: float, capacity: Optional[int] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.capacity = float(capacity if capacity is not None else max(1, int(rate * 2)))
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until retry."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return max(0.001, (1.0 - self._tokens) / self.rate)


def enforce_quotas(tenant: "TenantContext", request: Request) -> None:
    """Charge *request* against *tenant*'s budgets; raise when one is spent.

    * Token bucket → typed ``rate-limited`` with ``retry_after``.
    * ``max_corpus_strings`` (submissions only) → ``quota-exceeded``
      *without* ``retry_after``: resubmitting the same oversized corpus
      can never succeed, so clients must not burn retries on it.
    * ``max_queued_jobs`` (submissions only) → ``quota-exceeded`` with a
      ``retry_after`` hint, because the queue drains.
    """
    if tenant.bucket is not None:
        retry_after = tenant.bucket.acquire()
        if retry_after is not None:
            raise RateLimited(
                f"tenant {tenant.tenant_id!r} exceeded its request rate "
                f"({tenant.quotas.requests_per_second:g}/s)",
                details={
                    "retry_after": round(retry_after, 3),
                    "tenant": tenant.tenant_id,
                },
            )
    if type(request) not in JOB_REQUESTS.values():
        return
    quotas = tenant.quotas
    if quotas.max_corpus_strings is not None:
        strings = getattr(request, "strings", ()) or ()
        if len(strings) > quotas.max_corpus_strings:
            raise QuotaExceeded(
                f"corpus of {len(strings)} string(s) exceeds tenant "
                f"{tenant.tenant_id!r}'s limit of {quotas.max_corpus_strings}",
                details={"tenant": tenant.tenant_id,
                         "max_corpus_strings": quotas.max_corpus_strings},
            )
    if quotas.max_queued_jobs is not None:
        live = tenant.live_job_count()
        if live >= quotas.max_queued_jobs:
            raise QuotaExceeded(
                f"tenant {tenant.tenant_id!r} already has {live} live job(s) "
                f"(limit {quotas.max_queued_jobs}); retry once the queue drains",
                details={
                    "retry_after": 1.0,
                    "tenant": tenant.tenant_id,
                    "max_queued_jobs": quotas.max_queued_jobs,
                    "live_jobs": live,
                },
            )


class TenantContext:
    """One tenant's complete server-side state.

    Everything :class:`~repro.service.server.AnalysisServer` keeps per
    tenant lives here: the tenant's :class:`StateNamespace` (job store,
    warm session with its matrix cache and pair store, model store), the
    job pool that runs the tenant's records, the warm scorer cache, the
    per-model serve counters, the in-flight coalescing map and
    result-waiter counts, and the tenant's rate-limit bucket.  Each tenant
    has its own pool of *max_job_workers* threads, so one tenant's backlog
    never queues another tenant's jobs.
    """

    def __init__(
        self,
        namespace: StateNamespace,
        quotas: Optional[TenantQuotas] = None,
        max_job_workers: int = 2,
    ) -> None:
        self.namespace = namespace
        self.tenant_id = namespace.tenant_id
        self.root = namespace.root
        self.store = namespace.store
        self.session = namespace.session
        self.model_store = namespace.model_store
        self.quotas = quotas if quotas is not None else TenantQuotas()
        #: Runs the tenant's job-store records (see ``AnalysisServer._start_record``).
        self.executor = ThreadPoolExecutor(
            max_workers=max_job_workers, thread_name_prefix=f"repro-jobs-{self.tenant_id}"
        )
        #: Ids of records queued on :attr:`executor` and not yet finished
        #: there — adoption skips them, so no record is scheduled twice.
        self.queued: Set[str] = set()
        #: Warm scorers keyed by model name (mtime-invalidated).
        self.scorers: Dict[str, Tuple[float, "StreamingScorer"]] = {}
        #: Per-model serve counters (requests, traces, warm traces, ...).
        self.model_metrics: Dict[str, Dict[str, float]] = {}
        #: In-flight coalescing: submission identity -> shared job id.
        self.inflight: Dict[str, str] = {}
        #: Waiter counts behind forget-once-collected semantics.
        self.result_waiters: Dict[str, int] = {}
        self.lock = threading.Lock()
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(self.quotas.requests_per_second, self.quotas.burst)
            if self.quotas.requests_per_second is not None
            else None
        )

    @property
    def is_default(self) -> bool:
        return self.tenant_id == DEFAULT_TENANT

    def live_job_count(self) -> int:
        """Queued + running records (the ``max_queued_jobs`` quota basis).

        Block tasks are excluded: they are internal shards of one already
        admitted job, not separately submitted work.
        """
        return sum(
            1
            for record in self.store.records()
            if record.status in ("queued", "running") and record.kind != "block"
        )

    def close(self) -> None:
        """Stop the job pool; jobs not yet started stay queued in the store."""
        self.executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"TenantContext(tenant_id={self.tenant_id!r}, root={self.root!r})"


class TenantRegistry:
    """Lazy, thread-safe map of tenant id → :class:`TenantContext` over a state dir.

    Every context wraps the namespace *state* opens for its tenant.  The
    default tenant's is built up front (open the root namespace first to
    give it a session of your own); every other tenant's on first use.
    """

    def __init__(
        self,
        state: StateDir,
        max_job_workers: int = 2,
        default_quotas: Optional[TenantQuotas] = None,
        quota_overrides: Optional[Mapping[str, TenantQuotas]] = None,
    ) -> None:
        self.state = state
        self._max_job_workers = max_job_workers
        self.default_quotas = default_quotas if default_quotas is not None else TenantQuotas()
        self._quota_overrides = dict(quota_overrides or {})
        self._contexts: Dict[str, TenantContext] = {}
        self._lock = threading.Lock()
        self.context(DEFAULT_TENANT)

    def context(self, tenant_id: str) -> TenantContext:
        """The (lazily created) context of *tenant_id*."""
        tenant_id = require_tenant_id(tenant_id)
        with self._lock:
            existing = self._contexts.get(tenant_id)
            if existing is not None:
                return existing
        # Build outside the registry lock (opening a namespace touches the
        # disk); racing builders are reconciled below.
        built = TenantContext(
            self.state.open(tenant_id),
            quotas=self._quota_overrides.get(tenant_id, self.default_quotas),
            max_job_workers=self._max_job_workers,
        )
        with self._lock:
            existing = self._contexts.get(tenant_id)
            if existing is not None:
                built.close()
                return existing
            self._contexts[tenant_id] = built
            return built

    def refresh(self) -> List[TenantContext]:
        """Every context, after building one for each namespace on disk.

        Picks up the namespaces a sibling process created since the last
        call, so their orphaned jobs can be adopted.
        """
        for namespace in self.state.namespaces():
            self.context(namespace.tenant_id)
        return self.contexts()

    def contexts(self) -> List[TenantContext]:
        """Every live context (default tenant first, then sorted by id)."""
        with self._lock:
            live = list(self._contexts.values())
        return sorted(live, key=lambda context: (not context.is_default, context.tenant_id))

    @property
    def multi_tenant(self) -> bool:
        """Whether any non-default namespace is live."""
        with self._lock:
            return any(tenant_id != DEFAULT_TENANT for tenant_id in self._contexts)

    def close(self) -> None:
        """Close every live context, the default tenant's included."""
        for context in self.contexts():
            context.close()
