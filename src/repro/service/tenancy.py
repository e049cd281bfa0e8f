"""Per-tenant namespacing of the service's state and resource budgets.

One server process serves many tenants; each authenticated tenant resolves
to a :class:`TenantContext` — its own namespace under
``<state-dir>/tenants/<tenant>/`` holding a private
:class:`~repro.service.jobstore.JobStore`, a private
:class:`~repro.api.session.AnalysisSession` (with its own
:class:`~repro.core.cachestore.MatrixCache` and
:class:`~repro.core.pairstore.PairStore`), and a private
:class:`~repro.streaming.store.ModelStore`.  Nothing is shared across
namespaces: two tenants submitting the identical corpus each pay for (and
each keep) their own cache entries, pair values and models, so no tenant
can observe — or warm — another tenant's traffic.

The *default* tenant is special: its namespace is the state directory
itself, which is exactly the single-tenant layout every deployment before
tenancy used.  A server with auth disabled routes every request to the
default tenant, so existing state dirs, tests and tools keep working
unchanged.

:class:`TenantQuotas` bounds a tenant's resource use (request rate through
a :class:`TokenBucket`, queued jobs, corpus size); the quota middleware
turns an exhausted budget into the typed ``rate-limited`` /
``quota-exceeded`` wire errors.
"""

from __future__ import annotations

import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple, TYPE_CHECKING

from repro.service.protocol import BadRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server builds contexts)
    from repro.api.session import AnalysisSession
    from repro.service.jobstore import JobStore
    from repro.streaming.scorer import StreamingScorer
    from repro.streaming.store import ModelStore

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_ID_PATTERN",
    "TenantQuotas",
    "TokenBucket",
    "TenantContext",
    "TenantRegistry",
    "list_tenants",
    "valid_tenant_id",
]

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


def list_tenants(state_dir: str) -> List[str]:
    """Tenant ids with a namespace directory under *state_dir* (default excluded).

    Sorted, and read afresh on every call, so a namespace a sibling process
    created since the last call is listed too.
    """
    base = os.path.join(state_dir, TENANTS_DIRNAME)
    try:
        names = sorted(os.listdir(base))
    except OSError:
        return []
    return [
        name for name in names
        if valid_tenant_id(name) and os.path.isdir(os.path.join(base, name))
    ]


def require_tenant_id(value: Any) -> str:
    """Validate a tenant id (typed ``bad-request`` on junk)."""
    if not valid_tenant_id(value):
        raise BadRequest(f"tenant id must match {TENANT_ID_PATTERN}, got {value!r}")
    return str(value)


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


class TenantContext:
    """One tenant's complete server-side state.

    Everything :class:`~repro.service.server.AnalysisServer` keeps per
    tenant lives here: the job store, the warm session (which owns the
    tenant's matrix cache and pair store), the model store, the job pool
    that runs the tenant's records, the warm scorer cache, the per-model
    serve counters, the in-flight coalescing map and result-waiter counts,
    and the tenant's rate-limit bucket.  Each tenant has its own pool of
    *max_job_workers* threads, so one tenant's backlog never queues
    another tenant's jobs.
    """

    def __init__(
        self,
        tenant_id: str,
        root: str,
        store: "JobStore",
        session: "AnalysisSession",
        model_store: "ModelStore",
        quotas: Optional[TenantQuotas] = None,
        max_job_workers: int = 2,
    ) -> None:
        self.tenant_id = require_tenant_id(tenant_id)
        self.root = root
        self.store = store
        self.session = session
        self.model_store = model_store
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
    """Lazy, thread-safe map of tenant id → :class:`TenantContext`.

    The default tenant's context is supplied up front (it wraps the
    server's own session and state-dir-rooted stores); every other tenant
    is built on first use by the *factory* the server provides, rooted at
    ``<state-dir>/tenants/<tenant>/``.
    """

    def __init__(
        self,
        state_dir: str,
        default_context: TenantContext,
        factory: Callable[[str, str, Optional[TenantQuotas]], TenantContext],
        default_quotas: Optional[TenantQuotas] = None,
        quota_overrides: Optional[Mapping[str, TenantQuotas]] = None,
    ) -> None:
        self.state_dir = state_dir
        self.tenants_dir = os.path.join(state_dir, TENANTS_DIRNAME)
        self._factory = factory
        self.default_quotas = default_quotas if default_quotas is not None else TenantQuotas()
        self._quota_overrides = dict(quota_overrides or {})
        self._contexts: Dict[str, TenantContext] = {default_context.tenant_id: default_context}
        self._lock = threading.Lock()

    def quotas_for(self, tenant_id: str) -> TenantQuotas:
        return self._quota_overrides.get(tenant_id, self.default_quotas)

    def root_for(self, tenant_id: str) -> str:
        """The namespace directory of *tenant_id* (never created here)."""
        require_tenant_id(tenant_id)
        if tenant_id == DEFAULT_TENANT:
            return self.state_dir
        return os.path.join(self.tenants_dir, tenant_id)

    def context(self, tenant_id: str) -> TenantContext:
        """The (lazily created) context of *tenant_id*."""
        tenant_id = require_tenant_id(tenant_id)
        with self._lock:
            existing = self._contexts.get(tenant_id)
            if existing is not None:
                return existing
        # Build outside the registry lock (store recovery and session
        # construction touch the disk); racing builders are reconciled below.
        built = self._factory(tenant_id, self.root_for(tenant_id), self.quotas_for(tenant_id))
        with self._lock:
            existing = self._contexts.get(tenant_id)
            if existing is not None:
                built.close()
                return existing
            self._contexts[tenant_id] = built
            return built

    def peek(self, tenant_id: str) -> Optional[TenantContext]:
        """The live context of *tenant_id*, or ``None`` (never builds one)."""
        with self._lock:
            return self._contexts.get(tenant_id)

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
