"""repro.service — the networked kernel-analysis service.

The library's in-process facade is
:class:`~repro.api.session.AnalysisSession` (warm per-spec engines).  This
package is the long-running service around it: clients in other
processes — or on other hosts — share one warm session, and every job is a
job-store record that survives the server process.

* :mod:`repro.service.protocol` — the versioned JSON request/response
  messages (submit-matrix, submit-analyze, status, result, cancel, specs,
  health) with a typed error hierarchy and the corpus wire codec.  The same
  messages travel over HTTP and over stdio.
* :mod:`repro.service.jobstore` — the on-disk job store: one JSON record
  plus one payload file per job under a state directory, written via atomic
  renames, checksum-stamped, and guarded by per-record advisory *file
  locks*, so several processes (servers and workers) safely share one
  state dir.  Jobs are **leased** (``claim``/``renew_lease``/``release``);
  recovery requeues queued and expired-lease work instead of dead-ending
  it, and ``sweep`` garbage-collects terminal records past a TTL.
* :mod:`repro.service.server` — :class:`AnalysisServer`, a stdlib
  ``ThreadingHTTPServer`` front end owning a single session and a job
  store.  Matrix jobs may be **block-sharded**: the index range is split
  into symmetric blocks, each block-pair is one engine task, and the blocks
  merge through :meth:`~repro.core.engine.GramEngine.assemble_gram` into a
  matrix bit-identical to the monolithic computation.  With
  ``distributed=True`` the blocks become individually leasable records
  that pull-loop workers execute.
* :mod:`repro.service.worker` — :func:`run_claimed_job`, the one runner
  every claimed record goes through (in the server and in workers), and
  :class:`Worker`, the pull loop: claims block and fit-model tasks from a
  shared state dir under the store's cross-process locks and runs them
  with a warm session; a SIGKILLed worker's tasks are reclaimed when the
  lease expires.
* :mod:`repro.service.client` — :class:`ServiceClient`, mirroring the
  ``AnalysisSession`` surface (``matrix()/analyze()``) over an HTTP or
  stdio transport, plus the job handles (``submit()/status()/result()/
  cancel()``) the synchronous session does not have, with bearer-token
  auth and transient failure retries.
* :mod:`repro.service.router` — the :class:`Router` dispatch table from
  request type to handler.  :meth:`AnalysisServer.handle`, which every
  front end calls, counts and times each request, parses it,
  authenticates it, resolves its tenant, charges the tenant's quotas and
  then dispatches it through the router.
* :mod:`repro.service.auth` / :mod:`repro.service.tenancy` —
  :class:`Authenticator` (bearer token → tenant id) and the owner of the
  state-dir layout: one namespace per tenant (``<state-dir>/tenants/<id>/``)
  holding its job store, caches and models with zero cross-tenant sharing.

The CLI wires this up as ``repro-iokast serve``, ``repro-iokast worker``,
``repro-iokast remote`` and ``repro-iokast gc``.
"""

from repro.service.auth import Authenticator
from repro.service.client import (
    TOKEN_ENV_VAR,
    HTTPTransport,
    JobTimeout,
    ServiceClient,
    StdioTransport,
    TransportError,
)
from repro.service.jobstore import JobRecord, JobStore, LeaseError, RecoveryReport
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BadRequest,
    JobFailed,
    JobPending,
    ModelDamaged,
    ModelNotFound,
    QuotaExceeded,
    RateLimited,
    RequestTooLarge,
    ServiceError,
    Unauthorized,
    UnknownJob,
    decode_corpus,
    encode_corpus,
)
from repro.service.router import Router
from repro.service.server import AnalysisServer, serve_stdio
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantContext,
    TenantQuotas,
    TenantRegistry,
)
from repro.service.worker import Worker, execute_block_task, fit_model_payload, run_claimed_job

__all__ = [
    "DEFAULT_TENANT",
    "PROTOCOL_VERSION",
    "TOKEN_ENV_VAR",
    "AnalysisServer",
    "Authenticator",
    "BadRequest",
    "HTTPTransport",
    "JobFailed",
    "JobPending",
    "JobTimeout",
    "JobRecord",
    "JobStore",
    "LeaseError",
    "ModelDamaged",
    "ModelNotFound",
    "QuotaExceeded",
    "RateLimited",
    "RecoveryReport",
    "RequestTooLarge",
    "Router",
    "ServiceClient",
    "ServiceError",
    "StdioTransport",
    "TenantContext",
    "TenantQuotas",
    "TenantRegistry",
    "TransportError",
    "Unauthorized",
    "UnknownJob",
    "Worker",
    "decode_corpus",
    "encode_corpus",
    "execute_block_task",
    "fit_model_payload",
    "run_claimed_job",
    "serve_stdio",
]
