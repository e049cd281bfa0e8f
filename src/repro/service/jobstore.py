"""Crash-safe, multi-process on-disk job store backing the analysis service.

Each job owns files under the service's state directory::

    state_dir/
        jobs/<job_id>.json        # small record: kind, status, input, options, lease, error
        payloads/<job_id>.json    # the stamped result payload (written once)
        locks/<job_id>.lock       # per-record advisory file lock
        quarantine/               # damaged files moved here, never trusted
        wake/<host>-<pid>-<id>.fifo  # one named pipe per waiting process

Every write goes through an atomic temp-file + ``os.replace`` dance, so a
crash leaves either the old file or the new file — never a torn one — and
result payloads are checksum-stamped into their record
(``payload_sha256``), so a payload that *was* torn (e.g. written by an
older, non-atomic tool, or truncated by a full disk) is detected on the
next start-up, moved to ``quarantine/`` and reported instead of served.

Cross-process safety
--------------------
Several processes — servers and pull-loop workers — may share one state
directory.  Every read-modify-write (``update``, ``mutate``, ``claim``,
``store_result``, ``forget``, recovery, the sweep) runs under a
*per-record advisory file lock* (``flock`` on ``locks/<job_id>.lock``,
with an ``O_EXCL`` sidecar fallback on platforms without ``fcntl``), so
two stores interleaving a read → replace → write on the same record can
never drop each other's changes.  ``flock`` locks die with their holder,
so a SIGKILLed process never wedges the store.

Job leasing
-----------
Work is distributed by *pull*: an executor calls :meth:`JobStore.claim`
with its ``worker_id`` and a lease duration; the store atomically moves
the oldest claimable record to ``running`` stamped with the worker id and
``lease_expires_at``.  The owner extends the lease with
:meth:`renew_lease` while computing and either stores a result or gives
the job back to the queue with :meth:`release`.  A job whose lease expired
(its worker was killed or lost) is claimable again — by :meth:`claim`,
:meth:`requeue_expired`, or the next start-up recovery — so a dead worker
only ever *delays* a job, never loses it.

State machine (also enforced by :meth:`JobRecord.__post_init__` /
:meth:`update`)::

    queued ──claim──▶ running ──store_result──▶ done
      ▲                  │  │
      │   release /      │  └─mark_error──▶ error
      └── lease expiry ──┘
    queued ──cancel──▶ cancelled
    running (no lease, owner process died) ──recovery──▶ interrupted

``interrupted`` is terminal and reserved for *non-resumable* in-flight
work: a ``running`` record with no lease stamp belonged to an in-process
job whose callable died with its server.  Queued jobs and expired leases
are requeued by recovery instead — rerunning work that never completed is
always safe because results are written atomically and exactly once.

Wake-ups
--------
A process waiting for the store to change — a worker with a dry queue, a
coordinator waiting on leased blocks, a server waiting on a record another
process owns — registers one named pipe under ``wake/`` through a
:class:`Doorbell` and sleeps on it.  A state dir has one ``wake/``: tenant
namespaces ring their state dir's (``wake_dir`` is pointed there), so one
pipe per process hears every namespace.  Every record write that makes a job
claimable (``queued``) or finished (a terminal status) *rings* the store:
one non-blocking byte into every pipe of this host in ``wake/``
(:meth:`JobStore.ring`).  Claims and lease renewals do not ring; nobody
waits for them.  A pipe whose reader is gone is removed by the next ring.
Pipes are named after their host, and a ring skips other hosts' pipes: a
named pipe only connects processes on one host, so on a state dir shared
across hosts another host's pipe would look dead.  The bell only shortens
waits: every waiter still re-reads the store after its own fallback
interval, so a state dir shared across hosts (where a ring cannot cross)
or a platform without ``mkfifo`` stays correct, only slower.

Garbage collection
------------------
:meth:`sweep` removes terminal records (and their payloads and lock
files) older than a TTL, so long-lived state directories stop growing
without bound; the server's maintenance loop and the ``repro-iokast gc``
command both call it.

The store is transport- and session-agnostic: it never imports the server
or the protocol, so it can be reused by other front ends (and tested in
isolation).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import select
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.atomicio import write_text_atomic

try:  # pragma: no cover - fcntl exists everywhere the tests run
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JOB_STATUSES",
    "Doorbell",
    "JobRecord",
    "JobStore",
    "JobStoreError",
    "LeaseError",
    "RecoveryReport",
]

#: Every status a stored job can be in.  See the module docstring for the
#: full state machine; ``interrupted`` is stamped by recovery for
#: non-resumable in-flight work only.
JOB_STATUSES = ("queued", "running", "done", "error", "cancelled", "interrupted")

#: Statuses a job can never leave.
TERMINAL_STATUSES = frozenset({"done", "error", "cancelled", "interrupted"})

#: Age after which an ``O_EXCL`` sidecar lock (fallback path only) is
#: presumed orphaned by a dead process and broken.
_SIDECAR_STALE_SECONDS = 60.0

#: Name prefix and suffix of this host's wake-up pipes under ``wake/``
#: (``<host>-<pid>-<id>.fifo``); a leading dot marks a pipe still being
#: registered, which ringers skip.
_WAKE_PREFIX = f"{socket.gethostname()}-"
_WAKE_SUFFIX = ".fifo"


def _is_local_pipe(name: str) -> bool:
    """Whether *name* is the wake-up pipe of a process on this host.

    The rest of the name must be exactly ``<pid>-<id>``, so host ``a``
    never claims host ``a-b``'s pipes.
    """
    if not (name.startswith(_WAKE_PREFIX) and name.endswith(_WAKE_SUFFIX)):
        return False
    return name[len(_WAKE_PREFIX) : -len(_WAKE_SUFFIX)].count("-") == 1


class JobStoreError(RuntimeError):
    """Raised for invalid store operations or damaged stored state."""


class LeaseError(JobStoreError):
    """Raised when a lease operation loses to another owner (renew/release)."""


def _payload_checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobRecord:
    """One job's durable metadata (everything except the result payload).

    ``input`` is the job's work description — for the service's job kinds,
    the validated wire request that submitted it — and ``options`` its run
    metadata (tenant, trace, and what the run reported back).
    """

    job_id: str
    kind: str
    status: str = "queued"
    options: Dict[str, Any] = field(default_factory=dict)
    input: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    payload_sha256: Optional[str] = None
    worker_id: Optional[str] = None
    lease_expires_at: Optional[float] = None
    attempts: int = 0
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise JobStoreError("job_id must be non-empty")
        if self.status not in JOB_STATUSES:
            raise JobStoreError(f"unknown job status {self.status!r}; expected one of {JOB_STATUSES}")

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal status."""
        return self.status in TERMINAL_STATUSES

    def lease_expired(self, now: Optional[float] = None) -> bool:
        """Whether this is a leased ``running`` job whose lease has lapsed."""
        return (
            self.status == "running"
            and self.lease_expires_at is not None
            and self.lease_expires_at <= (time.time() if now is None else now)
        )

    def claimable(self, now: Optional[float] = None) -> bool:
        """Whether :meth:`JobStore.claim` may hand this record to a worker.

        ``queued`` records and ``running`` records with an expired lease
        are claimable; a ``running`` record *without* a lease belongs to an
        in-process job and is never reassigned.
        """
        return self.status == "queued" or self.lease_expired(now)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "options": dict(self.options),
            "input": self.input,
            "error": self.error,
            "payload_sha256": self.payload_sha256,
            "worker_id": self.worker_id,
            "lease_expires_at": self.lease_expires_at,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRecord":
        if not isinstance(payload, Mapping):
            raise JobStoreError(f"job record must be a mapping, got {type(payload).__name__}")
        # "spec" is accepted and dropped: older records carried a copy of
        # their input's spec there.
        unknown = set(payload) - {
            "job_id", "kind", "status", "spec", "options", "input", "error",
            "payload_sha256", "worker_id", "lease_expires_at", "attempts",
            "created_at", "updated_at",
        }
        if unknown:
            raise JobStoreError(f"job record has unknown keys {sorted(unknown)}")
        options = payload.get("options", {})
        if not isinstance(options, Mapping):
            raise JobStoreError("job record 'options' must be an object")
        stored_input = payload.get("input")
        if stored_input is not None and not isinstance(stored_input, Mapping):
            raise JobStoreError("job record 'input' must be an object or null")
        lease = payload.get("lease_expires_at")
        try:
            return cls(
                job_id=str(payload.get("job_id", "")),
                kind=str(payload.get("kind", "job")),
                status=str(payload.get("status", "queued")),
                options=dict(options),
                input=dict(stored_input) if stored_input is not None else None,
                error=str(payload["error"]) if payload.get("error") is not None else None,
                payload_sha256=(
                    str(payload["payload_sha256"]) if payload.get("payload_sha256") is not None else None
                ),
                worker_id=str(payload["worker_id"]) if payload.get("worker_id") is not None else None,
                lease_expires_at=float(lease) if lease is not None else None,
                attempts=int(payload.get("attempts", 0)),
                created_at=float(payload.get("created_at", 0.0)),
                updated_at=float(payload.get("updated_at", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            # e.g. a non-numeric timestamp: the record is damaged, and the
            # recovery contract requires quarantine, not a start-up crash.
            raise JobStoreError(f"job record has malformed fields: {exc}") from exc


@dataclass(frozen=True)
class RecoveryReport:
    """What start-up recovery found and did.

    ``requeued`` are queued / expired-lease jobs put back on the queue;
    ``interrupted`` are non-resumable in-flight jobs (running, no lease)
    dead-ended because their callable died with its process.
    """

    quarantined: Tuple[Tuple[str, str], ...] = ()
    interrupted: Tuple[str, ...] = ()
    requeued: Tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"recovered state dir: {len(self.quarantined)} file(s) quarantined, "
            f"{len(self.requeued)} job(s) requeued, "
            f"{len(self.interrupted)} job(s) interrupted"
        )


class JobStore:
    """Directory-backed store of job records and result payloads.

    Parameters
    ----------
    root:
        The state directory (created if missing).
    recover:
        Whether to run the start-up recovery pass (quarantine damage,
        requeue abandoned work).  Servers recover; pull-loop *workers*
        joining a live state dir must pass ``False`` — recovery is the
        owner's job, and a worker must not requeue records the serving
        process is legitimately running.
    """

    def __init__(self, root: str, recover: bool = True) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.payloads_dir = os.path.join(self.root, "payloads")
        self.locks_dir = os.path.join(self.root, "locks")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        #: Named pipes of the processes waiting on this store (see
        #: :class:`Doorbell`); created by the first waiter.  A tenant
        #: namespace's store is pointed at its state dir's.
        self.wake_dir = os.path.join(self.root, "wake")
        for directory in (self.jobs_dir, self.payloads_dir, self.locks_dir, self.quarantine_dir):
            os.makedirs(directory, exist_ok=True)
        # Process-local lifecycle counters (created/claims/releases/...);
        # see :meth:`counters`.  Initialised before recovery so the recovery
        # pass's own mutations count too.
        self._counts_lock = threading.Lock()
        self._counts: Dict[str, int] = {
            "created": 0,
            "claims": 0,
            "releases": 0,
            "lease_requeues": 0,
            "results": 0,
            "errors": 0,
            "forgotten": 0,
            "swept": 0,
        }
        #: Report of the recovery pass run over pre-existing state.
        self.recovery = self.recover() if recover else RecoveryReport()

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counts_lock:
            self._counts[key] = self._counts.get(key, 0) + amount

    def counters(self) -> Dict[str, int]:
        """This process's lifecycle counters (cheap — no disk access).

        Counts cover only operations performed *through this store object*;
        sibling processes sharing the state dir keep their own counts and
        the metrics layer merges them per origin.
        """
        with self._counts_lock:
            return dict(self._counts)

    # ------------------------------------------------------------------
    # Paths and locking
    # ------------------------------------------------------------------
    def _record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _payload_path(self, job_id: str) -> str:
        return os.path.join(self.payloads_dir, f"{job_id}.json")

    def _lock_path(self, job_id: str) -> str:
        return os.path.join(self.locks_dir, f"{job_id}.lock")

    @contextlib.contextmanager
    def _record_lock(self, job_id: str) -> Iterator[None]:
        """Exclusive advisory lock serialising read-modify-writes on one record.

        Guards *every* mutation path (update/mutate/claim/store_result/
        forget/recovery/sweep) against concurrent stores in other threads
        *and other processes* sharing the state dir.  ``flock`` treats
        descriptors from separate ``open`` calls independently, so two
        threads of one process exclude each other exactly like two
        processes do, and the lock evaporates when its holder dies.
        """
        path = self._lock_path(job_id)
        if fcntl is not None:
            descriptor = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
                yield
            finally:
                try:
                    fcntl.flock(descriptor, fcntl.LOCK_UN)
                finally:
                    os.close(descriptor)
            return
        # O_EXCL sidecar fallback: spin until we create the sidecar, breaking
        # locks whose holder died (their mtime stops advancing).
        sidecar = f"{path}.excl"  # pragma: no cover - exercised on non-POSIX only
        while True:  # pragma: no cover
            try:
                descriptor = os.open(sidecar, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                os.close(descriptor)
                break
            except FileExistsError:
                try:
                    if time.time() - os.path.getmtime(sidecar) > _SIDECAR_STALE_SECONDS:
                        os.remove(sidecar)
                        continue
                except OSError:
                    pass
                time.sleep(0.002)
        try:  # pragma: no cover
            yield
        finally:  # pragma: no cover
            with contextlib.suppress(OSError):
                os.remove(sidecar)

    def _quarantine(self, path: str, reason: str) -> Optional[Tuple[str, str]]:
        """Move *path* into the quarantine directory (collision-safe)."""
        if not os.path.exists(path):
            return None
        name = os.path.basename(path)
        target = os.path.join(self.quarantine_dir, name)
        counter = 0
        while os.path.exists(target):
            counter += 1
            target = os.path.join(self.quarantine_dir, f"{name}.{counter}")
        os.replace(path, target)
        return (name, reason)

    # ------------------------------------------------------------------
    # Record lifecycle
    # ------------------------------------------------------------------
    def new_job_id(self, kind: str) -> str:
        """A collision-free job id, unique across server restarts."""
        return f"{kind}-{uuid.uuid4().hex[:12]}"

    def create(
        self,
        kind: str,
        options: Optional[Mapping[str, Any]] = None,
        job_id: Optional[str] = None,
        input: Optional[Mapping[str, Any]] = None,
    ) -> JobRecord:
        """Persist a new ``queued`` record and return it.

        *input* is the job's JSON-representable work description (the
        service stores the submitting request there).  A record carrying
        its input is *resumable*: recovery requeues it and any process
        sharing the state dir can claim and execute it.
        """
        now = time.time()
        record = JobRecord(
            job_id=job_id or self.new_job_id(kind),
            kind=kind,
            status="queued",
            options=dict(options or {}),
            input=dict(input) if input is not None else None,
            created_at=now,
            updated_at=now,
        )
        with self._record_lock(record.job_id):
            if os.path.exists(self._record_path(record.job_id)):
                raise JobStoreError(f"job {record.job_id!r} already exists")
            self._write_record(record)
        self._count("created")
        return record

    def _write_record(self, record: JobRecord) -> None:
        write_text_atomic(
            self._record_path(record.job_id),
            json.dumps(record.to_dict(), indent=2, sort_keys=True),
        )
        if record.status != "running":
            # Claimable or finished: someone may be waiting for exactly this.
            self.ring()

    def ring(self) -> None:
        """Wake every process on this host waiting on this store; never raises.

        Writes one byte, without blocking, into each of this host's named
        pipes under ``wake/``.  A pipe nobody reads any more (``ENXIO``: its
        waiter died without unregistering) is removed; a full pipe
        (``EAGAIN``) was already rung and is left alone.  Other hosts'
        pipes are never opened: no reader of theirs is visible here.
        """
        try:
            names = os.listdir(self.wake_dir)
        except OSError:
            return
        for name in names:
            if not _is_local_pipe(name):
                continue
            path = os.path.join(self.wake_dir, name)
            try:
                descriptor = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                if exc.errno == errno.ENXIO:
                    with contextlib.suppress(OSError):
                        os.remove(path)
                continue
            try:
                os.write(descriptor, b"\0")
            except OSError:
                pass  # EAGAIN: already rung; EPIPE: the reader just left
            finally:
                os.close(descriptor)

    def get(self, job_id: str) -> JobRecord:
        """The stored record for *job_id* (:class:`KeyError` when absent)."""
        path = self._record_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise KeyError(f"unknown job id {job_id!r}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise JobStoreError(f"job record {job_id!r} is unreadable: {exc}") from exc
        return JobRecord.from_dict(payload)

    def mutate(self, job_id: str, mutator: Callable[[JobRecord], Mapping[str, Any]]) -> JobRecord:
        """Apply *mutator* (record → field changes) atomically under the lock.

        The record is read, the mutator computes the changes *while the
        per-record file lock is held*, and the result is written back —
        the one safe shape for read-modify-write against a shared state
        dir.  An empty change set writes nothing.  Terminal statuses are
        final: a status change away from one raises.
        """
        with self._record_lock(job_id):
            record = self.get(job_id)
            changes = dict(mutator(record))
            if not changes:
                return record
            if record.finished and changes.get("status") not in (None, record.status):
                raise JobStoreError(
                    f"job {job_id!r} is {record.status} and cannot move to {changes['status']!r}"
                )
            record = replace(record, **{"updated_at": time.time(), **changes})
            self._write_record(record)
        return record

    def update(self, job_id: str, **changes: Any) -> JobRecord:
        """Apply field changes to a record (terminal statuses are final)."""
        return self.mutate(job_id, lambda record: changes)

    def mark_running(self, job_id: str) -> JobRecord:
        return self.update(job_id, status="running")

    def mark_error(self, job_id: str, error: str) -> JobRecord:
        record = self.update(
            job_id, status="error", error=str(error), worker_id=None, lease_expires_at=None
        )
        self._count("errors")
        return record

    def mark_cancelled(self, job_id: str) -> JobRecord:
        return self.update(job_id, status="cancelled", worker_id=None, lease_expires_at=None)

    def records(self, kind: Optional[str] = None) -> List[JobRecord]:
        """Every stored record (optionally of one *kind*), oldest first."""
        records: List[JobRecord] = []
        for name in os.listdir(self.jobs_dir):
            if name.endswith(".json"):
                try:
                    record = self.get(name[: -len(".json")])
                except (KeyError, JobStoreError):
                    continue
                if kind is None or record.kind == kind:
                    records.append(record)
        return sorted(records, key=lambda record: (record.created_at, record.job_id))

    def forget(self, job_id: str) -> bool:
        """Drop a finished job's record and payload; returns whether dropped."""
        with self._record_lock(job_id):
            try:
                record = self.get(job_id)
            except KeyError:
                return False
            if not record.finished:
                return False
            for path in (self._payload_path(job_id), self._record_path(job_id)):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        with contextlib.suppress(OSError):
            os.remove(self._lock_path(job_id))
        self._count("forgotten")
        return True

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def claim_job(self, job_id: str, worker_id: str, lease_seconds: float) -> Optional[JobRecord]:
        """Atomically claim one specific job; ``None`` when not claimable.

        Claimable means ``queued`` or ``running`` with an expired lease
        (see :meth:`JobRecord.claimable`).  On success the record is
        ``running``, owned by *worker_id*, with ``lease_expires_at`` set
        ``lease_seconds`` in the future and ``attempts`` incremented.
        """
        if not worker_id:
            raise JobStoreError("worker_id must be non-empty")
        if lease_seconds <= 0:
            raise JobStoreError(f"lease_seconds must be > 0, got {lease_seconds}")
        with self._record_lock(job_id):
            try:
                record = self.get(job_id)
            except (KeyError, JobStoreError):
                return None
            now = time.time()
            if not record.claimable(now):
                return None
            record = replace(
                record,
                status="running",
                worker_id=str(worker_id),
                lease_expires_at=now + float(lease_seconds),
                attempts=record.attempts + 1,
                error=None,
                updated_at=now,
            )
            self._write_record(record)
        self._count("claims")
        return record

    def claim(
        self,
        worker_id: str,
        lease_seconds: float,
        kinds: Optional[Sequence[str]] = None,
    ) -> Optional[JobRecord]:
        """Claim the oldest claimable job, or ``None`` when the queue is dry.

        *kinds* restricts the scan to those record kinds (e.g. a block
        worker claims only ``("block",)``).  Candidates are screened
        without the lock and re-verified under it, so racing claimants
        (threads or processes) each walk away with distinct jobs.
        """
        wanted = set(kinds) if kinds is not None else None
        now = time.time()
        for record in self.records():
            if wanted is not None and record.kind not in wanted:
                continue
            if not record.claimable(now):
                continue
            claimed = self.claim_job(record.job_id, worker_id, lease_seconds)
            if claimed is not None:
                return claimed
        return None

    def renew_lease(self, job_id: str, worker_id: str, lease_seconds: float) -> JobRecord:
        """Extend the caller's lease; :class:`LeaseError` if it lost the job.

        Only the ``running`` record's current owner may renew — a worker
        whose lease already expired *and was reclaimed* learns it here and
        must abandon the work (the reclaiming owner's result wins).
        """

        def extend(record: JobRecord) -> Dict[str, Any]:
            if record.status != "running" or record.worker_id != worker_id:
                raise LeaseError(
                    f"job {job_id!r} is no longer leased to {worker_id!r} "
                    f"(status {record.status!r}, owner {record.worker_id!r})"
                )
            return {"lease_expires_at": time.time() + float(lease_seconds)}

        try:
            return self.mutate(job_id, extend)
        except KeyError:
            raise LeaseError(f"job {job_id!r} vanished while leased to {worker_id!r}") from None

    def release(self, job_id: str, worker_id: str) -> JobRecord:
        """Give the caller's claimed job back to the queue (graceful retry).

        The record returns to ``queued`` with the worker and lease fields
        cleared; ``attempts`` is kept, so executors can cap retries.
        Raises :class:`LeaseError` when the caller no longer owns the job.
        """

        def requeue(record: JobRecord) -> Dict[str, Any]:
            if record.status != "running" or record.worker_id != worker_id:
                raise LeaseError(
                    f"job {job_id!r} is not leased to {worker_id!r} "
                    f"(status {record.status!r}, owner {record.worker_id!r})"
                )
            return {"status": "queued", "worker_id": None, "lease_expires_at": None}

        try:
            record = self.mutate(job_id, requeue)
        except KeyError:
            raise LeaseError(f"job {job_id!r} vanished while leased to {worker_id!r}") from None
        self._count("releases")
        return record

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Requeue every ``running`` job whose lease has expired.

        The complement of :meth:`claim`'s opportunistic reclaim: a
        maintenance loop calls this so abandoned work becomes visible as
        ``queued`` even when no claimant is scanning.  Returns the
        requeued job ids.
        """
        moment = time.time() if now is None else now
        requeued: List[str] = []
        for record in self.records():
            if not record.lease_expired(moment):
                continue

            def requeue(current: JobRecord) -> Dict[str, Any]:
                if not current.lease_expired(moment):
                    return {}
                return {"status": "queued", "worker_id": None, "lease_expires_at": None}

            try:
                fresh = self.mutate(record.job_id, requeue)
            except (KeyError, JobStoreError):
                continue
            if fresh.status == "queued" and fresh.worker_id is None:
                requeued.append(record.job_id)
        if requeued:
            self._count("lease_requeues", len(requeued))
        return requeued

    # ------------------------------------------------------------------
    # Result payloads
    # ------------------------------------------------------------------
    def store_result(
        self,
        job_id: str,
        payload: Mapping[str, Any],
        worker_id: Optional[str] = None,
        cache: Optional[str] = None,
    ) -> JobRecord:
        """Persist a job's result payload and flip the record to ``done``.

        The payload file lands first (atomically), then the record is
        updated with the payload checksum and the ``done`` status — so a
        crash between the two writes leaves a ``running`` record recovery
        will requeue (leased) or mark interrupted (in-process), never a
        ``done`` record without its payload.  A *cache* outcome lands in
        the record's ``options["cache"]`` in that same record write.

        When *worker_id* is given, the write is refused with
        :class:`LeaseError` if the record is ``running`` under a
        *different* owner — the enforcement of "the reclaiming owner's
        result wins": a zombie whose lease was reclaimed cannot mark the
        job done out from under the current executor.
        """

        def verify_owner(record: JobRecord) -> None:
            if (
                worker_id is not None
                and record.status == "running"
                and record.worker_id is not None
                and record.worker_id != worker_id
            ):
                raise LeaseError(
                    f"job {job_id!r} is no longer leased to {worker_id!r} "
                    f"(owner {record.worker_id!r}); its result wins"
                )

        verify_owner(self.get(job_id))  # refuse before writing the payload file
        text = json.dumps(dict(payload), sort_keys=True)
        write_text_atomic(self._payload_path(job_id), text)

        def finish(record: JobRecord) -> Dict[str, Any]:
            verify_owner(record)
            changes: Dict[str, Any] = {
                "status": "done",
                "payload_sha256": _payload_checksum(text),
                "error": None,
                "lease_expires_at": None,
            }
            if cache is not None:
                changes["options"] = {**record.options, "cache": cache}
            return changes

        record = self.mutate(job_id, finish)
        self._count("results")
        return record

    def load_result(self, job_id: str) -> Dict[str, Any]:
        """Load (and checksum-verify) the stored result of a ``done`` job."""
        record = self.get(job_id)
        if record.status != "done":
            raise JobStoreError(f"job {job_id!r} is {record.status}, not done; no result to load")
        payload, damage = self._read_payload(record)
        if damage is not None:
            self._quarantine(self._payload_path(job_id), damage)
            self.mark_damaged(job_id, f"result payload unusable: {damage}")
            raise JobStoreError(f"result payload of job {job_id!r} was quarantined: {damage}")
        return payload

    def _read_payload(self, record: JobRecord) -> Tuple[Dict[str, Any], Optional[str]]:
        """A ``done`` record's payload, and why it is unusable (``None`` when fine).

        The one check of a stored payload, for :meth:`load_result` and
        recovery alike: the file must exist, match the record's checksum
        and hold one JSON object.
        """
        try:
            with open(self._payload_path(record.job_id), "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return {}, "done record has no payload file"
        except OSError as exc:  # pragma: no cover - exotic I/O failure
            return {}, f"payload unreadable: {exc}"
        if record.payload_sha256 is not None and _payload_checksum(text) != record.payload_sha256:
            return {}, "payload checksum mismatch (half-written file?)"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return {}, f"payload is not valid JSON: {exc}"
        if not isinstance(payload, dict):
            return {}, "payload is not a JSON object"
        return payload, None

    def mark_damaged(self, job_id: str, error: str) -> JobRecord:
        """Force a record to ``error`` after its payload proved unusable."""
        with self._record_lock(job_id):
            record = self.get(job_id)
            record = replace(
                record,
                status="error",
                error=str(error),
                payload_sha256=None,
                worker_id=None,
                lease_expires_at=None,
                updated_at=time.time(),
            )
            self._write_record(record)
        return record

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Scan the state dir: quarantine damage, requeue abandoned work.

        * unparseable records are quarantined (with their payloads);
        * ``done`` records without a verifiable payload flip to ``error``;
        * ``queued`` jobs and ``running`` jobs with an *expired* lease are
          requeued — work that never completed is always safe to rerun;
        * ``running`` jobs with a *live* lease are left untouched (another
          process legitimately owns them);
        * ``running`` jobs with *no* lease are marked ``interrupted`` —
          their callable lived in a process that is gone, and nothing on
          disk can resume it;
        * payload files without a record are quarantined.  Temporary
          payload files are left alone: one may belong to a live write in
          another process, and the namespace sweep ages out the dead
          writers' ones (``remove_stale_temp_files``).
        """
        quarantined: List[Tuple[str, str]] = []
        interrupted: List[str] = []
        requeued: List[str] = []
        known_ids = set()
        now = time.time()
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            job_id = name[: -len(".json")]
            record_path = self._record_path(job_id)
            try:
                record = self.get(job_id)
            except (JobStoreError, KeyError) as exc:
                moved = self._quarantine(record_path, f"unreadable record: {exc}")
                if moved:
                    quarantined.append(moved)
                moved = self._quarantine(self._payload_path(job_id), "payload of unreadable record")
                if moved:
                    quarantined.append(moved)
                continue
            known_ids.add(job_id)
            if record.status == "done":
                _, damage = self._read_payload(record)
                if damage is not None:
                    moved = self._quarantine(self._payload_path(job_id), damage)
                    if moved:
                        quarantined.append(moved)
                    self.mark_damaged(job_id, f"recovery: {damage}")
            elif record.status == "queued" or record.lease_expired(now):
                try:
                    fresh = self.mutate(
                        job_id,
                        lambda current: (
                            {"status": "queued", "worker_id": None, "lease_expires_at": None}
                            if current.claimable(now)
                            else {}
                        ),
                    )
                except (KeyError, JobStoreError):  # pragma: no cover - racing process
                    continue
                # Report only what actually ended up queued — a racing
                # claimant may have legitimately taken the job in between.
                if fresh.status == "queued" and fresh.worker_id is None:
                    requeued.append(job_id)
            elif record.status == "running" and record.lease_expires_at is None:
                try:
                    self.update(
                        job_id,
                        status="interrupted",
                        error="interrupted by server restart before completion",
                    )
                except (KeyError, JobStoreError):  # pragma: no cover - racing process
                    continue
                interrupted.append(job_id)
        for name in sorted(os.listdir(self.payloads_dir)):
            if not name.endswith(".json"):
                continue
            if name[: -len(".json")] not in known_ids:
                moved = self._quarantine(os.path.join(self.payloads_dir, name), "payload without a record")
                if moved:
                    quarantined.append(moved)
        return RecoveryReport(
            quarantined=tuple(quarantined),
            interrupted=tuple(interrupted),
            requeued=tuple(requeued),
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def sweep(self, ttl_seconds: float, now: Optional[float] = None, dry_run: bool = False) -> List[str]:
        """Drop terminal jobs idle for longer than *ttl_seconds*.

        A record whose terminal status was reached (``updated_at``) at
        least *ttl_seconds* ago is removed together with its payload and
        lock file; queued/running jobs are never touched.  Returns the
        swept job ids (with ``dry_run=True``: what *would* be swept,
        without removing anything).  The server's maintenance loop and the
        ``repro-iokast gc`` command are the two callers.
        """
        if ttl_seconds < 0:
            raise JobStoreError(f"ttl_seconds must be >= 0, got {ttl_seconds}")
        moment = time.time() if now is None else now
        swept: List[str] = []
        for record in self.records():
            if not record.finished or moment - record.updated_at < ttl_seconds:
                continue
            parent_id = record.options.get("parent")
            if parent_id is not None:
                # A finished block task is input to its parent's assembly:
                # it only becomes garbage once the parent itself is done
                # (or gone).  Sweeping it earlier would destroy completed
                # work out from under a live coordinator.
                try:
                    if not self.get(str(parent_id)).finished:
                        continue
                except KeyError:
                    pass  # parent already forgotten/swept: the block is garbage
                except JobStoreError:
                    continue  # unreadable parent: leave the block for recovery
            if dry_run:
                swept.append(record.job_id)
                continue

            def expired(current: JobRecord) -> bool:
                return current.finished and moment - current.updated_at >= ttl_seconds

            with self._record_lock(record.job_id):
                try:
                    current = self.get(record.job_id)
                except (KeyError, JobStoreError):
                    continue
                if not expired(current):
                    continue
                for path in (self._payload_path(record.job_id), self._record_path(record.job_id)):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(path)
            with contextlib.suppress(OSError):
                os.remove(self._lock_path(record.job_id))
            swept.append(record.job_id)
        if swept and not dry_run:
            self._count("swept", len(swept))
        return swept

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"JobStore(root={self.root!r}, jobs={len(self.records())})"


def _register_pipe(wake_dir: str) -> Tuple[int, int, str]:
    """Create and open one wake-up pipe under *wake_dir*.

    Returns ``(reader, keep_alive, path)``.  The pipe is created and
    opened under a dot-prefixed staging name that ringers skip, and only
    renamed into place once its reader is open — so a ringer can never
    mistake it for a dead waiter's pipe and remove it.  The process holds
    a writer of its own (*keep_alive*) so the reader never sees end of
    file, and so :meth:`Doorbell.ring_self` has something to write to.
    """
    os.makedirs(wake_dir, exist_ok=True)
    name = f"{_WAKE_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}{_WAKE_SUFFIX}"
    staging = os.path.join(wake_dir, f".{name}")
    os.mkfifo(staging, 0o600)
    descriptors: List[int] = []
    try:
        descriptors.append(os.open(staging, os.O_RDONLY | os.O_NONBLOCK))
        descriptors.append(os.open(staging, os.O_WRONLY | os.O_NONBLOCK))
        path = os.path.join(wake_dir, name)
        os.replace(staging, path)
    except OSError:
        for descriptor in descriptors:
            os.close(descriptor)
        with contextlib.suppress(OSError):
            os.remove(staging)
        raise
    return descriptors[0], descriptors[1], path


class Doorbell:
    """One process's wake-up on job-store change, shared by its threads.

    :meth:`watch` registers one named pipe in a state dir's ``wake/``
    directory; a listener thread sleeps on it and bumps :attr:`generation`
    whenever it is rung.  A waiting thread reads :attr:`generation`
    *before* it looks at the store, and then calls :meth:`wait` with that
    value — a ring that lands between the look and the wait is never
    lost.  :meth:`watch` returns ``True`` when it has only just
    registered the pipe: rings before that were not heard, so the caller
    looks again before its first wait::

        while True:
            seen = bell.generation
            if something_to_do(store):
                ...
            elif not bell.watch(store):
                bell.wait(seen, fallback_seconds)

    *fallback_seconds* bounds every wait, so a ring that never arrives (a
    writer on another host, a platform without ``mkfifo``, a pipe that
    could not be created) costs at most that long, never correctness.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._generation = 0
        self._closed = False
        # (reader, keep_alive, path) of the registered pipe; keep_alive is
        # also what ring_self() writes to.
        self._pipe: Optional[Tuple[int, int, str]] = None
        self._listener: Optional[threading.Thread] = None

    @property
    def generation(self) -> int:
        """Rings seen so far; compare against it in :meth:`wait`."""
        with self._cond:
            return self._generation

    def watch(self, store: "JobStore") -> bool:
        """Wake this process on every ring of *store*'s state dir.

        Registers the pipe on the first call and returns ``True`` then;
        every later call (and a call that cannot register one) returns
        ``False``.
        """
        with self._cond:
            if self._closed or self._pipe is not None or not hasattr(os, "mkfifo"):
                return False
            try:
                self._pipe = _register_pipe(store.wake_dir)
            except OSError:
                return False  # no pipe: waits fall back to polling
            self._listener = threading.Thread(
                target=self._listen, args=(self._pipe[0],), name="repro-doorbell", daemon=True
            )
            self._listener.start()
            return True

    def wait(self, seen: int, timeout: float) -> bool:
        """Sleep until a ring after *seen*, at most *timeout* seconds.

        Returns whether a ring arrived.  A closed doorbell never sleeps.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._generation != seen or self._closed, max(0.0, timeout)
            )

    def ring_self(self) -> None:
        """Wake every thread of this process waiting on this doorbell.

        Only writes a byte into the process's own pipe, so it is safe from
        a signal handler; without a pipe it notifies directly.
        """
        pipe = self._pipe
        if pipe is not None:
            with contextlib.suppress(OSError):
                os.write(pipe[1], b"\0")
            return
        with self._cond:
            self._generation += 1
            self._cond.notify_all()

    def _listen(self, reader: int) -> None:
        while True:
            select.select([reader], [], [])
            with contextlib.suppress(OSError):
                while os.read(reader, 4096):
                    pass
            with self._cond:
                if self._closed:
                    return
                self._generation += 1
                self._cond.notify_all()

    def close(self) -> None:
        """Unregister the pipe and stop the listener (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            pipe, self._pipe = self._pipe, None
        if pipe is None:
            return
        reader, keep_alive, path = pipe
        with contextlib.suppress(OSError):
            os.write(keep_alive, b"\0")  # wake the listener so it sees the close
        if self._listener is not None:
            self._listener.join(timeout=5)
        with contextlib.suppress(OSError):
            os.remove(path)
        os.close(reader)
        os.close(keep_alive)
