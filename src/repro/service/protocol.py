"""Versioned JSON wire protocol of the analysis service.

One request/response vocabulary serves every transport: the HTTP front end
posts one JSON object per request, the stdio transport writes one JSON
object per line.  Messages are *data*, built from the same declarative
pieces the library already persists — kernel specs travel as
:meth:`~repro.api.spec.KernelSpec.to_dict` payloads, corpora as the
round-trippable :meth:`~repro.strings.tokens.WeightedString.to_text` form,
and results as the engine's stamped matrix payloads
(:meth:`~repro.core.engine.GramEngine.matrix_payload`).

Requests
--------
Every request object carries ``{"v": 1, "type": "<name>", ...fields}``.
The types are:

==================  ====================================================
``submit-matrix``   queue a (possibly block-sharded) Gram-matrix job
``submit-analyze``  queue a full pipeline run (KPCA + clustering + metrics)
``fit-model``       queue a landmark/Nyström model fit over a corpus
``classify``        classify/embed traces against a fitted landmark model
``models``          list the server's persisted landmark models
``status``          status of one job
``result``          result payload of one job (optionally waiting)
``cancel``          cancel a queued job
``specs``           registered kernel kinds and the session's warm specs
``health``          liveness / protocol / job-count snapshot
``cache-stats``     the server's persistent matrix result-cache counters
==================  ====================================================

Responses are ``{"v": 1, "ok": true, "type": ..., ...}`` on success and
``{"v": 1, "ok": false, "error": {"code", "message", "details"}}`` on
failure.  Error codes map onto the typed :class:`ServiceError` hierarchy on
both sides of the wire, so a client sees the same exception types an
in-process caller would.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.api.spec import KernelSpecError, coerce_spec
from repro.obs.tracing import TRACE_ID_PATTERN, valid_trace_id
from repro.strings.tokens import WeightedString

__all__ = [
    "PROTOCOL_VERSION",
    "ServiceError",
    "BadRequest",
    "UnsupportedVersion",
    "UnknownJob",
    "JobFailed",
    "JobPending",
    "CannotCancel",
    "ModelNotFound",
    "ModelDamaged",
    "Unauthorized",
    "RateLimited",
    "QuotaExceeded",
    "RequestTooLarge",
    "payload_token",
    "Request",
    "SubmitMatrixRequest",
    "SubmitAnalyzeRequest",
    "FitModelRequest",
    "ClassifyRequest",
    "ModelsRequest",
    "StatusRequest",
    "ResultRequest",
    "CancelRequest",
    "SpecsRequest",
    "HealthRequest",
    "CacheStatsRequest",
    "JOB_REQUESTS",
    "job_input",
    "job_request",
    "parse_request",
    "ok_response",
    "error_response",
    "check_response",
    "http_status_for_response",
    "encode_corpus",
    "decode_corpus",
    "dump_message",
    "load_message",
]

#: Version stamped into (and required of) every message.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base service failure; serialisable to (and from) the wire error form.

    Every subclass fixes a stable ``code`` (the wire discriminator) and the
    HTTP status the server answers with.  ``details`` is a small
    JSON-representable mapping of structured context (e.g. the job id).
    """

    code: ClassVar[str] = "internal"
    http_status: ClassVar[int] = 500

    def __init__(self, message: str, details: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(message)
        self.details: Dict[str, Any] = dict(details or {})

    @property
    def job_id(self) -> Optional[str]:
        """The job id this error concerns, when it concerns one."""
        value = self.details.get("job_id")
        return str(value) if value is not None else None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.details:
            payload["details"] = self.details
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ServiceError":
        """Rebuild the typed error a server serialised (unknown codes → base)."""
        code = str(payload.get("code", "internal"))
        message = str(payload.get("message", "service error"))
        details = payload.get("details")
        error_class = _ERROR_CODES.get(code, ServiceError)
        error = error_class(message, details if isinstance(details, Mapping) else None)
        return error


class BadRequest(ServiceError):
    """Malformed message: wrong shape, unknown type, invalid field values."""

    code = "bad-request"
    http_status = 400


class UnsupportedVersion(BadRequest):
    """Message carried a protocol version this peer does not speak."""

    code = "unsupported-version"


class UnknownJob(ServiceError):
    """No job record exists under the given id."""

    code = "unknown-job"
    http_status = 404


class JobFailed(ServiceError):
    """The job ran and raised; the original error text is in the message."""

    code = "job-failed"
    http_status = 500


class JobPending(ServiceError):
    """The job has not finished inside the request's wait window."""

    code = "job-pending"
    http_status = 409


class CannotCancel(ServiceError):
    """The job already started or finished and cannot be cancelled."""

    code = "cannot-cancel"
    http_status = 409


class ModelNotFound(ServiceError):
    """No landmark model is stored under the requested name."""

    code = "model-not-found"
    http_status = 404


class ModelDamaged(ServiceError):
    """A stored landmark model failed verification and was quarantined.

    Raised when the model file's checksum no longer matches, its payload
    does not parse, or its kernel spec names a kind the registry no longer
    knows — the store moves the file aside so the damage is never
    re-served, and the details carry the reason and quarantine path.
    """

    code = "model-damaged"
    http_status = 500


class Unauthorized(ServiceError):
    """The request carried no token, or a token no tenant is configured for."""

    code = "unauthorized"
    http_status = 401


class RateLimited(ServiceError):
    """The tenant exhausted its request budget; retry after a delay.

    ``details["retry_after"]`` carries the seconds a client should wait
    before retrying — :class:`~repro.service.client.ServiceClient` honours
    it with capped exponential backoff.
    """

    code = "rate-limited"
    http_status = 429

    @property
    def retry_after(self) -> Optional[float]:
        value = self.details.get("retry_after")
        return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None


class QuotaExceeded(ServiceError):
    """A tenant quota (queued jobs, corpus size) refused the request.

    Carries ``retry_after`` like :class:`RateLimited` when the condition is
    transient (e.g. the job queue will drain); a ``retry_after`` of ``None``
    means retrying the same request can never succeed (e.g. the corpus is
    simply larger than the tenant's limit).
    """

    code = "quota-exceeded"
    http_status = 429

    @property
    def retry_after(self) -> Optional[float]:
        value = self.details.get("retry_after")
        return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None


class RequestTooLarge(ServiceError):
    """The request body exceeds the server's configured byte bound."""

    code = "request-too-large"
    http_status = 413


_ERROR_CODES: Dict[str, Type[ServiceError]] = {
    error_class.code: error_class
    for error_class in (
        ServiceError, BadRequest, UnsupportedVersion, UnknownJob, JobFailed,
        JobPending, CannotCancel, ModelNotFound, ModelDamaged,
        Unauthorized, RateLimited, QuotaExceeded, RequestTooLarge,
    )
}


# ----------------------------------------------------------------------
# Corpus wire codec
# ----------------------------------------------------------------------
def encode_corpus(strings: Sequence[WeightedString]) -> List[Dict[str, Any]]:
    """Encode weighted strings for the wire (name, label, compact token text).

    The token text is :meth:`WeightedString.to_text`, whose ``literal:weight``
    form round-trips exactly through :meth:`WeightedString.parse` — the same
    representation the CLI's ``convert`` command prints.
    """
    items: List[Dict[str, Any]] = []
    for string in strings:
        item: Dict[str, Any] = {"name": string.name, "tokens": string.to_text()}
        if string.label is not None:
            item["label"] = string.label
        items.append(item)
    return items


def decode_corpus(items: Sequence[Mapping[str, Any]]) -> List[WeightedString]:
    """Rebuild the weighted strings of :func:`encode_corpus` output."""
    if isinstance(items, (str, bytes)) or not isinstance(items, Sequence):
        raise BadRequest(f"corpus must be a sequence of objects, got {type(items).__name__}")
    strings: List[WeightedString] = []
    for position, item in enumerate(items):
        if not isinstance(item, Mapping):
            raise BadRequest(f"corpus item {position} must be an object, got {type(item).__name__}")
        unknown = set(item) - {"name", "label", "tokens"}
        if unknown:
            raise BadRequest(f"corpus item {position} has unknown keys {sorted(unknown)}")
        tokens = item.get("tokens")
        if not isinstance(tokens, str):
            raise BadRequest(f"corpus item {position} is missing its 'tokens' text")
        label = item.get("label")
        try:
            strings.append(
                WeightedString.parse(
                    tokens,
                    name=str(item.get("name", f"string{position}")),
                    label=str(label) if label is not None else None,
                )
            )
        except ValueError as exc:
            raise BadRequest(f"corpus item {position} does not parse: {exc}") from exc
    return strings


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """Base class for protocol requests (one dataclass per message type)."""

    TYPE: ClassVar[str] = ""

    def to_payload(self) -> Dict[str, Any]:
        """The wire object: version, type and every dataclass field."""
        payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": self.TYPE}
        for field in dataclass_fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload

    @classmethod
    def _from_fields(cls, fields: Mapping[str, Any]) -> "Request":
        names = {field.name for field in dataclass_fields(cls)}
        unknown = set(fields) - names
        if unknown:
            raise BadRequest(f"{cls.TYPE!r} request has unknown fields {sorted(unknown)}")
        try:
            return cls(**fields)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid {cls.TYPE!r} request: {exc}") from exc


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise BadRequest(f"{what} must be a non-empty string, got {value!r}")
    return value


def _optional_trace_id(value: Any) -> Optional[str]:
    """Validate a client-supplied trace id (``None`` means server-minted).

    Ids travel into log lines, job records, and metric labels, so the
    charset is restricted to ``TRACE_ID_PATTERN``.
    """
    if value is None:
        return None
    if not valid_trace_id(value):
        raise BadRequest(f"'trace_id' must match {TRACE_ID_PATTERN}, got {value!r}")
    return value


@dataclass(frozen=True)
class SubmitMatrixRequest(Request):
    """Queue a Gram-matrix job over an inline corpus.

    ``spec`` is a :meth:`KernelSpec.to_dict` payload (or a bare kind name),
    ``strings`` an :func:`encode_corpus` list.  ``shards`` is the number
    of symmetric index blocks a ``distributed`` job is split into; an
    omitted ``shards`` (``None``) means one block, and the job records 1
    (:attr:`shard_count`).  A non-distributed job is evaluated
    monolithically whatever its ``shards``.

    ``distributed=True`` persists each index-block pair as an
    individually *leasable* block-task record in the server's job store,
    so pull-loop workers (``repro-iokast worker``) in other processes — or
    on other hosts sharing the state dir — can claim and execute them; the
    server assembles the finished blocks into the same bit-identical
    matrix.

    ``use_cache=False`` bypasses the server's persistent matrix result
    cache entirely (no lookup, no store-back): the job always re-evaluates
    its kernel pairs.  The payload is bit-identical either way — the cache
    only ever changes *where* values come from, never what they are.
    """

    TYPE: ClassVar[str] = "submit-matrix"

    spec: Any
    strings: Tuple[Mapping[str, Any], ...] = ()
    normalized: bool = True
    repair: bool = True
    shards: Optional[int] = None
    distributed: bool = False
    use_cache: bool = True
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "trace_id", _optional_trace_id(self.trace_id))
        if not isinstance(self.normalized, bool) or not isinstance(self.repair, bool):
            raise BadRequest("'normalized' and 'repair' must be booleans")
        if not isinstance(self.distributed, bool):
            raise BadRequest("'distributed' must be a boolean")
        if not isinstance(self.use_cache, bool):
            raise BadRequest("'use_cache' must be a boolean")
        if self.shards is not None and (
            not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1
        ):
            raise BadRequest(f"'shards' must be a positive integer or null, got {self.shards!r}")

    @property
    def shard_count(self) -> int:
        """The index blocks a distributed job splits into (``None`` is one)."""
        return 1 if self.shards is None else self.shards


#: Linkages :class:`SubmitAnalyzeRequest` accepts (mirrors
#: :data:`repro.learn.hierarchical.LINKAGES`, duplicated here so the wire
#: layer validates without importing the learning package).
_LINKAGES = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class SubmitAnalyzeRequest(Request):
    """Queue a full pipeline run (matrix → KPCA → clustering → metrics)."""

    TYPE: ClassVar[str] = "submit-analyze"

    spec: Any
    strings: Tuple[Mapping[str, Any], ...] = ()
    n_clusters: int = 3
    n_components: int = 2
    linkage: str = "single"
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "trace_id", _optional_trace_id(self.trace_id))
        for name, value in (("n_clusters", self.n_clusters), ("n_components", self.n_components)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise BadRequest(f"{name!r} must be a positive integer, got {value!r}")
        if self.linkage not in _LINKAGES:
            raise BadRequest(f"'linkage' must be one of {', '.join(_LINKAGES)}, got {self.linkage!r}")


#: Strategies :class:`FitModelRequest` accepts (mirrors
#: :data:`repro.streaming.landmarks.LANDMARK_STRATEGIES`, duplicated here so
#: the wire layer validates without importing the streaming package).
_LANDMARK_STRATEGIES = ("uniform", "kcenter", "leverage")

#: Model names are path components in the store; same rule both sides.
_MODEL_NAME = r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$"


def _require_model_name(value: Any) -> str:
    name = _require_str(value, "'name'")
    if not re.match(_MODEL_NAME, name):
        raise BadRequest(f"'name' must match {_MODEL_NAME}, got {name!r}")
    return name


@dataclass(frozen=True)
class FitModelRequest(Request):
    """Queue a landmark/Nyström model fit over an inline corpus.

    The server computes (or serves from its result cache) the full Gram
    under ``spec``, selects ``landmarks`` representatives with
    ``strategy``, freezes the model and persists it under
    ``<state-dir>/models/<name>``.  ``n_clusters`` forces fitted kernel
    k-means pseudo-labels even on a labelled corpus; an unlabelled corpus
    gets them automatically.  Like ``submit-matrix``, the answer is a job
    envelope — poll ``result`` for the model summary.
    """

    TYPE: ClassVar[str] = "fit-model"

    spec: Any
    strings: Tuple[Mapping[str, Any], ...] = ()
    name: str = ""
    landmarks: int = 16
    strategy: str = "kcenter"
    seed: int = 2017
    n_components: int = 2
    n_clusters: Optional[int] = None
    use_cache: bool = True
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "name", _require_model_name(self.name))
        object.__setattr__(self, "trace_id", _optional_trace_id(self.trace_id))
        for field_name, value in (
            ("landmarks", self.landmarks),
            ("seed", self.seed),
            ("n_components", self.n_components),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise BadRequest(f"{field_name!r} must be a positive integer, got {value!r}")
        if self.n_clusters is not None and (
            not isinstance(self.n_clusters, int) or isinstance(self.n_clusters, bool) or self.n_clusters < 1
        ):
            raise BadRequest(f"'n_clusters' must be a positive integer or null, got {self.n_clusters!r}")
        if self.strategy not in _LANDMARK_STRATEGIES:
            raise BadRequest(
                f"'strategy' must be one of {', '.join(_LANDMARK_STRATEGIES)}, got {self.strategy!r}"
            )
        if not isinstance(self.use_cache, bool):
            raise BadRequest("'use_cache' must be a boolean")


@dataclass(frozen=True)
class ClassifyRequest(Request):
    """Classify (and optionally embed) traces against a stored model.

    Answered *synchronously* — this is the streaming fast path: each
    string costs at most ``m`` kernel evaluations against the model's
    landmarks, zero when the pair store already holds the row.  The
    response carries one result per input string plus the request's
    kernel-evaluation count and latency.
    """

    TYPE: ClassVar[str] = "classify"

    name: str = ""
    strings: Tuple[Mapping[str, Any], ...] = ()
    embed: bool = False
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _require_model_name(self.name))
        object.__setattr__(self, "strings", tuple(self.strings))
        object.__setattr__(self, "trace_id", _optional_trace_id(self.trace_id))
        if not self.strings:
            raise BadRequest("classify requires at least one string")
        if not isinstance(self.embed, bool):
            raise BadRequest("'embed' must be a boolean")


@dataclass(frozen=True)
class ModelsRequest(Request):
    """List the server's persisted landmark models with their serve counters."""

    TYPE: ClassVar[str] = "models"


@dataclass(frozen=True)
class StatusRequest(Request):
    TYPE: ClassVar[str] = "status"

    job_id: str

    def __post_init__(self) -> None:
        _require_str(self.job_id, "'job_id'")


@dataclass(frozen=True)
class ResultRequest(Request):
    """Fetch a job's result, waiting up to ``wait`` seconds server-side.

    An unfinished job answers with :class:`JobPending` (clients poll).
    ``forget=True`` evicts the job from the live session *and* the on-disk
    store after delivery.
    """

    TYPE: ClassVar[str] = "result"

    job_id: str
    wait: float = 0.0
    forget: bool = False

    def __post_init__(self) -> None:
        _require_str(self.job_id, "'job_id'")
        if isinstance(self.wait, bool) or not isinstance(self.wait, (int, float)) or self.wait < 0:
            raise BadRequest(f"'wait' must be a non-negative number, got {self.wait!r}")
        object.__setattr__(self, "wait", float(self.wait))
        if not isinstance(self.forget, bool):
            raise BadRequest("'forget' must be a boolean")


@dataclass(frozen=True)
class CancelRequest(Request):
    TYPE: ClassVar[str] = "cancel"

    job_id: str

    def __post_init__(self) -> None:
        _require_str(self.job_id, "'job_id'")


@dataclass(frozen=True)
class SpecsRequest(Request):
    TYPE: ClassVar[str] = "specs"


@dataclass(frozen=True)
class HealthRequest(Request):
    """Probe the server's liveness and warmth (also ``GET /healthz``).

    Besides uptime, job counts and recovery info, the answer carries the
    load-balancer warm-routing signals: ``queue_depth`` (queued records)
    and the hit-rate summaries of both persistent cache layers
    (``matrix_cache`` and ``pair_store``); ``result_cache`` is always
    ``true``.
    """

    TYPE: ClassVar[str] = "health"


@dataclass(frozen=True)
class CacheStatsRequest(Request):
    """Probe the server's persistent caches.

    Answers with ``enabled`` (always ``true``) plus the matrix result
    cache's counters and on-disk state (entries, bytes, hits/misses,
    stores, evictions), and a ``pair_store`` section carrying its own
    ``enabled`` flag (``true``) and
    :meth:`PairStore.stats <repro.core.pairstore.PairStore.stats>` —
    the observability hook behind ``repro-iokast remote cache-stats``.
    """

    TYPE: ClassVar[str] = "cache-stats"


_REQUEST_TYPES: Dict[str, Type[Request]] = {
    request_class.TYPE: request_class
    for request_class in (
        SubmitMatrixRequest,
        SubmitAnalyzeRequest,
        FitModelRequest,
        ClassifyRequest,
        ModelsRequest,
        StatusRequest,
        ResultRequest,
        CancelRequest,
        SpecsRequest,
        HealthRequest,
        CacheStatsRequest,
    )
}


#: The job kind each submission creates, and the request its record stores.
JOB_REQUESTS: Dict[str, Type[Request]] = {
    "matrix": SubmitMatrixRequest,
    "analyze": SubmitAnalyzeRequest,
    "fit-model": FitModelRequest,
}


def job_input(request: Request) -> Dict[str, Any]:
    """The ``input`` a job record stores for a submission: its wire request.

    Every dataclass field except ``trace_id`` (run metadata, which the
    record keeps in its options), with ``spec`` canonicalised to its
    :meth:`~repro.api.spec.KernelSpec.to_dict` form and a matrix job's
    ``shards`` resolved to :attr:`SubmitMatrixRequest.shard_count`.
    :func:`job_request` reads it back.
    """
    stored = {
        field.name: getattr(request, field.name)
        for field in dataclass_fields(request)
        if field.name != "trace_id"
    }
    try:
        stored["spec"] = coerce_spec(stored["spec"]).to_dict()
    except KernelSpecError as exc:
        raise BadRequest(f"invalid kernel spec: {exc}") from exc
    stored["strings"] = list(stored["strings"])
    if isinstance(request, SubmitMatrixRequest):
        stored["shards"] = request.shard_count
    return stored


def job_request(kind: str, stored_input: Mapping[str, Any]) -> Request:
    """The validated request a ``kind`` record's stored ``input`` describes.

    The inverse of :func:`job_input`: the input goes back through the
    request dataclass, so an omitted field takes the dataclass default and
    an invalid one raises :class:`BadRequest` exactly as on the wire.
    """
    request_class = JOB_REQUESTS.get(kind)
    if request_class is None:
        raise BadRequest(f"no request describes {kind!r} jobs; job kinds: {', '.join(JOB_REQUESTS)}")
    return request_class._from_fields(stored_input)


def parse_request(payload: Any) -> Request:
    """Validate a wire object and build the typed request it names.

    Raises :class:`BadRequest` for anything that is not a well-formed
    mapping with a known ``type``, and :class:`UnsupportedVersion` when the
    ``v`` field does not match :data:`PROTOCOL_VERSION` — version first, so
    newer clients get the actionable error even if their message shape also
    changed.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest(f"request must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(
            f"protocol version {version!r} is not supported (this peer speaks v{PROTOCOL_VERSION})"
        )
    type_name = payload.get("type")
    if not isinstance(type_name, str) or type_name not in _REQUEST_TYPES:
        raise BadRequest(
            f"unknown request type {type_name!r}; known types: {', '.join(sorted(_REQUEST_TYPES))}"
        )
    # "token" is an envelope-level field (bearer auth for transports with
    # no header side channel, e.g. stdio) — never a request dataclass field.
    fields = {key: value for key, value in payload.items() if key not in ("v", "type", "token")}
    return _REQUEST_TYPES[type_name]._from_fields(fields)


def payload_token(payload: Any) -> Optional[str]:
    """The envelope-level bearer token of a wire object, if it carries one.

    Raises :class:`BadRequest` when a ``token`` field is present but not a
    string — a silently ignored malformed token would authenticate as the
    anonymous caller, which is the one thing auth must never do.
    """
    if not isinstance(payload, Mapping) or "token" not in payload:
        return None
    token = payload["token"]
    if not isinstance(token, str) or not token:
        raise BadRequest("'token' must be a non-empty string when present")
    return token


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def ok_response(type_name: str, **fields: Any) -> Dict[str, Any]:
    """A success response envelope."""
    return {"v": PROTOCOL_VERSION, "ok": True, "type": type_name, **fields}


def error_response(error: ServiceError) -> Dict[str, Any]:
    """The failure envelope for a typed service error."""
    return {"v": PROTOCOL_VERSION, "ok": False, "error": error.to_dict()}


def http_status_for_response(payload: Mapping[str, Any]) -> int:
    """The HTTP status a response envelope should travel with."""
    if payload.get("ok"):
        return 200
    error = payload.get("error")
    code = str(error.get("code", "internal")) if isinstance(error, Mapping) else "internal"
    return _ERROR_CODES.get(code, ServiceError).http_status


def check_response(payload: Any) -> Dict[str, Any]:
    """Validate a response envelope; re-raise the server's typed error.

    Returns the payload when ``ok`` is true; otherwise reconstructs the
    :class:`ServiceError` subclass named by the error code and raises it,
    so remote failures surface exactly like local ones.
    """
    if not isinstance(payload, Mapping):
        raise ServiceError(f"response must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(
            f"response protocol version {version!r} is not supported (this peer speaks v{PROTOCOL_VERSION})"
        )
    if payload.get("ok"):
        return dict(payload)
    error = payload.get("error")
    raise ServiceError.from_dict(error if isinstance(error, Mapping) else {})


# ----------------------------------------------------------------------
# Line framing (stdio transport)
# ----------------------------------------------------------------------
def dump_message(payload: Mapping[str, Any]) -> str:
    """Serialise one message as a single compact JSON line (no newlines)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def load_message(line: str) -> Any:
    """Parse one framed line back into a payload (:class:`BadRequest` on junk)."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise BadRequest(f"message line is not valid JSON: {exc}") from exc
