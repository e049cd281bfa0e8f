"""The layer functions a traced run wraps, and the per-layer metrics.

:func:`instrument_program` wraps, in a server or worker process, the
public function behind every per-layer metric; :func:`instrument_client`
wraps the corpus encoder the load generator calls.  :func:`layer_metrics`
turns the spans of all processes into one number per metric: the median
over the run's timed operations of the per-operation value, except for
the ``*_ratio``, ``share.*`` and ``kast.us_per_eval`` metrics, which are
totals over the whole run.

Spans are tied to an operation by trace id.  The load generator binds
its own trace id around each operation and sends it with the request;
the server binds it while it runs the request and the job, and workers
while they run the job's blocks.  A span that runs outside any trace
(a job claim, a result poll) carries the job id it acted on, and the
job id leads to the trace of the span that created the job.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from spans import SpanRecorder

#: Spans whose self time is the front end's: HTTP handler, the
#: middleware pipeline (inside ``AnalysisServer.handle``) and the router.
_FRONTEND = ("frontend.http", "frontend.handle", "frontend.router")
_KERNEL = ("kast.value_row", "kast.value", "kast.self_value")

#: Every per-layer metric with its unit, in the order they are reported.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("frontend.self_ms", "ms"),
    ("frontend.requests_per_op", "count"),
    ("frontend.errors_per_op", "count"),
    ("protocol.encode_corpus_ms", "ms"),
    ("protocol.decode_corpus_ms", "ms"),
    ("jobstore.create_ms", "ms"),
    ("jobstore.claim_ms", "ms"),
    ("jobstore.store_result_ms", "ms"),
    ("jobstore.load_result_ms", "ms"),
    ("jobstore.forget_ms", "ms"),
    ("jobstore.queue_wait_ms", "ms"),
    ("jobstore.result_wait_ms", "ms"),
    ("atomicio.writes_per_op", "count"),
    ("atomicio.bytes_per_op", "bytes"),
    ("atomicio.write_ms", "ms"),
    ("session.matrix_cached_self_ms", "ms"),
    ("matrixcache.lookup_ms", "ms"),
    ("matrixcache.store_ms", "ms"),
    ("matrixcache.hit_ratio", "ratio"),
    ("pairstore.get_many_ms", "ms"),
    ("pairstore.put_many_ms", "ms"),
    ("pairstore.keys_per_op", "count"),
    ("pairstore.hit_ratio", "ratio"),
    ("engine.evaluate_pairs_self_ms", "ms"),
    ("engine.pair_cache_hit_ratio", "ratio"),
    ("engine.kernel_evals_per_op", "count"),
    ("engine.assemble_ms", "ms"),
    ("engine.payload_ms", "ms"),
    ("kast.value_row_ms", "ms"),
    ("kast.us_per_eval", "us"),
    ("matrix.psd_check_ms", "ms"),
    ("matrix.repair_ms", "ms"),
    ("matrix.repairs_per_op", "count"),
    ("scorer.classify_ms", "ms"),
    ("scorer.evals_per_op", "count"),
    ("worker.block_ms", "ms"),
    ("worker.block_wait_ms", "ms"),
    ("worker.collect_wait_ms", "ms"),
    ("worker.blocks_per_op", "count"),
    ("share.matrixcache", "ratio"),
    ("share.paircache", "ratio"),
    ("share.pairstore", "ratio"),
    ("share.kernel", "ratio"),
    ("trace.latency_p50_ms", "ms"),
)

#: Where an operation's answer came from, deepest layer first.
SHARE_LAYERS = ("kernel", "pairstore", "paircache", "matrixcache")


def _arg(args: tuple, kwargs: Mapping[str, Any], index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _job_arg(args: tuple, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    return {"job": _arg(args, kwargs, 1, "job_id")}


def _request_ids(args: tuple, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    payload = _arg(args, kwargs, 1, "payload")
    if not isinstance(payload, Mapping):
        return {}
    return {"trace": payload.get("trace_id"), "job": payload.get("job_id")}


def _response_ids(args: tuple, response: Mapping[str, Any]) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {"ok": bool(response.get("ok"))}
    if "job_id" in response:
        attrs["job"] = response["job_id"]
    return attrs


def instrument_program(recorder: SpanRecorder) -> None:
    """Wrap every layer function of the server and worker processes."""
    from repro import cli
    from repro.api.session import AnalysisSession
    from repro.core import atomicio, cachestore, engine, kast, matrix, pairstore
    from repro.service import jobstore, protocol, router, server, worker
    from repro.streaming import scorer, store

    wrap = recorder.wrap
    wrap([server._ServiceHTTPHandler], "do_POST", "frontend.http")
    wrap([server.AnalysisServer], "handle", "frontend.handle",
         before=_request_ids, after=_response_ids)
    wrap([router.Router], "dispatch", "frontend.router")
    # A result poll blocks in here until the job finishes on another
    # thread or process; the wait is not front-end work.
    wrap([server.AnalysisServer], "_wait_for_record", "server.result_wait")
    wrap([protocol, server, worker], "decode_corpus", "protocol.decode_corpus")

    wrap([jobstore.JobStore], "create", "jobstore.create",
         after=lambda args, record: {"job": record.job_id, "kind": record.kind})
    wrap([jobstore.JobStore], "claim_job", "jobstore.claim_job", before=_job_arg,
         after=lambda args, record: {"claimed": record is not None})
    for method in ("store_result", "load_result", "forget"):
        wrap([jobstore.JobStore], method, f"jobstore.{method}", before=_job_arg)
    wrap([atomicio, jobstore, cachestore, pairstore, store, worker, cli],
         "write_text_atomic", "atomicio.write",
         before=lambda args, kwargs: {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))})

    wrap([AnalysisSession], "matrix_cached", "session.matrix_cached")
    wrap([cachestore.MatrixCache], "lookup", "matrixcache.lookup",
         after=lambda args, found: {"status": found.status})
    wrap([cachestore.MatrixCache], "store", "matrixcache.store")
    wrap([pairstore.PairStore], "get_many", "pairstore.get_many",
         before=lambda args, kwargs: {"keys": len(_arg(args, kwargs, 2, "pairs"))},
         after=lambda args, found: {"found": len(found)})
    wrap([pairstore.PairStore], "put_many", "pairstore.put_many")

    wrap([engine.GramEngine], "evaluate_pairs", "engine.evaluate_pairs")
    wrap([engine.GramEngine], "assemble_gram", "engine.assemble_gram")
    wrap([engine.GramEngine], "matrix_payload", "engine.matrix_payload")
    wrap([kast.KastSpectrumKernel], "value_row", "kast.value_row",
         before=lambda args, kwargs: {"evals": len(_arg(args, kwargs, 2, "others"))})
    wrap([kast.KastSpectrumKernel], "value", "kast.value",
         before=lambda args, kwargs: {"evals": 1})
    wrap([kast.KastSpectrumKernel], "self_value", "kast.self_value",
         before=lambda args, kwargs: {"evals": 1})
    wrap([matrix.KernelMatrix], "is_positive_semidefinite", "matrix.psd_check")
    wrap([matrix.KernelMatrix], "repaired", "matrix.repair")
    wrap([scorer.StreamingScorer], "classify", "scorer.classify")
    wrap([worker, server], "execute_block_task", "worker.block",
         before=lambda args, kwargs: {"job": _arg(args, kwargs, 1, "record").job_id})


def instrument_client(recorder: SpanRecorder) -> None:
    """Wrap the wire encoder the load generator's client calls."""
    from repro.service import client, protocol

    recorder.wrap([protocol, client], "encode_corpus", "protocol.encode_corpus")


# ----------------------------------------------------------------------
# From spans to metrics
# ----------------------------------------------------------------------
def _duration_ms(span: Mapping[str, Any]) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _resolve_traces(spans: Sequence[Dict[str, Any]]) -> None:
    """Give every span the trace id of the operation it worked for.

    A span's own trace wins; else its job's trace; else its parent's;
    else (a root that read no trace, such as the HTTP handler) the
    trace one of its children resolved.
    """
    job_trace: Dict[str, str] = {}
    for span in spans:
        job = span["attrs"].get("job")
        if span["trace"] and job:
            job_trace.setdefault(job, span["trace"])
    for span in spans:
        span["op"] = span["trace"] or job_trace.get(span["attrs"].get("job"))
    # Ids grow with start order within a process, so parents come first.
    ordered = sorted(spans, key=lambda span: (span["origin"], span["id"]))
    by_key = {(span["origin"], span["id"]): span for span in ordered}
    for span in ordered:
        parent = by_key.get((span["origin"], span["parent"]))
        if span["op"] is None and parent is not None:
            span["op"] = parent["op"]
    for span in reversed(ordered):
        parent = by_key.get((span["origin"], span["parent"]))
        if parent is not None and parent["op"] is None:
            parent["op"] = span["op"]
    for span in ordered:
        parent = by_key.get((span["origin"], span["parent"]))
        if span["op"] is None and parent is not None:
            span["op"] = parent["op"]


def _annotate(spans: Sequence[Dict[str, Any]]) -> None:
    """Self time, and whether a kernel span is outermost / under the scorer."""
    by_key = {(span["origin"], span["id"]): span for span in spans}
    child_ms: Dict[Tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_ms[(span["origin"], span["parent"])] += _duration_ms(span)
    for span in spans:
        span["self_ms"] = _duration_ms(span) - child_ms[(span["origin"], span["id"])]
        ancestors = []
        parent = by_key.get((span["origin"], span["parent"]))
        while parent is not None:
            ancestors.append(parent["name"])
            parent = by_key.get((parent["origin"], parent["parent"]))
        span["outermost_kernel"] = span["name"] in _KERNEL and not any(
            name in _KERNEL for name in ancestors
        )
        span["under_scorer"] = "scorer.classify" in ancestors


def _earliest(times: Iterable[float]) -> Optional[float]:
    return min(times, default=None)


def _op_values(op: Mapping[str, Any], spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-operation quantity of one operation from its spans."""
    values: Dict[str, float] = defaultdict(float)
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        if name in _FRONTEND:
            values["frontend.self_ms"] += span["self_ms"]
        if name == "frontend.http":
            values["frontend.requests_per_op"] += 1
        elif name == "frontend.handle" and not attrs.get("ok", True):
            values["frontend.errors_per_op"] += 1
        elif name in ("protocol.encode_corpus", "protocol.decode_corpus"):
            values[f"{name}_ms"] += _duration_ms(span)
        elif name.startswith("jobstore."):
            short = "claim" if name == "jobstore.claim_job" else name[len("jobstore."):]
            values[f"jobstore.{short}_ms"] += _duration_ms(span)
            if name == "jobstore.create" and attrs.get("kind") == "block":
                values["worker.blocks_per_op"] += 1
        elif name == "atomicio.write":
            values["atomicio.writes_per_op"] += 1
            values["atomicio.bytes_per_op"] += attrs["bytes"]
            values["atomicio.write_ms"] += _duration_ms(span)
        elif name == "session.matrix_cached":
            values["session.matrix_cached_self_ms"] += span["self_ms"]
        elif name == "matrixcache.lookup":
            values["matrixcache.lookup_ms"] += _duration_ms(span)
            values["_lookups"] += 1
            values["_lookup_hits"] += attrs.get("status") == "hit"
        elif name == "matrixcache.store":
            values["matrixcache.store_ms"] += _duration_ms(span)
        elif name == "pairstore.get_many":
            values["pairstore.get_many_ms"] += _duration_ms(span)
            values["pairstore.keys_per_op"] += attrs["keys"]
            values["_store_found"] += attrs.get("found", 0)
        elif name == "pairstore.put_many":
            values["pairstore.put_many_ms"] += _duration_ms(span)
        elif name == "engine.evaluate_pairs":
            values["engine.evaluate_pairs_self_ms"] += span["self_ms"]
            values["_evaluate_calls"] += 1
        elif name == "engine.assemble_gram":
            values["engine.assemble_ms"] += span["self_ms"]
        elif name == "engine.matrix_payload":
            values["engine.payload_ms"] += _duration_ms(span)
        elif name == "matrix.psd_check":
            values["matrix.psd_check_ms"] += _duration_ms(span)
        elif name == "matrix.repair":
            values["matrix.repair_ms"] += _duration_ms(span)
            values["matrix.repairs_per_op"] += 1
        elif name == "scorer.classify":
            values["scorer.classify_ms"] += _duration_ms(span)
        elif name == "worker.block":
            values["worker.block_ms"] += _duration_ms(span)
        if span["outermost_kernel"]:
            values["engine.kernel_evals_per_op"] += attrs["evals"]
            values["_kernel_ms"] += _duration_ms(span)
            if name == "kast.value_row":
                values["kast.value_row_ms"] += _duration_ms(span)
            if span["under_scorer"]:
                values["scorer.evals_per_op"] += attrs["evals"]
    values.update(_waits(op, spans))
    return values


def _waits(op: Mapping[str, Any], spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Queue, result, block and collect waits of one operation."""
    creates: Dict[str, Dict[str, Any]] = {}
    claims: Dict[str, List[float]] = defaultdict(list)
    stored: Dict[str, float] = {}
    loads: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        job = span["attrs"].get("job")
        if span["name"] == "jobstore.create":
            creates[job] = span
        elif span["name"] == "jobstore.claim_job" and span["attrs"].get("claimed"):
            claims[job].append(span["start"])
        elif span["name"] == "jobstore.store_result" and not span["attrs"].get("error"):
            stored[job] = span["end"]
        elif span["name"] == "jobstore.load_result":
            loads[job].append(span["start"])
    waits: Dict[str, float] = {}
    job = op.get("job")
    if job in creates and _earliest(claims[job]) is not None:
        waits["jobstore.queue_wait_ms"] = (_earliest(claims[job]) - creates[job]["end"]) * 1000.0
    if job in stored:
        loaded = _earliest(start for start in loads[job] if start >= stored[job])
        if loaded is not None:
            waits["jobstore.result_wait_ms"] = (loaded - stored[job]) * 1000.0
    blocks = [block for block, span in creates.items() if span["attrs"].get("kind") == "block"]
    block_waits = [
        (_earliest(claims[block]) - creates[block]["end"]) * 1000.0
        for block in blocks if claims[block]
    ]
    if block_waits:
        waits["worker.block_wait_ms"] = statistics.mean(block_waits)
    if blocks and all(block in stored for block in blocks):
        last_stored = max(stored[block] for block in blocks)
        collected = _earliest(start for block in blocks for start in loads[block])
        if collected is not None:
            waits["worker.collect_wait_ms"] = (collected - last_stored) * 1000.0
    return waits


def _deepest_layer(values: Mapping[str, float]) -> Optional[str]:
    """The deepest layer an operation had to reach for its answer."""
    if values.get("engine.kernel_evals_per_op", 0) > 0:
        return "kernel"
    if values.get("_store_found", 0) > 0:
        return "pairstore"
    if values.get("_evaluate_calls", 0) > 0:
        return "paircache"
    if values.get("_lookup_hits", 0) > 0:
        return "matrixcache"
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Dict[str, Any]],
    ops: Sequence[Mapping[str, Any]],
    engine_counters: Mapping[str, float],
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Per-layer metrics over the timed *ops*, plus each op's own values.

    *ops* carry the ``trace`` the load generator sent, the ``job`` the
    server answered with, and the client-observed ``latency_ms``.
    *engine_counters* are the engine's ``pair_hits``/``pair_misses``
    deltas over the timed phase, read from ``/metrics``.
    """
    _resolve_traces(spans)
    _annotate(spans)
    by_op: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["op"] is not None:
            by_op[span["op"]].append(span)
    per_op = []
    for op in ops:
        values = _op_values(op, by_op.get(op["trace"], []))
        values["latency_ms"] = op["latency_ms"]
        per_op.append({"kind": op["kind"], "layer": _deepest_layer(values), **values})
    # A submission equal to one already in flight is coalesced onto that
    # job: it did no work of its own and is answered by the job's layer.
    job_layer: Dict[str, str] = {}
    for op, values in zip(ops, per_op):
        if values["layer"] is not None and op.get("job"):
            job_layer.setdefault(op["job"], values["layer"])
    for op, values in zip(ops, per_op):
        if values["layer"] is None:
            values["layer"] = job_layer.get(op.get("job"))

    def median(name: str) -> float:
        return statistics.median(values.get(name, 0.0) for values in per_op) if per_op else 0.0

    def total(name: str) -> float:
        return sum(values.get(name, 0.0) for values in per_op)

    ratios = {
        "matrixcache.hit_ratio": _ratio(total("_lookup_hits"), total("_lookups")),
        "pairstore.hit_ratio": _ratio(total("_store_found"), total("pairstore.keys_per_op")),
        "engine.pair_cache_hit_ratio": _ratio(
            engine_counters.get("pair_hits", 0),
            engine_counters.get("pair_hits", 0) + engine_counters.get("pair_misses", 0),
        ),
        "kast.us_per_eval": _ratio(total("_kernel_ms") * 1000.0, total("engine.kernel_evals_per_op")),
        "trace.latency_p50_ms": median("latency_ms"),
    }
    for layer in SHARE_LAYERS:
        ratios[f"share.{layer}"] = _ratio(
            sum(values["layer"] == layer for values in per_op), len(per_op)
        )
    metrics = {
        name: ratios[name] if name in ratios else median(name)
        for name, _ in PER_LAYER_METRICS
    }
    return metrics, per_op
