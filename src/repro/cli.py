"""Command-line interface.

``repro-iokast`` (or ``python -m repro``) exposes the main library workflows:

* ``generate`` — write a synthetic trace corpus to a directory;
* ``convert`` — convert one trace file to its weighted-string representation;
* ``compare`` — evaluate a kernel between two trace files;
* ``matrix`` — compute the JSON Gram matrix of a trace-corpus directory;
* ``experiment`` — run one of the canned paper experiments and print the
  report;
* ``sweep`` — run the cut-weight sweep and print the table;
* ``serve`` — run the analysis service (HTTP or stdio) over a persistent
  state directory;
* ``worker`` — run a pull-loop worker against a server's state directory,
  claiming and executing leased block tasks (scale out by starting more);
* ``gc`` — sweep expired terminal jobs out of a state directory;
* ``remote`` — talk to a running analysis service (submit matrix and
  analyze jobs, query status/results, health);
* ``model`` — the streaming serving tier: fit landmark models server-side
  and classify individual trace files against them in O(m) per request.

The CLI is intentionally thin: every command is a few lines of glue around
the :class:`~repro.api.session.AnalysisSession` facade and the declarative
kernel-spec registry, so scripting users can lift the same calls into their
own code.  Kernel-evaluating commands accept either flag-level kernel
options (``--kernel``, ``--cut-weight``, …) or a full declarative spec via
``--spec path.json`` (see :class:`~repro.api.spec.KernelSpec`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.api import AnalysisSession, KernelSpec, kernel_choices
from repro.core.atomicio import remove_stale_temp_files, write_text_atomic
from repro.core.kast import KAST_BACKENDS
from repro.learn.hierarchical import LINKAGES
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.experiments import (
    experiment_cut_weight_sweep,
    experiment_fig6_kpca_kast,
    experiment_fig7_hclust_kast,
    experiment_fig8_kpca_blended,
    experiment_fig9_hclust_blended,
    experiment_nobytes_variant,
    experiment_worked_example,
)
from repro.pipeline.report import summarise_result, summarise_sweep
from repro.pipeline.sweep import cut_weight_sweep
from repro.service.protocol import (
    CannotCancel,
    FitModelRequest,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
)
from repro.streaming.landmarks import LANDMARK_STRATEGIES
from repro.strings.encoder import trace_to_string
from repro.traces.parser import parse_trace_file
from repro.traces.writer import write_trace
from repro.viz.dendro import cluster_tree_summary
from repro.viz.scatter import scatter_from_kpca
from repro.workloads.corpus import CorpusConfig, build_corpus

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig6": experiment_fig6_kpca_kast,
    "fig7": experiment_fig7_hclust_kast,
    "fig8": experiment_fig8_kpca_blended,
    "fig9": experiment_fig9_hclust_blended,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-iokast`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-iokast",
        description="Weighted-string representation and Kast Spectrum Kernel for I/O access patterns",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic trace corpus to a directory")
    generate.add_argument("output", help="directory to write the trace files into")
    generate.add_argument("--seed", type=int, default=2017, help="corpus seed")
    generate.add_argument("--small", action="store_true", help="generate the reduced test corpus")

    convert = subparsers.add_parser("convert", help="convert a trace file to its weighted string")
    convert.add_argument("trace", help="path to a plain-text trace file")
    convert.add_argument("--no-bytes", action="store_true", help="ignore byte information")

    compare = subparsers.add_parser("compare", help="evaluate a kernel between two trace files")
    compare.add_argument("trace_a", help="first trace file")
    compare.add_argument("trace_b", help="second trace file")
    compare.add_argument("--cut-weight", type=int, default=2, help="Kast kernel cut weight")
    compare.add_argument("--no-bytes", action="store_true", help="ignore byte information")
    _add_spec_argument(compare)
    _add_backend_argument(compare)

    matrix = subparsers.add_parser(
        "matrix", help="compute the JSON Gram matrix of a directory of trace files"
    )
    matrix.add_argument("corpus", help="directory containing *.trace files")
    _add_kernel_arguments(matrix)
    matrix.add_argument("--raw", action="store_true", help="skip cosine normalisation")
    matrix.add_argument("--output", default=None, help="write the JSON payload here instead of stdout")
    _add_backend_argument(matrix)

    experiment = subparsers.add_parser("experiment", help="run one of the canned paper experiments")
    experiment.add_argument(
        "name",
        choices=sorted(_EXPERIMENTS) + ["worked-example"],
        help="which experiment to run",
    )
    experiment.add_argument("--seed", type=int, default=2017, help="corpus seed")
    experiment.add_argument("--cut-weight", type=int, default=2, help="cut weight")
    _add_backend_argument(experiment)

    sweep = subparsers.add_parser("sweep", help="run the cut-weight sweep")
    sweep.add_argument("--seed", type=int, default=2017, help="corpus seed")
    sweep.add_argument("--no-bytes", action="store_true", help="use the byte-free string variant")
    _add_spec_argument(sweep)
    _add_backend_argument(sweep)

    serve = subparsers.add_parser("serve", help="run the analysis service")
    serve.add_argument("--state-dir", required=True, help="job-store directory (records/payloads/quarantine)")
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, help="HTTP port (0 = pick an ephemeral port)")
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (for scripts using --port 0)",
    )
    serve.add_argument("--stdio", action="store_true", help="serve line-framed JSON on stdin/stdout instead of HTTP")
    serve.add_argument("--job-workers", type=int, default=2, help="concurrent jobs per tenant (default: 2)")
    serve.add_argument(
        "--no-inline-blocks",
        action="store_true",
        help="leave distributed block tasks entirely to external workers (default: the server also executes blocks)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=900.0,
        help="lease stamped on jobs this server claims (default: 900)",
    )
    serve.add_argument(
        "--job-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="garbage-collect terminal jobs older than this (default: keep forever)",
    )
    serve.add_argument(
        "--gc-interval",
        type=float,
        default=30.0,
        help="seconds between maintenance passes (lease requeue, adoption, TTL sweep; default: 30)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent matrix result cache (default: cache under <state-dir>/matrix-cache)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=64,
        metavar="N",
        help="LRU bound on result-cache entries (default: 64)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict result-cache entries idle longer than this (default: LRU eviction only)",
    )
    serve.add_argument(
        "--no-pair-store",
        action="store_true",
        help="disable the persistent pair-value store (default: store under <state-dir>/pair-store)",
    )
    serve.add_argument(
        "--max-pair-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="size bound on pair-store segments (default: 256 MiB)",
    )
    serve.add_argument(
        "--pair-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict pair-store segments idle longer than this (default: LRU eviction only)",
    )
    serve.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="require this bearer token on every request (single-tenant auth)",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        metavar="PATH",
        help="tenants.json mapping tenant ids to tokens and quota overrides (multi-tenant auth)",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="refuse request bodies larger than this (default: 64 MiB)",
    )
    serve.add_argument(
        "--tenant-rps",
        type=float,
        default=None,
        metavar="N",
        help="default per-tenant request rate limit in requests/second (default: unlimited)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=int,
        default=None,
        metavar="N",
        help="with --tenant-rps: token-bucket burst capacity (default: twice the rate)",
    )
    serve.add_argument(
        "--max-queued-jobs",
        type=int,
        default=None,
        metavar="N",
        help="default per-tenant bound on live (queued + running) jobs (default: unlimited)",
    )
    serve.add_argument(
        "--max-corpus-strings",
        type=int,
        default=None,
        metavar="N",
        help="default per-tenant bound on submitted corpus size (default: unlimited)",
    )

    worker = subparsers.add_parser(
        "worker", help="run a pull-loop worker over a server's state directory"
    )
    worker.add_argument("--state-dir", required=True, help="the job-store directory shared with the server")
    worker.add_argument("--worker-id", default=None, help="stable worker identity (default: host/pid-derived)")
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="upper bound in seconds on one idle wait when no wake-up arrives; a job queued "
        "on this host wakes the worker at once (default: repro.service.worker.DEFAULT_POLL_INTERVAL)",
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="lease stamped on claimed tasks, renewed while running (default: 30)",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None, help="exit after executing this many tasks (default: unbounded)"
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after the queue stays dry this long (default: run forever)",
    )
    worker.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between claiming and executing each task (rate limit; default: 0)",
    )
    worker.add_argument(
        "--no-pair-store",
        action="store_true",
        help="do not share the pair-value store under <state-dir>/pair-store",
    )

    gc = subparsers.add_parser("gc", help="sweep expired terminal jobs out of a state directory")
    gc.add_argument("--state-dir", required=True, help="the job-store directory to sweep")
    gc.add_argument(
        "--ttl",
        type=float,
        required=True,
        metavar="SECONDS",
        help="drop terminal jobs whose last update is older than this (0 = every terminal job)",
    )
    gc.add_argument("--dry-run", action="store_true", help="print what would be swept without removing it")
    gc.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also evict matrix result-cache entries idle longer than this (0 = every entry; "
        "default: leave the cache alone)",
    )
    gc.add_argument(
        "--max-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="with --cache-ttl: also enforce this LRU bound on the result cache",
    )
    gc.add_argument(
        "--pair-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also evict pair-store segments idle longer than this (0 = every segment; "
        "default: leave the pair store alone)",
    )
    gc.add_argument(
        "--max-pair-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="also shrink the pair store to this many segment bytes (LRU), "
        "usable with or without --pair-ttl",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checkers (atomic writes, lock discipline, "
        "determinism, protocol completeness, typed errors, metric naming)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files and/or directories to scan (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="JSON baseline of grandfathered findings; matched findings do not fail the run",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline from this run: keep matched entries, add current "
        "findings (with TODO justifications), drop stale entries",
    )
    lint.add_argument(
        "--select",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    lint.add_argument(
        "--ignore",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules with their summaries and exit",
    )

    remote = subparsers.add_parser("remote", help="talk to a running analysis service")
    _add_server_arguments(remote, waits_for="results")
    remote_actions = remote.add_subparsers(dest="remote_command", required=True)

    remote_actions.add_parser("health", help="print the server health snapshot")
    remote_actions.add_parser("specs", help="list the server's kernel kinds and warm specs")
    remote_actions.add_parser(
        "cache-stats", help="print the server's matrix result-cache and pair-store counters"
    )
    remote_actions.add_parser(
        "metrics", help="fetch and print the server's Prometheus /metrics page"
    )

    remote_matrix = remote_actions.add_parser(
        "matrix", help="compute a Gram matrix remotely from a directory of trace files"
    )
    remote_matrix.add_argument("corpus", help="directory containing *.trace files")
    _add_kernel_arguments(remote_matrix)
    # A job flag stores into its request field, with that field's default.
    remote_matrix.add_argument(
        "--raw", dest="normalized", action="store_false", default=SubmitMatrixRequest.normalized,
        help="skip cosine normalisation",
    )
    remote_matrix.add_argument(
        "--shards", type=int, default=SubmitMatrixRequest.shards,
        help="block-shard count for a --distributed job (default: 1)",
    )
    remote_matrix.add_argument(
        "--distributed", action="store_true", default=SubmitMatrixRequest.distributed,
        help="persist the shard blocks as leasable tasks for external `repro-iokast worker` processes",
    )
    remote_matrix.add_argument(
        "--no-cache", dest="use_cache", action="store_false", default=SubmitMatrixRequest.use_cache,
        help="bypass the server's matrix result cache (always re-evaluate kernel pairs)",
    )
    remote_matrix.add_argument("--no-wait", action="store_true", help="print the job id instead of waiting")
    remote_matrix.add_argument("--output", default=None, help="write the JSON payload here instead of stdout")

    remote_analyze = remote_actions.add_parser(
        "analyze", help="run the full analysis pipeline remotely from a directory of trace files"
    )
    remote_analyze.add_argument("corpus", help="directory containing *.trace files")
    _add_kernel_arguments(remote_analyze)
    remote_analyze.add_argument(
        "--clusters", dest="n_clusters", default=SubmitAnalyzeRequest.n_clusters,
        type=int, metavar="CLUSTERS", help="cluster count (default: %(default)s)",
    )
    remote_analyze.add_argument(
        "--components", dest="n_components", default=SubmitAnalyzeRequest.n_components,
        type=int, metavar="COMPONENTS", help="kernel-PCA components (default: %(default)s)",
    )
    remote_analyze.add_argument(
        "--linkage", choices=list(LINKAGES), default=SubmitAnalyzeRequest.linkage,
        help="hierarchical-clustering linkage (default: %(default)s)",
    )
    remote_analyze.add_argument("--no-wait", action="store_true", help="print the job id instead of waiting")
    remote_analyze.add_argument("--output", default=None, help="write the JSON payload here instead of stdout")

    remote_status = remote_actions.add_parser("status", help="print one job's status")
    remote_status.add_argument("job_id", help="job id returned by a submit")

    remote_result = remote_actions.add_parser("result", help="fetch one job's result payload")
    remote_result.add_argument("job_id", help="job id returned by a submit")
    remote_result.add_argument("--output", default=None, help="write the JSON payload here instead of stdout")
    remote_result.add_argument("--forget", action="store_true", help="drop the job server-side after delivery")

    remote_cancel = remote_actions.add_parser("cancel", help="cancel a queued job")
    remote_cancel.add_argument("job_id", help="job id returned by a submit")

    model = subparsers.add_parser(
        "model", help="fit and serve streaming landmark models on a running analysis service"
    )
    _add_server_arguments(model, waits_for="fits")
    model_actions = model.add_subparsers(dest="model_command", required=True)

    model_fit = model_actions.add_parser(
        "fit", help="fit a landmark model server-side from a directory of trace files"
    )
    model_fit.add_argument("corpus", help="directory containing *.trace files")
    model_fit.add_argument("--name", required=True, help="model name (the store key)")
    _add_kernel_arguments(model_fit)
    model_fit.add_argument(
        "--landmarks", type=int, default=FitModelRequest.landmarks,
        help="landmark count m (default: %(default)s)",
    )
    model_fit.add_argument(
        "--strategy", choices=list(LANDMARK_STRATEGIES), default=FitModelRequest.strategy,
        help="landmark selection strategy (default: %(default)s)",
    )
    model_fit.add_argument(
        "--seed", type=int, default=FitModelRequest.seed, help="selection seed (default: %(default)s)"
    )
    model_fit.add_argument(
        "--components", dest="n_components", default=FitModelRequest.n_components,
        type=int, metavar="COMPONENTS", help="Nyström/kPCA components (default: %(default)s)",
    )
    model_fit.add_argument(
        "--clusters", dest="n_clusters", default=FitModelRequest.n_clusters, type=int, metavar="CLUSTERS",
        help="fit kernel k-means pseudo-labels with this many clusters "
        "(default: only when the corpus is unlabelled)",
    )
    model_fit.add_argument(
        "--no-cache", dest="use_cache", action="store_false", default=FitModelRequest.use_cache,
        help="bypass the server's matrix result cache when computing the fitting Gram",
    )

    model_classify = model_actions.add_parser(
        "classify", help="classify trace files against a stored model"
    )
    model_classify.add_argument("traces", nargs="+", help="trace files to classify")
    model_classify.add_argument("--name", required=True, help="stored model name")
    model_classify.add_argument("--no-bytes", action="store_true", help="ignore byte information")
    model_classify.add_argument(
        "--embed", action="store_true", help="also return the Nyström/kPCA embedding per trace"
    )
    model_classify.add_argument("--output", default=None, help="write the JSON response here too")

    model_actions.add_parser("list", help="list the server's stored models and serve counters")

    return parser


def _add_kernel_arguments(parser: argparse.ArgumentParser) -> None:
    """The kernel flags of a command that reads a trace directory, and ``--spec``."""
    parser.add_argument("--kernel", choices=list(kernel_choices()), default="kast", help="kernel kind")
    parser.add_argument("--cut-weight", type=int, default=2, help="cut weight / minimum substring weight")
    parser.add_argument("--spectrum-k", type=int, default=3, help="substring length bound (spectrum/blended)")
    parser.add_argument("--no-bytes", action="store_true", help="ignore byte information")
    _add_spec_argument(parser)


def _add_server_arguments(parser: argparse.ArgumentParser, waits_for: str) -> None:
    """The flags that reach a running analysis service."""
    parser.add_argument("--url", required=True, help="server base URL, e.g. http://127.0.0.1:8123")
    parser.add_argument(
        "--timeout", type=float, default=600.0, help=f"seconds to wait for {waits_for} (default: 600)"
    )
    parser.add_argument(
        "--token", default=None, metavar="SECRET",
        help="bearer token for an auth-enabled server (default: $REPRO_SERVICE_TOKEN)",
    )


def _job_fields(args: argparse.Namespace, request_type: type) -> Dict[str, Any]:
    """The job fields of *request_type* that *args* carries.

    A job flag stores into its request field (``--clusters`` into
    ``n_clusters``) with that field's default, so the request dataclass
    stays the one place a job field and its default are written.
    """
    return {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(request_type)
        if field.name not in ("spec", "strings", "trace_id") and hasattr(args, field.name)
    }


def _add_spec_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="JSON kernel-spec file (overrides the kernel flags; see repro.api.KernelSpec)",
    )


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """The Kast backend flag shared by the kernel-evaluating commands."""
    parser.add_argument(
        "--backend",
        choices=list(KAST_BACKENDS),
        default="numpy",
        help="Kast candidate-search implementation (default: numpy)",
    )


def _load_spec(path: str) -> KernelSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return KernelSpec.from_json(handle.read())


def _spec_from_args(args: argparse.Namespace) -> KernelSpec:
    """The ``--spec`` file of a kernel-evaluating command, else the spec its kernel flags name."""
    if args.spec is not None:
        return _load_spec(args.spec)
    return experiment_spec(
        getattr(args, "kernel", "kast"),
        cut_weight=args.cut_weight,
        spectrum_k=getattr(args, "spectrum_k", 3),
        backend=getattr(args, "backend", "numpy"),
    )


def _command_generate(args: argparse.Namespace) -> int:
    config = CorpusConfig.small(seed=args.seed) if args.small else CorpusConfig.paper(seed=args.seed)
    traces = build_corpus(config)
    os.makedirs(args.output, exist_ok=True)
    for trace in traces:
        write_trace(trace, os.path.join(args.output, f"{trace.name}.trace"))
    print(f"wrote {len(traces)} traces to {args.output}")
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    trace = parse_trace_file(args.trace)
    string = trace_to_string(trace, use_byte_information=not args.no_bytes)
    print(string.to_text())
    print(f"# tokens={len(string)} total_weight={string.total_weight()}", file=sys.stderr)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    trace_a = parse_trace_file(args.trace_a)
    trace_b = parse_trace_file(args.trace_b)
    use_bytes = not args.no_bytes
    string_a = trace_to_string(trace_a, use_byte_information=use_bytes)
    string_b = trace_to_string(trace_b, use_byte_information=use_bytes)
    spec = _spec_from_args(args)
    session = AnalysisSession()
    kernel = session.kernel(spec)
    embed = getattr(kernel, "embed", None)
    if callable(embed):
        print(embed(string_a, string_b).describe())
    else:
        print(f"kernel spec               : {spec.canonical()}")
    print(f"raw kernel value        : {session.value(spec, string_a, string_b)}")
    print(f"normalised kernel value : {session.normalized_value(spec, string_a, string_b):.6f}")
    return 0


def _emit_payload(payload: dict, output: Optional[str], summary: str) -> None:
    """Write a JSON payload to *output* (with a one-line summary) or stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        directory = os.path.dirname(os.path.abspath(output))
        os.makedirs(directory, exist_ok=True)
        # Atomic so a Ctrl-C mid-dump never leaves a truncated payload a
        # later `repro compare`/ingest step would trip over.
        write_text_atomic(output, text + "\n")
        print(summary)
    else:
        print(text)


def _command_matrix(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    session = AnalysisSession()
    strings = session.corpus_from_directory(args.corpus, use_byte_information=not args.no_bytes)
    matrix = session.matrix(spec, strings, normalized=not args.raw)
    # One stamped-payload format for files and stdout: the engine owns it.
    payload = session.engine(spec).matrix_payload(matrix, strings)
    _emit_payload(
        payload, args.output, f"wrote {len(strings)}x{len(strings)} {spec.kind} matrix to {args.output}"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.name == "worked-example":
        for key, value in experiment_worked_example().items():
            print(f"{key}: {value}")
        return 0
    result = _EXPERIMENTS[args.name](
        seed=args.seed, cut_weight=args.cut_weight, backend=args.backend
    )
    print(summarise_result(result, title=f"experiment {args.name}"))
    print()
    print(scatter_from_kpca(result.kpca, title="Kernel PCA (first two components)"))
    print()
    print(cluster_tree_summary(result.clustering.dendrogram))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.spec is not None:
        config = ExperimentConfig(
            spec=_load_spec(args.spec),
            use_byte_information=not args.no_bytes,
            n_clusters=3,
            corpus=CorpusConfig.paper(seed=args.seed),
        )
        sweep = cut_weight_sweep(config)
        byte_text = "ignored" if args.no_bytes else "kept"
        title = f"cut-weight sweep ({config.spec.kind} spec, byte information {byte_text})"
    elif args.no_bytes:
        sweep = experiment_nobytes_variant(seed=args.seed, backend=args.backend)
        title = "cut-weight sweep (byte information ignored)"
    else:
        sweep = experiment_cut_weight_sweep(seed=args.seed, backend=args.backend)
        title = "cut-weight sweep (byte information kept)"
    print(summarise_sweep(sweep, title=title))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure_logging
    from repro.service import AnalysisServer, Authenticator, TenantQuotas, serve_stdio
    from repro.service.server import DEFAULT_MAX_REQUEST_BYTES

    # Long-running process: honour REPRO_LOG_JSON / REPRO_LOG_LEVEL so the
    # structured trace-carrying log lines are one env var away.
    configure_logging()
    if args.token and args.tenants:
        print("use --token (single tenant) or --tenants (file), not both", file=sys.stderr)
        return 2
    if args.tenants:
        authenticator = Authenticator.from_file(args.tenants)
    elif args.token:
        authenticator = Authenticator.single(args.token)
    else:
        authenticator = None
    default_quotas = TenantQuotas(
        requests_per_second=args.tenant_rps,
        burst=args.tenant_burst,
        max_queued_jobs=args.max_queued_jobs,
        max_corpus_strings=args.max_corpus_strings,
    )
    server = AnalysisServer(
        state_dir=args.state_dir,
        max_job_workers=args.job_workers,
        inline_blocks=not args.no_inline_blocks,
        lease_seconds=args.lease_seconds,
        job_ttl=args.job_ttl,
        gc_interval=args.gc_interval,
        result_cache=not args.no_cache,
        max_cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        pair_store=not args.no_pair_store,
        max_pair_bytes=args.max_pair_bytes,
        pair_ttl=args.pair_ttl,
        authenticator=authenticator,
        default_quotas=None if default_quotas.unlimited else default_quotas,
        max_request_bytes=(
            args.max_request_bytes if args.max_request_bytes is not None
            else DEFAULT_MAX_REQUEST_BYTES
        ),
    )
    if server.auth.enabled:
        tenants = ", ".join(server.auth.tenant_ids)
        print(f"auth enabled for tenant(s): {tenants}", file=sys.stderr)
    try:
        if args.stdio:
            # Protocol traffic owns stdout; operator chatter goes to stderr.
            print(f"serving stdio protocol (state dir {server.store.root})", file=sys.stderr)
            serve_stdio(server, sys.stdin, sys.stdout)
            return 0

        def announce(host: str, port: int) -> None:
            if args.port_file:
                directory = os.path.dirname(os.path.abspath(args.port_file))
                os.makedirs(directory, exist_ok=True)
                # Atomic: smoke scripts poll this path and must never read
                # an empty just-created file before the port lands in it.
                write_text_atomic(args.port_file, f"{port}\n")
            print(f"serving on http://{host}:{port} (state dir {server.store.root})")

        try:
            server.serve_http_forever(host=args.host, port=args.port, ready=announce)
        except KeyboardInterrupt:
            print("shutting down")
        return 0
    finally:
        server.close()


def _command_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.obs.logging import configure_logging
    from repro.service.worker import DEFAULT_POLL_INTERVAL, Worker

    configure_logging()
    worker = Worker(
        state_dir=args.state_dir,
        worker_id=args.worker_id,
        poll_interval=DEFAULT_POLL_INTERVAL if args.poll_interval is None else args.poll_interval,
        lease_seconds=args.lease_seconds,
        throttle=args.throttle,
        pair_store=not args.no_pair_store,
    )
    # Drain the current task, then exit cleanly on SIGTERM/SIGINT; SIGKILL
    # needs no handling — the lease expires and the task is reclaimed.
    signal.signal(signal.SIGTERM, lambda signum, frame: worker.stop())
    print(
        f"worker {worker.worker_id} pulling from {worker.store.root} "
        f"(poll {worker.poll_interval}s, lease {worker.lease_seconds}s)",
        file=sys.stderr,
    )
    try:
        worker.run_forever(max_tasks=args.max_tasks, idle_exit=args.idle_exit)
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
    print(
        f"worker {worker.worker_id} exiting: {worker.completed} task(s) done, {worker.failed} failed",
        file=sys.stderr,
    )
    # Batch pipelines key off the exit status: a worker that failed tasks
    # and completed none must not report success.
    return 1 if worker.failed and not worker.completed else 0


def _command_gc(args: argparse.Namespace) -> int:
    from repro.service.tenancy import DEFAULT_TENANT, StateDir, namespace_stats, sweep_namespace

    # An unset cache bound stays with the serving process: a TTL-only or
    # size-only sweep must not apply this offline tool's defaults for the
    # other knob.
    state = StateDir(
        args.state_dir,
        recover=False,
        max_cache_entries=sys.maxsize if args.max_cache_entries is None else args.max_cache_entries,
        cache_ttl=args.cache_ttl,
        max_pair_bytes=sys.maxsize if args.max_pair_bytes is None else args.max_pair_bytes,
        pair_ttl=args.pair_ttl,
    )
    sweep_cache = args.cache_ttl is not None
    sweep_pairs = args.pair_ttl is not None or args.max_pair_bytes is not None
    verb = "would sweep" if args.dry_run else "swept"
    # Tenant namespaces are their own stores and caches; each is swept
    # under the same knobs, with a banner so operators can tell whose
    # layer summary they are reading.
    for namespace in state.namespaces():
        if namespace.tenant_id != DEFAULT_TENANT:
            print(f"tenant {namespace.tenant_id}:")
        swept = sweep_namespace(
            namespace, args.ttl, matrix_cache=sweep_cache, pair_store=sweep_pairs,
            dry_run=args.dry_run,
        )
        stats = namespace_stats(namespace, full=True)
        cache, pairs, models = stats["matrix_cache"], stats["pair_store"], stats["model_store"]
        print(f"{verb} {len(swept['jobs'])} job(s) from {namespace.root}")
        for job_id in swept["jobs"]:
            print(f"  {job_id}")
        if sweep_cache and args.dry_run:
            print(f"would sweep up to {cache['entries']} result-cache entr(ies) from {cache['root']}")
        elif sweep_cache:
            print(f"evicted {len(swept['matrix_cache'])} result-cache entr(ies) from {cache['root']}")
        if sweep_pairs and args.dry_run:
            print(f"would sweep up to {pairs['segments']} pair-store segment(s) from {pairs['root']}")
        elif sweep_pairs:
            print(f"evicted {len(swept['pair_store'])} pair-store segment(s) from {pairs['root']}")
        # One line per persistent layer on every run, sweep or not.
        print(
            f"matrix cache: {cache['entries']} entr(ies), "
            f"{cache['payload_bytes']} payload byte(s)"
        )
        print(
            f"pair store  : {pairs['entries']} value(s) in {pairs['segments']} "
            f"segment(s), {pairs['payload_bytes']} payload byte(s)"
        )
        print(
            f"models      : {models['models']} model(s), "
            f"{models['payload_bytes']} byte(s), "
            f"{models['quarantined']} quarantined"
        )
    if not args.dry_run:
        remove_stale_temp_files(state.metrics_dir)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint.cli import run_lint

    return run_lint(args)


def _command_remote(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    with ServiceClient(args.url, token=args.token) as client:
        if args.remote_command == "health":
            health = client.health()
            print(json.dumps(health, indent=2, sort_keys=True))
            # One human-readable line for operators eyeballing a fleet;
            # older servers predate the uptime fields, so guard each one.
            if health.get("uptime_seconds") is not None:
                print(
                    f"# up {health['uptime_seconds']:.1f}s"
                    f" (started_at {health.get('started_at')}, pid {health.get('pid')})",
                    file=sys.stderr,
                )
            # With tenancy active the server reports one namespace summary
            # per tenant; give operators the roll-up at a glance.
            tenants = health.get("tenants")
            if isinstance(tenants, dict):
                for tenant_id in sorted(tenants):
                    summary = tenants[tenant_id]
                    jobs = summary.get("jobs")
                    job_count = sum(jobs.values()) if isinstance(jobs, dict) else jobs
                    print(
                        f"# tenant {tenant_id}: {job_count} job(s), "
                        f"queue depth {summary.get('queue_depth')}, "
                        f"{summary.get('matrix_cache_entries')} cached matrix(es), "
                        f"{summary.get('models')} model(s)",
                        file=sys.stderr,
                    )
            return 0
        if args.remote_command == "specs":
            print(json.dumps(client.specs(), indent=2, sort_keys=True))
            return 0
        if args.remote_command == "cache-stats":
            print(json.dumps(client.cache_stats(), indent=2, sort_keys=True))
            return 0
        if args.remote_command == "metrics":
            # Prometheus text is already line-oriented and human-readable;
            # print it verbatim so the output doubles as a scrape sample.
            print(client.metrics_text(), end="")
            return 0
        if args.remote_command == "status":
            print(client.status(args.job_id))
            return 0
        if args.remote_command == "result":
            payload = client.result_payload(args.job_id, timeout=args.timeout, forget=args.forget)
            _emit_payload(payload, args.output, f"wrote result of {args.job_id} to {args.output}")
            return 0
        if args.remote_command == "cancel":
            try:
                client.cancel(args.job_id)
            except CannotCancel as exc:
                print(f"not cancelled: {exc}")
                return 1
            print("cancelled")
            return 0
        # matrix / analyze: both read a trace directory under a spec.
        spec = _spec_from_args(args)
        strings = AnalysisSession().corpus_from_directory(args.corpus, use_byte_information=not args.no_bytes)
        analyze = args.remote_command == "analyze"
        fields = _job_fields(args, SubmitAnalyzeRequest if analyze else SubmitMatrixRequest)
        if args.no_wait:
            print((client.submit_analyze if analyze else client.submit)(spec, strings, **fields))
            return 0
        run = client.analyze_job if analyze else client.matrix_job
        job = run(spec, strings, timeout=args.timeout, **fields)
        cache = job.get("cache")
        if analyze:
            cache_text = f", matrix cache {cache}" if cache else ""
            summary = f"wrote analysis of {len(strings)} trace(s) under {spec.kind}{cache_text}"
        else:
            request = SubmitMatrixRequest(spec=spec.to_dict(), **fields)
            details = [f"{request.shard_count} shard(s), distributed"] if request.distributed else []
            details += [f"cache {cache}"] if cache else []
            detail_text = f" ({', '.join(details)})" if details else ""
            summary = f"wrote {len(strings)}x{len(strings)} {spec.kind} matrix{detail_text}"
        _emit_payload(job["payload"], args.output, f"{summary} to {args.output}")
        if analyze and not args.output and cache:
            print(f"# matrix cache: {cache}", file=sys.stderr)
        return 0


def _command_model(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    with ServiceClient(args.url, token=args.token) as client:
        if args.model_command == "list":
            print(json.dumps(client.models(), indent=2, sort_keys=True))
            return 0
        if args.model_command == "fit":
            spec = _spec_from_args(args)
            session = AnalysisSession()
            strings = session.corpus_from_directory(
                args.corpus, use_byte_information=not args.no_bytes
            )
            job = client.fit_model(spec, strings, timeout=args.timeout, **_job_fields(args, FitModelRequest))
            summary = job["payload"]
            cache_text = f", cache {job['cache']}" if job.get("cache") else ""
            print(
                f"fitted model {summary['name']}: {summary['landmarks']} landmark(s) "
                f"from {len(strings)} trace(s), strategy {summary['strategy']}{cache_text}"
            )
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        # classify
        strings = [
            trace_to_string(parse_trace_file(path), use_byte_information=not args.no_bytes)
            for path in args.traces
        ]
        response = client.classify(args.name, strings, embed=args.embed)
        for entry in response["results"]:
            cost = "warm (0 evals)" if entry["warm"] else f"{entry['kernel_evals']} eval(s)"
            print(f"{entry['name']}: {entry['label']} [{cost}]")
        print(
            f"# model {response['model']}: {response['kernel_evals']} kernel eval(s), "
            f"{response['warm_traces']}/{len(strings)} warm, "
            f"{response['elapsed_seconds'] * 1000.0:.2f} ms server-side",
            file=sys.stderr,
        )
        if args.output:
            _emit_payload(
                response, args.output,
                f"wrote classification of {len(strings)} trace(s) to {args.output}",
            )
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-iokast`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "generate": _command_generate,
        "convert": _command_convert,
        "compare": _command_compare,
        "matrix": _command_matrix,
        "experiment": _command_experiment,
        "sweep": _command_sweep,
        "serve": _command_serve,
        "worker": _command_worker,
        "gc": _command_gc,
        "lint": _command_lint,
        "remote": _command_remote,
        "model": _command_model,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
