"""Drive the analysis service with one traffic mix and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_gram --seed 1 --seconds 10 --trace 0

The run builds its inputs from ``--seed``, starts the server (and, for
``distributed_gram``, a worker) from ``perfbench/entry.py`` on a fresh
state dir under ``.perfbench/``, sends the workload's untimed warm-up
requests, then drives the server with closed-loop clients for
``--seconds`` seconds and checks every answer against a local
computation.  With ``--trace 0`` it sets up ``SETUPS`` times and reports
the end-to-end metrics; with ``--trace 1`` it sets up once, with the
layer functions wrapped, and reports the per-layer metrics.

The next-to-last line of standard output is a JSON stamp of the
environment and the run (nproc, versions, seed, operation counts, the
tail percentile, the error rate); the last line is the result::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Server start-ups per untimed run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "ops/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class OpRecord:
    """One timed operation as the client saw it."""

    kind: str
    trace: str
    started: float
    finished: float
    job: Optional[str] = None
    answer: Any = None
    error: Optional[str] = None
    op: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1000.0


@dataclass
class RunResult:
    """Everything one run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    wrong: int
    stamp: Dict[str, Any]
    per_op: List[Dict[str, Any]] = field(default_factory=list)

    def result_line(self, units: Dict[str, str]) -> Dict[str, Any]:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in self.metrics.items()
            },
        }


def percentile(samples: List[float], q: float) -> float:
    """Linear interpolation between the closest ranks (numpy's default)."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def timed_phase(url: str, workload: Any, seconds: float) -> List[OpRecord]:
    """Closed loop: each client sends its next operation when the last returns."""
    from repro.obs.tracing import trace_context
    from repro.service import ServiceClient

    records: List[List[OpRecord]] = [[] for _ in range(workload.clients)]
    ready = threading.Barrier(workload.clients + 1)
    window: Dict[str, float] = {}

    def client_loop(index: int) -> None:
        client = ServiceClient(url, retries=0)
        operations = workload.operations(index)
        ready.wait()
        for position, op in enumerate(operations):
            if time.perf_counter() >= window["deadline"]:
                return
            trace_id = f"{workload.name}.{index}.{position}"
            record = OpRecord(op.kind, trace_id, time.perf_counter(), 0.0, op=op)
            try:
                with trace_context(trace_id):
                    record.answer, record.job = workload.execute(client, op, trace_id)
            except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
                record.error = f"{type(exc).__name__}: {exc}"
            record.finished = time.perf_counter()
            records[index].append(record)
        print(f"client {index} ran out of inputs after {len(operations)} operations",
              file=sys.stderr)

    threads = [threading.Thread(target=client_loop, args=(index,)) for index in range(workload.clients)]
    for thread in threads:
        thread.start()
    window["deadline"] = time.perf_counter() + seconds
    ready.wait()
    for thread in threads:
        thread.join()
    return [record for client_records in records for record in client_records]


def engine_counters(url: str) -> Dict[str, float]:
    """Engine pair-cache counters summed over every process, from ``/metrics``."""
    from repro.service import ServiceClient

    totals = {"pair_hits": 0.0, "pair_misses": 0.0}
    for line in ServiceClient(url, retries=0).metrics_text().splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for key in totals:
            if name == f"repro_engine_{key}_total":
                totals[key] += float(line.rsplit(" ", 1)[1])
    return totals


def environment() -> Dict[str, Any]:
    import numpy

    blas: Dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int = SETUPS) -> RunResult:
    """Set up, measure and check one workload; stops every process it starts."""
    from layers import instrument_client, layer_metrics
    from repro.service import ServiceClient
    from service import Service
    from spans import SpanRecorder, load_spans
    from workloads import WORKLOADS

    phases: Dict[str, float] = {}
    mark = time.perf_counter()

    def phase(label: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[label] = round(now - mark, 3)
        mark = now

    workload = WORKLOADS[name](seed, seconds)
    work_dir = os.path.join(ROOT, ".perfbench", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    client_spans = SpanRecorder("client") if trace else None
    try:
        workload.prepare(work_dir)
        phase("inputs")
        setup_seconds: List[float] = []
        service: Optional[Service] = None
        for index in range(1 if trace else setups):
            if service is not None:
                service.stop()
            state_dir = os.path.join(work_dir, f"state-{index}")
            os.makedirs(state_dir)
            workload.prepare_state(state_dir)
            service = Service(state_dir, workload.server_args, workload.with_worker, traced=trace)
            started = time.perf_counter()
            try:
                service.start()
                workload.warm_up(ServiceClient(service.url, retries=0))
            except BaseException:
                service.stop()
                raise
            setup_seconds.append(time.perf_counter() - started)
        assert service is not None
        phase("setups")
        try:
            if client_spans is not None:
                instrument_client(client_spans)
                before = engine_counters(service.url)
            records = timed_phase(service.url, workload, seconds)
            if client_spans is not None:
                client_spans.unwrap()
                after = engine_counters(service.url)
            peak_rss_mb = service.peak_rss_mb()
        finally:
            problem = service.stop()
        if problem:
            print(f"warning: {problem}", file=sys.stderr)
        phase("timed")
        answered = [record for record in records if record.error is None]
        wrong_flags = workload.is_wrong([(record.op, record.answer) for record in answered],
                                        service.state_dir)
        phase("checks")
        wrong = sum(wrong_flags)
        errors = len(records) - len(answered)
        for record in [record for record in records if record.error is not None][:5]:
            print(f"{record.trace} failed: {record.error}", file=sys.stderr)
        if not answered:
            raise RuntimeError("no operation succeeded in the timed phase")
        latencies = [record.latency_ms for record in answered]
        elapsed = max(record.finished for record in records) - min(record.started for record in records)
        stamp = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            **environment(),
            "operations": dict(Counter(record.kind for record in records)),
            "attempted": len(records), "errors": errors, "wrong": wrong,
            "error_rate": (errors + wrong) / len(records),
            "tail_percentile": workload.tail_percentile,
            "setup_samples_s": setup_seconds,
            "phase_s": phases,
        }
        per_op: List[Dict[str, Any]] = []
        if client_spans is not None:
            ops = [
                {"trace": record.trace, "job": record.job, "kind": record.kind,
                 "latency_ms": record.latency_ms}
                for record, is_wrong in zip(answered, wrong_flags) if not is_wrong
            ]
            counters = {key: after[key] - before[key] for key in after}
            spans = load_spans(service.span_files) + client_spans.spans()
            metrics, per_op = layer_metrics(spans, ops, counters)
        else:
            metrics = {
                "setup_s": statistics.median(setup_seconds),
                "latency_p50_ms": statistics.median(latencies),
                "latency_tail_ms": percentile(latencies, workload.tail_percentile),
                "throughput_rps": len(answered) / elapsed,
                "peak_rss_mb": peak_rss_mb,
            }
        return RunResult(metrics, len(records), errors + wrong, wrong, stamp, per_op)
    finally:
        if client_spans is not None:
            client_spans.unwrap()
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_gram", "replay_mix", "classify_stream", "distributed_gram"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from layers import PER_LAYER_METRICS

    # Unwind through the finally blocks that stop the server and worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(PER_LAYER_METRICS) if args.trace else END_TO_END_UNITS
    print(json.dumps(result.stamp))
    print(json.dumps(result.result_line(units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
