"""The four traffic mixes: inputs from the seed, warm-up, operations, checks.

Every input string comes from the paper's A–D generators, mutated and
encoded as ``paper_strings`` builds the paper corpus, and is used at
most once per run unless a workload repeats it on purpose:
:class:`NeverSeen` drops any string whose content fingerprint it already
handed out, because corpora built from nearby seeds share most of their
strings.  The operations of each client are
fixed before the server starts, so one seed always sends the same
requests in the same order; how many of them a run gets through depends
on the speed of the system.  A workload's input pool holds
``POOL_MARGIN`` times the operations it completes per second today, so
a faster program still has inputs left at the end of the timed phase.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.api import AnalysisSession, make_spec
from repro.core.engine import string_fingerprint
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline
from repro.service import ServiceClient
from repro.streaming.scorer import StreamingScorer
from repro.streaming.store import ModelStore
from repro.strings.tokens import WeightedString
from repro.workloads.corpus import CorpusConfig, build_corpus

#: The kernel every request asks for: the paper's Kast kernel, cut weight 2.
SPEC = make_spec("kast", cut_weight=2)

#: The classes of the paper's corpus (section 4.1), one generator each.
LABELS = ("A", "B", "C", "D")

#: Strings per matrix job of ``cold_gram`` / ``distributed_gram``
#: (40 * 41 / 2 = 820 kernel evaluations, self values included).
GRAM_SIZE = 40

#: Size of the ``replay_mix`` base corpus.
BASE_SIZE = 60

#: Corpus the ``classify_stream`` model is fitted on, and its landmarks.
FIT_SIZE = 40
LANDMARKS = 16
MODEL = "bench"

#: Input pool size as a multiple of today's completed operations.
POOL_MARGIN = 2.0

#: Seconds one operation may take before it counts as failed.
OP_TIMEOUT = 120.0


class NeverSeen:
    """A seeded stream of weighted strings, none repeated within a run.

    Strings come out class by class in turn (A, B, C, D, A, ...), so every
    corpus of 4k strings holds k of each class whatever the seed: the
    classes differ in string length, and with it in kernel cost, so a
    seed-dependent class mix would make one seed's run slower than
    another's.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._corpora = 0
        self._turn = 0
        self._seen: Set[str] = set()
        self._pending: Dict[str, Deque[WeightedString]] = {label: deque() for label in LABELS}
        # paper_strings' encoding: bytes kept, the paper's compaction.
        self._pipeline = AnalysisPipeline(ExperimentConfig(use_byte_information=True))

    def _refill(self, label: str) -> None:
        """Generate one class's share of a paper corpus: 4 originals, 4 copies each."""
        # Corpus seeds 10007 apart: one corpus draws on seeds
        # seed .. seed + ~110, so neighbouring corpora share no seed.
        corpus_seed = 1 + (self._seed % 100_000) * 20_011 + self._corpora * 10_007
        self._corpora += 1
        traces = build_corpus(CorpusConfig(originals_per_class={label: 4}, seed=corpus_seed))
        for string in self._pipeline.encode(traces):
            fingerprint = string_fingerprint(string)
            if fingerprint not in self._seen:
                self._seen.add(fingerprint)
                # Unique names keep every corpus's names distinct, as the
                # payload and the result-cache key both carry them.
                self._pending[label].append(string.with_name(f"{string.name}.{len(self._seen)}"))

    def take(self, count: int) -> List[WeightedString]:
        taken: List[WeightedString] = []
        while len(taken) < count:
            label = LABELS[self._turn % len(LABELS)]
            if not self._pending[label]:
                self._refill(label)
                continue
            taken.append(self._pending[label].popleft())
            self._turn += 1
        return taken


@dataclass(frozen=True)
class Operation:
    """One request of the timed phase: its kind and its input strings."""

    kind: str
    strings: Tuple[WeightedString, ...]


def canonical(payload: Any) -> str:
    """The byte form two matrix payloads are compared in."""
    return json.dumps(payload, sort_keys=True)


class MatrixReference:
    """Reference payloads from a local :class:`AnalysisSession`."""

    def __init__(self, session: Optional[AnalysisSession] = None) -> None:
        self.session = session if session is not None else AnalysisSession()
        self._memo: Dict[Tuple[str, ...], str] = {}

    def payload_text(self, strings: Sequence[WeightedString]) -> str:
        key = tuple(string.name for string in strings)
        if key not in self._memo:
            matrix = self.session.matrix(SPEC, list(strings))
            self._memo[key] = canonical(self.session.engine(SPEC).matrix_payload(matrix, strings))
        return self._memo[key]


def _matrix(client: ServiceClient, strings: Sequence[WeightedString], trace_id: Optional[str],
            **options: Any) -> Tuple[Dict[str, Any], str]:
    job = client.matrix_job(SPEC, strings, timeout=OP_TIMEOUT, trace_id=trace_id, **options)
    return job["payload"], job["job_id"]


class Workload:
    """One traffic mix.  Subclasses fill in inputs, requests and checks."""

    name = ""
    clients = 1
    #: Completed operations per second and client on the reference
    #: machine; sizes the input pool.
    ops_per_second = 1.0
    #: The tail percentile reported as ``latency_tail_ms``: the highest
    #: one with at least ten samples beyond it at today's operation count
    #: of a 10-second run.
    tail_percentile = 50.0
    server_args: Tuple[str, ...] = ()
    with_worker = False

    def __init__(self, seed: int, seconds: float) -> None:
        self.source = NeverSeen(seed)
        self.capacity = math.ceil(self.ops_per_second * seconds * POOL_MARGIN) + 1
        self._operations: List[List[Operation]] = []

    def prepare(self, work_dir: str) -> None:
        """Once per run, before any server starts."""

    def prepare_state(self, state_dir: str) -> None:
        """Before each server start, on its empty state dir."""

    def warm_up(self, client: ServiceClient) -> None:
        raise NotImplementedError

    def operations(self, client_index: int) -> List[Operation]:
        return self._operations[client_index]

    def execute(self, client: ServiceClient, op: Operation, trace_id: str) -> Tuple[Any, Optional[str]]:
        """Send one operation; its answer and job id (``None`` without a job)."""
        raise NotImplementedError

    def is_wrong(self, answers: Sequence[Tuple[Operation, Any]], state_dir: str) -> List[bool]:
        """For each answered operation, whether its answer is wrong."""
        raise NotImplementedError


class ColdGram(Workload):
    """Monolithic matrix jobs over never-seen strings: kernel and engine."""

    name = "cold_gram"
    clients = 1
    ops_per_second = 3.5
    tail_percentile = 65.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.warm = self.source.take(GRAM_SIZE)
        self._operations = [[
            Operation("cold", tuple(self.source.take(GRAM_SIZE))) for _ in range(self.capacity)
        ]]

    def warm_up(self, client: ServiceClient) -> None:
        self.execute(client, Operation("cold", tuple(self.warm)), None)

    def execute(self, client, op, trace_id):
        return _matrix(client, op.strings, trace_id)

    def is_wrong(self, answers, state_dir):
        reference = MatrixReference()
        return [canonical(answer) != reference.payload_text(op.strings) for op, answer in answers]


class DistributedGram(ColdGram):
    """The same jobs as four-shard distributed jobs drained by one worker."""

    name = "distributed_gram"
    ops_per_second = 1.5
    tail_percentile = 50.0
    server_args = ("--no-inline-blocks",)
    with_worker = True

    def execute(self, client, op, trace_id):
        return _matrix(client, op.strings, trace_id, shards=4, distributed=True)


class ReplayMix(Workload):
    """Resubmits of one base corpus, answered by each cache layer in turn.

    A third of the operations resubmit the base corpus unchanged (a
    matrix-cache hit); a third reorder it or take a reordered subset (a
    matrix-cache miss whose pairs the in-memory pair cache holds); a
    third swap two of its strings for never-seen ones whose kernel values
    — with the base, with each other and with themselves — a separate
    process wrote to the state dir's pair store before the server
    started (pair-store hits, no kernel evaluation).

    The kinds take distinct latencies (hits fastest, pair-store reads
    slowest), so the median lands in the middle third: reorders and
    subsets alternate, and a subset drops only 1 to 5 strings, so the
    middle third is one latency band and its middle a stable median.
    """

    name = "replay_mix"
    clients = 2
    ops_per_second = 8.0
    tail_percentile = 90.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self._rng = random.Random(seed)
        self.base = self.source.take(BASE_SIZE)
        self.fresh: List[WeightedString] = []
        self.warm = [self._operation(kind) for kind in ("exact", "reorder", "subset", "perturbed")]
        for _ in range(self.clients):
            kinds: List[str] = []
            while len(kinds) < self.capacity:
                block = ["exact", "exact", "reorder", "subset", "perturbed", "perturbed"]
                self._rng.shuffle(block)
                kinds.extend(block)
            self._operations.append([self._operation(kind) for kind in kinds[: self.capacity]])
        self.reference: Optional[MatrixReference] = None
        self._template = ""

    def _operation(self, kind: str) -> Operation:
        if kind == "exact":
            return Operation(kind, tuple(self.base))
        if kind == "reorder":
            return Operation(kind, tuple(self._rng.sample(self.base, BASE_SIZE)))
        if kind == "subset":
            size = self._rng.randint(BASE_SIZE - 5, BASE_SIZE - 1)
            return Operation(kind, tuple(self._rng.sample(self.base, size)))
        pair = self.source.take(2)
        self.fresh.extend(pair)
        strings = list(self.base)
        for position, string in zip(self._rng.sample(range(BASE_SIZE), 2), pair):
            strings[position] = string
        return Operation(kind, tuple(strings))

    def prepare(self, work_dir: str) -> None:
        """Write the perturbed strings' kernel values into a template store."""
        self._template = os.path.join(work_dir, "replay-pair-store")
        session = AnalysisSession(pair_store=self._template)
        engine = session.engine(SPEC)
        strings = self.base + self.fresh
        count = len(self.base)
        pairs = [(row, count + column) for row in range(count) for column in range(len(self.fresh))]
        pairs += [(count + index, count + index + 1) for index in range(0, len(self.fresh), 2)]
        engine.evaluate_pairs(strings, pairs)
        engine.self_values(self.fresh)
        # The same warm engine, detached from the store, computes the
        # reference answers later.
        session.set_pair_store(None)
        self.reference = MatrixReference(session)

    def prepare_state(self, state_dir: str) -> None:
        shutil.copytree(self._template, os.path.join(state_dir, "pair-store"))

    def warm_up(self, client: ServiceClient) -> None:
        for op in self.warm:
            self.execute(client, op, None)

    def execute(self, client, op, trace_id):
        return _matrix(client, op.strings, trace_id)

    def is_wrong(self, answers, state_dir):
        assert self.reference is not None, "prepare() computes the reference session"
        return [canonical(answer) != self.reference.payload_text(op.strings) for op, answer in answers]


class ClassifyStream(Workload):
    """Synchronous ``classify`` of never-seen traces against a stored model."""

    name = "classify_stream"
    clients = 2
    ops_per_second = 25.0
    tail_percentile = 97.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.fit_corpus = self.source.take(FIT_SIZE)
        self.warm = self.source.take(1)
        self._operations = [
            [Operation("classify", (string,)) for string in self.source.take(self.capacity)]
            for _ in range(self.clients)
        ]

    def warm_up(self, client: ServiceClient) -> None:
        client.fit_model(SPEC, self.fit_corpus, name=MODEL, landmarks=LANDMARKS, timeout=OP_TIMEOUT)
        client.classify(MODEL, self.warm)

    def execute(self, client, op, trace_id):
        return client.classify(MODEL, op.strings, trace_id=trace_id)["results"][0], None

    def is_wrong(self, answers, state_dir):
        model = ModelStore(os.path.join(state_dir, "models")).load(MODEL)
        scorer = StreamingScorer(model, AnalysisSession())
        wrong = []
        for op, answer in answers:
            expected = scorer.classify(op.strings[0])
            wrong.append(expected.label != answer["label"] or expected.scores != answer["scores"])
        return wrong


WORKLOADS = {
    workload.name: workload for workload in (ColdGram, ReplayMix, ClassifyStream, DistributedGram)
}
