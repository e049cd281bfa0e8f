"""The :class:`AnalysisSession` service facade — the library's front door.

One session owns the mutable, warm state every kernel evaluation can share:

* one :class:`~repro.strings.interner.TokenInterner` (one literal → id space
  for every Kast kernel the session builds);
* one live kernel and one :class:`~repro.core.engine.GramEngine` per
  :class:`~repro.api.spec.KernelSpec` — the engines' symmetric pair caches
  and self-value caches persist across calls, so interactive clients,
  repeated experiments and sweeps reuse each other's evaluations instead of
  recomputing them.

Everything a session does is keyed by declarative specs, so the same facade
serves scripting users (``session.matrix("kast", strings)``), the CLI, and
the service's worker processes (specs are picklable).  Every matrix goes
through :meth:`AnalysisSession.matrix_cached`; the engines evaluate
serially, and the only cross-core parallelism is the service layer's
leased block records.  A session runs everything on the calling thread and
keeps no jobs: asynchronous work is a job-store record of the service
(:mod:`repro.service`), submitted through a
:class:`~repro.service.client.ServiceClient`.

Example
-------
::

    from repro.api import AnalysisSession, make_spec

    with AnalysisSession() as session:
        strings = session.corpus(small=True, seed=7)
        matrix = session.matrix(make_spec("kast", cut_weight=4), strings)
        other = session.matrix("blended", strings)
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.spec import KernelSpec, coerce_spec, kernel_from_spec
from repro.core.cachestore import MatrixCache
from repro.core.engine import GramEngine, string_fingerprint
from repro.core.pairstore import PairStore
from repro.core.matrix import KernelMatrix
from repro.kernels.base import StringKernel
from repro.strings.encoder import StringEncoder
from repro.strings.interner import TokenInterner
from repro.strings.tokens import WeightedString
from repro.traces.model import IOTrace
from repro.traces.parser import parse_trace_file
from repro.workloads.corpus import CorpusConfig, build_corpus

__all__ = ["AnalysisSession"]

#: Anything the session accepts where a kernel spec is expected.
SpecLike = Union[KernelSpec, Mapping[str, Any], str, StringKernel]


class AnalysisSession:
    """Shared-state facade over corpora, kernels and Gram-matrix engines.

    Parameters
    ----------
    interner:
        Optional pre-existing token interner to share with other sessions.
    pair_cache_size:
        Forwarded to every engine.
    matrix_cache:
        Optional persistent Gram-result cache
        (:class:`~repro.core.cachestore.MatrixCache`, or a directory path
        one is opened at).  When set, :meth:`matrix` serves identical
        ``(spec, corpus)`` requests from disk bit-identically — across
        sessions and processes sharing the directory.  It answers exact
        hits only; a corpus that merely overlaps a cached one is computed
        through the engine, whose pair layers (see *pair_store*) supply
        the overlapping values.
    pair_store:
        Optional persistent pair-value store
        (:class:`~repro.core.pairstore.PairStore`, or a directory path one
        is opened at).  Threaded into every engine the session builds:
        kernel values missing from the in-memory caches are fetched by
        content fingerprint before any kernel evaluation, so *any* overlap
        with previously computed corpora — reorderings, subsets,
        interleavings, across sessions and processes — pays only for its
        novel pairs.
    """

    def __init__(
        self,
        interner: Optional[TokenInterner] = None,
        pair_cache_size: Optional[int] = None,
        matrix_cache: Optional[Union[MatrixCache, str]] = None,
        pair_store: Optional[Union[PairStore, str]] = None,
    ) -> None:
        self.interner = interner if interner is not None else TokenInterner()
        self._engine_options: Dict[str, Any] = {}
        if pair_cache_size is not None:
            self._engine_options["pair_cache_size"] = pair_cache_size
        if isinstance(matrix_cache, str):
            matrix_cache = MatrixCache(matrix_cache)
        self.matrix_cache = matrix_cache
        if isinstance(pair_store, str):
            pair_store = PairStore(pair_store)
        self.pair_store = pair_store
        self._kernels: Dict[KernelSpec, StringKernel] = {}
        # Engines are keyed by the *value-relevant* kernel signature, not
        # the full spec: specs differing only in value-irrelevant params
        # (e.g. the Kast backend) share one warm engine and pair cache.
        self._engines: Dict[str, GramEngine] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Spec / kernel / engine resolution (warm caches)
    # ------------------------------------------------------------------
    def spec(self, spec: SpecLike) -> KernelSpec:
        """Coerce any accepted spec shorthand to a :class:`KernelSpec`."""
        return coerce_spec(spec)

    def kernel(self, spec: SpecLike) -> StringKernel:
        """The session's warm kernel for *spec* (built once, then reused).

        Every kernel shares the session interner, so prepared string
        encodings carry over between kernels and sweep points.
        """
        resolved = self.spec(spec)
        with self._lock:
            kernel = self._kernels.get(resolved)
            if kernel is None:
                kernel = kernel_from_spec(resolved, interner=self.interner)
                self._kernels[resolved] = kernel
            return kernel

    def engine(self, spec: SpecLike) -> GramEngine:
        """The session's warm :class:`GramEngine` for *spec*.

        The engine (and its pair/self-value caches) persists for the session
        lifetime: a sweep revisiting a spec, or an interactive client asking
        for a grown corpus, hits the warm caches instead of recomputing.
        Engines are shared between specs whose :func:`kernel signatures
        <repro.api.spec.spec_signature>` agree — the signature strips
        value-irrelevant parameters (e.g. Kast ``backend="numpy"`` vs
        ``"python"``), so equivalent specs warm one pair cache instead of
        fragmenting it.
        """
        resolved = self.spec(spec)
        kernel = self.kernel(resolved)
        signature = resolved.signature()
        with self._lock:
            engine = self._engines.get(signature)
            if engine is None:
                engine = GramEngine(
                    kernel,
                    interner=self.interner if hasattr(kernel, "interner") else None,
                    spec=resolved,
                    pair_store=self.pair_store,
                    **self._engine_options,
                )
                self._engines[signature] = engine
            return engine

    def set_pair_store(self, pair_store: Optional[Union[PairStore, str]]) -> Optional[PairStore]:
        """Attach (or detach) the persistent pair store, warm engines included.

        Service front ends open the store after constructing the session
        (it lives under their state dir), mirroring how the server attaches
        ``matrix_cache``; engines already built get the store retrofitted.
        Accepts a :class:`~repro.core.pairstore.PairStore`, a directory
        path, or ``None`` to detach.  Returns the attached store.
        """
        if isinstance(pair_store, str):
            pair_store = PairStore(pair_store)
        with self._lock:
            self.pair_store = pair_store
            for engine in self._engines.values():
                engine.pair_store = pair_store
        return pair_store

    # ------------------------------------------------------------------
    # Corpus construction
    # ------------------------------------------------------------------
    def corpus(
        self,
        config: Optional[CorpusConfig] = None,
        *,
        seed: int = 2017,
        small: bool = False,
        use_byte_information: bool = True,
        emit_level_up: bool = True,
        compaction: Optional[Any] = None,
        traces: Optional[Sequence[IOTrace]] = None,
    ) -> List[WeightedString]:
        """Build (or encode) a labelled corpus of weighted strings.

        Without arguments this produces the paper's 110-example corpus;
        ``small=True`` selects the reduced 16-example test corpus.  *traces*
        bypasses corpus generation and encodes the given traces instead.
        """
        if traces is None:
            if config is None:
                config = CorpusConfig.small(seed=seed) if small else CorpusConfig.paper(seed=seed)
            traces = build_corpus(config)
        encoder = self._encoder(use_byte_information, emit_level_up, compaction)
        return encoder.encode_corpus(list(traces))

    def corpus_from_directory(
        self,
        directory: str,
        *,
        use_byte_information: bool = True,
        emit_level_up: bool = True,
        compaction: Optional[Any] = None,
        pattern: str = ".trace",
    ) -> List[WeightedString]:
        """Parse every ``*.trace`` file under *directory* into weighted strings.

        Files are taken in sorted name order so matrices computed from a
        directory are reproducible; *pattern* is the required filename
        suffix.
        """
        import os

        names = sorted(name for name in os.listdir(directory) if name.endswith(pattern))
        if not names:
            raise FileNotFoundError(f"no '*{pattern}' files under {directory!r}")
        traces = [parse_trace_file(os.path.join(directory, name)) for name in names]
        encoder = self._encoder(use_byte_information, emit_level_up, compaction)
        return encoder.encode_corpus(traces)

    @staticmethod
    def _encoder(use_byte_information: bool, emit_level_up: bool, compaction: Optional[Any]) -> StringEncoder:
        from repro.tree.compaction import CompactionConfig

        return StringEncoder(
            emit_level_up=emit_level_up,
            include_bytes_in_literal=use_byte_information,
            use_byte_information=use_byte_information,
            compaction=compaction if compaction is not None else CompactionConfig.paper(),
        )

    # ------------------------------------------------------------------
    # Kernel evaluation
    # ------------------------------------------------------------------
    def value(self, spec: SpecLike, a: WeightedString, b: WeightedString) -> float:
        """Raw ``k(a, b)`` through the spec's warm engine caches."""
        return self.engine(spec).pair_value(a, b)

    def normalized_value(self, spec: SpecLike, a: WeightedString, b: WeightedString) -> float:
        """Cosine-normalised ``k(a, b)`` through the warm engine caches."""
        return self.engine(spec).normalized_pair_value(a, b)

    def gram(self, spec: SpecLike, strings: Sequence[WeightedString], normalized: bool = True) -> np.ndarray:
        """Plain Gram array over *strings* (see :meth:`GramEngine.gram`)."""
        return self.engine(spec).gram(strings, normalized=normalized)

    def matrix(
        self,
        spec: SpecLike,
        strings: Sequence[WeightedString],
        normalized: bool = True,
        repair: bool = True,
        use_cache: bool = True,
    ) -> KernelMatrix:
        """Labelled kernel matrix over *strings* under *spec*.

        Goes through the spec's warm engine.  When the session has a
        :class:`~repro.core.cachestore.MatrixCache` (and *use_cache* is
        left on), the result cache is consulted first: an identical
        cached corpus is served bit-identically with zero kernel
        evaluations.
        """
        matrix, _ = self.matrix_cached(
            spec, strings, normalized=normalized, repair=repair, use_cache=use_cache
        )
        return matrix

    def matrix_cached(
        self,
        spec: SpecLike,
        strings: Sequence[WeightedString],
        normalized: bool = True,
        repair: bool = True,
        use_cache: bool = True,
        pair_values: Optional[Callable[[], Dict[Tuple[int, int], float]]] = None,
    ) -> Tuple[KernelMatrix, str]:
        """:meth:`matrix` plus the result-cache outcome.

        Returns ``(matrix, status)`` where *status* is ``"hit"`` (served
        verbatim from the cache), ``"miss"`` (computed and stored) or
        ``"bypass"`` (no cache, or *use_cache* off).  The result cache
        holds the *pre-repair* matrix in the engine's stamped
        :meth:`~repro.core.engine.GramEngine.matrix_payload` form, so every
        layer (session, server, CLI) serves an entry bit-identically.

        *pair_values* is where the raw off-diagonal values come from on a
        miss or a bypass: a callable returning ``{(i, j): raw}`` for every
        ``i < j`` index pair.  By default the spec's engine evaluates them;
        the service's distributed jobs pass one that collects their block
        records.  It is never called on a hit, and whatever it returns goes
        through the same assembly, cache store and PSD repair.
        """
        string_list = list(strings)
        engine = self.engine(spec)
        cache = self.matrix_cache if use_cache and string_list else None
        if cache is not None:
            found = cache.lookup(
                engine.kernel_signature(),
                bool(normalized),
                [string_fingerprint(string) for string in string_list],
                [string.name for string in string_list],
                [string.label for string in string_list],
            )
            if found.status == "hit":
                matrix = KernelMatrix.from_dict(found.payload)
                return (matrix.psd_repaired() if repair else matrix), "hit"
        if pair_values is None:
            matrix = engine.matrix(string_list, normalized=normalized)
        else:
            matrix = engine.assemble_matrix(string_list, pair_values(), normalized=normalized)
        if cache is not None:
            cache.store(engine.matrix_payload(matrix, string_list))
        status = "bypass" if cache is None else "miss"
        return (matrix.psd_repaired() if repair else matrix), status

    # ------------------------------------------------------------------
    # Streaming serving path (landmark/Nyström models)
    # ------------------------------------------------------------------
    def fit_landmark_model(
        self,
        spec: SpecLike,
        strings: Sequence[WeightedString],
        name: str,
        **options: Any,
    ) -> Tuple[Any, str]:
        """Fit a frozen :class:`~repro.streaming.model.LandmarkModel`.

        *options* are those of :func:`repro.streaming.model.fit_landmark_model`.
        The full Gram comes from :meth:`matrix_cached` (zero evaluations
        when the result cache covers the corpus); returns ``(model,
        cache_status)``.  Serve the model with :meth:`streaming_scorer`.
        """
        from repro.streaming.model import fit_landmark_model

        return fit_landmark_model(self, spec, strings, name=name, **options)

    def streaming_scorer(self, model: Any) -> Any:
        """An online :class:`~repro.streaming.scorer.StreamingScorer` bound
        to this session's warm engine for *model* (it reads the pair store
        but never writes it)."""
        from repro.streaming.scorer import StreamingScorer

        return StreamingScorer(model, self)

    # ------------------------------------------------------------------
    # Pipeline-level entry points
    # ------------------------------------------------------------------
    def analyze(
        self,
        config: Optional[Any] = None,
        traces: Optional[Sequence[IOTrace]] = None,
        strings: Optional[Sequence[WeightedString]] = None,
    ) -> Any:
        """Run the full analysis pipeline for an ``ExperimentConfig``.

        Equivalent to :func:`repro.pipeline.pipeline.run_experiment`, except
        the kernel-matrix stage goes through the session's warm engines, so
        repeated analyses (and analyses following interactive queries under
        the same spec) share their pair caches.
        """
        from repro.pipeline.config import ExperimentConfig
        from repro.pipeline.pipeline import AnalysisPipeline

        pipeline = AnalysisPipeline(config or ExperimentConfig(), session=self)
        if strings is not None:
            return pipeline.run_on_strings(list(strings))
        return pipeline.run(traces)

    def sweep(
        self,
        config: Optional[Any] = None,
        cut_weights: Optional[Sequence[int]] = None,
        traces: Optional[Sequence[IOTrace]] = None,
        strings: Optional[Sequence[WeightedString]] = None,
    ) -> Any:
        """Cut-weight sweep sharing the session's interner and warm engines."""
        from repro.pipeline.sweep import PAPER_CUT_WEIGHTS, cut_weight_sweep

        return cut_weight_sweep(
            config,
            cut_weights=tuple(cut_weights) if cut_weights is not None else PAPER_CUT_WEIGHTS,
            traces=traces,
            strings=strings,
            session=self,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Per-engine cache counters, keyed by the engine's canonical spec.

        One entry per warm engine: specs deduplicated onto a shared engine
        (equal kernel signatures) report as the spec that first created it.
        When a persistent pair store is attached its aggregate counters are
        reported under the reserved ``"pair-store"`` key (engine entries
        already include their per-engine ``store_hits``/``store_misses``).
        """
        with self._lock:
            engines = list(self._engines.values())
            pair_store = self.pair_store
        info = {engine.spec.canonical(): engine.cache_info() for engine in engines}
        if pair_store is not None:
            info["pair-store"] = pair_store.counters()
        return info

    def engine_counters(self) -> Dict[str, int]:
        """Engine cache counters summed across every warm engine.

        The flat fleet-observability view of :meth:`cache_info`: one total
        per counter (``kernel_evals``, ``pair_hits``, ``store_hits``, …)
        regardless of how many specs are warm — what the service layers
        mirror into their metrics registries.
        """
        with self._lock:
            engines = list(self._engines.values())
        totals: Dict[str, int] = {
            "kernel_evals": 0,
            "pair_hits": 0,
            "pair_misses": 0,
            "store_hits": 0,
            "store_misses": 0,
            "pair_entries": 0,
        }
        for engine in engines:
            info = engine.cache_info()
            for key in totals:
                totals[key] += int(info.get(key, 0))
        return totals

    def specs(self) -> Tuple[KernelSpec, ...]:
        """Every spec the session has warmed an engine or kernel for."""
        with self._lock:
            engine_specs = [engine.spec for engine in self._engines.values()]
            return tuple(dict.fromkeys(list(self._kernels) + engine_specs))

    def __enter__(self) -> "AnalysisSession":
        # The session holds nothing to release; the ``with`` form scopes
        # its warm caches to a block.
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"AnalysisSession(warm_specs={len(self._engines)})"
