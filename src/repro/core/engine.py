"""Fast Gram-matrix evaluation engine.

The paper's downstream analyses (Kernel PCA, hierarchical clustering) only
ever consume the pairwise kernel matrix, and building that matrix dominates
the pipeline cost.  :class:`GramEngine` concentrates everything the matrix
construction can exploit in one place:

* **symmetric pair-value cache** — ``k(a, b)`` is stored under a
  content-based symmetric key, so ``k(b, a)``, repeated strings in a corpus
  and repeated engine calls on overlapping corpora all hit the cache;
* **content-keyed self-value cache** — normalisation denominators are
  computed once per distinct string;
* **chunked parallel scheduling** — the unique pairs are chunked and spread
  over a ``concurrent.futures`` thread pool (``n_jobs`` workers).  The numpy
  kernel backend spends its time in ufunc sweeps that release the GIL, so
  threads give real speedup without any pickling cost;
* **persistent pair-value store** — with a
  :class:`~repro.core.pairstore.PairStore` attached, values missing from
  the in-memory caches are fetched by content fingerprint before any
  kernel evaluation, so a corpus overlapping earlier work in any way
  (grown, reordered, subset) costs only its novel pairs.  Finished
  matrices are persisted by :class:`~repro.core.cachestore.MatrixCache`
  from :meth:`GramEngine.matrix_payload`.

The engine is deterministic: the values it produces are identical for any
``n_jobs`` (workers only ever compute independent pairs; assembly order is
fixed).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.matrix import KernelMatrix
from repro.kernels.base import StringKernel, normalize_kernel_value
from repro.strings.interner import TokenInterner
from repro.strings.tokens import WeightedString

__all__ = [
    "GramEngine",
    "string_fingerprint",
    "plan_index_blocks",
    "block_index_pairs",
    "encode_pair_values",
    "decode_pair_values",
    "ENGINE_EXECUTORS",
]

#: Symmetric content key of an unordered string pair (ordered small-int pair).
PairKey = Tuple[int, int]

#: Worker-pool implementations accepted by :class:`GramEngine`.
ENGINE_EXECUTORS = ("thread", "process")

#: Default number of unique pairs handed to one worker at a time.
_DEFAULT_CHUNK_SIZE = 32

#: Default bound on the symmetric pair-value cache.
_DEFAULT_PAIR_CACHE_SIZE = 262_144


# ----------------------------------------------------------------------
# Process-pool worker plumbing
# ----------------------------------------------------------------------
# The process executor cannot ship live kernels (they hold locks, caches and
# numpy scratch state); instead every worker process rebuilds its kernel
# exactly once from the engine's declarative KernelSpec, which is plain
# picklable data.  The corpus travels the same way: the full string list is
# pickled once per worker through the pool initializer, and work items are
# index-only chunks — without this an n-string corpus would re-pickle each
# string once per pending pair (O(n^2) IPC payload).  Both sides run the
# identical kernel code on the identical inputs, so the values are
# bit-identical to the serial/thread paths.
_WORKER_KERNEL: Optional[StringKernel] = None
_WORKER_STRINGS: Optional[List[WeightedString]] = None


def _process_worker_init(spec: Any, strings: List[WeightedString]) -> None:
    global _WORKER_KERNEL, _WORKER_STRINGS
    from repro.api.spec import kernel_from_spec

    _WORKER_KERNEL = kernel_from_spec(spec)
    _WORKER_STRINGS = strings


def _process_evaluate_chunk(
    chunk: List[Tuple[PairKey, Tuple[int, int]]]
) -> List[Tuple[PairKey, float]]:
    kernel, strings = _WORKER_KERNEL, _WORKER_STRINGS
    assert kernel is not None and strings is not None, "process worker used before initialisation"
    return [(key, float(kernel.value(strings[i], strings[j]))) for key, (i, j) in chunk]


def string_fingerprint(string: WeightedString) -> str:
    """Content digest of a weighted string: :attr:`WeightedString.fingerprint`."""
    return string.fingerprint


# ----------------------------------------------------------------------
# Block-sharding plan helpers
# ----------------------------------------------------------------------
def plan_index_blocks(count: int, shards: int) -> List[Tuple[int, int]]:
    """Partition ``range(count)`` into at most *shards* contiguous blocks.

    The blocks are as even as possible (sizes differ by at most one) and
    cover the index range exactly once.  They are the unit of the service
    layer's sharded Gram jobs: each unordered block pair becomes one
    independent evaluation task (see :func:`block_index_pairs`), and the
    per-block results merge through :meth:`GramEngine.assemble_gram` into
    the same matrix a monolithic evaluation produces.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, count) or 1
    base, remainder = divmod(count, shards)
    blocks: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        if stop > start:
            blocks.append((start, stop))
        start = stop
    return blocks


def block_index_pairs(first: Tuple[int, int], second: Tuple[int, int]) -> List[Tuple[int, int]]:
    """The unique ``i < j`` index pairs of one symmetric block pair.

    For a diagonal block (*first* == *second*) these are the strictly
    upper-triangular pairs within the block; for an off-diagonal pair every
    cross pair.  The union over all unordered block pairs of a
    :func:`plan_index_blocks` plan is exactly the strict upper triangle of
    the full matrix — each pair appears in exactly one task.
    """
    if first == second:
        return [(i, j) for i in range(*first) for j in range(i + 1, first[1])]
    (a_start, a_stop), (b_start, b_stop) = sorted((tuple(first), tuple(second)))
    if a_stop > b_start:
        raise ValueError(f"blocks {first} and {second} overlap")
    return [(i, j) for i in range(a_start, a_stop) for j in range(b_start, b_stop)]


def encode_pair_values(raw_by_pair: Dict[Tuple[int, int], float]) -> List[List[float]]:
    """Serialise raw pair values as sorted ``[i, j, value]`` JSON rows.

    The wire/persistence form of one block task's result: Python's JSON
    float representation is the shortest round-tripping one, so values
    decoded by :func:`decode_pair_values` are bit-identical to the floats
    the evaluating worker computed — the property the sharded Gram
    assembly relies on.
    """
    return [
        [int(i), int(j), float(value)]
        for (i, j), value in sorted(raw_by_pair.items())
    ]


def decode_pair_values(rows: Sequence[Sequence[Any]]) -> Dict[Tuple[int, int], float]:
    """Rebuild the ``{(i, j): value}`` mapping of :func:`encode_pair_values`."""
    decoded: Dict[Tuple[int, int], float] = {}
    for position, row in enumerate(rows):
        if isinstance(row, (str, bytes)) or len(row) != 3:
            raise ValueError(f"pair-value row {position} must be [i, j, value], got {row!r}")
        i, j, value = row
        decoded[(int(i), int(j))] = float(value)
    return decoded


class GramEngine:
    """Kernel-matrix evaluation engine wrapping one :class:`StringKernel`.

    Parameters
    ----------
    kernel:
        The kernel to evaluate.  If the kernel exposes an ``interner``
        attribute (the Kast kernel's numpy backend does) and *interner* is
        given, the engine installs it so several engines/kernels can share
        one literal → id space.
    n_jobs:
        Number of worker threads for pair evaluation (1 = serial).
    chunk_size:
        Unique pairs per scheduled work item; chunking amortises the
        executor overhead for cheap pairs.
    pair_cache_size:
        Bound on the symmetric pair-value LRU cache.
    interner:
        Optional shared :class:`~repro.strings.interner.TokenInterner`.
    spec:
        Optional declarative :class:`~repro.api.spec.KernelSpec`.  When
        *kernel* is omitted the spec is instantiated through the registry;
        when both are given the spec is trusted as the kernel's description.
        If neither is given explicitly the engine derives the spec from the
        live kernel (``spec_from_kernel``) when the kernel's class is
        registered.  The spec powers the persistence signature and the
        process executor.
    executor:
        ``"thread"`` (default) — pair chunks are spread over a
        ``ThreadPoolExecutor``; the numpy kernel backend releases the GIL in
        its ufunc sweeps, so this is the right default on single-package
        hosts and in CI.  ``"process"`` — chunks go to a
        ``ProcessPoolExecutor`` whose workers rebuild the kernel from the
        (picklable) spec, sidestepping the GIL for the Python scoring tail
        on multi-core hosts.  Requires a derivable spec.  Values are
        bit-identical across executors and ``n_jobs``.
    """

    def __init__(
        self,
        kernel: Optional[StringKernel] = None,
        n_jobs: int = 1,
        chunk_size: int = _DEFAULT_CHUNK_SIZE,
        pair_cache_size: int = _DEFAULT_PAIR_CACHE_SIZE,
        interner: Optional[TokenInterner] = None,
        spec: Optional[Any] = None,
        executor: str = "thread",
        pair_store: Optional[Any] = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if executor not in ENGINE_EXECUTORS:
            raise ValueError(f"executor must be one of {ENGINE_EXECUTORS}, got {executor!r}")
        if spec is not None:
            # Accept every spec shorthand (KernelSpec, dict, JSON text, kind
            # name) and canonicalize it, whether or not a live kernel is
            # also given — the signature/persistence/process paths all rely
            # on spec being a canonical KernelSpec.
            from repro.api.spec import coerce_spec

            spec = coerce_spec(spec)
        if kernel is None:
            if spec is None:
                raise ValueError("GramEngine requires a kernel or a spec")
            from repro.api.spec import kernel_from_spec

            kernel = kernel_from_spec(spec, interner=interner)
        elif spec is None:
            # Best effort: unregistered kernel classes fall back to the
            # legacy name/cache_signature identity (and cannot use the
            # process executor, which needs a picklable description).  For
            # the process executor the derivation must be exact — mapping a
            # value-overriding subclass to its base kind would make workers
            # silently compute with the base kernel.
            try:
                from repro.api.spec import spec_from_kernel

                spec = spec_from_kernel(kernel, exact=(executor == "process"))
            except Exception:
                spec = None
        if executor == "process" and spec is None:
            raise ValueError(
                "executor='process' requires a faithful kernel spec (the workers rebuild the "
                "kernel from it); pass spec=... explicitly or register the kernel's exact class "
                "with repro.api.register_kernel"
            )
        self.kernel = kernel
        self.spec = spec
        self.executor = executor
        self.n_jobs = n_jobs
        self.chunk_size = chunk_size
        self.pair_cache_size = pair_cache_size
        if interner is not None and hasattr(kernel, "interner"):
            kernel.interner = interner
        self._pair_cache: "OrderedDict[PairKey, float]" = OrderedDict()
        self._self_cache: Dict[int, float] = {}
        # Content fingerprint → small-int key registry; pair keys are int pairs.
        self._key_registry: "OrderedDict[str, int]" = OrderedDict()
        self._next_key = 0
        self._lock = threading.Lock()
        #: Optional persistent pair-value store
        #: (:class:`~repro.core.pairstore.PairStore`): values missing from
        #: the in-memory caches are fetched by content fingerprint before
        #: any kernel evaluation, and freshly computed values are written
        #: back — the cross-session / cross-process reuse layer.
        self.pair_store = pair_store
        #: Cache observability (used by tests and benchmarks).
        #: ``pair_hits``/``pair_misses`` count the in-memory layer;
        #: ``store_hits``/``store_misses`` the persistent pair store;
        #: ``kernel_evals`` the values actually computed by the kernel —
        #: the number that must stay flat on a fully covered resubmission.
        self.pair_hits = 0
        self.pair_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.kernel_evals = 0

    # ------------------------------------------------------------------
    # Single-value entry points (cached)
    # ------------------------------------------------------------------
    def _string_key(self, string: WeightedString) -> int:
        """The small-int key of the string's (cached) content fingerprint; pins no string."""
        fingerprint = string.fingerprint
        with self._lock:
            key = self._key_registry.get(fingerprint)
            if key is not None:
                self._key_registry.move_to_end(fingerprint)
            else:
                # Keys are drawn from a monotonic counter and NEVER reused:
                # an in-flight computation may still hold keys handed out
                # before an eviction, and reusing their ints would alias
                # different-content pairs in the caches.
                key = self._next_key
                self._next_key += 1
                self._key_registry[fingerprint] = key
                # The registry is an LRU bounded by evicting only its
                # oldest entry (plus that key's self value).  Pair-cache
                # entries under a retired key are unreachable for new
                # lookups, so they age out of the pair-cache LRU on their
                # own — one string past the bound must not wipe every warm
                # cache.
                while len(self._key_registry) > self.pair_cache_size:
                    _, retired = self._key_registry.popitem(last=False)
                    self._self_cache.pop(retired, None)
        return key

    def _pair_key(self, a: WeightedString, b: WeightedString) -> PairKey:
        first, second = self._string_key(a), self._string_key(b)
        return (first, second) if first <= second else (second, first)

    @staticmethod
    def _fingerprint_pair(a: WeightedString, b: WeightedString) -> Tuple[str, str]:
        """The canonical (sorted) content-fingerprint pair — the store key."""
        first, second = a.fingerprint, b.fingerprint
        return (first, second) if first <= second else (second, first)

    def pair_value(self, a: WeightedString, b: WeightedString) -> float:
        """Raw ``k(a, b)`` through the symmetric content-keyed cache.

        Misses consult the persistent pair store (when attached) before
        falling back to a kernel evaluation; either way the value lands in
        the in-memory cache, and computed values are written back to the
        store.
        """
        key = self._pair_key(a, b)
        with self._lock:
            cached = self._pair_cache.get(key)
            if cached is not None:
                self._pair_cache.move_to_end(key)
                self.pair_hits += 1
                return cached
            self.pair_misses += 1
        fingerprints: Optional[Tuple[str, str]] = None
        if self.pair_store is not None:
            fingerprints = self._fingerprint_pair(a, b)
            found = self.pair_store.get_many(self.kernel_signature(), [fingerprints])
            stored = found.get(fingerprints)
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                    self._fill_pair_cache({key: stored})
                return stored
            with self._lock:
                self.store_misses += 1
        value = float(self.kernel.value(a, b))
        with self._lock:
            self.kernel_evals += 1
            self._fill_pair_cache({key: value})
        if fingerprints is not None:
            self.pair_store.put_many(self.kernel_signature(), {fingerprints: value})
        return value

    def _fill_pair_cache(self, values: Dict[PairKey, float]) -> None:
        """Insert values into the bounded in-memory LRU (lock held by caller)."""
        for key, value in values.items():
            self._pair_cache[key] = value
            self._pair_cache.move_to_end(key)
        while len(self._pair_cache) > self.pair_cache_size:
            self._pair_cache.popitem(last=False)

    def self_value(self, string: WeightedString) -> float:
        """Cached ``k(a, a)``."""
        return self.self_values([string])[0]

    def prime_self_values(self, strings: Sequence[WeightedString], values: Sequence[float]) -> int:
        """Seed known raw self values into the caches; how many were new.

        The streaming scorer calls this with the landmark self values a
        :class:`~repro.streaming.model.LandmarkModel` carries, so serving
        never re-evaluates ``k(l, l)``.  Values the persistent pair store
        is missing are written through (one batched ``put_many``); values
        it already holds are left alone so priming an unchanged model does
        not grow the store.  Counters are untouched — priming is cache
        *construction*, not traffic.
        """
        string_list = list(strings)
        if len(string_list) != len(values):
            raise ValueError(
                f"got {len(string_list)} strings but {len(values)} self values"
            )
        keys = [self._string_key(string) for string in string_list]
        primed: Dict[int, float] = {}
        with self._lock:
            for key, value in zip(keys, values):
                if key not in self._self_cache:
                    primed[key] = float(value)
            self._self_cache.update(primed)
        if self.pair_store is not None and string_list:
            signature = self.kernel_signature()
            store_keys = {
                string.fingerprint: float(value)
                for string, value in zip(string_list, values)
            }
            found = self.pair_store.get_many(
                signature, [(fp, fp) for fp in store_keys]
            )
            missing = {
                (fp, fp): value
                for fp, value in store_keys.items()
                if (fp, fp) not in found
            }
            if missing:
                self.pair_store.put_many(signature, missing)
        return len(primed)

    def evaluate_row(
        self, query: WeightedString, references: Sequence[WeightedString]
    ) -> List[float]:
        """Raw ``k(query, ref)`` for every reference — one batched row.

        The landmark-row seam of the streaming serving path: all cross
        pairs of one query go through :meth:`evaluate_pairs` as a single
        task, so they share its content dedup, both cache layers, and the
        kernel's ``value_row`` batch evaluation (one work item covers the
        whole row).  A cold row against ``m`` novel references costs
        exactly ``m`` kernel evaluations; a covered row costs zero.
        """
        reference_list = list(references)
        strings = [query, *reference_list]
        pairs = [(0, index + 1) for index in range(len(reference_list))]
        values = self.evaluate_pairs(strings, pairs)
        return [values[pair] for pair in pairs]

    def self_values(self, strings: Sequence[WeightedString]) -> List[float]:
        """Cached ``k(a, a)`` for every string, in order (batched).

        Self values flow through the same two cache layers as pair values:
        the in-memory content-keyed cache first, then the persistent pair
        store under the degenerate key ``(fp, fp)`` — so normalisation
        denominators of previously seen traces cost zero kernel
        evaluations, which is what lets a fully covered resubmission skip
        the kernel entirely.  Store misses are batched into one
        ``get_many``/``put_many`` round trip.
        """
        string_list = list(strings)
        keys = [self._string_key(string) for string in string_list]
        sample: Dict[int, WeightedString] = {}
        for key, string in zip(keys, string_list):
            sample.setdefault(key, string)
        values: Dict[int, float] = {}
        with self._lock:
            for key in sample:
                cached = self._self_cache.get(key)
                if cached is not None:
                    values[key] = cached
        missing = [key for key in sample if key not in values]
        fingerprints: Dict[int, str] = {}
        if missing and self.pair_store is not None:
            signature = self.kernel_signature()
            fingerprints = {key: sample[key].fingerprint for key in missing}
            found = self.pair_store.get_many(
                signature, [(fingerprints[key], fingerprints[key]) for key in missing]
            )
            still: List[int] = []
            with self._lock:
                for key in missing:
                    stored = found.get((fingerprints[key], fingerprints[key]))
                    if stored is None:
                        still.append(key)
                        self.store_misses += 1
                    else:
                        values[key] = stored
                        self._self_cache[key] = stored
                        self.store_hits += 1
            missing = still
        if missing:
            computed = {key: float(self.kernel.self_value(sample[key])) for key in missing}
            with self._lock:
                self.kernel_evals += len(computed)
                self._self_cache.update(computed)
            values.update(computed)
            if self.pair_store is not None:
                self.pair_store.put_many(
                    self.kernel_signature(),
                    {(fingerprints[key], fingerprints[key]): value for key, value in computed.items()},
                )
        return [values[key] for key in keys]

    def normalized_pair_value(self, a: WeightedString, b: WeightedString) -> float:
        """Cosine-normalised ``k(a, b)`` through the caches."""
        return normalize_kernel_value(self.pair_value(a, b), self.self_value(a), self.self_value(b))

    # ------------------------------------------------------------------
    # Gram matrix
    # ------------------------------------------------------------------
    def gram(self, strings: Sequence[WeightedString], normalized: bool = True) -> np.ndarray:
        """The (square, symmetric) Gram matrix over *strings* as an array."""
        string_list = list(strings)
        count = len(string_list)
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        raw_by_pair = self.evaluate_pairs(string_list, pairs)
        return self.assemble_gram(string_list, raw_by_pair, normalized=normalized)

    def assemble_gram(
        self,
        strings: Sequence[WeightedString],
        raw_by_pair: Dict[Tuple[int, int], float],
        normalized: bool = True,
    ) -> np.ndarray:
        """Assemble a full Gram array from raw off-diagonal pair values.

        *raw_by_pair* must cover every unordered ``i != j`` index pair once
        (either orientation) — e.g. the union of per-block results from a
        sharded evaluation (:func:`plan_index_blocks` /
        :func:`block_index_pairs`).  Diagonal entries and normalisation
        denominators come from the engine's cached self values, so merging
        separately computed blocks yields bit-identical values to a
        monolithic :meth:`gram` call.
        """
        string_list = list(strings)
        count = len(string_list)
        gram = np.zeros((count, count), dtype=float)
        filled = np.zeros((count, count), dtype=bool)
        self_values = self.self_values(string_list)
        for (i, j), raw in raw_by_pair.items():
            entry = normalize_kernel_value(raw, self_values[i], self_values[j]) if normalized else raw
            gram[i, j] = entry
            gram[j, i] = entry
            filled[i, j] = True
            filled[j, i] = True
        np.fill_diagonal(filled, True)
        if not filled.all():
            missing = int(np.argwhere(~filled)[0][0]), int(np.argwhere(~filled)[0][1])
            raise ValueError(f"raw_by_pair does not cover pair {missing} of a {count}-string corpus")
        for i in range(count):
            gram[i, i] = 1.0 if normalized and self_values[i] > 0 else self_values[i]
        return gram

    def evaluate_pairs(
        self,
        strings: List[WeightedString],
        index_pairs: Sequence[Tuple[int, int]],
    ) -> Dict[Tuple[int, int], float]:
        """Evaluate the raw kernel for every index pair, deduplicated by content.

        This is the engine's scheduling seam: one call is one *task* — the
        service layer's sharded Gram jobs issue one call per index block and
        merge through :meth:`assemble_gram`.  Content-identical pairs
        (including ``(i, j)`` vs ``(j, i)`` requests and duplicate strings
        in the corpus) map onto one unique evaluation; cached values are
        served first, and the remainder is scheduled over the worker pool.  Kernels exposing a ``value_row`` batch method (the
        Kast kernel's numpy backend does) are driven row by row — one work
        item evaluates one string against all of its pending partners, which
        amortises the per-pair setup cost; other kernels fall back to fixed
        size chunks of single pair evaluations.
        """
        tasks: "OrderedDict[PairKey, List[Tuple[int, int]]]" = OrderedDict()
        for i, j in index_pairs:
            key = self._pair_key(strings[i], strings[j])
            tasks.setdefault(key, []).append((i, j))

        raw_by_key: Dict[PairKey, float] = {}
        pending: List[Tuple[PairKey, Tuple[int, int]]] = []
        with self._lock:
            for key, positions in tasks.items():
                cached = self._pair_cache.get(key)
                if cached is not None:
                    raw_by_key[key] = cached
                    self.pair_hits += 1
                else:
                    pending.append((key, positions[0]))
                    self.pair_misses += 1

        # Second cache layer: fetch in-memory misses from the persistent
        # pair store by content fingerprint (one batched round trip), then
        # compute only what neither layer holds.
        store_keys: Dict[PairKey, Tuple[str, str]] = {}
        if pending and self.pair_store is not None:
            signature = self.kernel_signature()
            for key, (i, j) in pending:
                store_keys[key] = self._fingerprint_pair(strings[i], strings[j])
            found = self.pair_store.get_many(signature, store_keys.values())
            still: List[Tuple[PairKey, Tuple[int, int]]] = []
            fetched: Dict[PairKey, float] = {}
            with self._lock:
                for key, position in pending:
                    stored = found.get(store_keys[key])
                    if stored is None:
                        still.append((key, position))
                        self.store_misses += 1
                    else:
                        raw_by_key[key] = stored
                        fetched[key] = stored
                        self.store_hits += 1
                self._fill_pair_cache(fetched)
            pending = still

        if pending:
            if self.executor == "process" and self.n_jobs > 1 and len(pending) > 1:
                computed = self._evaluate_pending_in_processes(strings, pending)
            else:
                computed = self._evaluate_pending_in_threads(strings, pending)
            with self._lock:
                self.kernel_evals += len(computed)
                self._fill_pair_cache(dict(computed))
                for key, value in computed:
                    raw_by_key[key] = value
            if self.pair_store is not None:
                self.pair_store.put_many(
                    self.kernel_signature(),
                    {store_keys[key]: value for key, value in computed},
                )

        results: Dict[Tuple[int, int], float] = {}
        for key, positions in tasks.items():
            value = raw_by_key[key]
            for position in positions:
                results[position] = value
        return results

    def _evaluate_pending_in_threads(
        self,
        strings: List[WeightedString],
        pending: List[Tuple[PairKey, Tuple[int, int]]],
    ) -> List[Tuple[PairKey, float]]:
        """Serial / thread-pool evaluation (also the ``n_jobs=1`` fast path)."""
        if hasattr(self.kernel, "value_row"):
            work_items: List[List[Tuple[PairKey, Tuple[int, int]]]] = [
                group for _, group in self._group_by_row(pending)
            ]
            evaluate = self._evaluate_row
        else:
            work_items = [
                pending[start : start + self.chunk_size]
                for start in range(0, len(pending), self.chunk_size)
            ]
            evaluate = self._evaluate_chunk
        computed: List[Tuple[PairKey, float]] = []
        if self.n_jobs > 1 and len(work_items) > 1:
            with ThreadPoolExecutor(max_workers=self.n_jobs) as executor:
                for result in executor.map(lambda item: evaluate(strings, item), work_items):
                    computed.extend(result)
        else:
            for item in work_items:
                computed.extend(evaluate(strings, item))
        return computed

    def _evaluate_pending_in_processes(
        self,
        strings: List[WeightedString],
        pending: List[Tuple[PairKey, Tuple[int, int]]],
    ) -> List[Tuple[PairKey, float]]:
        """Process-pool evaluation: workers rebuild the kernel from the spec.

        Workers share nothing with the parent but what the pool initialiser
        hands them: the picklable spec and the string list (pickled once per
        worker); work items are index-only chunks.  The pool is per-call —
        its lifetime matches the string list shipped at initialisation, and
        on this library's workloads the fork cost is dwarfed by the pair
        evaluations the pool exists for.  Values are accumulated in
        submission order, keeping assembly deterministic.
        """
        chunks = [
            pending[start : start + self.chunk_size]
            for start in range(0, len(pending), self.chunk_size)
        ]
        computed: List[Tuple[PairKey, float]] = []
        with ProcessPoolExecutor(
            max_workers=self.n_jobs,
            initializer=_process_worker_init,
            initargs=(self.spec, strings),
        ) as executor:
            for result in executor.map(_process_evaluate_chunk, chunks):
                computed.extend(result)
        return computed

    @staticmethod
    def _group_by_row(
        pending: List[Tuple[PairKey, Tuple[int, int]]]
    ) -> List[Tuple[int, List[Tuple[PairKey, Tuple[int, int]]]]]:
        rows: "OrderedDict[int, List[Tuple[PairKey, Tuple[int, int]]]]" = OrderedDict()
        for key, (i, j) in pending:
            rows.setdefault(i, []).append((key, (i, j)))
        return list(rows.items())

    def _evaluate_row(
        self, strings: List[WeightedString], group: List[Tuple[PairKey, Tuple[int, int]]]
    ) -> List[Tuple[PairKey, float]]:
        row_index = group[0][1][0]
        targets = [strings[j] for _, (_, j) in group]
        values = self.kernel.value_row(strings[row_index], targets)
        return [(key, float(value)) for (key, _), value in zip(group, values)]

    def _evaluate_chunk(
        self, strings: List[WeightedString], chunk: List[Tuple[PairKey, Tuple[int, int]]]
    ) -> List[Tuple[PairKey, float]]:
        return [(key, float(self.kernel.value(strings[i], strings[j]))) for key, (i, j) in chunk]

    # ------------------------------------------------------------------
    # Labelled matrices and their stamped payload
    # ------------------------------------------------------------------
    def kernel_signature(self) -> str:
        """String identifying every kernel option that affects values.

        Derived from the canonical serialization of the engine's declarative
        :class:`~repro.api.spec.KernelSpec` (minus parameters the registry
        marks value-irrelevant, e.g. the Kast backend whose implementations
        are equivalent) — the same description that reconstructs the kernel
        in process workers.  Kernels whose class is not registered fall back
        to the legacy ``cache_signature()`` / name identity.
        """
        if self.spec is not None:
            return self.spec.signature()
        signature = getattr(self.kernel, "cache_signature", None)
        if callable(signature):
            return str(signature())
        return self.kernel.name

    def matrix_payload(self, matrix: KernelMatrix, strings: Sequence[WeightedString]) -> Dict[str, Any]:
        """The stamped JSON-ready persistence payload for *matrix*.

        Single source of truth for the stamped-matrix format: the matrix
        fields (:meth:`KernelMatrix.as_dict`) plus the content fingerprints
        of *strings*, the spec-derived kernel signature and — when the
        engine has a declarative spec — the spec itself, so a payload is
        self-describing.  Used by the result cache, the service and the
        CLI ``matrix`` command.
        """
        string_list = list(strings)
        if len(string_list) != len(matrix):
            raise ValueError(
                f"strings/matrix size mismatch: {len(string_list)} strings vs {len(matrix)} rows"
            )
        payload = matrix.as_dict()
        payload["fingerprints"] = [string.fingerprint for string in string_list]
        payload["kernel_signature"] = self.kernel_signature()
        if self.spec is not None:
            payload["kernel_spec"] = self.spec.to_dict()
        return payload

    def matrix(self, strings: Sequence[WeightedString], normalized: bool = True) -> KernelMatrix:
        """Labelled (pre-repair) kernel matrix over *strings*."""
        string_list = list(strings)
        return KernelMatrix(
            values=self.gram(string_list, normalized=normalized),
            names=tuple(string.name for string in string_list),
            labels=tuple(string.label for string in string_list),
            kernel_name=self.kernel.name,
            normalized=normalized,
        )

    def compute(
        self,
        strings: Sequence[WeightedString],
        normalized: bool = True,
        repair: bool = True,
    ) -> KernelMatrix:
        """One-call matrix computation, PSD-repaired when *repair* is on."""
        matrix = self.matrix(strings, normalized=normalized)
        if repair and not matrix.is_positive_semidefinite():
            matrix = matrix.repaired()
        return matrix

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Sizes and hit counters of the engine caches.

        ``pair_hits``/``pair_misses`` describe the in-memory layer,
        ``store_hits``/``store_misses`` the persistent pair store, and
        ``kernel_evals`` counts values the kernel actually computed (pair
        and self values alike) — zero on a fully store-covered corpus.
        """
        with self._lock:
            return {
                "pair_entries": len(self._pair_cache),
                "self_entries": len(self._self_cache),
                "pair_hits": self.pair_hits,
                "pair_misses": self.pair_misses,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "kernel_evals": self.kernel_evals,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"GramEngine(kernel={self.kernel!r}, n_jobs={self.n_jobs})"
