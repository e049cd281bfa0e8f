"""Fast Gram-matrix evaluation engine.

The paper's downstream analyses (Kernel PCA, hierarchical clustering) only
ever consume the pairwise kernel matrix, and building that matrix dominates
the pipeline cost.  :class:`GramEngine` concentrates everything the matrix
construction can exploit in one place:

* **one cached-value lookup** — pair values ``k(a, b)`` and self values
  ``k(a, a)`` (the normalisation denominators) go through one path: a
  bounded in-memory LRU, then the persistent
  :class:`~repro.core.pairstore.PairStore` when one is attached, then the
  kernel, with computed values written back to both — except a streaming
  query row (:meth:`GramEngine.evaluate_row`), which reads the store but
  is kept in memory only.  Every value sits
  under a content-based symmetric key, so ``k(b, a)``, repeated strings in
  a corpus and overlapping corpora (grown, reordered, subset) all hit.  A
  self value is the diagonal pair: ``k(a, a)`` and the pair of two
  content-identical strings are one entry, stored under ``(fp, fp)``, and
  computed by ``kernel.self_value``, which every kernel keeps equal to
  ``value(a, a)``;
* **block-batched evaluation** — the pairs neither layer holds go to
  the kernel in one ``value_pairs`` call (pair by pair for kernels
  without it); the Kast kernel packs them into blocks of query rows and
  scores each block at once, which amortises the per-call setup cost.

Finished matrices are persisted by
:class:`~repro.core.cachestore.MatrixCache` from
:meth:`GramEngine.matrix_payload`.

The engine starts no threads or processes of its own (it is safe to share
between the threads of concurrent service jobs).  Cross-core parallelism
comes from the service layer's block records (:func:`plan_index_blocks`): each
block is one :meth:`GramEngine.evaluate_pairs` call, run by whichever
worker process leases it, and the raw values merge through
:meth:`GramEngine.assemble_gram` into the matrix one call would build.
The engine is deterministic, so both routes give identical values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.matrix import KernelMatrix
from repro.kernels.base import StringKernel, normalize_kernel_value
from repro.strings.interner import TokenInterner
from repro.strings.tokens import WeightedString

__all__ = [
    "GramEngine",
    "thread_tally",
    "string_fingerprint",
    "plan_index_blocks",
    "block_index_pairs",
    "encode_pair_values",
    "decode_pair_values",
]

#: Symmetric content key of an unordered string pair (ordered small-int pair).
PairKey = Tuple[int, int]

#: Default bound on the symmetric value cache.
_DEFAULT_PAIR_CACHE_SIZE = 262_144


class _ThreadTally(threading.local):
    """What the calling thread's lookups cost, over every engine."""

    kernel_evals = 0
    store_hits = 0


_TALLY = _ThreadTally()


def thread_tally() -> Dict[str, int]:
    """Kernel evaluations and pair-store hits spent on the calling thread so far.

    Engines are shared between the threads of concurrent requests and
    jobs, so a difference of an engine's own counters (:meth:`GramEngine.cache_info`)
    across one request also counts every other thread's work in between.
    A before/after difference of this tally, taken on the thread that does
    the work, counts that work alone.
    """
    return {"kernel_evals": _TALLY.kernel_evals, "store_hits": _TALLY.store_hits}


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
    pair_cache_size:
        Bound on the symmetric value LRU cache (pair and self values).
    interner:
        Optional shared :class:`~repro.strings.interner.TokenInterner`.
    spec:
        Optional declarative :class:`~repro.api.spec.KernelSpec`.  When
        *kernel* is omitted the spec is instantiated through the registry;
        when both are given the spec is trusted as the kernel's description.
        If neither is given explicitly the engine derives the spec from the
        live kernel (``spec_from_kernel``) when the kernel's class is
        registered.  The spec powers the persistence signature.
    """

    def __init__(
        self,
        kernel: Optional[StringKernel] = None,
        pair_cache_size: int = _DEFAULT_PAIR_CACHE_SIZE,
        interner: Optional[TokenInterner] = None,
        spec: Optional[Any] = None,
        pair_store: Optional[Any] = None,
    ) -> None:
        if spec is not None:
            # Accept every spec shorthand (KernelSpec, dict, JSON text, kind
            # name) and canonicalize it, whether or not a live kernel is
            # also given — the signature and persistence paths rely on spec
            # being a canonical KernelSpec.
            from repro.api.spec import coerce_spec

            spec = coerce_spec(spec)
        if kernel is None:
            if spec is None:
                raise ValueError("GramEngine requires a kernel or a spec")
            from repro.api.spec import kernel_from_spec

            kernel = kernel_from_spec(spec, interner=interner)
        elif spec is None:
            # Best effort: unregistered kernel classes fall back to their
            # name as identity.
            try:
                from repro.api.spec import spec_from_kernel

                spec = spec_from_kernel(kernel)
            except Exception:
                spec = None
        self.kernel = kernel
        self.spec = spec
        self.pair_cache_size = pair_cache_size
        if interner is not None and hasattr(kernel, "interner"):
            kernel.interner = interner
        # The table of the one lookup (:meth:`_lookup`): pair and self
        # values by symmetric key, an LRU bounded by pair_cache_size.
        self._cache: "OrderedDict[PairKey, float]" = OrderedDict()
        # Content fingerprint → small-int key registry; pair keys are int pairs.
        self._key_registry: "OrderedDict[str, int]" = OrderedDict()
        self._next_key = 0
        self._lock = threading.Lock()
        #: Optional persistent pair-value store
        #: (:class:`~repro.core.pairstore.PairStore`): values missing from
        #: the in-memory caches are fetched by content fingerprint before
        #: any kernel evaluation, and freshly computed values are written
        #: back (query rows excepted, see :meth:`_lookup`) — the
        #: cross-session / cross-process reuse layer.
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
    # Keys and the one cached-value lookup
    # ------------------------------------------------------------------
    def _string_keys(self, strings: Sequence[WeightedString]) -> List[int]:
        """The small-int keys of the strings' (cached) content fingerprints, in order; pins no string.

        One lock round-trip covers the whole batch.
        """
        fingerprints = [string.fingerprint for string in strings]
        keys: List[int] = []
        with self._lock:
            for fingerprint in fingerprints:
                key = self._key_registry.get(fingerprint)
                if key is not None:
                    self._key_registry.move_to_end(fingerprint)
                else:
                    # Keys are drawn from a monotonic counter and NEVER reused:
                    # an in-flight computation may still hold keys handed out
                    # before an eviction, and reusing their ints would alias
                    # different-content pairs in the cache.
                    key = self._next_key
                    self._next_key += 1
                    self._key_registry[fingerprint] = key
                    # The registry is an LRU bounded by evicting only its
                    # oldest entry.  Cache entries under a retired key are
                    # unreachable for new lookups, so they age out of the
                    # value LRU on their own — one string past the bound
                    # must not wipe the warm cache.
                    while len(self._key_registry) > self.pair_cache_size:
                        self._key_registry.popitem(last=False)
                keys.append(key)
        return keys

    @staticmethod
    def _ordered(first: int, second: int) -> PairKey:
        return (first, second) if first <= second else (second, first)

    @staticmethod
    def _fingerprint_pair(a: WeightedString, b: WeightedString) -> Tuple[str, str]:
        """The store key of ``k(a, b)``: the sorted content-fingerprint pair.

        ``k(a, a)`` and the pair of two content-identical strings ("twins")
        are one value under one key, ``(fp, fp)``.
        """
        first, second = a.fingerprint, b.fingerprint
        return (first, second) if first <= second else (second, first)

    def _lookup(
        self,
        strings: Sequence[WeightedString],
        index_pairs: Sequence[Tuple[int, int]],
        compute: Optional[Callable[[List[Tuple[PairKey, Tuple[int, int]]]], Dict[PairKey, float]]] = None,
        pair_traffic: bool = True,
        persist: bool = True,
    ) -> Dict[Tuple[int, int], float]:
        """The one cached-value path: value LRU → pair store → *compute*.

        Content-identical index pairs (either orientation, duplicate
        strings) map onto one symmetric key; a diagonal key ``(k, k)`` is a
        self value and a twin pair alike.  Cache hits refresh their
        recency, the misses go to the store in one ``get_many`` under
        :meth:`_fingerprint_pair`, what it lacks to *compute* (by default
        :meth:`_evaluate_pending`) as ``(key, first index pair)`` entries,
        and, with *persist*, the computed values back to the store in one
        ``put_many``.  Everything found or computed lands in the LRU.
        ``pair_hits``/``pair_misses`` move only with *pair_traffic*.

        Which values reach the store is one rule: a query row of the
        streaming scorer (:meth:`evaluate_row`) passes ``persist=False``
        and writes the LRU only, since a never-seen trace's row is not
        read back; every other caller writes through.  A row computed
        without *persist* is only in memory: a later matrix job that finds
        it in the LRU does not back-fill it into the store (it computed
        nothing), so after a restart that value is a store miss.
        """
        index_pairs = list(index_pairs)
        used = list(dict.fromkeys(index for pair in index_pairs for index in pair))
        key_of = dict(zip(used, self._string_keys([strings[index] for index in used])))
        tasks: "OrderedDict[PairKey, List[Tuple[int, int]]]" = OrderedDict()
        for i, j in index_pairs:
            tasks.setdefault(self._ordered(key_of[i], key_of[j]), []).append((i, j))
        values: Dict[PairKey, float] = {}
        with self._lock:
            for key in tasks:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    values[key] = cached
            if pair_traffic:
                self.pair_hits += len(values)
                self.pair_misses += len(tasks) - len(values)
        missing = [key for key in tasks if key not in values]
        pair_store = self.pair_store if missing else None
        found: Dict[PairKey, float] = {}
        if pair_store is not None:
            signature = self.kernel_signature()
            wanted = {key: self._fingerprint_pair(*(strings[index] for index in tasks[key][0])) for key in missing}
            stored = pair_store.get_many(signature, list(wanted.values()))
            found = {key: stored[pair] for key, pair in wanted.items() if pair in stored}
            missing = [key for key in missing if key not in found]
        pending = [(key, tasks[key][0]) for key in missing]
        computed: Dict[PairKey, float] = {}
        if pending:
            computed = compute(pending) if compute is not None else self._evaluate_pending(strings, pending)
        with self._lock:
            if pair_store is not None:
                self.store_hits += len(found)
                self.store_misses += len(missing)
            self.kernel_evals += len(computed)
            self._remember({**found, **computed})
        _TALLY.kernel_evals += len(computed)
        _TALLY.store_hits += len(found)
        if pair_store is not None and computed and persist:
            pair_store.put_many(signature, {wanted[key]: value for key, value in computed.items()})
        values.update(found)
        values.update(computed)
        return {position: values[key] for key, positions in tasks.items() for position in positions}

    def _remember(self, values: Dict[PairKey, float]) -> None:
        """Insert *values* into the value LRU and evict past its bound (lock held)."""
        for key, value in values.items():
            self._cache[key] = value
            self._cache.move_to_end(key)
        while len(self._cache) > self.pair_cache_size:
            self._cache.popitem(last=False)

    def _evaluate_pending(
        self,
        strings: Sequence[WeightedString],
        pending: List[Tuple[PairKey, Tuple[int, int]]],
        batched: bool = True,
    ) -> Dict[PairKey, float]:
        """Evaluate the values no cache layer holds.

        A diagonal key goes to ``kernel.self_value`` (which equals
        ``value(a, a)``, see :class:`~repro.kernels.base.StringKernel`).
        The other pairs go to a ``value_pairs`` batch method in one call
        when the kernel has one (the Kast kernel does) and *batched* is on;
        otherwise they are evaluated pair by pair.
        """
        crossing = [pair for key, pair in pending if key[0] != key[1]]
        if batched and crossing and hasattr(self.kernel, "value_pairs"):
            crossing_values = iter(self.kernel.value_pairs(strings, crossing))
        else:
            crossing_values = iter([self.kernel.value(strings[i], strings[j]) for i, j in crossing])
        return {
            key: float(self.kernel.self_value(strings[i]) if key[0] == key[1] else next(crossing_values))
            for key, (i, _) in pending
        }

    # ------------------------------------------------------------------
    # Thin callers of the lookup
    # ------------------------------------------------------------------
    def pair_value(self, a: WeightedString, b: WeightedString) -> float:
        """Raw ``k(a, b)`` through the symmetric content-keyed cache (see :meth:`_lookup`)."""
        strings = [a, b]
        values = self._lookup(strings, [(0, 1)], lambda pending: self._evaluate_pending(strings, pending, False))
        return values[(0, 1)]

    def self_value(self, string: WeightedString) -> float:
        """Cached ``k(a, a)``."""
        return self.self_values([string])[0]

    def self_values(self, strings: Sequence[WeightedString]) -> List[float]:
        """Cached ``k(a, a)`` for every string, in order (batched).

        A self value is the diagonal pair ``(a, a)`` of :meth:`_lookup`:
        one LRU entry and one pair-store row ``(fp, fp)``, shared with the
        pair of two content-identical strings.  So normalisation
        denominators of previously seen traces cost zero kernel
        evaluations, which is what lets a fully covered resubmission skip
        the kernel entirely.  They do not count as pair hits or misses.
        """
        string_list = list(strings)
        diagonal = [(index, index) for index in range(len(string_list))]
        values = self._lookup(string_list, diagonal, pair_traffic=False)
        return [values[pair] for pair in diagonal]

    def prime_self_values(self, strings: Sequence[WeightedString], values: Sequence[float]) -> None:
        """Seed known raw self values into the value LRU.

        The streaming scorer calls this with the landmark self values a
        :class:`~repro.streaming.model.LandmarkModel` carries, so serving
        never re-evaluates ``k(l, l)``.  It is a plain LRU insert under
        the diagonal keys: the pair store is neither read nor written
        (the model is the durable copy of these values), and counters are
        untouched — priming is cache *construction*, not traffic.
        """
        string_list = list(strings)
        if len(string_list) != len(values):
            raise ValueError(
                f"got {len(string_list)} strings but {len(values)} self values"
            )
        keys = self._string_keys(string_list)
        with self._lock:
            self._remember({(key, key): float(value) for key, value in zip(keys, values)})

    def evaluate_row(
        self, query: WeightedString, references: Sequence[WeightedString]
    ) -> List[float]:
        """Raw ``k(query, ref)`` for every reference — one batched row.

        The landmark-row seam of the streaming serving path: all pairs of
        one query go through :meth:`_lookup` as a single task, so they
        share its content dedup, both cache layers, and the kernel's
        ``value_pairs`` batch evaluation (one call covers the whole row).
        A cold row against ``m`` novel references costs exactly ``m``
        kernel evaluations; a covered row costs zero.  A reference
        content-identical to the query is the diagonal key, so
        ``evaluate_row(q, [q])`` is ``k(q, q)``, bit-identical to
        :meth:`self_value`.

        The row reads the pair store but never writes it (``persist=False``,
        see :meth:`_lookup`): computed values land in the in-memory LRU
        only, so a classify request makes no durable write.  A row that a
        matrix job stored is still served from the store.
        """
        reference_list = list(references)
        strings = [query, *reference_list]
        pairs = [(0, index + 1) for index in range(len(reference_list))]
        values = self._lookup(strings, pairs, persist=False)
        return [values[pair] for pair in pairs]

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
        in the corpus) map onto one unique evaluation; :meth:`_lookup`
        serves cached values first, and the remainder is evaluated by
        :meth:`_evaluate_pending`.  Each string's key is looked up once per
        call, in order of first appearance.
        """
        return self._lookup(strings, index_pairs)

    def normalized_pair_value(self, a: WeightedString, b: WeightedString) -> float:
        """Cosine-normalised ``k(a, b)`` through the caches."""
        return normalize_kernel_value(self.pair_value(a, b), self.self_value(a), self.self_value(b))

    # ------------------------------------------------------------------
    # Gram matrix
    # ------------------------------------------------------------------
    def gram(self, strings: Sequence[WeightedString], normalized: bool = True) -> np.ndarray:
        """The (square, symmetric) Gram matrix over *strings* as an array."""
        return self.matrix(strings, normalized=normalized).values

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

    # ------------------------------------------------------------------
    # Labelled matrices and their stamped payload
    # ------------------------------------------------------------------
    def kernel_signature(self) -> str:
        """String identifying every kernel option that affects values.

        Derived from the canonical serialization of the engine's declarative
        :class:`~repro.api.spec.KernelSpec` (minus parameters the registry
        marks value-irrelevant, e.g. the Kast backend whose implementations
        are equivalent) — the same description block workers rebuild the
        kernel from.  Kernels whose class is not registered fall back
        to their name.
        """
        if self.spec is not None:
            return self.spec.signature()
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
        count = len(string_list)
        raw_by_pair = self.evaluate_pairs(
            string_list, [(i, j) for i in range(count) for j in range(i + 1, count)]
        )
        return self.assemble_matrix(string_list, raw_by_pair, normalized=normalized)

    def assemble_matrix(
        self,
        strings: Sequence[WeightedString],
        raw_by_pair: Dict[Tuple[int, int], float],
        normalized: bool = True,
    ) -> KernelMatrix:
        """:meth:`assemble_gram` labelled with the strings' names and labels."""
        string_list = list(strings)
        return KernelMatrix(
            values=self.assemble_gram(string_list, raw_by_pair, normalized=normalized),
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
        return matrix.psd_repaired() if repair else matrix

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Sizes and hit counters of the engine caches.

        ``pair_entries`` is the size of the value LRU (pair and self
        values alike), ``pair_hits``/``pair_misses`` the in-memory layer's
        pair traffic, ``store_hits``/``store_misses`` the persistent pair store, and
        ``kernel_evals`` counts values the kernel actually computed (pair
        and self values alike) — zero on a fully store-covered corpus.
        """
        with self._lock:
            return {
                "pair_entries": len(self._cache),
                "pair_hits": self.pair_hits,
                "pair_misses": self.pair_misses,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "kernel_evals": self.kernel_evals,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"GramEngine(kernel={self.kernel!r})"
