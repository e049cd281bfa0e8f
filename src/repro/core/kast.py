"""The Kast Spectrum Kernel (the paper's primary contribution).

Given two weighted strings ``A`` and ``B`` and a *cut weight* ``n``, the
kernel (section 3.2):

1. searches for substrings (contiguous runs of tokens, matched by literal —
   weights may differ between the two strings) that are **shared** by ``A``
   and ``B`` and whose weight is **at least the cut weight**;
2. requires each shared substring to be *independent*: "a target substring
   must not be a substring of another matching substring in at least one of
   the original strings" — i.e. at least one of its occurrences must lie
   outside the occurrences of a larger already-selected shared substring;
3. turns every surviving shared substring into one embedding feature whose
   value, per string, is the sum of the weights of **all** its qualifying
   appearances in that string;
4. returns the inner product of the two feature vectors.

Normalisation (Eq. 12 of the paper) divides by
``sqrt(k(A, A) * k(B, B))``.  For a self comparison the single maximal shared
substring is the whole string, so ``k(A, A) = weight_{w>=n}(A)^2`` and the
normalised kernel coincides with the worked example's
``k(A, B) / (weight_{w>=n}(A) * weight_{w>=n}(B))`` form.  Both forms are
available through ``normalization``.  A string lighter than the cut weight
shares nothing that qualifies, even with itself: its ``k(A, A)`` is 0, and
so is every normalised value it takes part in.

Interpretation choices (documented because the paper under-specifies them;
each is controlled by a constructor flag and exercised by the ablation
benchmark):

* **Occurrence weight** — by default (``filter_tokens_below_cut=False``)
  every token of an occurrence counts, following the paper's definition of
  a string's weight as the sum of its token weights; this reproduces the
  worked example exactly.  ``filter_tokens_below_cut=True`` sums only the
  tokens whose individual weight is ``>= cut_weight`` inside an occurrence,
  the paper's :math:`weight_{w \\ge n}` notation.
* **Occurrence qualification** — an occurrence contributes to a feature only
  if its (possibly filtered) weight is ``>= cut_weight``.
* **Search order** — candidates are ranked by their largest per-string
  weight, ties broken by token length then lexicographically; this matches
  the paper's remark that "the algorithm always starts searching from the
  substrings with the highest weight".

Backends
--------
The candidate search (all maximal literal matches between two strings), the
occurrence scan and the independence selection make up the kernel cost.
Two interchangeable implementations exist, selected with ``backend``:

* ``"numpy"`` (default) — token literals are interned to small integers
  through a shared :class:`~repro.strings.interner.TokenInterner`.  One
  scorer serves :meth:`~KastSpectrumKernel.value_pairs` (the Gram entry,
  which reads each row of its blocks out through
  :meth:`~KastSpectrumKernel.value_row`), :meth:`~KastSpectrumKernel.value_row`
  alone, :meth:`~KastSpectrumKernel.value` and
  :meth:`~KastSpectrumKernel.embed` (the last three as one-query
  blocks).  Its unit is a *block* of query strings, packed up to a
  budget of query tokens: one match-length table of the block's queries
  against the union of their targets, the block's maximal spans
  deduplicated by content, each distinct pattern's non-overlapping
  qualifying occurrences gathered once per (pattern, string) in array
  form with exact integer prefix sums, and the greedy independence rule
  run per pair over arrays presorted once per block.
* ``"python"`` — the original pure-Python loops, pair by pair, kept as a
  dependency-free reference; the equivalence of the two backends over
  randomised corpora and rows is asserted by the test suite.

Both backends count their search work
(:meth:`~KastSpectrumKernel.work_counts`), so a cost claim can rest on
counts as well as seconds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import KastEmbedding, KastFeature, Occurrence
from repro.kernels.base import StringKernel, normalize_kernel_value
from repro.strings.interner import TokenInterner
from repro.strings.tokens import WeightedString

__all__ = ["KastSpectrumKernel", "kast_kernel_value", "KAST_BACKENDS"]

_Literals = Tuple[str, ...]

#: One occurrence as a plain ``(start, end, weight)`` triple (the search uses
#: these instead of :class:`Occurrence` objects; dataclasses are only built
#: for the inspectable embedding).
_OccTriple = Tuple[int, int, int]

#: (max per-string weight, pattern length, pattern, occurrences in A,
#:  occurrences in B, summed weight in A, summed weight in B)
_ScoredCandidate = Tuple[int, int, _Literals, List[_OccTriple], List[_OccTriple], int, int]

#: Candidate-search implementations accepted by :class:`KastSpectrumKernel`.
KAST_BACKENDS = ("numpy", "python")

#: Default bound on the per-kernel prepared-string LRU cache.
_DEFAULT_PREPARED_CACHE_SIZE = 4096

#: Largest value the int64 read-out holds exactly.
_INT64_MAX = np.iinfo(np.int64).max

#: Id that separates the targets of a block's corpus; no interned literal takes it.
_SEPARATOR = -1

#: Id that separates the queries of a block.  It differs from
#: :data:`_SEPARATOR`, so no diagonal run of the match table crosses a
#: boundary on either side.
_QUERY_SEPARATOR = -2

#: Query tokens one scoring block holds (a single longer query is a block
#: of its own).  A block's match table is its query tokens against its
#: targets' tokens, built a row at a time at a flat cost per cell, so a
#: bigger block trades fewer calls for more masked-out cells and bigger
#: transient arrays.  On 40-string corpora of 16-82 tokens a string (2
#: cores), a Gram took about as long at 128, 256 or 384 tokens (36, 34
#: and 35 ms), while its transient arrays grew from 1.0 to 2.4 and 3.4 MB
#: (the one-row scorer's: 1.6 MB), so blocks stop at 128.
_BLOCK_QUERY_TOKENS = 128

#: The counters :meth:`KastSpectrumKernel.work_counts` reports.
_WORK_COUNTS = (
    "maximal_spans",
    "distinct_patterns",
    "scored_candidates",
    "selected_features",
    "selected_occurrences",
)


class _PreparedString:
    """Cached per-string data reused across kernel evaluations.

    The numpy backend keeps ``row_ids`` and ``row_weights``; the python
    backend keeps an ``occurrence_prefix`` list instead (the other is
    ``None`` on either side).
    """

    __slots__ = (
        "literals",
        "weights",
        "row_ids",
        "row_weights",
        "occurrence_prefix",
        "occurrence_total",
        "cut_filtered_total",
    )

    def __init__(
        self,
        string: WeightedString,
        cut_weight: int,
        filter_tokens: bool,
        interner: Optional[TokenInterner] = None,
    ) -> None:
        self.literals: _Literals = tuple(token.literal for token in string)
        self.weights: Tuple[int, ...] = tuple(token.weight for token in string)
        filtered = [weight if weight >= cut_weight else 0 for weight in self.weights]
        occurrence_weights = filtered if filter_tokens else list(self.weights)
        #: Total weight under the occurrence-weight rule (used for self-similarity).
        self.occurrence_total = sum(occurrence_weights)
        #: The paper's ``weight_{w>=cut}``: sum of token weights >= cut weight.
        self.cut_filtered_total = sum(filtered)
        self.row_ids: Optional[np.ndarray] = None
        self.row_weights: Optional[np.ndarray] = None
        self.occurrence_prefix: Optional[List[int]] = None
        if interner is None:
            # Prefix sums allow O(1) occurrence-weight queries.
            prefix = [0]
            for weight in occurrence_weights:
                prefix.append(prefix[-1] + weight)
            self.occurrence_prefix = prefix
            return
        # A block's query and target corpora are concatenations of
        # ``row_ids``: the string's integer-encoded literals behind one
        # separator id no real token can take; ``row_weights`` holds the
        # matching occurrence weights (0 under the separator).
        self.row_ids = np.concatenate(([_SEPARATOR], interner.encode(self.literals))).astype(np.int32)
        self.row_weights = np.asarray([0] + occurrence_weights, dtype=np.int64)

    def occurrence_weight(self, start: int, length: int) -> int:
        """Weight of the occurrence ``[start, start+length)`` under the occurrence-weight rule."""
        return self.occurrence_prefix[start + length] - self.occurrence_prefix[start]

    def _find_occurrences_python(self, pattern: _Literals) -> List[int]:
        """Start indices of the non-overlapping appearances of *pattern*.

        Occurrences are counted greedily left to right without overlaps, so a
        self-repetitive pattern (e.g. ``a a a`` against the pattern ``a a``)
        contributes each token to at most one appearance.  This keeps the
        self-similarity equal to the squared string weight, which the
        normalisation relies on.
        """
        length = len(pattern)
        if length == 0 or length > len(self.literals):
            return []
        first = pattern[0]
        starts: List[int] = []
        limit = len(self.literals) - length
        start = 0
        while start <= limit:
            if self.literals[start] == first and self.literals[start : start + length] == pattern:
                starts.append(start)
                start += length
            else:
                start += 1
        return starts


def _dense_unique(keys: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for keys in ``[0, size)``, through a table, not a sort."""
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    unique = np.flatnonzero(present)
    slot = np.empty(size, dtype=np.intp)
    slot[unique] = np.arange(unique.shape[0])
    return unique, slot[keys]


def _slice_sums(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Exact integer sums of ``values[low[k]:high[k]]`` for every k, from one prefix sum."""
    running = np.concatenate(([0], np.cumsum(values)))
    return running[high] - running[low]


def _prefix_sums(weights: Sequence[np.ndarray]) -> np.ndarray:
    """``prefix[k]``: the summed weight of the first ``k`` positions of the concatenated *weights*."""
    return np.concatenate(([0], np.cumsum(np.concatenate(weights))))


def _key_slices(keys: np.ndarray, wanted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(low, high)`` with ``keys[low[k]:high[k]] == wanted[k]`` in the sorted *keys*."""
    return np.searchsorted(keys, wanted), np.searchsorted(keys, wanted, side="right")


def _cover(reach: List[int], starts: List[int], length: int) -> None:
    """Record accepted occurrences: ``reach[p]`` = max end of one covering ``p``."""
    for start in starts:
        end = start + length
        for position in range(start, end):
            if reach[position] < end:
                reach[position] = end


def _triples(starts: List[int], weights: np.ndarray, low: int, high: int, length: int) -> List[_OccTriple]:
    """The occurrences ``low:high`` of a flat occurrence list as ``(start, end, weight)`` triples."""
    return [
        (start, start + length, weight)
        for start, weight in zip(starts[low:high], weights[low:high].tolist())
    ]


class _ScoringBlock:
    """Consecutive query rows of one :meth:`KastSpectrumKernel.value_pairs` call, scored together.

    Nothing is scored until a row is read.  The first read prepares the
    block's strings (through *prepared*, the call's memo shared by all its
    blocks, so each string is prepared once per call) and scores every row
    in one :meth:`KastSpectrumKernel._score_block` call.
    """

    __slots__ = ("_kernel", "_strings", "_prepared", "_rows", "_values")

    def __init__(
        self,
        kernel: "KastSpectrumKernel",
        strings: Sequence[WeightedString],
        prepared: Dict[int, _PreparedString],
        rows: List[Tuple[int, List[int]]],
    ) -> None:
        self._kernel = kernel
        self._strings = strings
        self._prepared = prepared
        self._rows = rows
        self._values: Optional[List[List[float]]] = None

    def row(self, position: int) -> List[float]:
        """The values of the block's row at *position*, in its target order."""
        if self._values is None:
            self._values = self._score()
        return self._values[position]

    def _score(self) -> List[List[float]]:
        prepared = self._prepared
        targets = list(dict.fromkeys(j for _, row in self._rows for j in row))
        for index in [i for i, _ in self._rows] + targets:
            if index not in prepared:
                prepared[index] = self._kernel._prepare(self._strings[index])
        slot = {j: position for position, j in enumerate(targets)}
        scored = self._kernel._score_block(
            [prepared[i] for i, _ in self._rows],
            [prepared[j] for j in targets],
            [(position, slot[j]) for position, (_, row) in enumerate(self._rows) for j in row],
        )[0]
        values = iter(map(float, scored))
        return [[next(values) for _ in row] for _, row in self._rows]


class KastSpectrumKernel(StringKernel):
    """Kernel over weighted strings based on shared maximal weighted substrings.

    Parameters
    ----------
    cut_weight:
        Minimum weight a shared substring (and each counted occurrence) must
        reach.  The paper sweeps ``{2, 4, ..., 1024}`` and recommends small
        values.
    normalization:
        ``"gram"`` (default) — Eq. 12, divide by ``sqrt(k(A,A) k(B,B))``;
        ``"weight"`` — the worked example's
        ``weight_{w>=cut}(A) * weight_{w>=cut}(B)`` form; ``None`` — raw
        values.  This only affects :meth:`normalized_value`;
        :meth:`value` is always raw.
    filter_tokens_below_cut:
        When true, occurrence weights count only tokens with weight >= cut
        weight.  The default (false) follows the paper's definition "the
        weight of a string is the summation of the weights of its tokens":
        an occurrence's weight is the plain sum over its span, and the cut
        weight only decides which substrings/occurrences qualify.  With the
        default the worked example of section 3.2 is reproduced exactly
        (see ``experiment_worked_example``).
    require_independent_occurrence:
        Enforce the maximality condition (default).  Disabling it turns the
        kernel into an "all shared substrings" variant used by the ablation
        benchmark.
    backend:
        ``"numpy"`` (default) for the vectorised integer match search,
        ``"python"`` for the pure-Python reference implementation.  Both
        produce identical values.
    interner:
        Optional shared :class:`~repro.strings.interner.TokenInterner`
        (numpy backend only).  Sharing one interner across kernels — e.g.
        across the cut-weight sweep — reuses the literal → id space so
        prepared encodings stay comparable and cheap.
    max_cache_size:
        Bound on the prepared-string LRU cache (least recently used entries
        are evicted one at a time; the working set of a long sweep survives).
    """

    def __init__(
        self,
        cut_weight: int = 2,
        normalization: Optional[str] = "gram",
        filter_tokens_below_cut: bool = False,
        require_independent_occurrence: bool = True,
        backend: str = "numpy",
        interner: Optional[TokenInterner] = None,
        max_cache_size: int = _DEFAULT_PREPARED_CACHE_SIZE,
    ) -> None:
        if cut_weight < 1:
            raise ValueError(f"cut_weight must be >= 1, got {cut_weight}")
        if normalization not in (None, "gram", "weight"):
            raise ValueError(f"normalization must be None, 'gram' or 'weight', got {normalization!r}")
        if backend not in KAST_BACKENDS:
            raise ValueError(f"backend must be one of {KAST_BACKENDS}, got {backend!r}")
        if max_cache_size < 1:
            raise ValueError(f"max_cache_size must be >= 1, got {max_cache_size}")
        self.cut_weight = cut_weight
        self.normalization = normalization
        self.filter_tokens_below_cut = filter_tokens_below_cut
        self.require_independent_occurrence = require_independent_occurrence
        self.backend = backend
        self.max_cache_size = max_cache_size
        self.name = f"kast(cut={cut_weight})"
        self._interner: Optional[TokenInterner] = None
        self._cache: "OrderedDict[str, _PreparedString]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._work: Dict[str, int] = dict.fromkeys(_WORK_COUNTS, 0)
        if backend == "numpy":
            self._interner = interner if interner is not None else TokenInterner()

    # ------------------------------------------------------------------
    # Shared-state accessors
    # ------------------------------------------------------------------
    @property
    def interner(self) -> Optional[TokenInterner]:
        """The token interner backing the numpy backend (``None`` for python)."""
        return self._interner

    @interner.setter
    def interner(self, interner: Optional[TokenInterner]) -> None:
        if self.backend != "numpy":
            # The python backend never uses integer encodings; installing an
            # interner here would silently flip it onto the numpy search
            # path (prepared strings dispatch on `row_ids is not None`).
            return
        if interner is self._interner:
            return
        with self._cache_lock:
            # Cached encodings belong to the old id space; drop them.
            self._cache.clear()
            self._interner = interner

    # ------------------------------------------------------------------
    # StringKernel interface
    # ------------------------------------------------------------------
    def value(self, a: WeightedString, b: WeightedString) -> float:
        """Raw kernel value: inner product of the pairwise feature vectors.

        The numpy backend scores the pair as a one-pair block (see
        :meth:`value_pairs`); the full embedding (with ``Occurrence`` /
        ``KastFeature`` objects) is only materialised by :meth:`embed`.
        """
        prepared_a = self._prepare(a)
        prepared_b = self._prepare(b)
        if prepared_a.row_ids is not None:
            return float(self._score_block([prepared_a], [prepared_b], [(0, 0)])[0][0])
        return float(sum(entry[5] * entry[6] for entry in self._selected_candidates(prepared_a, prepared_b)))

    def value_row(
        self,
        a: WeightedString,
        others: Sequence[WeightedString],
        block_row: Optional[Tuple["_ScoringBlock", int]] = None,
    ) -> List[float]:
        """Raw kernel values ``[k(a, b) for b in others]``.

        Alone, the row is a block of one query (see :meth:`value_pairs`).
        :meth:`value_pairs` reads every row of its blocks through here,
        passing *block_row*, the ``(block, query position)`` the row
        belongs to: the block's first row read scores the whole block, the
        later rows read its stored values.  So every row the kernel scores,
        alone or in a block, is one ``value_row`` call with its own
        evaluations, and a profiler that times this method sees all of the
        numpy backend's pair scoring.
        """
        if block_row is not None:
            block, position = block_row
            return block.row(position)
        others = list(others)
        prepared_a = self._prepare(a)
        if prepared_a.row_ids is None or not others:
            return [self.value(a, b) for b in others]
        prepared_others = [self._prepare(b) for b in others]
        scored = self._score_block([prepared_a], prepared_others, [(0, index) for index in range(len(others))])[0]
        return [float(value) for value in scored]

    def value_pairs(self, strings: Sequence[WeightedString], index_pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Raw kernel values ``k(strings[i], strings[j])`` for every ``(i, j)``, in order.

        The numpy backend groups the pairs by query ``i`` into rows, in
        order of first appearance, and packs consecutive rows into blocks
        of at most :data:`_BLOCK_QUERY_TOKENS` query tokens (a longer query
        is a block of its own).  Each block is one :meth:`_score_block`
        call: one match-length table of the block's queries against the
        union of their targets, one set of distinct patterns and their
        occurrences, and one presorted independence pass per pair.  The
        rows of a Gram's upper triangle share their targets, so a block
        costs little more table than its rows would one by one.  Each row
        is read out through :meth:`value_row`; :meth:`value` and
        :meth:`embed` are one-query blocks of the same scorer.  The python
        backend evaluates pair by pair.
        """
        index_pairs = [(int(i), int(j)) for i, j in index_pairs]
        if self.backend == "python":
            return [self.value(strings[i], strings[j]) for i, j in index_pairs]
        rows: Dict[int, List[int]] = {}
        for i, j in dict.fromkeys(index_pairs):
            rows.setdefault(i, []).append(j)
        blocks: List[List[int]] = []
        block_tokens = 0
        for query in rows:
            tokens = len(strings[query])
            if not blocks or block_tokens + tokens > _BLOCK_QUERY_TOKENS:
                blocks.append([])
                block_tokens = 0
            blocks[-1].append(query)
            block_tokens += tokens
        prepared: Dict[int, _PreparedString] = {}
        values: Dict[Tuple[int, int], float] = {}
        for queries in blocks:
            block = _ScoringBlock(self, strings, prepared, [(i, rows[i]) for i in queries])
            for position, i in enumerate(queries):
                row = self.value_row(strings[i], [strings[j] for j in rows[i]], (block, position))
                values.update(zip([(i, j) for j in rows[i]], row))
        return [values[pair] for pair in index_pairs]

    def self_value(self, a: WeightedString) -> float:
        """``k(a, a)``, equal to ``value(a, a)`` bit for bit under every flag.

        Under the independence rule the whole string is the heaviest and
        longest candidate of a self comparison and it covers every other
        candidate, so the value is the squared string weight (under the
        occurrence-weight rule) — or 0 when that weight is below the cut
        weight and the string has no qualifying occurrence at all.  When
        every token weight reaches the cut weight this coincides with
        ``weight_{w>=cut}(a) ** 2``, which is what makes Eq. 12 and the
        worked example's weight-product normalisation agree in the paper.
        Without the independence rule every shared substring counts, and
        there is no closed form: the value is scored like any other pair.
        """
        if not self.require_independent_occurrence:
            return self.value(a, a)
        total = self._prepare(a).occurrence_total
        return float(total**2) if total >= self.cut_weight else 0.0

    def normalized_value(self, a: WeightedString, b: WeightedString) -> float:
        """Normalised kernel value according to ``self.normalization``."""
        raw = self.value(a, b)
        if self.normalization is None:
            return raw
        if self.normalization == "weight":
            denominator = float(self.string_weight(a) * self.string_weight(b))
            if denominator <= 0.0:
                return 0.0
            return raw / denominator
        return normalize_kernel_value(raw, self.self_value(a), self.self_value(b))

    # ------------------------------------------------------------------
    # Embedding construction
    # ------------------------------------------------------------------
    def embed(self, a: WeightedString, b: WeightedString) -> KastEmbedding:
        """Build the full pairwise embedding (features, vectors, kernel value)."""
        prepared_a = self._prepare(a)
        prepared_b = self._prepare(b)
        selected = self._selected_candidates(prepared_a, prepared_b)
        features: List[KastFeature] = []
        for _, _, pattern, occurrences_a, occurrences_b, weight_a, weight_b in selected:
            features.append(
                KastFeature(
                    literals=pattern,
                    weight_in_a=weight_a,
                    weight_in_b=weight_b,
                    occurrences_a=tuple(
                        Occurrence(start=start, length=end - start, weight=weight)
                        for start, end, weight in occurrences_a
                    ),
                    occurrences_b=tuple(
                        Occurrence(start=start, length=end - start, weight=weight)
                        for start, end, weight in occurrences_b
                    ),
                )
            )
        kernel_value = float(sum(feature.product for feature in features))
        return KastEmbedding(features=tuple(features), cut_weight=self.cut_weight, kernel_value=kernel_value)

    def _selected_candidates(self, prepared_a: _PreparedString, prepared_b: _PreparedString) -> List["_ScoredCandidate"]:
        """Candidates surviving the greedy independence selection, in selection order."""
        if prepared_a.row_ids is not None:
            return self._score_block([prepared_a], [prepared_b], [(0, 0)], keep=True)[1][0]
        candidates, spans = self._candidate_substrings_python(prepared_a, prepared_b)
        scored = self._scored_candidates(prepared_a, prepared_b, candidates)
        kept = self._greedy_select(prepared_a, prepared_b, scored)
        self._count_work(
            spans, len(candidates), len(scored), len(kept), sum(len(entry[3]) + len(entry[4]) for entry in kept)
        )
        return kept

    def work_counts(self) -> Dict[str, int]:
        """Deterministic counts of the kernel's search work since construction.

        * ``maximal_spans`` — left-maximal literal matches found;
        * ``distinct_patterns`` — their distinct contents, deduplicated per
          scoring block (see :meth:`value_pairs`);
        * ``scored_candidates`` — (pair, pattern) candidates with a
          qualifying occurrence in both strings;
        * ``selected_features`` — candidates kept by the independence rule;
        * ``selected_occurrences`` — qualifying occurrences of the selected
          features, in both strings.

        Every count but ``distinct_patterns`` of a block is a sum over
        pairs, so both backends count alike.
        """
        with self._cache_lock:
            return dict(self._work)

    def _count_work(self, spans: int, patterns: int, scored: int, selected: int, occurrences: int) -> None:
        # Added once per call under the lock: server pools share a kernel across threads.
        with self._cache_lock:
            work = self._work
            work["maximal_spans"] += spans
            work["distinct_patterns"] += patterns
            work["scored_candidates"] += scored
            work["selected_features"] += selected
            work["selected_occurrences"] += occurrences

    def string_weight(self, string: WeightedString) -> int:
        """The paper's ``weight_{w>=cut}(string)``: sum of token weights >= the cut weight."""
        return self._prepare(string).cut_filtered_total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(self, string: WeightedString) -> _PreparedString:
        """Prepared-string lookup with a bounded LRU cache keyed by content.

        The key is :attr:`WeightedString.fingerprint`, so equal-content
        strings (however they were constructed) share one preparation, a
        string rebuilt from a file is a cache hit, and no entry holds on to
        the string it was prepared from.
        """
        key = string.fingerprint
        with self._cache_lock:
            prepared = self._cache.get(key)
            if prepared is not None:
                self._cache.move_to_end(key)
                return prepared
        # Build outside the lock: preparation is the expensive part.
        prepared = _PreparedString(string, self.cut_weight, self.filter_tokens_below_cut, self._interner)
        with self._cache_lock:
            existing = self._cache.get(key)
            if existing is not None:
                self._cache.move_to_end(key)
                return existing
            self._cache[key] = prepared
            while len(self._cache) > self.max_cache_size:
                self._cache.popitem(last=False)
        return prepared

    # ------------------------------------------------------------------
    # numpy backend
    # ------------------------------------------------------------------
    @staticmethod
    def _match_lengths(ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Match-length table between two id arrays.

        ``lengths[i, j]`` is the length of the common extension starting at
        ``(i, j)`` — the run of True cells down the diagonal of the equality
        matrix.  It is built one row at a time from the bottom,
        ``lengths[i, j] = eq[i, j] * (lengths[i+1, j+1] + 1)``: a Python
        loop over the shorter side, each step two whole-row NumPy passes
        over row views taken once.
        """
        m, n = ids_a.shape[0], ids_b.shape[0]
        if n < m:
            return np.ascontiguousarray(KastSpectrumKernel._match_lengths(ids_b, ids_a).T)
        # Runs are bounded by m, so 16-bit arithmetic is safe for any
        # realistic string and halves the memory traffic.
        lengths = np.equal.outer(ids_a, ids_b).astype(np.int16 if m < np.iinfo(np.int16).max else np.int32)
        # A row starts as eq[i] (0 or 1), so eq * (1 + next) is eq + eq * next.
        # The last column has no diagonal successor: eq alone holds it.
        heads, tails = list(lengths[:, :-1]), list(lengths[:, 1:])
        extension = np.empty(n - 1, dtype=lengths.dtype)
        for i in range(m - 2, -1, -1):
            np.multiply(tails[i + 1], heads[i], out=extension)
            heads[i] += extension
        return lengths

    @staticmethod
    def _maximal_span_arrays(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left-maximal match spans as ``(rows, cols, lengths)`` arrays.

        A span is left-maximal when its diagonal predecessor pair is
        unequal (``lengths[i-1, j-1] == 0``); right-maximality is implied
        by taking the full match length.
        """
        maximal = lengths > 0
        maximal[1:, 1:] &= lengths[:-1, :-1] == 0
        # One flat scan: a 2-D np.nonzero is several times slower.
        found = np.flatnonzero(maximal)
        rows, cols = np.divmod(found, lengths.shape[1])
        return rows, cols, lengths.ravel()[found]

    @staticmethod
    def _block_patterns(
        lengths: np.ndarray,
        block: np.ndarray,
        width: int,
        query_of: np.ndarray,
        target_of: np.ndarray,
        pair_of: np.ndarray,
        count: int,
    ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The distinct patterns of a block's requested pairs, and their candidates.

        The maximal spans ``(i, j, L)`` of the table cells whose (query,
        target) pair is requested (``pair_of >= 0``) are kept; the rest,
        such as a query against itself, are masked out.  A span holds the
        pattern ``block[i:i+L]`` (``L < width``); spans are deduplicated by
        ``(i, L)`` and then by the first row of the block holding the same
        pattern — the token's first position for ``L == 1``,
        ``(lengths[:, j] >= L).argmax()`` otherwise — which leaves one
        entry per distinct pattern.  Keys index dense tables (rows x
        lengths, pairs x patterns), so no step sorts.  Returns the number
        of spans; per pattern its first row, length and a corpus column
        where it starts; and per (pair, pattern) candidate its pair and
        pattern.  Only the span count is meaningful when it is 0.
        """
        rows, cols, span_lengths = KastSpectrumKernel._maximal_span_arrays(lengths)
        span_pair = pair_of.ravel()[query_of[rows] * pair_of.shape[1] + target_of[cols]]
        if count < pair_of.size:
            requested = span_pair >= 0
            rows, cols = rows[requested], cols[requested]
            span_lengths, span_pair = span_lengths[requested], span_pair[requested]
        if rows.shape[0] == 0:
            return 0, rows, rows, rows, rows, rows
        size = block.shape[0] * width
        span_keys = rows * width + span_lengths
        keys, span_key = _dense_unique(span_keys, size)
        key_rows, key_lengths = np.divmod(keys, width)
        # representative[row * width + L]: a corpus column where block[row:row+L] starts.
        representative = np.empty(size, dtype=np.intp)
        representative[span_keys] = cols
        _, first, token = np.unique(block, return_index=True, return_inverse=True)
        canonical = first[token[key_rows]]
        longer = np.flatnonzero(key_lengths > 1)
        if longer.shape[0]:
            canonical[longer] = (lengths[:, representative[keys[longer]]] >= key_lengths[longer]).argmax(axis=0)
        canonical_keys = canonical * width + key_lengths
        representative[canonical_keys] = representative[keys]
        patterns, key_pattern = _dense_unique(canonical_keys, size)
        n_patterns = patterns.shape[0]
        present = np.zeros(count * n_patterns, dtype=bool)
        present[span_pair * n_patterns + key_pattern[span_key]] = True
        pair, pattern = np.divmod(np.flatnonzero(present), n_patterns)
        pattern_rows, pattern_lengths = np.divmod(patterns, width)
        return rows.shape[0], pattern_rows, pattern_lengths, representative[patterns], pair, pattern

    def _score_block(
        self,
        queries: Sequence[_PreparedString],
        targets: Sequence[_PreparedString],
        pairs: Sequence[Tuple[int, int]],
        keep: bool = False,
    ) -> Tuple[List[int], List[List["_ScoredCandidate"]]]:
        """Score the ``(query, target)`` *pairs* of one block at once (numpy backend).

        *pairs* index *queries* and *targets* and are distinct.  Returns
        the integer kernel value of each pair and, with ``keep``, each
        pair's selected candidates in selection order (empty lists
        otherwise).  The queries are concatenated behind one separator id
        and the targets behind another, so one match-length table of the
        block against the corpus holds every pairwise table as a segment:
        the separators break every diagonal run at a boundary.  Four steps:

        1. **Content deduplication** (:meth:`_block_patterns`): one entry
           per distinct pattern among the requested pairs' maximal spans,
           and the (pair, pattern) candidates.
        2. **Occurrences once per (pattern, string).**  The (overlapping)
           starts of a pattern are ``{p : lengths[p, j] >= L}`` across the
           queries and ``{q : lengths[i, q] >= L}`` across the targets —
           no string is rescanned.  They are made non-overlapping and
           cut-qualified in array form (:meth:`_qualifying_occurrences_numpy`)
           and summed per (pattern, query) and per (pattern, target) with
           exact integer prefix sums.
        3. **Presorted selection.**  The (pair, pattern) candidates with a
           qualifying occurrence in both strings are sorted once, with
           ``np.lexsort`` on (pair, −max weight, −length, lexicographic
           pattern rank) — the reference backend's order — and the greedy
           independence rule runs per pair over the flat arrays.
        4. **Read-out.**  Values are the per-pair sums of the kept
           candidates' weight products; ``keep`` also reads their
           occurrences back out for :meth:`embed`.
        """
        count = len(pairs)
        values = [0] * count
        selected: List[List[_ScoredCandidate]] = [[] for _ in range(count)]
        n_queries, n_targets = len(queries), len(targets)
        query_sizes = np.fromiter((len(query.literals) for query in queries), dtype=np.int64, count=n_queries)
        target_sizes = np.fromiter((len(target.literals) for target in targets), dtype=np.int64, count=n_targets)
        if not query_sizes.any() or not target_sizes.any():
            return values, selected
        query_of = np.repeat(np.arange(n_queries), query_sizes + 1)
        query_start = np.cumsum(query_sizes + 1) - query_sizes
        target_of = np.repeat(np.arange(n_targets), target_sizes + 1)
        target_start = np.cumsum(target_sizes + 1) - target_sizes
        block = np.concatenate([query.row_ids for query in queries])
        block[query_start - 1] = _QUERY_SEPARATOR
        corpus = np.concatenate([target.row_ids for target in targets])
        lengths = self._match_lengths(block, corpus)
        pair_query, pair_target = np.asarray(pairs, dtype=np.intp).reshape(count, 2).T
        pair_of = np.full((n_queries, n_targets), -1, dtype=np.intp)
        pair_of[pair_query, pair_target] = np.arange(count)
        spans, pattern_rows, pattern_lengths, pattern_cols, pair, pattern = self._block_patterns(
            lengths, block, int(query_sizes.max()) + 1, query_of, target_of, pair_of, count
        )
        if spans == 0:
            return values, selected
        n_patterns = pattern_rows.shape[0]

        # 2. Qualifying occurrences per (pattern, query) and per (pattern,
        # target): keys that are non-decreasing along the pattern-major,
        # position-sorted occurrence arrays.
        occ_a_pattern, occ_a_start, occ_a_weight = self._qualifying_occurrences_numpy(
            lengths[:, pattern_cols].T >= pattern_lengths[:, None],
            pattern_lengths,
            _prefix_sums([query.row_weights for query in queries]),
        )
        occ_b_pattern, occ_b_start, occ_b_weight = self._qualifying_occurrences_numpy(
            lengths[pattern_rows] >= pattern_lengths[:, None],
            pattern_lengths,
            _prefix_sums([target.row_weights for target in targets]),
        )
        # Each candidate's occurrences are one slice of each sorted array.
        occ_a_segment = query_of[occ_a_start]
        occ_b_segment = target_of[occ_b_start]
        a_lo, a_hi = _key_slices(
            occ_a_pattern * n_queries + occ_a_segment, pattern * n_queries + pair_query[pair]
        )
        b_lo, b_hi = _key_slices(
            occ_b_pattern * n_targets + occ_b_segment, pattern * n_targets + pair_target[pair]
        )
        weight_a = _slice_sums(occ_a_weight, a_lo, a_hi)
        weight_b = _slice_sums(occ_b_weight, b_lo, b_hi)
        scored = np.flatnonzero((weight_a > 0) & (weight_b > 0))
        if scored.shape[0] == 0:
            self._count_work(spans, n_patterns, 0, 0, 0)
            return values, selected

        # 3. Presort once; the tie-break rank is the patterns' literal order.
        pattern_query = query_of[pattern_rows].tolist()
        pattern_local = (pattern_rows - query_start[query_of[pattern_rows]]).tolist()
        texts = [
            queries[query].literals[row : row + length]
            for query, row, length in zip(pattern_query, pattern_local, pattern_lengths.tolist())
        ]
        rank = np.empty(n_patterns, dtype=np.int64)
        rank[sorted(range(n_patterns), key=texts.__getitem__)] = np.arange(n_patterns)
        top = np.maximum(weight_a, weight_b)
        candidate_lengths = pattern_lengths[pattern]
        take = scored[
            np.lexsort((rank[pattern[scored]], -candidate_lengths[scored], -top[scored], pair[scored]))
        ]
        pair, pattern, top, candidate_lengths = pair[take], pattern[take], top[take], candidate_lengths[take]
        weight_a, weight_b = weight_a[take], weight_b[take]
        a_lo, a_hi, b_lo, b_hi = a_lo[take], a_hi[take], b_lo[take], b_hi[take]
        pair_bounds = np.searchsorted(pair, np.arange(count + 1))
        occurrence_counts = (a_hi - a_lo) + (b_hi - b_lo)
        kept = np.ones(take.shape[0], dtype=bool)
        if self.require_independent_occurrence or keep:
            # Flat lists for the per-pair Python passes; starts are string-local.
            length_list = candidate_lengths.tolist()
            a_lo, a_hi, b_lo, b_hi = a_lo.tolist(), a_hi.tolist(), b_lo.tolist(), b_hi.tolist()
            starts_a = (occ_a_start - query_start[occ_a_segment]).tolist()
            starts_b = (occ_b_start - target_start[occ_b_segment]).tolist()
        if self.require_independent_occurrence:
            # Greedy independence per pair: a candidate is dropped when every
            # occurrence, in both strings, lies inside an accepted one.  A
            # pair's first candidate is always kept.
            bounds = pair_bounds.tolist()
            query_size_list = query_sizes[pair_query].tolist()
            target_size_list = target_sizes[pair_target].tolist()
            for scored_pair in np.flatnonzero(np.diff(pair_bounds) > 1).tolist():
                low, high = bounds[scored_pair], bounds[scored_pair + 1]
                reach_a = [-1] * query_size_list[scored_pair]
                reach_b = [-1] * target_size_list[scored_pair]
                for index in range(low, high):
                    length = length_list[index]
                    if index > low:
                        for start in starts_a[a_lo[index] : a_hi[index]]:
                            if reach_a[start] < start + length:
                                break
                        else:
                            for start in starts_b[b_lo[index] : b_hi[index]]:
                                if reach_b[start] < start + length:
                                    break
                            else:
                                kept[index] = False
                                continue
                    if index + 1 < high:
                        _cover(reach_a, starts_a[a_lo[index] : a_hi[index]], length)
                        _cover(reach_b, starts_b[b_lo[index] : b_hi[index]], length)

        # 4. Read-out.  Occurrence weights and their sums are bounded by
        # string weights, but products of two sums can pass int64: those
        # blocks multiply and add Python integers instead.
        products = weight_a * weight_b
        heaviest_query = max(query.occurrence_total for query in queries)
        heaviest_target = max(target.occurrence_total for target in targets)
        if heaviest_query * heaviest_target * take.shape[0] > _INT64_MAX:
            products = weight_a.astype(object) * weight_b.astype(object)
        values = _slice_sums(np.where(kept, products, 0), pair_bounds[:-1], pair_bounds[1:]).tolist()
        self._count_work(spans, n_patterns, take.shape[0], int(kept.sum()), int(occurrence_counts[kept].sum()))
        if keep:
            for index in np.flatnonzero(kept).tolist():
                length = length_list[index]
                selected[pair[index]].append(
                    (
                        int(top[index]),
                        length,
                        texts[pattern[index]],
                        _triples(starts_a, occ_a_weight, a_lo[index], a_hi[index], length),
                        _triples(starts_b, occ_b_weight, b_lo[index], b_hi[index], length),
                        int(weight_a[index]),
                        int(weight_b[index]),
                    )
                )
        return values, selected

    def _qualifying_occurrences_numpy(
        self,
        matches: np.ndarray,
        pattern_lengths: np.ndarray,
        prefix: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-overlapping, cut-qualifying occurrences from a match mask.

        ``matches[k, q]`` marks every (overlapping) start ``q`` of pattern
        ``k``.  Per pattern, starts are taken greedily left to right without
        overlaps — the reference backend's rule — and an occurrence counts
        when its weight (a gather from the ``int64`` *prefix*) reaches the
        cut weight.  Only the patterns whose starts overlap each other go
        through a left-to-right Python fix-up.  Returns
        ``(pattern, start, weight)`` arrays sorted by pattern, then start.
        """
        patterns, starts = np.divmod(np.flatnonzero(matches), matches.shape[1])
        lengths = pattern_lengths[patterns]
        clash = (patterns[1:] == patterns[:-1]) & (starts[1:] - starts[:-1] < lengths[1:])
        if clash.any():
            keep = np.ones(patterns.shape[0], dtype=bool)
            for overlapping in np.unique(patterns[1:][clash]).tolist():
                low, high = np.searchsorted(patterns, (overlapping, overlapping + 1)).tolist()
                length = int(pattern_lengths[overlapping])
                next_free = 0
                for index, start in enumerate(starts[low:high].tolist(), low):
                    if start < next_free:
                        keep[index] = False
                    else:
                        next_free = start + length
            patterns, starts, lengths = patterns[keep], starts[keep], lengths[keep]
        weights = prefix[starts + lengths] - prefix[starts]
        qualifying = weights >= self.cut_weight
        return patterns[qualifying], starts[qualifying], weights[qualifying]

    @staticmethod
    def _candidate_substrings_python(a: _PreparedString, b: _PreparedString) -> Tuple[List[_Literals], int]:
        """Pure-Python reference: match-length DP over two rolling rows.

        ``row[j]`` is the length of the common extension starting at
        ``(i, j)``; rows are computed bottom-up and only the current and next
        row are retained, so memory stays at O(n).  Left-maximality is
        checked directly on the literals, which is what lets the full table
        be dropped.  Returns the distinct candidates and the number of
        maximal spans behind them.
        """
        la, lb = a.literals, b.literals
        m, n = len(la), len(lb)
        if m == 0 or n == 0:
            return [], 0
        candidates: Dict[_Literals, None] = {}
        spans = 0
        next_row = [0] * (n + 1)
        for i in range(m - 1, -1, -1):
            row = [0] * (n + 1)
            first = la[i]
            for j in range(n - 1, -1, -1):
                if first == lb[j]:
                    length = next_row[j + 1] + 1
                    row[j] = length
                    # Left-maximality: no identical predecessor pair.
                    if i == 0 or j == 0 or la[i - 1] != lb[j - 1]:
                        candidates[la[i : i + length]] = None
                        spans += 1
            next_row = row
        return list(candidates), spans

    def _qualifying_occurrences(self, prepared: _PreparedString, pattern: _Literals) -> List[_OccTriple]:
        length = len(pattern)
        occurrences: List[_OccTriple] = []
        for start in prepared._find_occurrences_python(pattern):
            weight = prepared.occurrence_weight(start, length)
            if weight >= self.cut_weight:
                occurrences.append((start, start + length, weight))
        return occurrences

    def _scored_candidates(
        self,
        a: _PreparedString,
        b: _PreparedString,
        candidates: List[_Literals],
    ) -> List["_ScoredCandidate"]:
        """Score candidates by rescanning both strings (python backend)."""
        scored: List[_ScoredCandidate] = []
        for pattern in candidates:
            occurrences_a = self._qualifying_occurrences(a, pattern)
            if not occurrences_a:
                continue
            occurrences_b = self._qualifying_occurrences(b, pattern)
            if not occurrences_b:
                continue
            weight_a = sum(occurrence[2] for occurrence in occurrences_a)
            weight_b = sum(occurrence[2] for occurrence in occurrences_b)
            scored.append(
                (max(weight_a, weight_b), len(pattern), pattern, occurrences_a, occurrences_b, weight_a, weight_b)
            )
        return scored

    def _greedy_select(
        self,
        a: _PreparedString,
        b: _PreparedString,
        scored: List["_ScoredCandidate"],
    ) -> List["_ScoredCandidate"]:
        """Greedy acceptance under the independence rule; returns kept entries.

        Highest weight first, longer first on ties, then lexicographic for
        determinism (this also makes the result independent of the candidate
        enumeration order, so both backends agree exactly).
        """
        scored.sort(key=lambda item: (-item[0], -item[1], item[2]))
        kept: List[_ScoredCandidate] = []
        require = self.require_independent_occurrence
        # Coverage index per string: reach[p] = max end over accepted
        # occurrence intervals starting at or before p.  reach is
        # non-decreasing in p, so an occurrence [s, e) lies inside an
        # accepted interval iff reach[s] >= e, and updates can stop as soon
        # as the stored value dominates the new end.
        reach_a = [-1] * (len(a.literals) + 1)
        reach_b = [-1] * (len(b.literals) + 1)
        size_a = len(reach_a)
        size_b = len(reach_b)
        for entry in scored:
            occurrences_a, occurrences_b = entry[3], entry[4]
            if require and kept:
                independent = False
                for start, end, _ in occurrences_a:
                    if reach_a[start] < end:
                        independent = True
                        break
                if not independent:
                    for start, end, _ in occurrences_b:
                        if reach_b[start] < end:
                            independent = True
                            break
                    if not independent:
                        continue
            kept.append(entry)
            for start, end, _ in occurrences_a:
                position = start
                while position < size_a and reach_a[position] < end:
                    reach_a[position] = end
                    position += 1
            for start, end, _ in occurrences_b:
                position = start
                while position < size_b and reach_b[position] < end:
                    reach_b[position] = end
                    position += 1
        return kept


def kast_kernel_value(
    a: WeightedString,
    b: WeightedString,
    cut_weight: int = 2,
    normalized: bool = True,
) -> float:
    """One-call evaluation of the Kast Spectrum Kernel on two strings."""
    kernel = KastSpectrumKernel(cut_weight=cut_weight)
    if normalized:
        return kernel.normalized_value(a, b)
    return kernel.value(a, b)
