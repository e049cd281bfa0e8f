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
available through ``normalization``.

Interpretation choices (documented because the paper under-specifies them;
each is controlled by a constructor flag and exercised by the ablation
benchmark):

* **Occurrence weight** — ``filter_tokens_below_cut=True`` (default) sums
  only the tokens whose individual weight is ``>= cut_weight`` inside an
  occurrence, matching the paper's :math:`weight_{w \\ge n}` notation in the
  worked example.  With ``False`` every token of the occurrence counts.
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
  scorer serves :meth:`~KastSpectrumKernel.value_row`,
  :meth:`~KastSpectrumKernel.value` and :meth:`~KastSpectrumKernel.embed`
  (the latter two as a one-target row).  It builds one vectorised
  match-length table of a string against its whole row of targets,
  deduplicates the row's maximal spans by content, finds each distinct
  pattern's non-overlapping qualifying occurrences in array form with
  exact integer prefix sums, and runs the greedy independence rule per
  pair over arrays presorted once per row.
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

#: Id that separates the targets of a row's corpus; no interned literal takes it.
_SEPARATOR = -1

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

    The numpy backend keeps ``ids``, ``first_of_token``, ``row_ids``,
    ``row_weights`` and an ``int64`` ``occurrence_prefix``; the python
    backend keeps ``occurrence_prefix`` as a list and the other arrays as
    ``None``.
    """

    __slots__ = (
        "literals",
        "weights",
        "ids",
        "first_of_token",
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
        if interner is None:
            self.ids: Optional[np.ndarray] = None
            self.first_of_token: Optional[np.ndarray] = None
            self.row_ids: Optional[np.ndarray] = None
            self.row_weights: Optional[np.ndarray] = None
            # Prefix sums allow O(1) occurrence-weight queries.
            prefix = [0]
            for weight in occurrence_weights:
                prefix.append(prefix[-1] + weight)
            self.occurrence_prefix = prefix
            return
        # A row's corpus is the concatenation of its targets' ``row_ids``:
        # each is the string's integer-encoded literals behind one separator
        # id no real token can take, and ``row_weights`` holds the matching
        # occurrence weights (0 under the separator).
        self.row_ids = np.concatenate(([_SEPARATOR], interner.encode(self.literals))).astype(np.int32)
        self.ids = self.row_ids[1:]
        #: ``first_of_token[i]``: the first position holding the literal at ``i``.
        _, first, token = np.unique(self.ids, return_index=True, return_inverse=True)
        self.first_of_token = first[token]
        self.row_weights = np.asarray([0] + occurrence_weights, dtype=np.int64)
        self.occurrence_prefix = np.cumsum(self.row_weights)

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
            # path (prepared strings dispatch on `ids is not None`).
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

        The numpy backend scores the pair as a one-target row (see
        :meth:`value_row`); the full embedding (with ``Occurrence`` /
        ``KastFeature`` objects) is only materialised by :meth:`embed`.
        """
        prepared_a = self._prepare(a)
        prepared_b = self._prepare(b)
        if prepared_a.ids is not None:
            return float(self._score_row(prepared_a, [prepared_b])[0][0])
        return float(sum(entry[5] * entry[6] for entry in self._selected_candidates(prepared_a, prepared_b)))

    def value_row(self, a: WeightedString, others: Sequence[WeightedString]) -> List[float]:
        """Raw kernel values ``[k(a, b) for b in others]``, scored as one row.

        The numpy backend concatenates every target (each behind a
        separator id no real token can take) and computes *one*
        match-length table of *a* against the whole corpus row.  It then
        scores the row's maximal spans together: one set of distinct
        patterns, their occurrences in *a* and across the row in array
        form, and one presorted independence pass per pair (see
        :meth:`_score_row`).  The separator breaks every diagonal run at
        segment boundaries, so each segment of the row table is exactly the
        pairwise table.  :meth:`value` and :meth:`embed` go through the same
        scorer with a one-target row.  The python backend evaluates pair by
        pair.
        """
        others = list(others)
        if not others:
            return []
        prepared_a = self._prepare(a)
        prepared_others = [self._prepare(b) for b in others]
        if prepared_a.ids is None:
            return [self.value(a, b) for b in others]
        return [float(value) for value in self._score_row(prepared_a, prepared_others)[0]]

    def self_value(self, a: WeightedString) -> float:
        """``k(a, a)``.

        For a self comparison the maximal shared substring is the whole
        string and it covers every other candidate, so the value reduces to
        the squared string weight (under the occurrence-weight rule).  When
        every token weight reaches the cut weight this coincides with
        ``weight_{w>=cut}(a) ** 2``, which is what makes Eq. 12 and the
        worked example's weight-product normalisation agree in the paper.
        """
        prepared = self._prepare(a)
        return float(prepared.occurrence_total**2)

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
        if prepared_a.ids is not None:
            return self._score_row(prepared_a, [prepared_b], keep=True)[1][0]
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
          scoring call (per row for :meth:`value_row`, per pair otherwise);
        * ``scored_candidates`` — (pair, pattern) candidates with a
          qualifying occurrence in both strings;
        * ``selected_features`` — candidates kept by the independence rule;
        * ``selected_occurrences`` — qualifying occurrences of the selected
          features, in both strings.

        Every count but ``distinct_patterns`` of a row is a sum over pairs,
        so both backends count alike.
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
        """Match-length table between two id arrays, fully vectorised.

        ``lengths[i, j]`` is the length of the common extension starting at
        ``(i, j)`` — the run of True cells down the diagonal of the equality
        matrix.  Diagonals are mapped to columns of a skewed buffer
        (``column = j + m - 1 - i``), where the run lengths of consecutive
        True cells fall out of the classic cumsum/accumulated-reset identity
        in a constant number of whole-array NumPy passes (no Python loop over
        rows or diagonals).
        """
        m, n = ids_a.shape[0], ids_b.shape[0]
        eq = np.equal.outer(ids_a, ids_b)
        width = n + m
        # Cell (i, j) lives at skew[i, j + m - 1 - i]: flat offset
        # i*(width-1) + (m-1) + j, i.e. a strided view with row stride
        # width-1 — no index arrays needed for the scatter.
        skew = np.zeros(m * width, dtype=bool)
        scatter = np.lib.stride_tricks.as_strided(
            skew[m - 1 :], shape=(m, n), strides=(width - 1, 1)
        )
        scatter[:] = eq
        reversed_rows = skew.reshape(m, width)[::-1]
        # Run lengths are bounded by m, so 16-bit arithmetic is safe for any
        # realistic string and halves the memory traffic of the three
        # full-array passes.
        run_dtype = np.int16 if m < np.iinfo(np.int16).max else np.int32
        cumulative = np.cumsum(reversed_rows, axis=0, dtype=run_dtype)
        resets = np.where(reversed_rows, 0, cumulative)
        np.maximum.accumulate(resets, axis=0, out=resets)
        runs_ending = cumulative - resets
        # runs_ending[r] holds runs *ending* at row r of the reversed buffer,
        # i.e. runs *starting* at row m-1-r of the original orientation:
        # lengths[i, j] = runs_ending[m-1-i, j + m-1-i], again a (negative
        # row stride) strided view.
        itemsize = runs_ending.itemsize
        flat = runs_ending.reshape(-1)
        gather = np.lib.stride_tricks.as_strided(
            flat[(m - 1) * (width + 1) :],
            shape=(m, n),
            strides=(-(width + 1) * itemsize, itemsize),
        )
        return np.ascontiguousarray(gather)

    @staticmethod
    def _maximal_span_arrays(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left-maximal match spans as ``(rows, cols, lengths)`` arrays.

        A span is left-maximal when its diagonal predecessor pair is
        unequal (``lengths[i-1, j-1] == 0``); right-maximality is implied
        by taking the full match length.
        """
        maximal = lengths > 0
        maximal[1:, 1:] &= lengths[:-1, :-1] == 0
        rows, cols = np.nonzero(maximal)
        return rows, cols, lengths[rows, cols]

    def _score_row(
        self,
        a: _PreparedString,
        others: Sequence[_PreparedString],
        keep: bool = False,
    ) -> Tuple[List[int], List[List["_ScoredCandidate"]]]:
        """Score *a* against every target of a row at once (numpy backend).

        Returns the integer kernel value of each pair and, with ``keep``,
        each pair's selected candidates in selection order (empty lists
        otherwise).  Four steps:

        1. **Content deduplication.**  A maximal span ``(i, j, L)`` holds
           the pattern ``a[i:i+L]``.  Spans are deduplicated by
           ``(i, L)`` and then by the first row of *a* holding the same
           pattern — the token's first position for ``L == 1``,
           ``(lengths[:, j] >= L).argmax()`` otherwise — which leaves one
           entry per distinct pattern of the row.
        2. **Row-wide occurrences.**  The (overlapping) starts of a pattern
           are ``{p : lengths[p, j] >= L}`` in *a* and
           ``{q : lengths[i, q] >= L}`` across the whole corpus row — no
           string is rescanned.  They are made non-overlapping and
           cut-qualified in array form (:meth:`_qualifying_occurrences_numpy`)
           and summed per pattern (in *a*) and per (pattern, target) with
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
        count = len(others)
        values = [0] * count
        selected: List[List[_ScoredCandidate]] = [[] for _ in range(count)]
        m = a.ids.shape[0]
        if m == 0:
            return values, selected
        sizes = np.fromiter((other.ids.shape[0] for other in others), dtype=np.int64, count=count)
        segment_of = np.repeat(np.arange(count), sizes + 1)
        segment_start = np.cumsum(sizes + 1) - sizes
        corpus = np.concatenate([other.row_ids for other in others])
        corpus_prefix = np.concatenate(([0], np.cumsum(np.concatenate([other.row_weights for other in others]))))
        lengths = self._match_lengths(a.ids, corpus)
        rows, cols, span_lengths = self._maximal_span_arrays(lengths)
        if rows.shape[0] == 0:
            return values, selected

        # 1. One entry per distinct pattern of the row.  Keys index dense
        # tables (rows x lengths, targets x patterns), so no step sorts.
        width = m + 1
        span_keys = rows * width + span_lengths
        keys, span_key = _dense_unique(span_keys, m * width)
        key_rows, key_lengths = np.divmod(keys, width)
        # representative[row * width + L]: a corpus column where a[row:row+L] starts.
        representative = np.empty(m * width, dtype=np.intp)
        representative[span_keys] = cols
        canonical = a.first_of_token[key_rows]
        longer = np.flatnonzero(key_lengths > 1)
        if longer.shape[0]:
            canonical[longer] = (lengths[:, representative[keys[longer]]] >= key_lengths[longer]).argmax(axis=0)
        canonical_keys = canonical * width + key_lengths
        representative[canonical_keys] = representative[keys]
        patterns, key_pattern = _dense_unique(canonical_keys, m * width)
        pattern_rows, pattern_lengths = np.divmod(patterns, width)
        n_patterns = patterns.shape[0]
        present = np.zeros(count * n_patterns, dtype=bool)
        present[segment_of[cols] * n_patterns + key_pattern[span_key]] = True
        candidates = np.flatnonzero(present)
        pair = candidates // n_patterns
        pattern = candidates % n_patterns

        # 2. Qualifying occurrences: in a per pattern, in the corpus per
        # (pattern, target) — a key that is non-decreasing along the
        # pattern-major, position-sorted occurrence arrays.
        occ_a_pattern, occ_a_start, occ_a_weight = self._qualifying_occurrences_numpy(
            lengths[:, representative[patterns]].T >= pattern_lengths[:, None], pattern_lengths, a.occurrence_prefix
        )
        occ_b_pattern, occ_b_start, occ_b_weight = self._qualifying_occurrences_numpy(
            lengths[pattern_rows] >= pattern_lengths[:, None], pattern_lengths, corpus_prefix
        )
        # Each candidate's occurrences are one slice of each sorted array.
        a_bounds = np.searchsorted(occ_a_pattern, np.arange(n_patterns + 1))
        a_lo, a_hi = a_bounds[pattern], a_bounds[pattern + 1]
        occ_b_segment = segment_of[occ_b_start]
        occ_b_key = occ_b_pattern * count + occ_b_segment
        candidate_keys = pattern * count + pair
        b_lo = np.searchsorted(occ_b_key, candidate_keys)
        b_hi = np.searchsorted(occ_b_key, candidate_keys, side="right")
        weight_a = _slice_sums(occ_a_weight, a_lo, a_hi)
        weight_b = _slice_sums(occ_b_weight, b_lo, b_hi)
        scored = np.flatnonzero((weight_a > 0) & (weight_b > 0))
        if scored.shape[0] == 0:
            self._count_work(rows.shape[0], n_patterns, 0, 0, 0)
            return values, selected

        # 3. Presort once; the tie-break rank is the patterns' literal order.
        texts = [a.literals[row : row + length] for row, length in zip(pattern_rows.tolist(), pattern_lengths.tolist())]
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
            # Flat lists for the per-pair Python passes; starts in b are target-local.
            length_list = candidate_lengths.tolist()
            a_lo, a_hi, b_lo, b_hi = a_lo.tolist(), a_hi.tolist(), b_lo.tolist(), b_hi.tolist()
            starts_a = occ_a_start.tolist()
            starts_b = (occ_b_start - segment_start[occ_b_segment]).tolist()
        if self.require_independent_occurrence:
            # Greedy independence per pair: a candidate is dropped when every
            # occurrence, in both strings, lies inside an accepted one.  A
            # pair's first candidate is always kept.
            bounds = pair_bounds.tolist()
            size_list = sizes.tolist()
            for target in np.flatnonzero(np.diff(pair_bounds) > 1).tolist():
                low, high = bounds[target], bounds[target + 1]
                reach_a = [-1] * m
                reach_b = [-1] * size_list[target]
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
        # rows multiply and add Python integers instead.
        products = weight_a * weight_b
        if a.occurrence_total * max(other.occurrence_total for other in others) * take.shape[0] > _INT64_MAX:
            products = weight_a.astype(object) * weight_b.astype(object)
        values = _slice_sums(np.where(kept, products, 0), pair_bounds[:-1], pair_bounds[1:]).tolist()
        self._count_work(
            rows.shape[0], n_patterns, take.shape[0], int(kept.sum()), int(occurrence_counts[kept].sum())
        )
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
        patterns, starts = np.nonzero(matches)
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
