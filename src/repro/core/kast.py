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
The candidate search (all maximal literal matches between two strings) and
the occurrence scan dominate the kernel cost.  Two interchangeable
implementations exist, selected with ``backend``:

* ``"numpy"`` (default) — token literals are interned to small integers
  through a shared :class:`~repro.strings.interner.TokenInterner`; the
  match-length dynamic programme becomes a vectorised row-pair accumulation
  over the integer equality matrix and the occurrence search becomes an
  array scan.
* ``"python"`` — the original pure-Python loops, kept as a dependency-free
  reference; the equivalence of the two backends over randomised corpora is
  asserted by the test suite.
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


class _PreparedString:
    """Cached per-string data reused across kernel evaluations."""

    __slots__ = (
        "literals",
        "weights",
        "ids",
        "interner",
        "occurrence_prefix",
        "raw_prefix",
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
        #: Integer-encoded literals (numpy backend); ``None`` for the python backend.
        self.interner = interner
        self.ids: Optional[np.ndarray] = interner.encode(self.literals) if interner is not None else None
        # Prefix sums allow O(1) occurrence-weight queries.
        filtered = [weight if weight >= cut_weight else 0 for weight in self.weights]
        raw = list(self.weights)
        self.occurrence_prefix = self._prefix(filtered if filter_tokens else raw)
        self.raw_prefix = self._prefix(raw)
        #: Total weight under the occurrence-weight rule (used for self-similarity).
        self.occurrence_total = self.occurrence_prefix[-1]
        #: The paper's ``weight_{w>=cut}``: sum of token weights >= cut weight.
        self.cut_filtered_total = sum(filtered)

    @staticmethod
    def _prefix(values: Sequence[int]) -> List[int]:
        prefix = [0]
        for value in values:
            prefix.append(prefix[-1] + value)
        return prefix

    def occurrence_weight(self, start: int, length: int) -> int:
        """Weight of the occurrence ``[start, start+length)`` under the occurrence-weight rule."""
        return self.occurrence_prefix[start + length] - self.occurrence_prefix[start]

    def find_occurrences(self, pattern: _Literals) -> List[int]:
        """Start indices of the non-overlapping appearances of *pattern*.

        Occurrences are counted greedily left to right without overlaps, so a
        self-repetitive pattern (e.g. ``a a a`` against the pattern ``a a``)
        contributes each token to at most one appearance.  This keeps the
        self-similarity equal to the squared string weight, which the
        normalisation relies on.
        """
        if self.ids is not None:
            return self._find_occurrences_numpy(pattern)
        return self._find_occurrences_python(pattern)

    def _find_occurrences_python(self, pattern: _Literals) -> List[int]:
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

    def _find_occurrences_numpy(self, pattern: _Literals) -> List[int]:
        length = len(pattern)
        text = self.ids
        if length == 0 or length > text.shape[0]:
            return []
        pattern_ids = self.interner.encode(pattern)
        window = text.shape[0] - length + 1
        valid = text[:window] == pattern_ids[0]
        for offset in range(1, length):
            if not valid.any():
                return []
            valid &= text[offset : offset + window] == pattern_ids[offset]
        return _greedy_non_overlapping(np.flatnonzero(valid).tolist(), length)


def _greedy_non_overlapping(positions: List[int], length: int) -> List[int]:
    """Left-to-right greedy selection of non-overlapping match positions."""
    starts: List[int] = []
    next_free = 0
    for position in positions:
        if position >= next_free:
            starts.append(position)
            next_free = position + length
    return starts


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

    def cache_signature(self) -> str:
        """Identity of every option that affects kernel *values*.

        Used by the engine's on-disk matrix cache.  The backend is
        deliberately excluded: both implementations produce identical
        values, so matrices cached by one are valid for the other.
        """
        return (
            f"kast(cut={self.cut_weight},filter={self.filter_tokens_below_cut},"
            f"independent={self.require_independent_occurrence})"
        )

    # ------------------------------------------------------------------
    # StringKernel interface
    # ------------------------------------------------------------------
    def value(self, a: WeightedString, b: WeightedString) -> float:
        """Raw kernel value: inner product of the pairwise feature vectors.

        Fast path: the full embedding (with ``Occurrence``/``KastFeature``
        objects) is only materialised by :meth:`embed`; the scalar value is
        accumulated directly from the selected candidates.
        """
        selected = self._selected_candidates(self._prepare(a), self._prepare(b))
        return float(sum(entry[5] * entry[6] for entry in selected))

    def value_row(self, a: WeightedString, others: Sequence[WeightedString]) -> List[float]:
        """Raw kernel values ``[k(a, b) for b in others]``, batched.

        The numpy backend concatenates every target (separated by a sentinel
        id no real token can take) and computes *one* match-length table of
        *a* against the whole corpus row, so the per-pair cost reduces to a
        handful of small slices and gathers.  The sentinel breaks every
        diagonal run at segment boundaries, which makes the per-segment view
        of the table exactly equal to the pairwise table — the
        :class:`~repro.core.engine.GramEngine` uses this as its fast path and
        the backend-equivalence tests pin it against :meth:`value`.
        """
        others = list(others)
        if not others:
            return []
        prepared_a = self._prepare(a)
        prepared_others = [self._prepare(b) for b in others]
        if prepared_a.ids is None or prepared_a.ids.shape[0] == 0:
            return [self.value(a, b) for b in others]
        separator = np.asarray([-1], dtype=np.int32)
        chunks: List[np.ndarray] = []
        starts: List[int] = []
        cursor = 0
        for prepared in prepared_others:
            ids = prepared.ids if prepared.ids is not None else np.zeros(0, dtype=np.int32)
            chunks.append(separator)
            chunks.append(ids)
            cursor += 1
            starts.append(cursor)
            cursor += ids.shape[0]
        corpus = np.concatenate(chunks)
        lengths = self._match_lengths(prepared_a.ids, corpus)
        span_rows, span_cols, span_lengths = self._maximal_span_arrays(lengths)
        order = np.argsort(span_cols, kind="stable")
        span_rows = span_rows[order]
        span_cols = span_cols[order]
        span_lengths = span_lengths[order]
        lower = np.searchsorted(span_cols, np.asarray(starts)).tolist()
        ends = [start + (p.ids.shape[0] if p.ids is not None else 0) for start, p in zip(starts, prepared_others)]
        upper = np.searchsorted(span_cols, np.asarray(ends)).tolist()
        occurrences_a_for = self._occurrences_a_provider(prepared_a, lengths)

        values: List[float] = []
        for index, prepared_b in enumerate(prepared_others):
            if prepared_b.ids is None:
                values.append(self.value(a, others[index]))
                continue
            size = prepared_b.ids.shape[0]
            low, high = lower[index], upper[index]
            if size == 0 or low == high:
                values.append(0.0)
                continue
            start = starts[index]
            segment = lengths[:, start : start + size]
            scored = self._score_spans(
                prepared_a,
                prepared_b,
                segment,
                span_rows[low:high],
                span_cols[low:high] - start,
                span_lengths[low:high],
                occurrences_a_for,
                column_offset=start,
            )
            selected = self._greedy_select(prepared_a, prepared_b, scored)
            values.append(float(sum(entry[5] * entry[6] for entry in selected)))
        return values

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
        """Scored candidates surviving the greedy independence selection."""
        if prepared_a.ids is not None and prepared_b.ids is not None:
            scored = self._scored_candidates_numpy(prepared_a, prepared_b)
        else:
            candidates = self._candidate_substrings_python(prepared_a, prepared_b)
            scored = self._scored_candidates(prepared_a, prepared_b, candidates)
        return self._greedy_select(prepared_a, prepared_b, scored)

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
        mask = lengths > 0
        maximal = mask.copy()
        maximal[1:, 1:] &= ~mask[:-1, :-1]
        rows, cols = np.nonzero(maximal)
        return rows, cols, lengths[rows, cols]

    def _scored_candidates_numpy(self, a: _PreparedString, b: _PreparedString) -> List["_ScoredCandidate"]:
        """Score every candidate using only the pairwise match-length table.

        For a span ``(i, j, L)`` the occurrences of the pattern in *b* are
        the columns ``{q : lengths[i, q] >= L}`` and — because ``j`` is one
        of them, so ``b[j:j+L]`` *is* the pattern — the occurrences in *a*
        are the rows ``{p : lengths[p, j] >= L}``.  No string is ever
        rescanned, and the (overlapping) match positions of *all* candidates
        are extracted with two matrix comparisons and two ``nonzero`` calls.
        """
        if a.ids.shape[0] == 0 or b.ids.shape[0] == 0:
            return []
        lengths = self._match_lengths(a.ids, b.ids)
        span_rows, span_cols, span_lengths = self._maximal_span_arrays(lengths)
        if span_rows.shape[0] == 0:
            return []
        occurrences_a_for = self._occurrences_a_provider(a, lengths)
        return self._score_spans(a, b, lengths, span_rows, span_cols, span_lengths, occurrences_a_for)

    def _occurrences_a_provider(self, a: _PreparedString, lengths: np.ndarray):
        """Memoised qualifying-occurrence lookup for patterns of *a*.

        ``lengths[p, column] >= length`` marks every (overlapping) occurrence
        start of the pattern in *a* — ``target[column:column+length]`` *is*
        the pattern — and the result only depends on ``(row, length)``, so in
        the batched row path one cache entry serves every target segment the
        span appears in.
        """
        cache: Dict[Tuple[int, int], Tuple[List[_OccTriple], int]] = {}
        prefix = a.occurrence_prefix
        cut = self.cut_weight

        def get(row: int, length: int, column: int) -> Tuple[List[_OccTriple], int]:
            key = (row, length)
            got = cache.get(key)
            if got is None:
                occurrences: List[_OccTriple] = []
                total = 0
                next_free = 0
                for start in np.flatnonzero(lengths[:, column] >= length).tolist():
                    if start < next_free:
                        continue
                    next_free = start + length
                    weight = prefix[next_free] - prefix[start]
                    if weight >= cut:
                        occurrences.append((start, next_free, weight))
                        total += weight
                got = (occurrences, total)
                cache[key] = got
            return got

        return get

    def _score_spans(
        self,
        a: _PreparedString,
        b: _PreparedString,
        lengths_b: np.ndarray,
        span_rows: np.ndarray,
        span_cols: np.ndarray,
        span_lengths: np.ndarray,
        occurrences_a_for,
        column_offset: int = 0,
    ) -> List["_ScoredCandidate"]:
        """Score maximal spans against one target string.

        ``lengths_b[p, q]`` is the match length of ``a`` at row ``p`` against
        ``b`` at column ``q`` (a view into a larger corpus table in the
        batched row path, with ``column_offset`` mapping local columns back
        to the full table).  For a span ``(i, j, L)`` the occurrences of its
        pattern in *b* are ``{q : lengths_b[i, q] >= L}`` and the occurrences
        in *a* come from *occurrences_a_for* — because ``b[j:j+L]`` *is* the
        pattern.  Neither string is ever rescanned.
        """
        # Content deduplication.  Most spans are single tokens, whose pattern
        # is fully determined by the token id — dedupe those with one
        # np.unique and no match scan.  A longer span's pattern is fully
        # determined by (first occurrence in b, length) — b[q:q+L] is one
        # fixed token sequence — so the (argmax, length) pair deduplicates
        # the rest without materialising literal tuples.
        singles = span_lengths == 1
        single_idx = np.flatnonzero(singles)
        multi_idx = np.flatnonzero(~singles)
        keep: List[int] = []
        if single_idx.shape[0]:
            _, first = np.unique(a.ids[span_rows[single_idx]], return_index=True)
            keep.extend(single_idx[first].tolist())
        if multi_idx.shape[0]:
            multi_rows = span_rows[multi_idx]
            multi_lengths = span_lengths[multi_idx]
            first_b = (lengths_b[multi_rows] >= multi_lengths[:, None]).argmax(axis=1).tolist()
            multi_list = multi_idx.tolist()
            seen = set()
            for position, key in enumerate(zip(first_b, multi_lengths.tolist())):
                if key not in seen:
                    seen.add(key)
                    keep.append(multi_list[position])
        keep_arr = np.asarray(keep, dtype=np.int64)
        kept_rows = span_rows[keep_arr]
        kept_lengths = span_lengths[keep_arr]
        kept_b = lengths_b[kept_rows] >= kept_lengths[:, None]
        candidate_b, position_b = np.nonzero(kept_b)
        bounds_b = np.searchsorted(candidate_b, np.arange(keep_arr.shape[0] + 1)).tolist()
        position_b = position_b.tolist()

        la = a.literals
        prefix_b = b.occurrence_prefix
        cut = self.cut_weight
        rows_list = kept_rows.tolist()
        cols_list = span_cols[keep_arr].tolist()
        length_list = kept_lengths.tolist()
        scored: List[_ScoredCandidate] = []
        # Per candidate: greedy left-to-right non-overlap selection over the
        # (overlapping) match starts, then the occurrence-weight filter —
        # identical semantics to find_occurrences + the cut-weight check.
        for index, length in enumerate(length_list):
            occurrences_b: List[_OccTriple] = []
            weight_b = 0
            next_free = 0
            for start in position_b[bounds_b[index] : bounds_b[index + 1]]:
                if start < next_free:
                    continue
                next_free = start + length
                weight = prefix_b[next_free] - prefix_b[start]
                if weight >= cut:
                    occurrences_b.append((start, next_free, weight))
                    weight_b += weight
            if not occurrences_b:
                continue
            row = rows_list[index]
            occurrences_a, weight_a = occurrences_a_for(row, length, cols_list[index] + column_offset)
            if not occurrences_a:
                continue
            pattern = la[row : row + length]
            scored.append(
                (max(weight_a, weight_b), length, pattern, occurrences_a, occurrences_b, weight_a, weight_b)
            )
        return scored

    @staticmethod
    def _candidate_substrings_python(a: _PreparedString, b: _PreparedString) -> List[_Literals]:
        """Pure-Python reference: match-length DP over two rolling rows.

        ``row[j]`` is the length of the common extension starting at
        ``(i, j)``; rows are computed bottom-up and only the current and next
        row are retained, so memory stays at O(n).  Left-maximality is
        checked directly on the literals, which is what lets the full table
        be dropped.
        """
        la, lb = a.literals, b.literals
        m, n = len(la), len(lb)
        if m == 0 or n == 0:
            return []
        candidates: Dict[_Literals, None] = {}
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
            next_row = row
        return list(candidates)

    def _qualifying_occurrences(self, prepared: _PreparedString, pattern: _Literals) -> List[_OccTriple]:
        length = len(pattern)
        occurrences: List[_OccTriple] = []
        for start in prepared.find_occurrences(pattern):
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
