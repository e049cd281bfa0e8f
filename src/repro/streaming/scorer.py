"""The online scorer: O(m) classify/embed of one arriving trace.

A :class:`StreamingScorer` binds a frozen :class:`LandmarkModel` to a live
:class:`~repro.api.session.AnalysisSession`.  Construction primes the
session's warm engine with the model's landmark self values (zero kernel
evaluations, ever, for the denominators), and every request then reduces
to one batched landmark-row evaluation through the engine's two cache
layers:

* a **cold** trace costs exactly ``m`` kernel evaluations (the cross row
  against the landmarks — classification is scale-invariant in the
  query's own self value, so it is never computed); an embedding needs
  that self value, which rides on the same row as its ``m + 1``-th entry;
* a **repeated** trace costs zero in session — the engine's in-memory
  pair cache serves it.

The scorer reads the session's persistent pair store but never writes it:
a query row and the primed landmark self values stay in memory (see
:meth:`GramEngine.evaluate_row <repro.core.engine.GramEngine.evaluate_row>`),
so a request makes no durable write.  A row that a matrix job over the
same traces stored is still served from the store, with zero evaluations;
a repeat after a restart, with no such job in between, costs ``m`` again.

That accounting is observable through
:meth:`GramEngine.cache_info <repro.core.engine.GramEngine.cache_info>`,
which is how the acceptance tests pin it down.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.learn.classify import ClassificationResult
from repro.streaming.model import LandmarkModel
from repro.strings.tokens import WeightedString

__all__ = ["StreamingScorer"]


class StreamingScorer:
    """Serve classify/embed requests against only the model's landmarks.

    Parameters
    ----------
    model:
        The frozen landmark model to serve.
    session:
        The warm session whose engine evaluations go through — typically
        the server's session, shared with the batch matrix path so rows a
        matrix job computed serve classify requests too.
    """

    def __init__(self, model: LandmarkModel, session: Any) -> None:
        self.model = model
        self.session = session
        self.spec = model.spec()
        self.engine = session.engine(self.spec)
        self.landmarks = model.landmark_strings()
        # The model carries the raw landmark self values: prime the engine's
        # in-memory cache so serving never re-evaluates k(l, l).
        self.engine.prime_self_values(self.landmarks, model.self_values)
        self._inv_sqrt_self = np.asarray(
            [1.0 / math.sqrt(value) if value > 0 else 0.0 for value in model.self_values],
            dtype=float,
        )
        self._label_groups: Dict[str, List[int]] = {}
        for index, label in enumerate(model.labels):
            if label is not None:
                self._label_groups.setdefault(label, []).append(index)
        projection = model.projection
        self._eigenvalues = np.asarray(projection["eigenvalues"], dtype=float)
        self._eigenvectors = np.asarray(projection["eigenvectors"], dtype=float)
        self._column_means = np.asarray(projection["column_means"], dtype=float)
        self._total_mean = float(projection["total_mean"])
        with np.errstate(divide="ignore", invalid="ignore"):
            self._inv_sqrt_eigenvalues = np.where(
                self._eigenvalues > 0, 1.0 / np.sqrt(self._eigenvalues), 0.0
            )

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------
    def cross_row(self, string: WeightedString, with_self: bool = False) -> np.ndarray:
        """Raw ``k(string, landmark_j)`` for every landmark (one batched row).

        With *with_self* the row ends in ``k(string, string)``: the query
        is its own last reference, the engine's diagonal key, so the self
        value comes from the same lookup and is not persisted either.
        """
        references = [*self.landmarks, string] if with_self else self.landmarks
        return np.asarray(self.engine.evaluate_row(string, references), dtype=float)

    def _classification(self, raw: np.ndarray) -> ClassificationResult:
        """Nearest-centroid label of a raw landmark cross row."""
        if not self._label_groups:
            raise ValueError(f"model {self.model.name!r} carries no labelled landmarks")
        partial = raw * self._inv_sqrt_self
        scores = {
            label: float(np.mean(partial[indices]))
            for label, indices in self._label_groups.items()
        }
        best = max(scores.items(), key=lambda item: (item[1], item[0]))
        return ClassificationResult(label=best[0], scores=scores)

    def _embedding(self, row: np.ndarray) -> np.ndarray:
        """kPCA coordinates of a cross row that ends in the query's self value."""
        raw, self_value = row[:-1], row[-1]
        query_scale = 1.0 / math.sqrt(self_value) if self_value > 0 else 0.0
        normalized = (raw * self._inv_sqrt_self * query_scale)[None, :]
        centred = (
            normalized - normalized.mean(axis=1, keepdims=True)
            - self._column_means[None, :] + self._total_mean
        )
        return (centred @ self._eigenvectors * self._inv_sqrt_eigenvalues[None, :])[0]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def embed(self, string: WeightedString) -> np.ndarray:
        """Nyström/kPCA coordinates of one trace (``n_components`` floats).

        Applies the model's frozen out-of-sample projection to the
        normalised landmark cross row — with the landmark set equal to the
        fitting corpus this reproduces the full-Gram kernel-PCA embedding
        exactly (up to eigenvector sign).
        """
        return self._embedding(self.cross_row(string, with_self=True))

    def classify(self, string: WeightedString) -> ClassificationResult:
        """Nearest-centroid label of one trace, in exactly ``m`` evaluations.

        Scores are the mean *query-scale-invariant* similarity per label:
        ``mean_l raw(q, l) / sqrt(k(l, l))`` — the cosine score times the
        constant ``sqrt(k(q, q))``, so the ranking (and the prediction) is
        identical to :class:`~repro.learn.classify.KernelNearestCentroid`
        while the query's own self value is never evaluated.
        """
        return self._classification(self.cross_row(string))

    def classify_with_embedding(
        self, string: WeightedString
    ) -> Tuple[ClassificationResult, np.ndarray]:
        """Classify and embed from one row lookup (``m + 1`` values, self included)."""
        row = self.cross_row(string, with_self=True)
        return self._classification(row[:-1]), self._embedding(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"StreamingScorer(model={self.model.name!r}, m={self.model.m})"
