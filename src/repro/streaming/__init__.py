"""Streaming serving path: landmark/Nyström models for live traces.

The batch pipeline computes full O(n²) Gram matrices; this package adds the
second serving tier the ROADMAP names, where per-request cost is O(m) in a
fixed landmark count instead of O(n) in corpus size:

1. :func:`~repro.streaming.landmarks.select_landmarks` picks ``m``
   representative corpus examples from a cached full Gram (uniform,
   k-center greedy, or leverage-score strategies);
2. :func:`~repro.streaming.model.fit_landmark_model` freezes them — with
   the kernel spec, raw self values, a Nyström/kPCA factorisation of the
   landmark Gram and the landmark labels — into a picklable, JSON
   round-trippable :class:`~repro.streaming.model.LandmarkModel`;
3. :class:`~repro.streaming.store.ModelStore` persists models under
   ``<state-dir>/models/`` with the same atomic-rename + sha256 stamping
   discipline as the matrix result cache;
4. :class:`~repro.streaming.scorer.StreamingScorer` classifies/embeds each
   arriving trace against only the ``m`` landmarks through the warm
   :class:`~repro.core.engine.GramEngine`, reading the shared pair store
   but never writing it — a trace repeated in session costs *zero* kernel
   evaluations.

The service layer exposes the same tier over the wire (``fit-model`` /
``classify`` / ``models`` protocol messages and the
``repro-iokast model`` CLI).
"""

from repro.streaming.landmarks import LANDMARK_STRATEGIES, select_landmarks
from repro.streaming.model import LandmarkModel, fit_landmark_model
from repro.streaming.scorer import StreamingScorer
from repro.streaming.store import ModelStore

__all__ = [
    "LANDMARK_STRATEGIES",
    "select_landmarks",
    "LandmarkModel",
    "fit_landmark_model",
    "StreamingScorer",
    "ModelStore",
]
