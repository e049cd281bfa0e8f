"""The frozen :class:`LandmarkModel` and its fitting routine.

A landmark model is everything the online scorer needs to serve one trace
in O(m): the kernel spec (declarative, registry-resolvable), the ``m``
landmark strings with their content fingerprints and *raw* self values
(so normalisation denominators never cost a kernel evaluation at serve
time), the labels driving nearest-centroid classification, and the
Nyström/kPCA factorisation of the landmark Gram ``W`` — eigenvalues,
eigenvectors and the centring statistics that make the out-of-sample
projection ``x ↦ centred(c(x)) · U · Λ^(−1/2)`` reproducible bit for bit.

The model is a plain frozen dataclass of JSON-representable fields:
picklable, round-trippable through :meth:`LandmarkModel.to_json` /
:meth:`LandmarkModel.from_json`, and stamped with a content-derived
``model_id`` so two fits from the same cached Gram agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.spec import KernelSpec, coerce_spec
from repro.core.engine import string_fingerprint
from repro.learn.kpca import KernelPCA
from repro.strings.tokens import WeightedString

__all__ = ["LandmarkModel", "fit_landmark_model", "encode_landmarks", "decode_landmarks"]

#: Current on-disk/wire format version of the model payload.
MODEL_FORMAT = 1


def encode_landmarks(strings: Sequence[WeightedString]) -> Tuple[Dict[str, Any], ...]:
    """Landmark strings in their compact round-trippable form."""
    items: List[Dict[str, Any]] = []
    for string in strings:
        item: Dict[str, Any] = {"name": string.name, "tokens": string.to_text()}
        if string.label is not None:
            item["label"] = string.label
        items.append(item)
    return tuple(items)


def decode_landmarks(items: Sequence[Mapping[str, Any]]) -> List[WeightedString]:
    """Rebuild the weighted strings of :func:`encode_landmarks` output."""
    strings: List[WeightedString] = []
    for position, item in enumerate(items):
        label = item.get("label")
        strings.append(
            WeightedString.parse(
                str(item["tokens"]),
                name=str(item.get("name", f"landmark{position}")),
                label=str(label) if label is not None else None,
            )
        )
    return strings


@dataclass(frozen=True)
class LandmarkModel:
    """A frozen, servable landmark/Nyström model.

    Attributes
    ----------
    name:
        Store key the model is persisted and addressed under.
    kernel_spec:
        :meth:`KernelSpec.to_dict` payload; :meth:`spec` resolves it
        against the live registry (and fails typed when the kind is gone).
    kernel_signature:
        The spec's value-relevant signature — the pair-store namespace the
        scorer shares with the batch path.
    strategy / seed:
        How the landmarks were selected (reproducibility stamp).
    landmarks:
        Encoded landmark strings (:func:`encode_landmarks` form).
    fingerprints:
        Content fingerprints of the landmarks, aligned with ``landmarks``.
    self_values:
        Raw ``k(l, l)`` per landmark — carried in the model so a fresh
        scorer primes its engine instead of re-evaluating them.
    labels:
        Per-landmark classification labels (corpus labels, or fitted
        ``cluster-<i>`` pseudo-labels when the corpus is unlabelled).
    projection:
        Nyström/kPCA factorisation of the landmark Gram: ``eigenvalues``,
        ``eigenvectors`` (m × d, column-major lists), ``column_means``,
        ``total_mean`` and ``n_components``.
    fitted:
        Free-form fit metadata (corpus size, result-cache outcome, fitted
        cluster inertia, …) — informational, excluded from ``model_id``.
    """

    name: str
    kernel_spec: Dict[str, Any]
    kernel_signature: str
    strategy: str
    seed: int
    landmarks: Tuple[Dict[str, Any], ...]
    fingerprints: Tuple[str, ...]
    self_values: Tuple[float, ...]
    labels: Tuple[Optional[str], ...]
    projection: Dict[str, Any]
    fitted: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (len(self.landmarks) == len(self.fingerprints) == len(self.self_values) == len(self.labels)):
            raise ValueError("landmarks/fingerprints/self_values/labels lengths disagree")
        if not self.landmarks:
            raise ValueError("a landmark model needs at least one landmark")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of landmarks (the per-request kernel-evaluation budget)."""
        return len(self.landmarks)

    @property
    def model_id(self) -> str:
        """Content-derived identity: signature + landmarks + factorisation."""
        identity = {
            "kernel_signature": self.kernel_signature,
            "fingerprints": list(self.fingerprints),
            "strategy": self.strategy,
            "seed": self.seed,
            "labels": list(self.labels),
            "projection": self.projection,
        }
        canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def spec(self) -> KernelSpec:
        """Resolve the stored spec payload against the live kernel registry.

        Raises :class:`~repro.api.spec.KernelSpecError` when the kind was
        unregistered since the model was fitted — the store turns that
        into a typed, quarantining service error.
        """
        return coerce_spec(self.kernel_spec)

    def landmark_strings(self) -> List[WeightedString]:
        """The landmark corpus, decoded (labels as stored in ``labels``)."""
        strings = decode_landmarks(self.landmarks)
        return [
            string if string.label == label else string.with_label(label)
            for string, label in zip(strings, self.labels)
        ]

    def summary(self) -> Dict[str, Any]:
        """Small JSON-ready description (listings, job payloads)."""
        return {
            "name": self.name,
            "model_id": self.model_id,
            "landmarks": self.m,
            "strategy": self.strategy,
            "seed": self.seed,
            "kernel_signature": self.kernel_signature,
            "kernel_kind": str(self.kernel_spec.get("kind", "?")),
            "n_components": int(self.projection.get("n_components", 0)),
            "labels": sorted({label for label in self.labels if label is not None}),
            "fitted": dict(self.fitted),
        }

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MODEL_FORMAT,
            "name": self.name,
            "kernel_spec": self.kernel_spec,
            "kernel_signature": self.kernel_signature,
            "strategy": self.strategy,
            "seed": self.seed,
            "landmarks": [dict(item) for item in self.landmarks],
            "fingerprints": list(self.fingerprints),
            "self_values": [float(value) for value in self.self_values],
            "labels": list(self.labels),
            "projection": self.projection,
            "fitted": dict(self.fitted),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LandmarkModel":
        if not isinstance(payload, Mapping):
            raise ValueError(f"model payload must be a mapping, got {type(payload).__name__}")
        version = payload.get("format", MODEL_FORMAT)
        if version != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {version!r} (this build speaks {MODEL_FORMAT})")
        try:
            return cls(
                name=str(payload["name"]),
                kernel_spec=dict(payload["kernel_spec"]),
                kernel_signature=str(payload["kernel_signature"]),
                strategy=str(payload["strategy"]),
                seed=int(payload["seed"]),
                landmarks=tuple(dict(item) for item in payload["landmarks"]),
                fingerprints=tuple(str(item) for item in payload["fingerprints"]),
                self_values=tuple(float(value) for value in payload["self_values"]),
                labels=tuple(
                    None if label is None else str(label) for label in payload["labels"]
                ),
                projection=dict(payload["projection"]),
                fitted=dict(payload.get("fitted", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model payload is malformed: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LandmarkModel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model payload is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _projection_payload(kpca: KernelPCA, n_components: int) -> Dict[str, Any]:
    """Freeze a fitted :class:`KernelPCA` into JSON-representable lists."""
    result = kpca._result
    assert result is not None and kpca._column_means is not None
    return {
        "n_components": int(n_components),
        "eigenvalues": [float(value) for value in result.eigenvalues],
        "eigenvectors": [[float(value) for value in row] for row in result.eigenvectors],
        "column_means": [float(value) for value in kpca._column_means],
        "total_mean": float(kpca._total_mean),
    }


def fit_landmark_model(
    session: Any,
    spec: Any,
    strings: Sequence[WeightedString],
    name: str,
    landmarks: int = 16,
    strategy: str = "kcenter",
    seed: int = 2017,
    n_components: int = 2,
    n_clusters: Optional[int] = None,
    use_cache: bool = True,
) -> Tuple[LandmarkModel, str]:
    """Fit a landmark model from a corpus through an :class:`AnalysisSession`.

    The full (normalised, *pre-repair*) Gram comes from the session's
    result-cache-aware path, so refitting on a corpus the cache already
    holds costs zero kernel evaluations; the returned second element is
    the cache outcome (``"hit"`` / ``"miss"`` / ``"bypass"``).  The matrix stays un-repaired on purpose: the scorer
    re-evaluates cross rows through the kernel itself, and fitting on
    repaired (perturbed) values would break the landmark==corpus
    equivalence with the engine's raw evaluations.

    Labels: landmark labels come from the corpus.  When *n_clusters* is
    given — or no corpus example carries a label — a kernel k-means run
    over the full Gram supplies fitted ``cluster-<i>`` pseudo-labels
    (the "fitted cluster centroids" serving mode).
    """
    from repro.streaming.landmarks import select_landmarks

    string_list = list(strings)
    if not string_list:
        raise ValueError("cannot fit a landmark model from an empty corpus")
    resolved = session.spec(spec)
    matrix, cache_status = session.matrix_cached(
        resolved, string_list, normalized=True, repair=False, use_cache=use_cache
    )
    values = matrix.values

    cluster_meta: Dict[str, Any] = {}
    labels: List[Optional[str]] = [string.label for string in string_list]
    if n_clusters is not None or not any(label is not None for label in labels):
        from repro.learn.kkmeans import KernelKMeans

        clusters = max(1, int(n_clusters) if n_clusters is not None else 3)
        fitted = KernelKMeans(n_clusters=clusters, seed=seed).fit_predict(values)
        labels = [f"cluster-{assignment}" for assignment in fitted.assignments]
        cluster_meta = {
            "n_clusters": clusters,
            "inertia": float(fitted.inertia),
            "converged": bool(fitted.converged),
        }

    indices = select_landmarks(values, landmarks, strategy=strategy, seed=seed)
    landmark_strings = [string_list[index] for index in indices]
    landmark_labels = [labels[index] for index in indices]
    engine = session.engine(resolved)
    self_values = engine.self_values(landmark_strings)

    landmark_gram = values[np.ix_(indices, indices)]
    kpca = KernelPCA(n_components=max(1, int(n_components)))
    kpca.fit(landmark_gram)

    fitted_meta: Dict[str, Any] = {
        "corpus_size": len(string_list),
        "cache": cache_status,
        "requested_landmarks": int(landmarks),
    }
    if cluster_meta:
        fitted_meta["clustering"] = cluster_meta

    model = LandmarkModel(
        name=str(name),
        kernel_spec=resolved.to_dict(),
        kernel_signature=engine.kernel_signature(),
        strategy=strategy,
        seed=int(seed),
        landmarks=encode_landmarks(landmark_strings),
        fingerprints=tuple(string_fingerprint(string) for string in landmark_strings),
        self_values=tuple(float(value) for value in self_values),
        labels=tuple(landmark_labels),
        projection=_projection_payload(kpca, n_components),
        fitted=fitted_meta,
    )
    return model, cache_status
