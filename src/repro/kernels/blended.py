"""The blended k-spectrum kernel.

Shawe-Taylor & Cristianini (2004): instead of counting substrings of exactly
length ``k``, the blended spectrum kernel counts substrings of every length
``1 .. k``, optionally discounting a length-``l`` substring by ``lambda**l``.
It is the strongest baseline in the paper: with byte information it separates
the Flash I/O class but lumps the other three together (Figures 8 and 9),
which benchmark E4/E5 reproduce.

As with :class:`~repro.kernels.spectrum.SpectrumKernel`, the alphabet is the
set of token literals and occurrences can be weighted by their token weights.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.kernels.base import StringKernel
from repro.strings.tokens import WeightedString

__all__ = ["BlendedSpectrumKernel"]

_Gram = Tuple[str, ...]


class BlendedSpectrumKernel(StringKernel):
    """Count shared token substrings of every length up to ``max_length``.

    Parameters
    ----------
    max_length:
        Largest substring length considered (the ``k`` of the blended
        k-spectrum kernel).
    decay:
        Per-token geometric decay ``lambda``; a substring of length ``l``
        receives an extra factor ``decay ** l``.  ``1.0`` (default) recovers
        the plain blended spectrum kernel.
    weighted:
        When true (default) occurrences contribute their summed token weight
        rather than 1, which puts this baseline on the same footing as the
        Kast kernel with respect to the weighted representation.
    min_weight:
        Occurrences whose summed token weight is below this threshold are
        ignored.  The paper applies its cut-weight sweep to this kernel as
        well; the pipeline passes the cut weight through this parameter.
    """

    def __init__(
        self,
        max_length: int = 3,
        decay: float = 1.0,
        weighted: bool = True,
        min_weight: int = 1,
    ) -> None:
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if min_weight < 1:
            raise ValueError(f"min_weight must be >= 1, got {min_weight}")
        self.max_length = max_length
        self.decay = decay
        self.weighted = weighted
        self.min_weight = min_weight
        suffix = f", decay={decay}" if decay != 1.0 else ""
        self.name = f"blended(k<={max_length}{suffix}, min_weight={min_weight})"
        self._cache: Dict[str, Dict[_Gram, float]] = {}

    # ------------------------------------------------------------------
    # Feature map
    # ------------------------------------------------------------------
    def feature_map(self, string: WeightedString) -> Dict[_Gram, float]:
        """Sparse feature vector over all substrings of length 1..max_length."""
        key = string.fingerprint
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        literals = [token.literal for token in string]
        weights = [token.weight for token in string]
        features: Dict[_Gram, float] = defaultdict(float)
        count = len(literals)
        for length in range(1, self.max_length + 1):
            factor = self.decay**length
            for start in range(count - length + 1):
                occurrence_weight = sum(weights[start : start + length])
                if occurrence_weight < self.min_weight:
                    continue
                gram = tuple(literals[start : start + length])
                contribution = occurrence_weight if self.weighted else 1.0
                features[gram] += factor * contribution
        result = dict(features)
        if len(self._cache) >= 4096:
            self._cache.clear()
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # StringKernel interface
    # ------------------------------------------------------------------
    def value(self, a: WeightedString, b: WeightedString) -> float:
        features_a = self.feature_map(a)
        features_b = self.feature_map(b)
        if len(features_b) < len(features_a):
            features_a, features_b = features_b, features_a
        return float(sum(value * features_b.get(gram, 0.0) for gram, value in features_a.items()))

    def self_value(self, a: WeightedString) -> float:
        features = self.feature_map(a)
        return float(sum(value * value for value in features.values()))
