"""The k-spectrum kernel over weighted token strings.

Leslie, Eskin & Noble (2002): the k-spectrum kernel counts, for every
possible substring of length exactly ``k``, how often it appears in each
string and takes the inner product of those count vectors.  The original
kernel is defined over plain character strings; here the "alphabet" is the
set of token literals and, optionally, occurrences are weighted by the sum of
their token weights (so a loop of 1000 writes counts more than a single
write, mirroring the weighting of the paper's representation).

The paper evaluates this kernel as a baseline and reports that it "was not
successful at finding an acceptable clustering" (section 4.3); benchmark E8
reproduces that comparison.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.kernels.base import StringKernel
from repro.strings.tokens import WeightedString

__all__ = ["SpectrumKernel"]

_Gram = Tuple[str, ...]


class SpectrumKernel(StringKernel):
    """Count (or weight) shared token k-grams.

    Parameters
    ----------
    k:
        Exact length (in tokens) of the substrings counted.
    weighted:
        When true (default) each k-gram occurrence contributes the sum of its
        token weights instead of 1.  The unweighted variant is the literal
        textbook k-spectrum kernel.
    """

    def __init__(self, k: int = 3, weighted: bool = True) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.weighted = weighted
        self.name = f"spectrum(k={k}{', weighted' if weighted else ''})"
        self._cache: Dict[str, Dict[_Gram, float]] = {}

    # ------------------------------------------------------------------
    # Feature map
    # ------------------------------------------------------------------
    def feature_map(self, string: WeightedString) -> Dict[_Gram, float]:
        """Sparse k-gram feature vector of *string*."""
        key = string.fingerprint
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        literals = [token.literal for token in string]
        weights = [token.weight for token in string]
        features: Dict[_Gram, float] = defaultdict(float)
        for start in range(len(literals) - self.k + 1):
            gram = tuple(literals[start : start + self.k])
            if self.weighted:
                features[gram] += float(sum(weights[start : start + self.k]))
            else:
                features[gram] += 1.0
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
