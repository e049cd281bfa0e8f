"""Common interface shared by every string kernel in the library.

A kernel maps a pair of :class:`~repro.strings.tokens.WeightedString` objects
to a non-negative similarity value.  All kernels — the paper's Kast Spectrum
Kernel and the baselines (k-spectrum, blended spectrum, bag kernels) — derive
from :class:`StringKernel`, so the pipeline, the learning algorithms and the
benchmarks can treat them interchangeably.

Normalisation conventions
-------------------------
``normalized_value`` implements the cosine normalisation of Shawe-Taylor &
Cristianini (and the paper's Eq. 12):

.. math:: \\bar k(A, B) = \\frac{k(A, B)}{\\sqrt{k(A, A)\\, k(B, B)}}

Kernels may override ``self_value`` when a cheaper closed form exists, but
it must equal ``value(a, a)`` bit for bit: the Gram engine keeps ``k(a, a)``
and the pair of two content-identical strings under one key, so the two are
served as each other.  (The Kast kernel's closed form under its independence
rule is the squared string weight, or 0 for a string lighter than the cut
weight.)
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from repro.strings.tokens import WeightedString

__all__ = ["StringKernel", "KernelEvaluationError", "normalize_kernel_value"]


class KernelEvaluationError(RuntimeError):
    """Raised when a kernel cannot be evaluated on the given inputs."""


def normalize_kernel_value(raw: float, self_a: float, self_b: float) -> float:
    """Cosine-normalise one raw kernel value: ``raw / sqrt(k(a,a) k(b,b))``.

    This is the single normalisation path shared by ``normalized_value``,
    the Gram/cross matrix assembly and the :class:`~repro.core.engine.GramEngine`,
    so every caller treats the degenerate cases identically: a zero *or
    negative* self-similarity (numerically possible for non-Mercer empirical
    kernels) yields 0.0 instead of a division error or a NaN.
    """
    denominator_squared = self_a * self_b
    if self_a <= 0.0 or self_b <= 0.0 or denominator_squared <= 0.0:
        return 0.0
    return raw / math.sqrt(denominator_squared)


class StringKernel(abc.ABC):
    """Abstract base class for kernels over weighted strings."""

    #: Human readable name used in reports and benchmark output.
    name: str = "kernel"

    @abc.abstractmethod
    def value(self, a: WeightedString, b: WeightedString) -> float:
        """Raw (unnormalised) kernel value ``k(a, b)``."""

    def self_value(self, a: WeightedString) -> float:
        """``k(a, a)``; an override (a cheaper closed form) must equal ``value(a, a)``."""
        return self.value(a, a)

    def normalized_value(self, a: WeightedString, b: WeightedString) -> float:
        """Cosine-normalised kernel value in ``[0, 1]`` (0 when either self-value is 0)."""
        return normalize_kernel_value(self.value(a, b), self.self_value(a), self.self_value(b))

    # ------------------------------------------------------------------
    # Gram matrix helpers
    # ------------------------------------------------------------------
    def matrix(self, strings: Sequence[WeightedString], normalized: bool = True) -> np.ndarray:
        """Compute the square, symmetric Gram matrix over *strings*.

        Delegated to :class:`~repro.core.engine.GramEngine`, which adds a
        symmetric pair-value cache and row-batched evaluation.  With
        *normalized* on, entries are cosine-normalised.
        """
        # Imported lazily: repro.core depends on this module.
        from repro.core.engine import GramEngine

        return GramEngine(self).gram(strings, normalized=normalized)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{self.__class__.__name__}(name={self.name!r})"
