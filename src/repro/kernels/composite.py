"""Kernel combinators.

Sums, products and positive scalings of kernels are kernels (closure
properties of the class of positive semidefinite functions).  These wrappers
let experiments mix representations — for example adding a bag-of-characters
term to the Kast kernel to reward overall operation-mix similarity — without
touching the kernel implementations themselves.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernels.base import StringKernel, normalize_kernel_value
from repro.strings.tokens import WeightedString

__all__ = ["SumKernel", "ProductKernel", "ScaledKernel", "NormalizedKernel"]


class SumKernel(StringKernel):
    """Pointwise sum of several kernels: ``k(a, b) = sum_i k_i(a, b)``."""

    def __init__(self, kernels: Sequence[StringKernel]) -> None:
        if not kernels:
            raise ValueError("SumKernel requires at least one kernel")
        self.kernels = tuple(kernels)
        self.name = "sum(" + ", ".join(kernel.name for kernel in self.kernels) + ")"

    def value(self, a: WeightedString, b: WeightedString) -> float:
        return float(sum(kernel.value(a, b) for kernel in self.kernels))

    def self_value(self, a: WeightedString) -> float:
        return float(sum(kernel.self_value(a) for kernel in self.kernels))


class ProductKernel(StringKernel):
    """Pointwise product of several kernels: ``k(a, b) = prod_i k_i(a, b)``."""

    def __init__(self, kernels: Sequence[StringKernel]) -> None:
        if not kernels:
            raise ValueError("ProductKernel requires at least one kernel")
        self.kernels = tuple(kernels)
        self.name = "product(" + ", ".join(kernel.name for kernel in self.kernels) + ")"

    def value(self, a: WeightedString, b: WeightedString) -> float:
        result = 1.0
        for kernel in self.kernels:
            result *= kernel.value(a, b)
        return float(result)

    def self_value(self, a: WeightedString) -> float:
        result = 1.0
        for kernel in self.kernels:
            result *= kernel.self_value(a)
        return float(result)


class ScaledKernel(StringKernel):
    """A kernel multiplied by a positive constant."""

    def __init__(self, kernel: StringKernel, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.kernel = kernel
        self.scale = float(scale)
        self.name = f"{scale} * {kernel.name}"

    def value(self, a: WeightedString, b: WeightedString) -> float:
        return self.scale * self.kernel.value(a, b)

    def self_value(self, a: WeightedString) -> float:
        return self.scale * self.kernel.self_value(a)


class NormalizedKernel(StringKernel):
    """Wrap a kernel so its raw ``value`` is already cosine-normalised.

    Useful when a combinator should mix *normalised* similarities: e.g.
    ``SumKernel([NormalizedKernel(k1), NormalizedKernel(k2)])`` averages two
    similarity structures on an equal footing.
    """

    def __init__(self, kernel: StringKernel) -> None:
        self.kernel = kernel
        self.name = f"normalized({kernel.name})"

    def value(self, a: WeightedString, b: WeightedString) -> float:
        # The cosine form itself, not the child's normalized_value: a Kast
        # child may be configured with another normalisation.
        return normalize_kernel_value(self.kernel.value(a, b), self.kernel.self_value(a), self.kernel.self_value(b))

    def self_value(self, a: WeightedString) -> float:
        base = self.kernel.self_value(a)
        return 1.0 if base > 0 else 0.0
