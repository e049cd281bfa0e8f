"""Kernel (similarity) matrices over corpora of weighted strings.

The learning algorithms of the paper (Kernel PCA and hierarchical
clustering) only ever see the pairwise kernel matrix, never the strings.
:class:`KernelMatrix` bundles that matrix with the string names and labels so
the downstream analysis and the reports can keep track of which row is which
example, and provides the positive-semidefinite repair step the paper
applies ("if the matrices presented negative eigenvalues, they were replaced
by zero and the matrices rebuilt", section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.normalization import (
    clip_negative_eigenvalues,
    cosine_normalize,
    is_positive_semidefinite,
    psd_repair,
)

__all__ = ["KernelMatrix"]


@dataclass
class KernelMatrix:
    """A labelled kernel matrix.

    Attributes
    ----------
    values:
        The ``n x n`` similarity matrix.
    names:
        Name of the example backing each row/column.
    labels:
        Optional class label per example (the paper's A/B/C/D categories).
    kernel_name:
        Name of the kernel that produced the matrix.
    normalized:
        Whether the entries were cosine-normalised.
    """

    values: np.ndarray
    names: Tuple[str, ...]
    labels: Tuple[Optional[str], ...]
    kernel_name: str = "kernel"
    normalized: bool = True

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"kernel matrix must be square, got shape {self.values.shape}")
        if len(self.names) != self.values.shape[0]:
            raise ValueError("names length must match matrix size")
        if len(self.labels) != self.values.shape[0]:
            raise ValueError("labels length must match matrix size")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.values.shape[0]

    def similarity(self, i: int, j: int) -> float:
        """Similarity between examples *i* and *j*."""
        return float(self.values[i, j])

    def index_of(self, name: str) -> int:
        """Row index of the example called *name*."""
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown example name: {name!r}") from exc

    def label_set(self) -> List[str]:
        """Sorted list of distinct labels (``None`` excluded)."""
        return sorted({label for label in self.labels if label is not None})

    def is_symmetric(self, tolerance: float = 1e-9) -> bool:
        """Whether the matrix is symmetric within *tolerance*."""
        return bool(np.allclose(self.values, self.values.T, atol=tolerance))

    def is_positive_semidefinite(self, tolerance: float = 1e-8) -> bool:
        """Whether all eigenvalues are >= -tolerance."""
        return is_positive_semidefinite(self.values, tolerance=tolerance)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def repaired(self, tolerance: float = 0.0) -> "KernelMatrix":
        """Clip negative eigenvalues to zero and rebuild (paper, section 4.1)."""
        repaired_values = clip_negative_eigenvalues(self.values, tolerance=tolerance)
        return KernelMatrix(
            values=repaired_values,
            names=self.names,
            labels=self.labels,
            kernel_name=self.kernel_name,
            normalized=self.normalized,
        )

    def psd_repaired(self) -> "KernelMatrix":
        """This matrix when :meth:`is_positive_semidefinite`, else
        :meth:`repaired` — decided and repaired from one eigendecomposition."""
        repaired_values = psd_repair(self.values)
        return self if repaired_values is None else replace(self, values=repaired_values)

    def renormalized(self) -> "KernelMatrix":
        """Apply cosine normalisation to the stored values."""
        return KernelMatrix(
            values=cosine_normalize(self.values),
            names=self.names,
            labels=self.labels,
            kernel_name=self.kernel_name,
            normalized=True,
        )

    def submatrix(self, indices: Sequence[int]) -> "KernelMatrix":
        """Restrict the matrix to the examples at *indices*."""
        index_array = np.asarray(list(indices), dtype=int)
        return KernelMatrix(
            values=self.values[np.ix_(index_array, index_array)],
            names=tuple(self.names[i] for i in index_array),
            labels=tuple(self.labels[i] for i in index_array),
            kernel_name=self.kernel_name,
            normalized=self.normalized,
        )

    def to_distance_matrix(self) -> np.ndarray:
        """Convert similarities to kernel-induced squared-root distances.

        Uses ``d(i, j) = sqrt(k(i,i) + k(j,j) - 2 k(i,j))``, the standard
        feature-space distance; for a cosine-normalised matrix this is
        ``sqrt(2 - 2 k(i,j))``.
        """
        diagonal = np.diag(self.values)
        squared = diagonal[:, None] + diagonal[None, :] - 2.0 * self.values
        np.fill_diagonal(squared, 0.0)
        squared = np.maximum(squared, 0.0)
        return np.sqrt(squared)

    # ------------------------------------------------------------------
    # Persistence / reporting helpers
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "kernel": self.kernel_name,
            "normalized": self.normalized,
            "names": list(self.names),
            "labels": list(self.labels),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "KernelMatrix":
        """Rebuild a matrix from :meth:`as_dict` output."""
        return cls(
            values=np.asarray(payload["values"], dtype=float),
            names=tuple(payload["names"]),  # type: ignore[arg-type]
            labels=tuple(payload["labels"]),  # type: ignore[arg-type]
            kernel_name=str(payload.get("kernel", "kernel")),
            normalized=bool(payload.get("normalized", True)),
        )

