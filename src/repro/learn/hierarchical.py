"""Agglomerative hierarchical clustering from a distance or kernel matrix.

The paper analyses every similarity matrix with hierarchical clustering using
the *simple* (single) linkage method (section 4.1).  This module implements
the standard agglomerative algorithm with the Lance-Williams update, giving
single, complete, average and Ward linkage; the experiments use single
linkage, the others exist for the ablation benchmark and for general use.

The input is either a distance matrix or a :class:`KernelMatrix`, which is
converted to kernel-induced distances first (``d = sqrt(k_ii + k_jj - 2
k_ij)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.matrix import KernelMatrix
from repro.learn.dendrogram import Dendrogram, Merge

__all__ = ["LINKAGES", "HierarchicalClustering", "ClusteringResult", "cluster_kernel_matrix"]

#: The linkage methods :class:`HierarchicalClustering` accepts.
LINKAGES = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class ClusteringResult:
    """A dendrogram plus a flat clustering extracted from it."""

    dendrogram: Dendrogram
    assignments: Tuple[int, ...]
    n_clusters: int
    linkage: str

    def clusters(self) -> List[List[int]]:
        """Members of every cluster as lists of example indices."""
        members: List[List[int]] = [[] for _ in range(self.n_clusters)]
        for index, cluster in enumerate(self.assignments):
            members[cluster].append(index)
        return members

    def cluster_of(self, index: int) -> int:
        """Cluster id of example *index*."""
        return self.assignments[index]


class HierarchicalClustering:
    """Agglomerative clustering with Lance-Williams distance updates.

    Parameters
    ----------
    linkage:
        ``"single"`` (paper default), ``"complete"``, ``"average"`` or
        ``"ward"``.
    """

    def __init__(self, linkage: str = "single") -> None:
        if linkage not in LINKAGES:
            raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
        self.linkage = linkage

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        matrix: Union[KernelMatrix, np.ndarray],
        is_distance: Optional[bool] = None,
    ) -> Dendrogram:
        """Build the dendrogram for *matrix*.

        Parameters
        ----------
        matrix:
            Either a :class:`KernelMatrix` (similarities; converted to
            distances internally) or a raw square array.  For a raw array,
            ``is_distance`` says how to interpret it; the default assumes a
            distance matrix.
        """
        names: Tuple[str, ...] = ()
        labels: Tuple[Optional[str], ...] = ()
        if isinstance(matrix, KernelMatrix):
            distances = matrix.to_distance_matrix()
            names = matrix.names
            labels = matrix.labels
        else:
            values = np.asarray(matrix, dtype=float)
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise ValueError(f"matrix must be square, got shape {values.shape}")
            if is_distance is False:
                diagonal = np.diag(values)
                squared = diagonal[:, None] + diagonal[None, :] - 2.0 * values
                distances = np.sqrt(np.maximum(squared, 0.0))
            else:
                distances = values.copy()
        return self._agglomerate(distances, names, labels)

    def fit_predict(
        self,
        matrix: Union[KernelMatrix, np.ndarray],
        n_clusters: int,
        is_distance: Optional[bool] = None,
    ) -> ClusteringResult:
        """Build the dendrogram and cut it into *n_clusters* flat clusters."""
        dendrogram = self.fit(matrix, is_distance=is_distance)
        assignments = dendrogram.cut_into(n_clusters)
        return ClusteringResult(
            dendrogram=dendrogram,
            assignments=tuple(assignments),
            n_clusters=max(assignments) + 1 if assignments else 0,
            linkage=self.linkage,
        )

    # ------------------------------------------------------------------
    # Core algorithm
    # ------------------------------------------------------------------
    def _agglomerate(
        self,
        distances: np.ndarray,
        names: Tuple[str, ...],
        labels: Tuple[Optional[str], ...],
    ) -> Dendrogram:
        count = distances.shape[0]
        if count == 0:
            return Dendrogram(merges=(), n_leaves=0, names=names, labels=labels)
        working = distances.astype(float).copy()
        np.fill_diagonal(working, np.inf)

        active = list(range(count))            # positions still in play
        cluster_ids = list(range(count))       # dendrogram id of each active position
        sizes = [1] * count                     # leaf count of each active position
        merges: List[Merge] = []
        next_id = count

        while len(active) > 1:
            # Find the closest active pair.
            best = (np.inf, -1, -1)
            for ai in range(len(active)):
                row = working[active[ai]]
                for bi in range(ai + 1, len(active)):
                    distance = row[active[bi]]
                    if distance < best[0]:
                        best = (distance, ai, bi)
            distance, ai, bi = best
            position_a, position_b = active[ai], active[bi]
            size_a, size_b = sizes[ai], sizes[bi]

            merges.append(
                Merge(
                    left=cluster_ids[ai],
                    right=cluster_ids[bi],
                    height=float(distance) if np.isfinite(distance) else 0.0,
                    size=size_a + size_b,
                )
            )

            # Lance-Williams update of the row that will represent the merged cluster.
            for ci in range(len(active)):
                if ci in (ai, bi):
                    continue
                position_c = active[ci]
                d_ac = working[position_a, position_c]
                d_bc = working[position_b, position_c]
                if self.linkage == "single":
                    updated = min(d_ac, d_bc)
                elif self.linkage == "complete":
                    updated = max(d_ac, d_bc)
                elif self.linkage == "average":
                    updated = (size_a * d_ac + size_b * d_bc) / (size_a + size_b)
                else:  # ward
                    size_c = sizes[ci]
                    total = size_a + size_b + size_c
                    updated = np.sqrt(
                        max(
                            0.0,
                            ((size_a + size_c) * d_ac**2 + (size_b + size_c) * d_bc**2 - size_c * distance**2)
                            / total,
                        )
                    )
                working[position_a, position_c] = updated
                working[position_c, position_a] = updated

            # Position A now represents the merged cluster; retire position B.
            cluster_ids[ai] = next_id
            sizes[ai] = size_a + size_b
            next_id += 1
            del active[bi]
            del cluster_ids[bi]
            del sizes[bi]

        return Dendrogram(merges=tuple(merges), n_leaves=count, names=names, labels=labels)


def cluster_kernel_matrix(
    kernel_matrix: KernelMatrix,
    n_clusters: int,
    linkage: str = "single",
) -> ClusteringResult:
    """One-call helper: single-linkage clustering of a kernel matrix."""
    return HierarchicalClustering(linkage=linkage).fit_predict(kernel_matrix, n_clusters=n_clusters)
