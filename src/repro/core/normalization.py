"""Numeric utilities for kernel matrices: normalisation and PSD repair.

Kernel methods assume the kernel matrix is symmetric positive semidefinite.
The Kast Spectrum Kernel's maximality rule makes it an empirical similarity
rather than a provable Mercer kernel, so — exactly as the paper does in
section 4.1 — matrices with negative eigenvalues are repaired by clipping the
negative eigenvalues to zero and rebuilding the matrix from the remaining
spectrum.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "cosine_normalize",
    "clip_negative_eigenvalues",
    "is_positive_semidefinite",
    "psd_repair",
    "center_kernel_matrix",
    "nearest_psd_projection",
]

#: Eigenvalues down to ``-_PSD_TOLERANCE`` count as numerical zero.
_PSD_TOLERANCE = 1e-8


def cosine_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalise a raw Gram matrix so every diagonal entry becomes 1.

    ``K'[i, j] = K[i, j] / sqrt(K[i, i] K[j, j])``; rows/columns whose
    self-similarity is zero are left as zeros.
    """
    matrix = np.asarray(matrix, dtype=float)
    diagonal = np.diag(matrix).copy()
    scale = np.sqrt(np.maximum(diagonal, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.where(scale > 0.0, 1.0 / scale, 0.0)
    normalized = matrix * inverse[:, None] * inverse[None, :]
    # Keep exact ones on the diagonal where the self-similarity was positive.
    np.fill_diagonal(normalized, np.where(diagonal > 0.0, 1.0, 0.0))
    return normalized


def is_positive_semidefinite(matrix: np.ndarray, tolerance: float = _PSD_TOLERANCE) -> bool:
    """Whether the symmetric matrix has no eigenvalue below ``-tolerance``."""
    eigenvalues = np.linalg.eigvalsh(_symmetric(matrix))
    return bool(eigenvalues.min() >= -tolerance)


def clip_negative_eigenvalues(matrix: np.ndarray, tolerance: float = 0.0) -> np.ndarray:
    """Replace negative eigenvalues by zero and rebuild the matrix.

    This is the repair step named in the paper.  The result is the closest
    positive semidefinite matrix in Frobenius norm among those sharing the
    input's eigenvectors.
    """
    return _rebuild_clipped(*_symmetric_eigh(matrix), tolerance)


def psd_repair(matrix: np.ndarray) -> Optional[np.ndarray]:
    """:func:`clip_negative_eigenvalues` of *matrix*, or ``None`` when it needs none.

    ``None`` means the smallest eigenvalue of the symmetrised matrix, as
    ``np.linalg.eigh`` computes it, is at least ``-_PSD_TOLERANCE`` — the
    decision one ``eigh`` used to make alone.  Eigenvalues only
    (``eigvalsh``) cost a fraction of a full decomposition, so they decide
    first: a smallest eigenvalue clear of the tolerance by more than both
    routines' rounding error (:func:`_eigenvalue_margin`) needs no
    eigenvectors.  Inside that band, and for every repair, ``eigh`` decides
    and rebuilds exactly as before.
    """
    symmetric = _symmetric(matrix)
    if np.linalg.eigvalsh(symmetric).min() >= -_PSD_TOLERANCE + _eigenvalue_margin(symmetric):
        return None
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    if eigenvalues.min() >= -_PSD_TOLERANCE:
        return None
    return _rebuild_clipped(eigenvalues, eigenvectors, 0.0)


def _eigenvalue_margin(symmetric: np.ndarray) -> float:
    """A bound on how far two backward-stable eigenvalue routines can disagree.

    Each computed eigenvalue lies within ``O(n eps ||A||_2)`` of the exact
    one; ``64 n eps ||A||_F`` covers both routines with room to spare.
    """
    return 64.0 * symmetric.shape[0] * np.finfo(float).eps * float(np.linalg.norm(symmetric))


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    return 0.5 * (matrix + matrix.T)


def _symmetric_eigh(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_symmetric(matrix))


def _rebuild_clipped(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, tolerance: float
) -> np.ndarray:
    clipped = np.where(eigenvalues < tolerance, 0.0, eigenvalues)
    rebuilt = (eigenvectors * clipped) @ eigenvectors.T
    # Numerical noise can leave tiny asymmetries; symmetrise explicitly.
    return 0.5 * (rebuilt + rebuilt.T)


def nearest_psd_projection(matrix: np.ndarray, iterations: int = 100) -> np.ndarray:
    """Higham-style alternating projection onto the PSD cone with unit diagonal.

    Stronger than :func:`clip_negative_eigenvalues`: it also restores a unit
    diagonal, which is convenient when the repaired matrix should remain a
    normalised similarity.  Used by the ablation benchmark.
    """
    current = np.asarray(matrix, dtype=float).copy()
    for _ in range(max(1, iterations)):
        current = clip_negative_eigenvalues(current)
        np.fill_diagonal(current, 1.0)
        if is_positive_semidefinite(current, tolerance=1e-12):
            break
    return current


def center_kernel_matrix(matrix: np.ndarray) -> np.ndarray:
    """Double-centre a kernel matrix (required by Kernel PCA).

    ``K_c = K - 1_n K - K 1_n + 1_n K 1_n`` with ``1_n`` the constant
    ``1/n`` matrix (Schölkopf et al., 1997).
    """
    matrix = np.asarray(matrix, dtype=float)
    count = matrix.shape[0]
    if count == 0:
        return matrix.copy()
    ones = np.full((count, count), 1.0 / count)
    return matrix - ones @ matrix - matrix @ ones + ones @ matrix @ ones
