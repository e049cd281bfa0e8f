"""Core contribution: the Kast Spectrum Kernel and kernel-matrix machinery.

* :mod:`repro.core.kast` — the kernel itself;
* :mod:`repro.core.features` — inspectable pairwise embeddings;
* :mod:`repro.core.matrix` — labelled kernel matrices over corpora;
* :mod:`repro.core.engine` — the Gram-matrix evaluation engine (pair
  caching, block-batched evaluation, stamped matrix payloads);
* :mod:`repro.core.pairstore` — the persistent content-addressed store of
  individual kernel pair values shared across sessions and processes;
* :mod:`repro.core.normalization` — cosine normalisation, centring and the
  negative-eigenvalue repair used in section 4.1 of the paper.
"""

from repro.core.engine import GramEngine
from repro.core.features import KastEmbedding, KastFeature, Occurrence
from repro.core.kast import KAST_BACKENDS, KastSpectrumKernel, kast_kernel_value
from repro.core.matrix import KernelMatrix
from repro.core.pairstore import PairStore
from repro.core.normalization import (
    center_kernel_matrix,
    clip_negative_eigenvalues,
    cosine_normalize,
    is_positive_semidefinite,
    nearest_psd_projection,
)

__all__ = [
    "GramEngine",
    "KastEmbedding",
    "KastFeature",
    "Occurrence",
    "KAST_BACKENDS",
    "KastSpectrumKernel",
    "kast_kernel_value",
    "KernelMatrix",
    "PairStore",
    "center_kernel_matrix",
    "clip_negative_eigenvalues",
    "cosine_normalize",
    "is_positive_semidefinite",
    "nearest_psd_projection",
]
