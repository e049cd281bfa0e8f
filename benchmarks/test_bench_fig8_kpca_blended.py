"""E4 / Figure 8 — Kernel PCA of the Blended Spectrum Kernel matrix (byte info, cut weight 2).

Paper claim (section 4.3): with the blended spectrum baseline "only Flash I/O
(A) examples were independently separated, while Random POSIX I/O, Normal I/O
and Random Access I/O (B-C-D) conformed a single group" — i.e. the baseline's
embedding is strictly less informative than the Kast kernel's (Figure 6).

The benchmark times the blended kernel matrix + Kernel PCA on the full corpus
and asserts that shape: A separates, but B does not separate from C/D as it
does under the Kast kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.learn.kpca import KernelPCA
from repro.viz.scatter import ascii_scatter

CUT_WEIGHT = 2


def _fit(strings, kernel):
    matrix = GramEngine(kernel).compute(strings)
    return matrix, KernelPCA(n_components=2).fit(matrix)


def _separation(embedding, labels, first, second):
    def centroid(category):
        return embedding[labels == category].mean(axis=0)

    def scatter(category):
        points = embedding[labels == category]
        return float(np.linalg.norm(points - points.mean(axis=0), axis=1).mean())

    distance = float(np.linalg.norm(centroid(first) - centroid(second)))
    spread = max(scatter(first), scatter(second), 1e-12)
    return distance / spread


def _group_statistics(matrix, embedding, labels):
    """Embedding- and similarity-level separation statistics for one kernel."""
    values = matrix.values
    a_mask = labels == "A"
    b_mask = labels == "B"
    cd_mask = (labels == "C") | (labels == "D")
    off_diagonal = ~np.eye(int(cd_mask.sum()), dtype=bool)

    centroid_b = embedding[b_mask].mean(axis=0)
    centroid_cd = embedding[cd_mask].mean(axis=0)
    centroid_a = embedding[a_mask].mean(axis=0)
    centroid_rest = embedding[~a_mask].mean(axis=0)

    return {
        # How far B sits from the C/D group, relative to how far A sits from everyone.
        "embedding_b_vs_a_ratio": float(
            np.linalg.norm(centroid_b - centroid_cd) / np.linalg.norm(centroid_a - centroid_rest)
        ),
        # Mean similarity between B and C/D, relative to the C/D internal similarity.
        "similarity_b_cd_ratio": float(
            values[np.ix_(b_mask, cd_mask)].mean() / values[np.ix_(cd_mask, cd_mask)][off_diagonal].mean()
        ),
        # Mean similarity of A to everything else (A's isolation).
        "similarity_a_rest": float(values[np.ix_(a_mask, ~a_mask)].mean()),
    }


def test_bench_fig8_kpca_blended(benchmark, strings_with_bytes):
    blended = BlendedSpectrumKernel(max_length=3, weighted=False, min_weight=CUT_WEIGHT)

    matrix, kpca = benchmark.pedantic(lambda: _fit(strings_with_bytes, blended), rounds=1, iterations=1)

    labels = np.array([label or "?" for label in matrix.labels])
    embedding = kpca.embedding

    print()
    print("E4 / Figure 8: Kernel PCA of the Blended Spectrum kernel matrix (cut weight 2, byte info)")
    print(ascii_scatter(embedding[:, 0], embedding[:, 1], labels=list(labels), width=70, height=20))

    blended_a_separation = min(_separation(embedding, labels, "A", other) for other in ("B", "C", "D"))
    blended_stats = _group_statistics(matrix, embedding, labels)

    # Reference: the same quantities under the Kast kernel (Figure 6).
    kast_matrix, kast_kpca = _fit(strings_with_bytes, KastSpectrumKernel(cut_weight=CUT_WEIGHT))
    kast_stats = _group_statistics(kast_matrix, kast_kpca.embedding, labels)

    print(f"  A vs rest centroid separation (blended)        : {blended_a_separation:.2f}  (paper: A separated)")
    print(f"  mean sim(A, rest) (blended)                    : {blended_stats['similarity_a_rest']:.3f}")
    print(f"  sim(B, C/D) / within-C/D sim  blended vs Kast  : "
          f"{blended_stats['similarity_b_cd_ratio']:.2f} vs {kast_stats['similarity_b_cd_ratio']:.2f}  "
          "(paper: B merges with C/D only under the baseline)")
    print(f"  d(B, C/D) / d(A, rest)        blended vs Kast  : "
          f"{blended_stats['embedding_b_vs_a_ratio']:.2f} vs {kast_stats['embedding_b_vs_a_ratio']:.2f}")

    # Paper shape: A still separates under the baseline...
    assert blended_a_separation > 1.5
    assert blended_stats["similarity_a_rest"] < 0.5
    # ...but B blends into the C/D group: its similarity to C/D is of the same
    # order as the C/D internal similarity, unlike under the Kast kernel.
    assert blended_stats["similarity_b_cd_ratio"] > 0.5
    assert kast_stats["similarity_b_cd_ratio"] < 0.2
    # And relative to how far A sits, B is much closer to C/D than under Kast.
    assert blended_stats["embedding_b_vs_a_ratio"] < kast_stats["embedding_b_vs_a_ratio"]
