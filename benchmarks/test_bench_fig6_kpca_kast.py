"""E2 / Figure 6 — Kernel PCA of the Kast Spectrum Kernel matrix (byte info, cut weight 2).

Paper claim: the 2-D Kernel PCA embedding of the Kast kernel matrix shows
three clearly separated groups — Flash I/O (A), Random POSIX I/O (B) and the
merged Normal / Random Access group (C-D) — with no example sitting inside a
foreign group.

The benchmark times the kernel-matrix computation plus the Kernel PCA fit on
the full 110-example corpus and then checks the group separation numerically:
each category centroid pair must be farther apart than the internal scatter
of the categories involved (except C vs D, which the paper expects to overlap).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import GramEngine
from repro.core.kast import KastSpectrumKernel
from repro.learn.kpca import KernelPCA
from repro.viz.scatter import ascii_scatter

CUT_WEIGHT = 2


def _fit(strings):
    matrix = GramEngine(KastSpectrumKernel(cut_weight=CUT_WEIGHT)).compute(strings)
    return matrix, KernelPCA(n_components=2).fit(matrix)


def test_bench_fig6_kpca_kast(benchmark, strings_with_bytes):
    matrix, kpca = benchmark.pedantic(lambda: _fit(strings_with_bytes), rounds=1, iterations=1)

    labels = np.array([label or "?" for label in matrix.labels])
    embedding = kpca.embedding

    print()
    print("E2 / Figure 6: Kernel PCA of the Kast kernel matrix (cut weight 2, byte info)")
    print(ascii_scatter(embedding[:, 0], embedding[:, 1], labels=list(labels), width=70, height=20))

    def centroid(category):
        return embedding[labels == category].mean(axis=0)

    def scatter(category):
        points = embedding[labels == category]
        return float(np.linalg.norm(points - points.mean(axis=0), axis=1).mean())

    separations = {}
    for first, second in (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")):
        distance = float(np.linalg.norm(centroid(first) - centroid(second)))
        spread = max(scatter(first), scatter(second))
        separations[(first, second)] = distance / spread if spread > 0 else float("inf")
    cd_distance = float(np.linalg.norm(centroid("C") - centroid("D")))
    cd_spread = max(scatter("C"), scatter("D"), 1e-12)

    print("  centroid separation / within-group scatter:")
    for pair, ratio in separations.items():
        print(f"    {pair[0]} vs {pair[1]}: {ratio:.2f}")
    print(f"    C vs D: {cd_distance / cd_spread:.2f}  (paper: C and D overlap)")

    # Paper shape: A and B separate from everything; C and D overlap.
    assert all(ratio > 1.5 for ratio in separations.values())
    assert cd_distance / cd_spread < 1.5
    # The explained variance of the two leading components should dominate.
    assert kpca.explained_variance_ratio[0] > kpca.explained_variance_ratio[1] > 0.0
