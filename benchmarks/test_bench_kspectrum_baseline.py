"""E8 — the plain k-spectrum kernel baseline.

Section 4.3: "Experimental evaluation showed also that the k-Spectrum kernel
was not successful at finding an acceptable clustering, a task where the
Blended Spectrum Kernel had a better performance", and both fall short of the
Kast kernel.

The benchmark times the k-spectrum kernel matrix + clustering on the full
corpus and asserts the ordering Kast >= blended >= k-spectrum on the
three-group target (with Kast strictly better than the k-spectrum baseline).
"""

from __future__ import annotations

from repro.learn.metrics import adjusted_rand_index
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import AnalysisPipeline
from repro.pipeline.report import cluster_report


def _ari_for(kernel_name: str, strings, n_clusters: int = 3) -> float:
    config = ExperimentConfig(
        spec=experiment_spec(kernel_name, cut_weight=2), n_clusters=n_clusters, linkage="single"
    )
    result = AnalysisPipeline(config).run_on_strings(strings)
    labels = [label or "?" for label in result.labels]
    merged = ["CD" if label in ("C", "D") else label for label in labels]
    return adjusted_rand_index(list(result.assignments), merged), result


def test_bench_kspectrum_baseline(benchmark, strings_with_bytes):
    config = ExperimentConfig(
        spec=experiment_spec("spectrum", spectrum_k=3), n_clusters=3, linkage="single"
    )
    pipeline = AnalysisPipeline(config)

    spectrum_result = benchmark.pedantic(lambda: pipeline.run_on_strings(strings_with_bytes), rounds=1, iterations=1)

    labels = [label or "?" for label in spectrum_result.labels]
    merged = ["CD" if label in ("C", "D") else label for label in labels]
    spectrum_ari = adjusted_rand_index(list(spectrum_result.assignments), merged)

    kast_ari, _ = _ari_for("kast", strings_with_bytes)
    blended_ari, _ = _ari_for("blended", strings_with_bytes)

    print()
    print("E8: baseline comparison on the three-group target (ARI, single linkage, cut weight 2)")
    print(f"  Kast spectrum kernel    : {kast_ari:.3f}   (paper: 3 groups, no misplacements)")
    print(f"  Blended spectrum kernel : {blended_ari:.3f}   (paper: only A separated)")
    print(f"  k-spectrum kernel       : {spectrum_ari:.3f}   (paper: not successful)")
    print()
    print("k-spectrum clustering composition:")
    print(cluster_report(spectrum_result))

    assert kast_ari == 1.0
    assert kast_ari > spectrum_ari
    assert blended_ari >= spectrum_ari
    assert not spectrum_result.matches_expected_partition()
