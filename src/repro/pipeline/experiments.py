"""Canned experiments: one function per figure / claim of the paper.

Each ``experiment_*`` function reproduces one row of the per-experiment index
in DESIGN.md and returns the full :class:`~repro.pipeline.pipeline.AnalysisResult`
(or sweep result), so the benchmark harness, EXPERIMENTS.md and the examples
all share the same code path.

The corpus and its string encodings are cached per (seed, byte-info) pair:
the paper evaluates many kernels and cut weights on the *same* 110 examples,
and recomputing them for every benchmark would only add noise to the timing
measurements.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.kast import KastSpectrumKernel
from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.pipeline import PAPER_EXPECTED_PARTITION, AnalysisPipeline, AnalysisResult
from repro.pipeline.sweep import PAPER_CUT_WEIGHTS, SweepResult, cut_weight_sweep
from repro.strings.tokens import WeightedString
from repro.traces.model import IOTrace
from repro.workloads.corpus import CorpusConfig, build_corpus

__all__ = [
    "paper_corpus",
    "paper_strings",
    "worked_example_strings",
    "experiment_worked_example",
    "experiment_fig6_kpca_kast",
    "experiment_fig7_hclust_kast",
    "experiment_fig8_kpca_blended",
    "experiment_fig9_hclust_blended",
    "experiment_nobytes_variant",
    "experiment_cut_weight_sweep",
    "experiment_kspectrum_baseline",
    "DEFAULT_SEED",
]

#: Seed used by every canned experiment (any value works; this one is the
#: paper's publication year for memorability).
DEFAULT_SEED = 2017


# ----------------------------------------------------------------------
# Shared corpus / encoding caches
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def paper_corpus(seed: int = DEFAULT_SEED) -> Tuple[IOTrace, ...]:
    """The 110-example corpus of section 4.1 (cached per seed)."""
    return tuple(build_corpus(CorpusConfig.paper(seed=seed)))


@lru_cache(maxsize=16)
def paper_strings(seed: int = DEFAULT_SEED, use_byte_information: bool = True) -> Tuple[WeightedString, ...]:
    """The corpus encoded as weighted strings (cached per seed and byte switch)."""
    config = ExperimentConfig(
        use_byte_information=use_byte_information,
        corpus=CorpusConfig.paper(seed=seed),
    )
    pipeline = AnalysisPipeline(config)
    return tuple(pipeline.encode(list(paper_corpus(seed))))


def _run(config: ExperimentConfig, seed: int) -> AnalysisResult:
    strings = paper_strings(seed, config.use_byte_information)
    return AnalysisPipeline(config).run_on_strings(list(strings))


# ----------------------------------------------------------------------
# E1 — the worked example of section 3.2
# ----------------------------------------------------------------------
def worked_example_strings() -> Tuple[WeightedString, WeightedString]:
    """Two weighted strings reproducing the quantities of the paper's worked example.

    The published figures (Figs. 3-5) with the exact token sequences of
    strings A and B are not included in the available text, so the
    reproduction constructs a pair realising every number the text does
    give for a cut weight of 4:

    * ``weight_{w>=4}(A) = 64`` and ``weight_{w>=4}(B) = 52`` (Eqs. 1-2);
    * exactly three shared substrings S1, S2, S3 (Figs. 3-5), where S1 has
      one occurrence in A and two in B, S2 has two occurrences in each
      string and S3 has a nested occurrence inside S1 plus an independent
      one;
    * per-string feature weights ``{19, 13, 15}`` and ``{35, 11, 14}``
      (Eqs. 3-10);
    * raw kernel value 1018 (Eq. 11) and normalised value
      ``1018 / (64 * 52) = 0.3059`` (Eq. 13).

    S1 is the three-token substring ``read[64] write[32] read[16]``, S2 is
    ``lseek[0] write[8]`` and S3 is the single token ``write[32]`` (which
    also occurs inside S1, exactly the nesting the example needs: its
    appearance inside B's second S1 occurrence has weight 3, below the cut,
    and therefore does not count).
    """
    string_a = WeightedString.parse(
        "open[0]:16 read[64]:6 write[32]:9 read[16]:4 stat[0]:15 "
        "lseek[0]:4 write[8]:3 flush[0]:2 lseek[0]:2 write[8]:4 close[0]:1 write[32]:6",
        name="example_A",
    )
    string_b = WeightedString.parse(
        "truncate[0]:6 read[64]:5 write[32]:8 read[16]:4 append[0]:3 lseek[0]:4 write[8]:2 "
        "rewind[0]:2 read[64]:7 write[32]:3 read[16]:8 fsync[0]:1 lseek[0]:1 write[8]:4 "
        "readv[0]:2 write[32]:6",
        name="example_B",
    )
    return string_a, string_b


def experiment_worked_example() -> Dict[str, object]:
    """E1: evaluate the Kast kernel on the worked-example pair (cut weight 4)."""
    string_a, string_b = worked_example_strings()
    kernel = KastSpectrumKernel(cut_weight=4, normalization="weight")
    embedding = kernel.embed(string_a, string_b)
    return {
        "weight_a": float(kernel.string_weight(string_a)),
        "weight_b": float(kernel.string_weight(string_b)),
        "n_features": float(len(embedding)),
        "kernel_value": float(embedding.kernel_value),
        "normalized_value": kernel.normalized_value(string_a, string_b),
        "feature_weights_a": tuple(sorted(embedding.vector_a)),
        "feature_weights_b": tuple(sorted(embedding.vector_b)),
    }


# ----------------------------------------------------------------------
# E2-E5 — the four figures
# ----------------------------------------------------------------------
def experiment_fig6_kpca_kast(
    seed: int = DEFAULT_SEED, cut_weight: int = 2, backend: str = "numpy"
) -> AnalysisResult:
    """E2 / Figure 6: Kernel PCA of the Kast kernel matrix (byte info, cut weight 2)."""
    config = ExperimentConfig(
        spec=experiment_spec("kast", cut_weight=cut_weight, backend=backend),
        corpus=CorpusConfig.paper(seed=seed),
    )
    return _run(config, seed)


def experiment_fig7_hclust_kast(
    seed: int = DEFAULT_SEED, cut_weight: int = 2, backend: str = "numpy"
) -> AnalysisResult:
    """E3 / Figure 7: single-linkage clustering of the Kast kernel matrix."""
    config = ExperimentConfig(
        spec=experiment_spec("kast", cut_weight=cut_weight, backend=backend),
        n_clusters=3,
        linkage="single",
        corpus=CorpusConfig.paper(seed=seed),
    )
    return _run(config, seed)


def experiment_fig8_kpca_blended(
    seed: int = DEFAULT_SEED, cut_weight: int = 2, backend: str = "numpy"
) -> AnalysisResult:
    """E4 / Figure 8: Kernel PCA of the Blended Spectrum kernel matrix.

    *backend* is accepted for CLI uniformity; the blended kernel ignores it.
    """
    config = ExperimentConfig(
        spec=experiment_spec("blended", cut_weight=cut_weight), corpus=CorpusConfig.paper(seed=seed)
    )
    return _run(config, seed)


def experiment_fig9_hclust_blended(
    seed: int = DEFAULT_SEED, cut_weight: int = 2, n_clusters: int = 2, backend: str = "numpy"
) -> AnalysisResult:
    """E5 / Figure 9: single-linkage clustering of the Blended Spectrum kernel matrix.

    The paper reports only two meaningful groups for this baseline: Flash I/O
    (A) on its own and everything else together, hence the default cut at two
    clusters.
    """
    config = ExperimentConfig(
        spec=experiment_spec("blended", cut_weight=cut_weight),
        n_clusters=n_clusters,
        linkage="single",
        corpus=CorpusConfig.paper(seed=seed),
    )
    return _run(config, seed)


# ----------------------------------------------------------------------
# E6-E8 — textual claims
# ----------------------------------------------------------------------
def experiment_nobytes_variant(
    seed: int = DEFAULT_SEED,
    cut_weights: Tuple[int, ...] = PAPER_CUT_WEIGHTS,
    backend: str = "numpy",
) -> SweepResult:
    """E6: Kast kernel on byte-free strings across the cut-weight grid."""
    config = ExperimentConfig(
        spec=experiment_spec("kast", backend=backend),
        use_byte_information=False,
        n_clusters=3,
        corpus=CorpusConfig.paper(seed=seed),
    )
    strings = paper_strings(seed, use_byte_information=False)
    return cut_weight_sweep(config, cut_weights=cut_weights, strings=list(strings))


def experiment_cut_weight_sweep(
    seed: int = DEFAULT_SEED,
    cut_weights: Tuple[int, ...] = PAPER_CUT_WEIGHTS,
    backend: str = "numpy",
) -> SweepResult:
    """E7: Kast kernel on byte-carrying strings across the cut-weight grid."""
    config = ExperimentConfig(
        spec=experiment_spec("kast", backend=backend), n_clusters=3, corpus=CorpusConfig.paper(seed=seed)
    )
    strings = paper_strings(seed, use_byte_information=True)
    return cut_weight_sweep(config, cut_weights=cut_weights, strings=list(strings))


def experiment_kspectrum_baseline(seed: int = DEFAULT_SEED, k: int = 3) -> AnalysisResult:
    """E8: the plain k-spectrum kernel baseline the paper discards."""
    config = ExperimentConfig(
        spec=experiment_spec("spectrum", spectrum_k=k),
        n_clusters=3,
        corpus=CorpusConfig.paper(seed=seed),
    )
    return _run(config, seed)
