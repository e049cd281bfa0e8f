"""End-to-end experiment pipeline, parameter sweeps and canned experiments."""

from repro.pipeline.config import ExperimentConfig, experiment_spec
from repro.pipeline.experiments import (
    DEFAULT_SEED,
    experiment_cut_weight_sweep,
    experiment_fig6_kpca_kast,
    experiment_fig7_hclust_kast,
    experiment_fig8_kpca_blended,
    experiment_fig9_hclust_blended,
    experiment_kspectrum_baseline,
    experiment_nobytes_variant,
    experiment_worked_example,
    paper_corpus,
    paper_strings,
    worked_example_strings,
)
from repro.pipeline.pipeline import (
    PAPER_EXPECTED_PARTITION,
    AnalysisPipeline,
    AnalysisResult,
    run_experiment,
)
from repro.pipeline.report import cluster_report, format_table, summarise_result, summarise_sweep
from repro.pipeline.sweep import PAPER_CUT_WEIGHTS, SweepPoint, SweepResult, cut_weight_sweep

__all__ = [
    "ExperimentConfig",
    "experiment_spec",
    "DEFAULT_SEED",
    "experiment_cut_weight_sweep",
    "experiment_fig6_kpca_kast",
    "experiment_fig7_hclust_kast",
    "experiment_fig8_kpca_blended",
    "experiment_fig9_hclust_blended",
    "experiment_kspectrum_baseline",
    "experiment_nobytes_variant",
    "experiment_worked_example",
    "paper_corpus",
    "paper_strings",
    "worked_example_strings",
    "PAPER_EXPECTED_PARTITION",
    "AnalysisPipeline",
    "AnalysisResult",
    "run_experiment",
    "cluster_report",
    "format_table",
    "summarise_result",
    "summarise_sweep",
    "PAPER_CUT_WEIGHTS",
    "SweepPoint",
    "SweepResult",
    "cut_weight_sweep",
]
