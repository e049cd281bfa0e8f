"""Parameter sweeps over the cut weight (and other experiment knobs).

Section 4.1: "The selected cut weight values were the following:
{2^1, 2^2, ..., 2^n} : n = 10."  The sweep utilities rerun the pipeline for
every cut weight on a *fixed* corpus and string encoding (so only the kernel
changes), collecting the clustering-quality metrics and the kernel-matrix
computation time.  They back experiments E6 and E7 in DESIGN.md:

* with byte information, small cut weights already give the three-group
  clustering and the cost grows as the cut weight shrinks;
* without byte information, small cut weights only separate category B and
  larger cut weights are needed to recover three groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import AnalysisSession
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline, AnalysisResult
from repro.strings.tokens import WeightedString
from repro.traces.model import IOTrace

__all__ = ["PAPER_CUT_WEIGHTS", "SweepPoint", "SweepResult", "cut_weight_sweep"]

#: The paper's cut-weight grid: powers of two from 2 to 1024.
PAPER_CUT_WEIGHTS: Tuple[int, ...] = tuple(2**exponent for exponent in range(1, 11))


@dataclass(frozen=True)
class SweepPoint:
    """Metrics collected for one cut weight."""

    cut_weight: int
    metrics: Dict[str, float]
    kernel_seconds: float
    n_clusters: int

    def metric(self, name: str) -> float:
        """Shortcut accessor for one metric value."""
        return self.metrics[name]


@dataclass
class SweepResult:
    """All sweep points plus the shared configuration."""

    config: ExperimentConfig
    points: List[SweepPoint] = field(default_factory=list)

    def cut_weights(self) -> List[int]:
        """The swept cut weights in order."""
        return [point.cut_weight for point in self.points]

    def series(self, metric: str) -> List[float]:
        """One metric across the sweep, in cut-weight order."""
        return [point.metrics[metric] for point in self.points]

    def best_point(self, metric: str = "adjusted_rand_index") -> SweepPoint:
        """The sweep point maximising *metric* (ties go to the larger cut weight)."""
        if not self.points:
            raise ValueError("sweep produced no points")
        return max(self.points, key=lambda point: (point.metrics[metric], point.cut_weight))

    def as_rows(self) -> List[Dict[str, float]]:
        """Flat rows (one dict per cut weight) for reports and benchmarks."""
        rows: List[Dict[str, float]] = []
        for point in self.points:
            row: Dict[str, float] = {"cut_weight": float(point.cut_weight), "kernel_seconds": point.kernel_seconds}
            row.update(point.metrics)
            rows.append(row)
        return rows


def cut_weight_sweep(
    base_config: Optional[ExperimentConfig] = None,
    cut_weights: Sequence[int] = PAPER_CUT_WEIGHTS,
    traces: Optional[Sequence[IOTrace]] = None,
    strings: Optional[Sequence[WeightedString]] = None,
    session: Optional[AnalysisSession] = None,
) -> SweepResult:
    """Run the pipeline once per cut weight and collect the metrics.

    The corpus and the string encoding are computed once and shared across
    all cut weights (only the kernel changes), matching how the paper's sweep
    is defined and keeping the comparison of computation times meaningful.

    Parameters
    ----------
    base_config:
        Experiment configuration; :meth:`ExperimentConfig.with_cut_weight`
        sets every value of *cut_weights* on its kernel spec.
    cut_weights:
        The grid to sweep (paper default: powers of two, 2..1024).
    traces:
        Optional pre-built corpus (so callers can reuse one corpus across
        several sweeps, e.g. byte-info on vs off).
    strings:
        Optional pre-encoded strings; takes precedence over *traces*.
    session:
        The :class:`~repro.api.session.AnalysisSession` every sweep point's
        matrix comes from (a fresh one by default).  Its kernels share one
        token interner, so the corpus is interned once for the whole sweep,
        and repeated or interleaved sweeps on one session reuse each
        other's pair caches.
    """
    base_config = base_config or ExperimentConfig()
    base_pipeline = AnalysisPipeline(base_config, session=session)

    if strings is None:
        trace_list = list(traces) if traces is not None else base_pipeline.build_traces()
        strings = base_pipeline.encode(trace_list)
    string_list = list(strings)

    result = SweepResult(config=base_config)
    for cut_weight in cut_weights:
        config = base_config.with_cut_weight(cut_weight)
        pipeline = AnalysisPipeline(config, session=base_pipeline.session)
        start = time.perf_counter()
        matrix = pipeline.compute_matrix(string_list)
        kernel_seconds = time.perf_counter() - start
        analysis: AnalysisResult = pipeline.analyse_matrix(matrix, string_list)
        result.points.append(
            SweepPoint(
                cut_weight=cut_weight,
                metrics=dict(analysis.metrics),
                kernel_seconds=kernel_seconds,
                n_clusters=int(analysis.metrics["n_clusters"]),
            )
        )
    return result
