"""Configuration objects for end-to-end experiments.

An :class:`ExperimentConfig` fixes every choice the paper's evaluation
varies: which kernel (a declarative :class:`~repro.api.spec.KernelSpec`),
whether byte information is kept, how many clusters to extract and with
which linkage, and how the corpus is built.  The pipeline
(:mod:`repro.pipeline.pipeline`) consumes it and the experiment registry
(:mod:`repro.pipeline.experiments`) provides the canned configurations
behind each figure of the paper.

The spec is the only kernel description the pipeline knows.  The paper's
cut weight is one parameter of it, and :data:`CUT_PARAMETERS` says which:
:func:`experiment_spec` builds the spec of a kernel kind from the CLI-level
knobs, and :meth:`ExperimentConfig.with_cut_weight` moves an existing spec
along the cut-weight grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.api.spec import KernelSpec, coerce_spec, make_spec
from repro.tree.compaction import CompactionConfig
from repro.workloads.corpus import CorpusConfig

__all__ = ["CUT_PARAMETERS", "ExperimentConfig", "experiment_spec"]

#: The spec parameter a cut weight sets, per kernel kind: the Kast kernel's
#: cut weight and the blended kernel's minimum occurrence weight.  The other
#: kinds have no equivalent and ignore it (which is also why the paper found
#: them hard to tune).
CUT_PARAMETERS = {"kast": "cut_weight", "blended": "min_weight"}


def _with_cut_weight(spec: KernelSpec, cut_weight: int) -> KernelSpec:
    parameter = CUT_PARAMETERS.get(spec.kind)
    return spec if parameter is None else spec.replace(**{parameter: cut_weight})


def experiment_spec(
    kind: str, cut_weight: int = 2, spectrum_k: int = 3, backend: str = "numpy"
) -> KernelSpec:
    """The canonical spec of kernel *kind* under the experiment-level knobs.

    *spectrum_k* bounds the substring length of the spectrum and blended
    baselines, which count occurrences unweighted as in the paper; *backend*
    is the Kast candidate search.  Other registered (non-composite) kinds
    take their registry defaults; unknown kinds raise through
    :func:`~repro.api.spec.make_spec`.
    """
    kind = kind.lower()
    if kind == "kast":
        spec = make_spec("kast", backend=backend)
    elif kind == "blended":
        spec = make_spec("blended", max_length=spectrum_k, weighted=False)
    elif kind == "spectrum":
        spec = make_spec("spectrum", k=spectrum_k, weighted=False)
    else:
        spec = make_spec(kind)
    return _with_cut_weight(spec, cut_weight)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one clustering experiment end to end."""

    #: The kernel (partial specs are completed with the registry defaults).
    spec: KernelSpec = make_spec("kast", cut_weight=2)
    #: Keep the byte information in the string representation (paper's main variant).
    use_byte_information: bool = True
    #: Emit [LEVEL_UP] tokens (ablation switch).
    emit_level_up: bool = True
    #: Tree compaction configuration (ablation switch).
    compaction: CompactionConfig = field(default_factory=CompactionConfig.paper)
    #: Corpus construction parameters.
    corpus: CorpusConfig = field(default_factory=CorpusConfig.paper)
    #: Number of kernel principal components to compute.
    n_components: int = 2
    #: Number of flat clusters to extract from the dendrogram.
    n_clusters: int = 3
    #: Linkage method for hierarchical clustering (paper uses single linkage).
    linkage: str = "single"

    def __post_init__(self) -> None:
        object.__setattr__(self, "spec", coerce_spec(self.spec))

    def with_cut_weight(self, cut_weight: int) -> "ExperimentConfig":
        """Copy of this configuration with a different cut weight (see :data:`CUT_PARAMETERS`)."""
        return replace(self, spec=_with_cut_weight(self.spec, cut_weight))

    def without_byte_information(self) -> "ExperimentConfig":
        """Copy of this configuration using the byte-free string variant."""
        return replace(self, use_byte_information=False)

    def describe(self) -> str:
        """Short human-readable summary used in reports."""
        byte_text = "bytes" if self.use_byte_information else "no-bytes"
        parameter = CUT_PARAMETERS.get(self.spec.kind)
        cut_text = "" if parameter is None else f" cut_weight={self.spec.get(parameter)}"
        return (
            f"kernel={self.spec.kind}{cut_text} {byte_text} "
            f"linkage={self.linkage} clusters={self.n_clusters}"
        )
