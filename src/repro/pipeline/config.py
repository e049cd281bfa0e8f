"""Configuration objects for end-to-end experiments.

An :class:`ExperimentConfig` fixes every choice the paper's evaluation
varies: which kernel, which cut weight, whether byte information is kept,
how many clusters to extract and with which linkage, and how the corpus is
built.  The pipeline (:mod:`repro.pipeline.pipeline`) consumes it and the
experiment registry (:mod:`repro.pipeline.experiments`) provides the canned
configurations behind each figure of the paper.

Kernel construction is delegated to the declarative spec registry
(:mod:`repro.api.spec`): :meth:`ExperimentConfig.kernel_spec` maps the
experiment knobs onto the configured kernel kind's canonical
:class:`~repro.api.spec.KernelSpec`, and :meth:`ExperimentConfig.build_kernel`
instantiates it through :func:`~repro.api.spec.kernel_from_spec`.  The
legacy :func:`make_kernel` helper remains as a thin deprecated shim over the
same path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.api.spec import KernelSpec, kernel_choices, kernel_from_spec, make_spec
from repro.core.kast import KAST_BACKENDS
from repro.kernels.base import StringKernel
from repro.strings.interner import TokenInterner
from repro.tree.compaction import CompactionConfig
from repro.workloads.corpus import CorpusConfig

__all__ = ["ExperimentConfig", "make_kernel", "config_from_spec", "KERNEL_CHOICES"]

#: Kernel identifiers accepted by the experiment configuration and the CLI.
#: An import-time snapshot of :func:`repro.api.kernel_choices` kept for
#: backwards compatibility — code that must see kinds registered *after*
#: import (plugins) should call ``kernel_choices()`` directly, as the CLI
#: parser and :func:`config_from_spec` do.
KERNEL_CHOICES = kernel_choices()


def _spec_for(
    kind: str,
    cut_weight: int = 2,
    spectrum_k: int = 3,
    blended_weighted: bool = False,
    backend: str = "numpy",
) -> KernelSpec:
    """Map the experiment-level knobs onto one kind's canonical spec.

    The cut weight maps onto each kernel's natural "granularity" parameter:
    it is the Kast kernel's cut weight and the blended kernel's minimum
    occurrence weight; the plain spectrum and bag kernels have no equivalent
    and ignore it (which is also why the paper found them hard to tune).
    """
    kind = kind.lower()
    if kind == "kast":
        return make_spec("kast", cut_weight=cut_weight, backend=backend)
    if kind == "blended":
        return make_spec("blended", max_length=spectrum_k, weighted=blended_weighted, min_weight=cut_weight)
    if kind == "spectrum":
        return make_spec("spectrum", k=spectrum_k, weighted=blended_weighted)
    # Remaining (non-composite) registered kinds take their registry
    # defaults; unknown kinds raise through make_spec.
    return make_spec(kind)


def make_kernel(
    kind: str,
    cut_weight: int = 2,
    spectrum_k: int = 3,
    blended_weighted: bool = False,
    backend: str = "numpy",
    interner: Optional[TokenInterner] = None,
) -> StringKernel:
    """Deprecated shim: instantiate the kernel named *kind*.

    .. deprecated::
        Use :func:`repro.api.make_spec` + :func:`repro.api.kernel_from_spec`
        (or an :class:`~repro.api.session.AnalysisSession`) instead; this
        wrapper survives only for pre-registry callers and simply delegates
        to the spec registry.
    """
    warnings.warn(
        "make_kernel is deprecated; build a KernelSpec via repro.api.make_spec and "
        "instantiate it with repro.api.kernel_from_spec (or use AnalysisSession)",
        DeprecationWarning,
        stacklevel=2,
    )
    spec = _spec_for(
        kind,
        cut_weight=cut_weight,
        spectrum_k=spectrum_k,
        blended_weighted=blended_weighted,
        backend=backend,
    )
    return kernel_from_spec(spec, interner=interner)


def config_from_spec(spec: KernelSpec, base: Optional["ExperimentConfig"] = None) -> "ExperimentConfig":
    """Experiment configuration whose kernel knobs realise *spec* exactly.

    The inverse of :meth:`ExperimentConfig.kernel_spec` for the user-facing
    kernel kinds.  Specs the experiment knobs cannot express faithfully —
    composite specs, or parameters with no config equivalent set to
    non-default values (e.g. the blended kernel's ``decay``, the Kast
    kernel's ablation flags) — are rejected rather than silently altered;
    run those through an :class:`~repro.api.session.AnalysisSession`
    instead.
    """
    base = base if base is not None else ExperimentConfig()
    kind = spec.kind
    if spec.children:
        raise ValueError(
            f"composite kernel spec {spec.kind!r} cannot be expressed as an ExperimentConfig; "
            "use AnalysisSession.matrix with the spec directly"
        )
    if kind == "kast":
        config = replace(
            base,
            kernel="kast",
            cut_weight=int(spec.get("cut_weight", 2)),
            backend=str(spec.get("backend", "numpy")),
        )
    elif kind == "blended":
        config = replace(
            base,
            kernel="blended",
            cut_weight=int(spec.get("min_weight", 1)),
            spectrum_k=int(spec.get("max_length", 3)),
            blended_weighted=bool(spec.get("weighted", True)),
        )
    elif kind == "spectrum":
        config = replace(
            base,
            kernel="spectrum",
            spectrum_k=int(spec.get("k", 3)),
            blended_weighted=bool(spec.get("weighted", True)),
        )
    elif kind in kernel_choices():
        config = replace(base, kernel=kind)
    else:
        raise ValueError(f"kernel kind {kind!r} is not an experiment-level choice {kernel_choices()}")
    # Round-trip check: the configuration must reproduce the canonical spec,
    # otherwise the spec carries values the experiment knobs cannot express.
    canonical = make_spec(kind, **spec.params_dict)
    realised = config.kernel_spec()
    if realised != canonical:
        dropped = sorted(set(canonical.params) - set(realised.params))
        raise ValueError(
            f"spec parameters {[name for name, _ in dropped]} of kind {kind!r} have no "
            "ExperimentConfig equivalent; use AnalysisSession with the spec directly"
        )
    return config


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one clustering experiment end to end."""

    #: Kernel identifier (see :data:`KERNEL_CHOICES`).
    kernel: str = "kast"
    #: Cut weight (Kast) / minimum occurrence weight (blended).
    cut_weight: int = 2
    #: Substring length bound for the spectrum/blended baselines.
    spectrum_k: int = 3
    #: Whether the blended/spectrum baselines weight occurrences by token weight.
    blended_weighted: bool = False
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
    #: Candidate-search backend for the Kast kernel (see :data:`KAST_BACKENDS`).
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.backend not in KAST_BACKENDS:
            raise ValueError(f"backend must be one of {KAST_BACKENDS}, got {self.backend!r}")

    def kernel_spec(self) -> KernelSpec:
        """The canonical :class:`~repro.api.spec.KernelSpec` of this configuration.

        This is the single source of truth for kernel construction, engine
        persistence signatures and block-worker reconstruction.
        """
        return _spec_for(
            self.kernel,
            cut_weight=self.cut_weight,
            spectrum_k=self.spectrum_k,
            blended_weighted=self.blended_weighted,
            backend=self.backend,
        )

    def build_kernel(self, interner: Optional[TokenInterner] = None) -> StringKernel:
        """Instantiate the configured kernel through the spec registry.

        *interner* (Kast kernel only) lets callers share one token-id space
        across several kernels — the cut-weight sweep uses this so prepared
        string encodings carry over between sweep points.
        """
        return kernel_from_spec(self.kernel_spec(), interner=interner)

    def with_cut_weight(self, cut_weight: int) -> "ExperimentConfig":
        """Copy of this configuration with a different cut weight."""
        return replace(self, cut_weight=cut_weight)

    def with_kernel(self, kernel: str) -> "ExperimentConfig":
        """Copy of this configuration with a different kernel."""
        return replace(self, kernel=kernel)

    def with_backend(self, backend: str) -> "ExperimentConfig":
        """Copy of this configuration with a different Kast search backend."""
        return replace(self, backend=backend)

    def without_byte_information(self) -> "ExperimentConfig":
        """Copy of this configuration using the byte-free string variant."""
        return replace(self, use_byte_information=False)

    def describe(self) -> str:
        """Short human-readable summary used in reports."""
        byte_text = "bytes" if self.use_byte_information else "no-bytes"
        return (
            f"kernel={self.kernel} cut_weight={self.cut_weight} {byte_text} "
            f"linkage={self.linkage} clusters={self.n_clusters}"
        )
