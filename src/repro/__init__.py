"""repro — weighted-string representation and Kast Spectrum Kernel for I/O access patterns.

Reproduction of Torres, Kunkel, Dolz & Ludwig, "A Novel String Representation
and Kernel Function for the Comparison of I/O Access Patterns" (PaCT 2017).

The package is organised bottom-up:

* :mod:`repro.traces` — trace data model, parser, mutation engine;
* :mod:`repro.tree` — containment trees and the compaction rules;
* :mod:`repro.strings` — weighted tokens / strings and the tree flattening;
* :mod:`repro.core` — the Kast Spectrum Kernel and kernel-matrix machinery;
* :mod:`repro.kernels` — baseline kernels (spectrum, blended, bag, vector);
* :mod:`repro.learn` — Kernel PCA, hierarchical clustering, kernel k-means,
  cluster metrics;
* :mod:`repro.workloads` — synthetic FLASH-IO / IOR workload generators and
  the 110-example evaluation corpus;
* :mod:`repro.pipeline` — end-to-end experiments, sweeps, reports;
* :mod:`repro.viz` — ASCII scatter plots and dendrograms;
* :mod:`repro.cli` — the ``repro-iokast`` command-line interface.

Quick start::

    from repro import AnalysisSession, make_spec, trace_to_string, parse_trace

    trace_a = parse_trace(open("a.trace").read(), name="a")
    trace_b = parse_trace(open("b.trace").read(), name="b")
    string_a = trace_to_string(trace_a)
    string_b = trace_to_string(trace_b)
    with AnalysisSession() as session:
        similarity = session.normalized_value(make_spec("kast", cut_weight=2), string_a, string_b)
"""

from repro.api import (
    AnalysisSession,
    KernelSpec,
    kernel_choices,
    kernel_from_spec,
    make_spec,
    register_kernel,
    spec_from_kernel,
)
from repro.core.kast import KastSpectrumKernel, kast_kernel_value
from repro.core.matrix import KernelMatrix
from repro.kernels.bag import BagOfCharactersKernel, BagOfWordsKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.kernels.spectrum import SpectrumKernel
from repro.learn.hierarchical import HierarchicalClustering, cluster_kernel_matrix
from repro.learn.kpca import KernelPCA, kernel_pca_embedding
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline, AnalysisResult, run_experiment
from repro.strings.encoder import StringEncoder, trace_to_string
from repro.strings.tokens import Token, WeightedString
from repro.traces.model import IOOperation, IOTrace
from repro.traces.parser import parse_trace, parse_trace_file
from repro.tree.builder import build_tree
from repro.tree.compaction import CompactionConfig, compact_tree
from repro.workloads.corpus import CorpusConfig, build_corpus

__version__ = "1.0.0"

__all__ = [
    "AnalysisSession",
    "KernelSpec",
    "kernel_choices",
    "kernel_from_spec",
    "make_spec",
    "register_kernel",
    "spec_from_kernel",
    "KastSpectrumKernel",
    "kast_kernel_value",
    "KernelMatrix",
    "BagOfCharactersKernel",
    "BagOfWordsKernel",
    "BlendedSpectrumKernel",
    "SpectrumKernel",
    "HierarchicalClustering",
    "cluster_kernel_matrix",
    "KernelPCA",
    "kernel_pca_embedding",
    "ExperimentConfig",
    "AnalysisPipeline",
    "AnalysisResult",
    "run_experiment",
    "StringEncoder",
    "trace_to_string",
    "Token",
    "WeightedString",
    "IOOperation",
    "IOTrace",
    "parse_trace",
    "parse_trace_file",
    "build_tree",
    "CompactionConfig",
    "compact_tree",
    "CorpusConfig",
    "build_corpus",
    "__version__",
]
