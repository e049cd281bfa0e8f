"""Tests for experiment configuration (repro.pipeline.config)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import KernelSpec, kernel_choices, kernel_from_spec, make_spec
from repro.core.kast import KastSpectrumKernel
from repro.kernels.bag import BagOfCharactersKernel, BagOfWordsKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.kernels.spectrum import SpectrumKernel
from repro.pipeline.config import ExperimentConfig, experiment_spec


def kernel_for(kind, **knobs):
    return kernel_from_spec(experiment_spec(kind, **knobs))


class TestMakeKernel:
    """Kernels built from :func:`experiment_spec`, the CLI's kernel flags."""

    def test_all_kernel_choices_constructible(self):
        for kind in kernel_choices():
            kernel = kernel_for(kind, cut_weight=4)
            assert hasattr(kernel, "value")

    def test_kast_gets_cut_weight(self):
        kernel = kernel_for("kast", cut_weight=8)
        assert isinstance(kernel, KastSpectrumKernel)
        assert kernel.cut_weight == 8

    def test_blended_gets_min_weight_and_k(self):
        kernel = kernel_for("blended", cut_weight=4, spectrum_k=5)
        assert isinstance(kernel, BlendedSpectrumKernel)
        assert kernel.min_weight == 4
        assert kernel.max_length == 5

    def test_spectrum_and_bags(self):
        assert isinstance(kernel_for("spectrum"), SpectrumKernel)
        assert isinstance(kernel_for("bag-of-characters"), BagOfCharactersKernel)
        assert isinstance(kernel_for("bag-of-words"), BagOfWordsKernel)

    def test_case_insensitive(self):
        assert isinstance(kernel_for("KAST"), KastSpectrumKernel)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_for("transformer")


class TestExperimentConfig:
    def test_defaults_match_paper_main_setting(self):
        config = ExperimentConfig()
        assert config.spec == make_spec("kast", cut_weight=2)
        assert config.use_byte_information
        assert config.linkage == "single"
        assert config.n_clusters == 3

    def test_build_kernel(self):
        assert isinstance(kernel_from_spec(ExperimentConfig().spec), KastSpectrumKernel)
        blended = ExperimentConfig(spec=experiment_spec("blended"))
        assert isinstance(kernel_from_spec(blended.spec), BlendedSpectrumKernel)

    def test_partial_spec_is_completed(self):
        assert ExperimentConfig(spec=KernelSpec("blended")).spec == make_spec("blended")
        assert ExperimentConfig(spec=make_spec("kast").replace(cut_weight=8)).spec.get("backend") == "numpy"

    def test_with_cut_weight_returns_new_config(self):
        base = ExperimentConfig()
        changed = base.with_cut_weight(64)
        assert changed.spec == make_spec("kast", cut_weight=64)
        assert base.spec == make_spec("kast", cut_weight=2)

    def test_with_cut_weight_sets_the_kinds_cut_parameter(self):
        blended = ExperimentConfig(spec=make_spec("blended", decay=0.5)).with_cut_weight(8)
        assert blended.spec == make_spec("blended", decay=0.5, min_weight=8)
        flagged = ExperimentConfig(spec=make_spec("kast", filter_tokens_below_cut=True)).with_cut_weight(8)
        assert flagged.spec == make_spec("kast", filter_tokens_below_cut=True, cut_weight=8)
        # Kinds without a cut parameter (composites included) keep their spec.
        for spec in (make_spec("spectrum"), make_spec("sum", children=[make_spec("kast")])):
            assert ExperimentConfig(spec=spec).with_cut_weight(8).spec == spec

    def test_with_kernel_and_without_bytes(self):
        config = replace(ExperimentConfig(), spec=make_spec("blended")).without_byte_information()
        assert config.spec.kind == "blended"
        assert not config.use_byte_information

    def test_describe_mentions_key_settings(self):
        text = ExperimentConfig(spec=experiment_spec("blended", cut_weight=16)).describe()
        assert "blended" in text
        assert "16" in text
        assert "bytes" in text

    def test_describe_names_a_cut_weight_only_where_the_kind_has_one(self):
        assert ExperimentConfig().describe() == "kernel=kast cut_weight=2 bytes linkage=single clusters=3"
        spectrum = ExperimentConfig(spec=experiment_spec("spectrum"), n_clusters=2).without_byte_information()
        assert spectrum.describe() == "kernel=spectrum no-bytes linkage=single clusters=2"


class TestExperimentSpec:
    def test_matches_the_registry_spec_of_each_kind(self):
        assert experiment_spec("kast", cut_weight=4, backend="python") == make_spec(
            "kast", cut_weight=4, backend="python"
        )
        assert experiment_spec("blended", cut_weight=4, spectrum_k=5) == make_spec(
            "blended", max_length=5, weighted=False, min_weight=4
        )
        assert experiment_spec("spectrum", cut_weight=4, spectrum_k=5) == make_spec(
            "spectrum", k=5, weighted=False
        )
        assert experiment_spec("bag-of-words", cut_weight=4) == make_spec("bag-of-words")

    def test_backend_only_reaches_the_kast_kernel(self):
        assert experiment_spec("blended", backend="python") == experiment_spec("blended")
