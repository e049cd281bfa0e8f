"""Tests for the canned experiments (repro.pipeline.experiments).

These work on the reduced corpus implicitly through their caching seed, but a
couple of them exercise the full 110-example corpus because that *is* the
experiment; they are the slowest tests of the suite (a few seconds total).
"""

from __future__ import annotations

import pytest

from repro.api import make_spec
from repro.pipeline import experiments
from repro.pipeline.experiments import (
    experiment_fig7_hclust_kast,
    experiment_fig9_hclust_blended,
    experiment_worked_example,
    paper_corpus,
    paper_strings,
    worked_example_strings,
)
from repro.workloads.corpus import summarise_corpus_counts


class TestWorkedExample:
    def test_strings_have_expected_cut_filtered_weights(self):
        results = experiment_worked_example()
        assert results["weight_a"] == 64.0
        assert results["weight_b"] == 52.0

    def test_three_features_and_kernel_value(self):
        results = experiment_worked_example()
        assert results["n_features"] == 3.0
        assert results["kernel_value"] == 1018.0
        assert results["feature_weights_a"] == (13, 15, 19)
        assert results["feature_weights_b"] == (11, 14, 35)

    def test_normalised_value_rounds_to_paper_figure(self):
        results = experiment_worked_example()
        assert round(results["normalized_value"], 4) == 0.3059

    def test_worked_example_strings_are_fresh_objects(self):
        first, second = worked_example_strings()
        third, fourth = worked_example_strings()
        assert first == third and second == fourth


class TestCorpusCaches:
    def test_paper_corpus_counts(self):
        summary = summarise_corpus_counts(paper_corpus(seed=2017))
        assert summary.total == 110
        assert summary.per_label == {"A": 50, "B": 20, "C": 20, "D": 20}

    def test_paper_corpus_cached(self):
        assert paper_corpus(seed=2017) is paper_corpus(seed=2017)

    def test_paper_strings_cached_per_variant(self):
        with_bytes = paper_strings(2017, True)
        without_bytes = paper_strings(2017, False)
        assert with_bytes is paper_strings(2017, True)
        assert with_bytes is not without_bytes
        assert len(with_bytes) == 110


@pytest.mark.slow
class TestHeadlineExperiments:
    def test_fig7_kast_reproduces_three_groups_with_no_misplacements(self):
        result = experiment_fig7_hclust_kast()
        assert result.matches_expected_partition()
        assert result.misplacements() == 0
        composition = result.cluster_composition()
        sizes = sorted(sum(counts.values()) for counts in composition.values())
        assert sizes == [20, 40, 50]

    def test_fig9_blended_separates_only_flash_io(self):
        result = experiment_fig9_hclust_blended()
        composition = result.cluster_composition()
        cluster_label_sets = [frozenset(counts) for counts in composition.values()]
        assert frozenset({"A"}) in cluster_label_sets
        assert frozenset({"B", "C", "D"}) in cluster_label_sets


class TestCannedSpecs:
    """Each canned experiment runs the kernel spec the paper's setting names.

    The spectrum baselines count occurrences unweighted, unlike the
    registry default (``weighted=True``).
    """

    KAST = make_spec("kast", cut_weight=2, backend="numpy")
    BLENDED = make_spec("blended", max_length=3, weighted=False, min_weight=2)

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(experiments, "_run", lambda config, seed: seen.append(config))
        monkeypatch.setattr(
            experiments, "cut_weight_sweep", lambda config, **kwargs: seen.append(config)
        )
        return seen

    @pytest.mark.parametrize(
        "experiment, spec",
        [
            (experiments.experiment_fig6_kpca_kast, KAST),
            (experiments.experiment_fig7_hclust_kast, KAST),
            (experiments.experiment_fig8_kpca_blended, BLENDED),
            (experiments.experiment_fig9_hclust_blended, BLENDED),
            (experiments.experiment_nobytes_variant, KAST),
            (experiments.experiment_cut_weight_sweep, KAST),
            (experiments.experiment_kspectrum_baseline, make_spec("spectrum", k=3, weighted=False)),
        ],
    )
    def test_spec_of_each_experiment(self, configs, experiment, spec):
        experiment()
        assert [config.spec for config in configs] == [spec]

    def test_cut_weight_and_backend_reach_the_spec(self, configs):
        experiments.experiment_fig7_hclust_kast(cut_weight=16, backend="python")
        experiments.experiment_fig9_hclust_blended(cut_weight=16)
        assert [config.spec for config in configs] == [
            make_spec("kast", cut_weight=16, backend="python"),
            make_spec("blended", max_length=3, weighted=False, min_weight=16),
        ]
