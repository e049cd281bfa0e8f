"""Landmark selection, frozen-model round trips and Nyström equivalence.

Pins down the streaming subsystem's core guarantees: selection is
deterministic and clamped, the model survives JSON and pickle round trips
byte for byte, the degenerate landmark-set == corpus case reproduces the
full-Gram kernel-PCA embedding exactly (up to eigenvector sign), the
scorer's scale-invariant scores rank identically to
:class:`KernelNearestCentroid`, classification is deterministic across
fresh sessions, and — the serving contract — a cold trace
costs exactly ``m`` kernel evaluations while a repeated one costs zero.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import AnalysisSession, make_spec
from repro.learn.classify import KernelNearestCentroid
from repro.learn.kpca import kernel_pca_embedding
from repro.streaming.landmarks import LANDMARK_STRATEGIES, select_landmarks
from repro.streaming.model import LandmarkModel, fit_landmark_model
from repro.streaming.scorer import StreamingScorer

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def session():
    with AnalysisSession() as live:
        yield live


@pytest.fixture(scope="module")
def strings(session):
    return session.corpus(small=True, seed=7)


@pytest.fixture(scope="module")
def queries(session):
    # A corpus from a different seed: novel traces the model never saw.
    return session.corpus(small=True, seed=99)[:3]


@pytest.fixture(scope="module")
def gram(session, strings):
    return session.matrix(SPEC, strings, normalized=True, repair=False)


@pytest.fixture(scope="module")
def model(session, strings):
    fitted, status = session.fit_landmark_model(
        SPEC, strings, name="unit", landmarks=5, strategy="kcenter"
    )
    assert status in {"hit", "miss", "bypass"}
    return fitted


# ----------------------------------------------------------------------
# Landmark selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", LANDMARK_STRATEGIES)
def test_selection_is_deterministic_sorted_and_unique(gram, strategy):
    first = select_landmarks(gram.values, 4, strategy=strategy, seed=11)
    second = select_landmarks(gram.values, 4, strategy=strategy, seed=11)
    assert first == second
    assert first == sorted(set(first))
    assert len(first) == 4
    assert all(0 <= index < len(gram) for index in first)


def test_selection_count_clamps_to_corpus(gram):
    size = len(gram)
    assert select_landmarks(gram.values, size + 10, strategy="uniform") == list(range(size))


def test_selection_rejects_bad_inputs(gram):
    with pytest.raises(ValueError):
        select_landmarks(gram.values, 3, strategy="nope")
    with pytest.raises(ValueError):
        select_landmarks(gram.values, 0)
    with pytest.raises(ValueError):
        select_landmarks([[1.0, 0.5]], 1)  # not square


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_model_json_round_trip(model):
    clone = LandmarkModel.from_json(model.to_json())
    assert clone == model
    assert clone.model_id == model.model_id
    assert clone.to_json() == model.to_json()


def test_model_pickle_round_trip(model):
    clone = pickle.loads(pickle.dumps(model))
    assert clone == model
    assert clone.model_id == model.model_id


def test_model_rejects_malformed_payloads(model):
    with pytest.raises(ValueError):
        LandmarkModel.from_json("not json at all {")
    payload = model.to_dict()
    payload["format"] = 999
    with pytest.raises(ValueError):
        LandmarkModel.from_dict(payload)
    payload = model.to_dict()
    del payload["fingerprints"]
    with pytest.raises(ValueError):
        LandmarkModel.from_dict(payload)


# ----------------------------------------------------------------------
# Numerical equivalence
# ----------------------------------------------------------------------
def test_full_landmark_set_reproduces_full_gram_kpca(session, strings, gram):
    fitted, _ = session.fit_landmark_model(
        SPEC, strings, name="full-set", landmarks=len(strings), n_components=2
    )
    assert fitted.m == len(strings)
    scorer = session.streaming_scorer(fitted)
    streamed = np.vstack([scorer.embed(string) for string in strings])
    reference = kernel_pca_embedding(gram, n_components=2).embedding
    assert streamed.shape == reference.shape
    for column in range(reference.shape[1]):
        sign = 1.0 if np.dot(streamed[:, column], reference[:, column]) >= 0 else -1.0
        np.testing.assert_allclose(
            sign * streamed[:, column], reference[:, column], atol=1e-9
        )


def test_classify_ranks_like_kernel_nearest_centroid(session, strings, queries):
    fitted, _ = session.fit_landmark_model(
        SPEC, strings, name="full-ncc", landmarks=len(strings)
    )
    scorer = session.streaming_scorer(fitted)
    baseline = KernelNearestCentroid(session.kernel(SPEC)).fit(strings)
    for query in queries:
        streamed = scorer.classify(query)
        expected = baseline.classify(query)
        assert streamed.label == expected.label
        # Streaming scores are the cosine scores scaled by sqrt(k(q, q)):
        # the ratio between any two labels' scores must match.
        scale = np.sqrt(session.engine(SPEC).self_value(query))
        for label, value in expected.scores.items():
            np.testing.assert_allclose(streamed.scores[label], value * scale, rtol=1e-9)


# ----------------------------------------------------------------------
# Serving cost accounting (the acceptance criterion)
# ----------------------------------------------------------------------
def test_cold_classify_costs_m_evals_and_warm_costs_zero(model, queries):
    with AnalysisSession() as fresh:
        scorer = StreamingScorer(model, fresh)
        engine = fresh.engine(model.spec())
        query = queries[0]

        before = engine.cache_info()["kernel_evals"]
        cold = scorer.classify(query)
        assert engine.cache_info()["kernel_evals"] - before == model.m

        before = engine.cache_info()["kernel_evals"]
        warm = scorer.classify(query)
        assert engine.cache_info()["kernel_evals"] - before == 0
        assert warm.label == cold.label and warm.scores == cold.scores

        # Embedding additionally needs the query's own self value — once.
        before = engine.cache_info()["kernel_evals"]
        scorer.embed(query)
        assert engine.cache_info()["kernel_evals"] - before == 1
        before = engine.cache_info()["kernel_evals"]
        scorer.embed(query)
        assert engine.cache_info()["kernel_evals"] - before == 0


def test_classify_with_embedding_is_one_row_lookup(model, queries, monkeypatch):
    query = queries[0]
    with AnalysisSession() as fresh:
        separate = StreamingScorer(model, fresh)
        expected = separate.classify(query), separate.embed(query)
    with AnalysisSession() as fresh:
        scorer = StreamingScorer(model, fresh)
        lookup, calls = scorer.engine._lookup, []

        def counting_lookup(*args, **kwargs):
            calls.append(args)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(scorer.engine, "_lookup", counting_lookup)
        before = scorer.engine.cache_info()
        result, embedding = scorer.classify_with_embedding(query)
        after = scorer.engine.cache_info()
    assert len(calls) == 1
    # The cold row: m landmark values plus the query's own self value.
    assert after["kernel_evals"] - before["kernel_evals"] == model.m + 1
    assert after["pair_misses"] - before["pair_misses"] == model.m + 1
    assert result.label == expected[0].label
    assert result.scores == expected[0].scores
    np.testing.assert_array_equal(embedding, expected[1])


def test_classify_deterministic_across_sessions(model, queries):
    results = []
    for _ in range(2):
        with AnalysisSession() as fresh:
            scorer = StreamingScorer(model, fresh)
            results.append([scorer.classify(query) for query in queries])
    first, second = results
    for left, right in zip(first, second):
        assert left.label == right.label
        assert set(left.scores) == set(right.scores)
        for label, value in left.scores.items():
            np.testing.assert_allclose(right.scores[label], value, rtol=1e-12)


def test_fit_rejects_empty_corpus(session):
    with pytest.raises(ValueError):
        fit_landmark_model(session, SPEC, [], name="empty")
