"""End-to-end tests for the streaming serving tier of the service.

Covers the issue-7 acceptance criteria at the protocol level: a
``fit-model`` job persists a servable model (with the result-cache outcome
stamped on the envelope), a synchronous ``classify`` costs exactly ``m``
kernel evaluations per cold trace and zero per repeated trace, serve
counters surface through ``models`` / ``health`` / ``cache-stats``,
workers execute queued fit-model jobs, and a damaged model answers with a
typed quarantining error instead of a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

import repro.streaming.model
from repro.api import AnalysisSession, make_spec
from repro.core.engine import GramEngine
from repro.service import AnalysisServer, Worker
from repro.service.jobstore import JobStore
from repro.service.protocol import (
    CacheStatsRequest,
    ClassifyRequest,
    FitModelRequest,
    HealthRequest,
    ModelDamaged,
    ModelNotFound,
    ModelsRequest,
    ResultRequest,
    StatusRequest,
    SubmitMatrixRequest,
    check_response,
    encode_corpus,
    job_input,
)

SPEC = make_spec("kast", cut_weight=2)
LANDMARKS = 4


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)


@pytest.fixture(scope="module")
def queries():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=99)[:2]


@pytest.fixture
def server(tmp_path):
    with AnalysisServer(state_dir=str(tmp_path / "state")) as live:
        yield live


def fit(server, strings, name="served", **options):
    options.setdefault("landmarks", LANDMARKS)
    submitted = check_response(
        server.handle(
            FitModelRequest(
                spec=SPEC.to_dict(),
                strings=tuple(encode_corpus(strings)),
                name=name,
                **options,
            ).to_payload()
        )
    )
    assert submitted["kind"] == "fit-model"
    return check_response(
        server.handle(ResultRequest(job_id=submitted["job_id"], wait=120.0).to_payload())
    )


def classify(server, strings, name="served", embed=False):
    return check_response(
        server.handle(
            ClassifyRequest(
                name=name, strings=tuple(encode_corpus(strings)), embed=embed
            ).to_payload()
        )
    )


def test_fit_model_job_persists_a_servable_model(server, strings):
    result = fit(server, strings)
    payload = result["payload"]
    assert payload["name"] == "served"
    assert payload["landmarks"] == LANDMARKS
    assert payload["path"].endswith("served.model.json")
    assert result["cache"] in {"miss", "hit", "bypass"}
    assert payload["cache"] == result["cache"]
    assert server.model_store.names() == ["served"]
    # Refit over the identical corpus is served from the result cache.
    again = fit(server, strings)
    assert again["cache"] == "hit"


def test_classify_costs_m_evals_cold_and_zero_warm(server, strings, queries):
    fit(server, strings)
    cold = classify(server, queries)
    assert cold["model"] == "served"
    assert len(cold["results"]) == len(queries)
    for entry in cold["results"]:
        assert entry["kernel_evals"] == LANDMARKS
        assert entry["warm"] is False
        assert entry["label"] in entry["scores"]
    assert cold["kernel_evals"] == LANDMARKS * len(queries)
    assert cold["warm_traces"] == 0

    warm = classify(server, queries)
    assert warm["kernel_evals"] == 0
    assert warm["warm_traces"] == len(queries)
    for before, after in zip(cold["results"], warm["results"]):
        assert after["warm"] is True
        assert after["label"] == before["label"]
        assert after["scores"] == before["scores"]


def test_classify_with_embedding(server, strings, queries):
    fit(server, strings)
    response = classify(server, queries[:1], embed=True)
    (entry,) = response["results"]
    assert len(entry["embedding"]) == 2
    # Cold embed pays the cross row plus the query's own self value.
    assert entry["kernel_evals"] == LANDMARKS + 1


def test_concurrent_classifies_report_only_their_own_evaluations(server, strings, queries, monkeypatch):
    fit(server, strings, landmarks=16)
    engine = server.session.engine(SPEC)
    evaluate_row = GramEngine.evaluate_row
    # Both cold rows are evaluated before either request reads its count.
    barrier = threading.Barrier(2)

    def row_then_wait(self, query, references):
        values = evaluate_row(self, query, references)
        barrier.wait(timeout=60)
        return values

    monkeypatch.setattr(GramEngine, "evaluate_row", row_then_wait)
    before = engine.cache_info()["kernel_evals"]
    responses = [None, None]

    def request(index):
        responses[index] = classify(server, queries[index : index + 1])

    threads = [threading.Thread(target=request, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    spent = engine.cache_info()["kernel_evals"] - before
    # A cold row costs one evaluation per distinct landmark content.
    row = len({string.fingerprint for string in strings})
    assert [response["kernel_evals"] for response in responses] == [row, row]
    assert [response["results"][0]["kernel_evals"] for response in responses] == [row, row]
    assert sum(response["kernel_evals"] for response in responses) == spent


def test_models_listing_carries_serve_counters(server, strings, queries):
    fit(server, strings)
    listing = check_response(server.handle(ModelsRequest().to_payload()))
    assert listing["count"] == 1
    (entry,) = listing["models"]
    assert entry["metrics"]["requests"] == 0

    classify(server, queries)
    (entry,) = check_response(server.handle(ModelsRequest().to_payload()))["models"]
    assert entry["name"] == "served"
    assert entry["damaged"] is False
    assert entry["metrics"]["requests"] == 1
    assert entry["metrics"]["traces"] == len(queries)
    assert entry["metrics"]["kernel_evals"] == LANDMARKS * len(queries)


def test_health_and_cache_stats_expose_model_counters(server, strings, queries):
    fit(server, strings)
    classify(server, queries)
    classify(server, queries)

    health = check_response(server.handle(HealthRequest().to_payload()))
    models = health["models"]
    assert models["count"] == 1
    assert models["quarantined"] == 0
    assert models["requests"] == 2
    assert models["traces"] == 2 * len(queries)
    assert models["warm_rate"] == 0.5
    assert models["avg_latency_ms"] is not None

    stats = check_response(server.handle(CacheStatsRequest().to_payload()))
    section = stats["models"]
    assert section["enabled"] is True
    assert section["models"] == 1
    assert section["served"]["served"]["requests"] == 2


def test_classify_unknown_model_is_typed(server, queries):
    with pytest.raises(ModelNotFound):
        check_response(
            server.handle(
                ClassifyRequest(
                    name="absent", strings=tuple(encode_corpus(queries))
                ).to_payload()
            )
        )


def test_classify_damaged_model_quarantines_and_answers_typed(server, strings, queries):
    fit(server, strings)
    path = server.model_store.path("served")
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope["checksum"] = "0" * 64
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)

    with pytest.raises(ModelDamaged):
        check_response(
            server.handle(
                ClassifyRequest(
                    name="served", strings=tuple(encode_corpus(queries))
                ).to_payload()
            )
        )
    assert server.model_store.stats()["quarantined"] == 1
    health = check_response(server.handle(HealthRequest().to_payload()))
    assert health["models"]["quarantined"] == 1


def test_worker_executes_queued_fit_model_job(tmp_path, strings, queries):
    state_dir = str(tmp_path / "state")
    store = JobStore(state_dir)
    record = store.create(
        kind="fit-model",
        options={"model": "offline"},
        input={
            "spec": SPEC.to_dict(),
            "strings": list(encode_corpus(strings)),
            "name": "offline",
            "landmarks": LANDMARKS,
        },
    )
    worker = Worker(state_dir)
    assert worker.run_once() == record.job_id
    summary = store.load_result(record.job_id)
    assert summary["name"] == "offline"
    assert summary["landmarks"] == LANDMARKS

    # A server sharing the state dir serves the worker-fitted model, and
    # reports the fit's cache outcome (a worker opens no result cache).
    with AnalysisServer(state_dir=state_dir) as server:
        status = check_response(server.handle(StatusRequest(job_id=record.job_id).to_payload()))
        assert status["cache"] == "bypass"
        response = classify(server, queries[:1], name="offline")
        (entry,) = response["results"]
        assert entry["kernel_evals"] == LANDMARKS


#: A value other than the dataclass default for every fit option of a request.
FIT_OPTIONS = {
    "name": "forwarded",
    "landmarks": 3,
    "strategy": "uniform",
    "seed": 5,
    "n_components": 1,
    "n_clusters": 2,
    "use_cache": False,
}


@pytest.mark.parametrize("runner", ["server", "worker"])
def test_every_fit_option_reaches_the_fit(tmp_path, monkeypatch, strings, runner):
    defaults = {field.name: field.default for field in dataclasses.fields(FitModelRequest)}
    assert set(FIT_OPTIONS) == set(defaults) - {"spec", "strings", "trace_id"}
    assert all(value != defaults[name] for name, value in FIT_OPTIONS.items())
    received = []
    fit_landmark_model = repro.streaming.model.fit_landmark_model

    def spy(session, spec, corpus, **options):
        received.append(options)
        return fit_landmark_model(session, spec, corpus, **options)

    monkeypatch.setattr(repro.streaming.model, "fit_landmark_model", spy)
    state_dir = str(tmp_path / "state")
    if runner == "server":
        with AnalysisServer(state_dir=state_dir) as server:
            assert fit(server, strings, **FIT_OPTIONS)["payload"]["landmarks"] == 3
    else:
        request = FitModelRequest(spec=SPEC.to_dict(), strings=tuple(encode_corpus(strings)), **FIT_OPTIONS)
        store = JobStore(state_dir)
        record = store.create(kind="fit-model", options={}, input=job_input(request))
        assert Worker(state_dir).run_once() == record.job_id
        assert store.load_result(record.job_id)["landmarks"] == 3
    assert received == [FIT_OPTIONS]


def test_refit_invalidates_the_servers_scorer_cache(server, strings, queries):
    fit(server, strings)
    first = classify(server, queries[:1])
    # Refit under the same name with a different landmark budget: the
    # server must serve the new model, not the cached scorer.
    refit = fit(server, strings, landmarks=2, strategy="uniform")
    assert refit["payload"]["landmarks"] == 2
    fresh_query_response = classify(server, queries[1:2])
    (entry,) = fresh_query_response["results"]
    assert entry["kernel_evals"] == 2
    assert first["model_id"] != fresh_query_response["model_id"]


def test_classify_reads_the_pair_store_but_never_writes_it(tmp_path, strings, queries):
    state_dir = str(tmp_path / "state")
    with AnalysisServer(state_dir=state_dir) as server:
        fit(server, strings)
        store = server.session.pair_store
        puts = store.counters()["puts"]
        for embed in (False, True, False, True):
            classify(server, queries, embed=embed)
        assert store.counters()["puts"] == puts
        landmarks = server.model_store.load("served").landmark_strings()

    # The rows lived in memory only: after a restart a repeat costs m again.
    with AnalysisServer(state_dir=state_dir) as server:
        response = classify(server, queries)
        assert [entry["kernel_evals"] for entry in response["results"]] == [LANDMARKS] * len(queries)
        assert server.session.pair_store.counters()["puts"] == 0

        # A matrix job over the same traces still matches a local session.
        corpus = [*queries, *landmarks]
        submitted = check_response(
            server.handle(
                SubmitMatrixRequest(spec=SPEC.to_dict(), strings=tuple(encode_corpus(corpus))).to_payload()
            )
        )
        result = check_response(server.handle(ResultRequest(job_id=submitted["job_id"], wait=120.0).to_payload()))
    with AnalysisSession() as session:
        local = session.engine(SPEC).matrix_payload(session.matrix(SPEC, corpus), corpus)
    assert json.dumps(result["payload"], sort_keys=True) == json.dumps(local, sort_keys=True)
