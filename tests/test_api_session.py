"""Tests for the AnalysisSession facade (repro.api.session)."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from repro.api import AnalysisSession, kernel_from_spec, make_spec
from repro.core.engine import GramEngine
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline
from repro.service import DEFAULT_TENANT, AnalysisServer, JobTimeout, ServiceClient
from repro.service.protocol import (
    CannotCancel,
    FitModelRequest,
    JobFailed,
    SubmitAnalyzeRequest,
    SubmitMatrixRequest,
    UnknownJob,
    encode_corpus,
    job_input,
)
from repro.traces.writer import write_trace
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture
def session():
    with AnalysisSession() as live:
        yield live


@pytest.fixture
def strings(session):
    return session.corpus(small=True, seed=7)


class TestWarmState:
    def test_kernel_and_engine_are_cached_per_spec(self, session):
        spec = make_spec("kast", cut_weight=4)
        assert session.kernel(spec) is session.kernel(spec)
        assert session.engine(spec) is session.engine(spec)
        assert session.engine(make_spec("kast", cut_weight=8)) is not session.engine(spec)

    def test_kernels_share_the_session_interner(self, session):
        a = session.kernel(make_spec("kast", cut_weight=2))
        b = session.kernel(make_spec("kast", cut_weight=64))
        assert a.interner is session.interner
        assert b.interner is session.interner

    def test_spec_shorthands_resolve_to_same_engine(self, session):
        canonical = make_spec("kast")
        assert session.engine("kast") is session.engine(canonical)
        assert session.engine(canonical.to_dict()) is session.engine(canonical)

    def test_repeated_matrix_hits_warm_cache(self, session, strings):
        spec = make_spec("kast", cut_weight=2)
        first = session.matrix(spec, strings)
        info = session.engine(spec).cache_info()
        assert info["pair_misses"] > 0
        second = session.matrix(spec, strings)
        after = session.engine(spec).cache_info()
        assert after["pair_misses"] == info["pair_misses"]
        np.testing.assert_allclose(first.values, second.values)

    def test_cache_info_keyed_by_canonical_spec(self, session, strings):
        spec = make_spec("spectrum", k=2)
        session.matrix(spec, strings)
        assert spec.canonical() in session.cache_info()
        assert spec in session.specs()


class TestComputation:
    def test_matrix_matches_gram_engine(self, session, strings):
        spec = make_spec("kast", cut_weight=2)
        via_session = session.matrix(spec, strings)
        reference = GramEngine(kernel_from_spec(ExperimentConfig().spec)).compute(strings)
        np.testing.assert_allclose(via_session.values, reference.values)
        assert via_session.names == reference.names

    def test_value_and_normalized_value(self, session, strings):
        spec = make_spec("kast", cut_weight=2)
        raw = session.value(spec, strings[0], strings[1])
        normalized = session.normalized_value(spec, strings[0], strings[1])
        assert raw >= 0.0
        assert 0.0 <= normalized <= 1.0 + 1e-9

    def test_analyze_matches_plain_pipeline(self, session, strings):
        config = ExperimentConfig(corpus=CorpusConfig.small(seed=7))
        via_session = session.analyze(config, strings=strings)
        reference = AnalysisPipeline(config).run_on_strings(strings)
        np.testing.assert_allclose(
            via_session.kernel_matrix.values, reference.kernel_matrix.values
        )
        assert via_session.metrics["purity"] == reference.metrics["purity"]

    def test_sweep_through_session(self, session, strings):
        config = ExperimentConfig(corpus=CorpusConfig.small(seed=7))
        result = session.sweep(config, cut_weights=(2, 8), strings=strings)
        assert result.cut_weights() == [2, 8]
        # Both sweep points warmed session engines under their own specs.
        assert len(session.specs()) >= 2

    def test_matrix_persistence_is_stamped(self, strings, tmp_path):
        spec = make_spec("kast", cut_weight=2)
        with AnalysisSession(matrix_cache=str(tmp_path / "matrix-cache")) as cached:
            cached.matrix(spec, strings)
            payload = cached.matrix_cache.lookup(
                spec.signature(),
                True,
                [string.fingerprint for string in strings],
                [string.name for string in strings],
                [string.label for string in strings],
            ).payload
        assert payload["kernel_signature"] == spec.signature()
        assert len(payload["fingerprints"]) == len(strings)


class TestCorpus:
    def test_small_flag_selects_reduced_corpus(self, session):
        assert len(session.corpus(small=True, seed=7)) == 16

    def test_explicit_traces_are_encoded(self, session):
        traces = build_corpus(CorpusConfig.small(seed=7))[:4]
        strings = session.corpus(traces=traces)
        assert [string.name for string in strings] == [trace.name for trace in traces]

    def test_corpus_from_directory(self, session, tmp_path):
        for trace in build_corpus(CorpusConfig.small(seed=7))[:5]:
            write_trace(trace, os.path.join(tmp_path, f"{trace.name}.trace"))
        strings = session.corpus_from_directory(str(tmp_path))
        assert len(strings) == 5
        # Sorted file order makes directory matrices reproducible.
        assert [string.name for string in strings] == sorted(string.name for string in strings)

    def test_corpus_from_empty_directory_rejected(self, session, tmp_path):
        with pytest.raises(FileNotFoundError):
            session.corpus_from_directory(str(tmp_path))


class _InProcessTransport:
    """Hands each wire request straight to an in-process server."""

    def __init__(self, server):
        self.server = server

    def request(self, payload):
        return self.server.handle(payload)

    def close(self):
        pass


@pytest.fixture
def server(session, tmp_path):
    """A server whose jobs run on the test's session (two job threads)."""
    with AnalysisServer(state_dir=str(tmp_path / "state"), session=session) as live:
        yield live


@pytest.fixture
def client(server):
    with ServiceClient(_InProcessTransport(server)) as live:
        yield live


@contextlib.contextmanager
def saturated_job_pool(server):
    """Occupy both default-tenant job threads so new jobs stay queued."""
    release = threading.Event()
    executor = server.tenants.context(DEFAULT_TENANT).executor
    try:
        for _ in range(2):
            executor.submit(release.wait)
        yield
    finally:
        release.set()


# A session's jobs are job-store records run by the server that fronts it;
# the classes below drive that one lifecycle with the session's own work.


class TestJobs:
    def test_submit_and_result_roundtrip(self, session, client, server, strings):
        spec = make_spec("kast", cut_weight=2)
        job = client.submit(spec, strings)
        result = client.result(job, timeout=120)
        np.testing.assert_allclose(result.values, session.matrix(spec, strings).values)
        assert client.status(job) == "done"
        assert server.store.get(job).status == "done"

    def test_submit_analyze(self, client, strings):
        job = client.submit_analyze(make_spec("kast"), strings)
        result = client.result(job, timeout=240)
        assert "purity" in result["metrics"]

    def test_unknown_job_id(self, client):
        with pytest.raises(UnknownJob) as caught:
            client.result("matrix-999")
        assert caught.value.details["job_id"] == "matrix-999"

    def test_failed_job_raises_job_error(self, session, client, strings, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(session, "matrix_cached", broken)
        job = client.submit(make_spec("kast"), strings)
        with pytest.raises(JobFailed, match="engine exploded"):
            client.result(job, timeout=120)
        assert client.status(job) == "error"


class _RecordingTransport(_InProcessTransport):
    """An in-process transport that keeps every request it carries."""

    def __init__(self, server):
        super().__init__(server)
        self.sent = []

    def request(self, payload):
        self.sent.append(payload)
        return super().request(payload)


#: Per job kind: the client's submit method, its request class, the fields
#: of a minimal call and of a call that sets every job field.
JOB_KINDS = {
    "matrix": (
        "submit", SubmitMatrixRequest, {},
        {"normalized": False, "repair": False, "shards": 2, "distributed": True, "use_cache": False},
    ),
    "analyze": (
        "submit_analyze", SubmitAnalyzeRequest, {},
        {"n_clusters": 2, "n_components": 3, "linkage": "average"},
    ),
    "fit-model": (
        "submit_fit_model", FitModelRequest, {"name": "minimal"},
        {
            "name": "full", "landmarks": 3, "strategy": "uniform", "seed": 5,
            "n_components": 1, "n_clusters": 2, "use_cache": False,
        },
    ),
}


class TestClientRequests:
    """A job the client submits is its request dataclass, field for field."""

    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_the_client_sends_and_the_server_stores_the_dataclass_request(
        self, server, strings, monkeypatch, kind
    ):
        method, request_type, minimal, full = JOB_KINDS[kind]
        job_fields = {field.name for field in dataclasses.fields(request_type)}
        assert set(full) == job_fields - {"spec", "strings", "trace_id"}
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        spec = make_spec("kast", cut_weight=2)
        transport = _RecordingTransport(server)
        with ServiceClient(transport) as client, saturated_job_pool(server):
            for fields in (minimal, full):
                job_id = getattr(client, method)(spec, strings, trace_id="trace-1", **fields)
                expected = request_type(
                    spec=spec.to_dict(), strings=tuple(encode_corpus(strings)),
                    trace_id="trace-1", **fields,
                )
                assert transport.sent[-1] == expected.to_payload()
                assert server.store.get(job_id).input == job_input(expected)
                client.cancel(job_id)


class TestJobEviction:
    def test_result_forget_drops_job(self, client, server, strings):
        job = client.submit(make_spec("kast"), strings)
        client.result(job, timeout=120, forget=True)
        assert job not in [record.job_id for record in server.store.records()]
        with pytest.raises(UnknownJob):
            client.status(job)

    def test_forget_only_finished_jobs(self, client, server, strings):
        with saturated_job_pool(server):
            job = client.submit(make_spec("kast"), strings)
            assert server.store.forget(job) is False  # still queued
        client.result(job, timeout=120)
        assert server.store.forget(job) is True
        assert server.store.forget(job) is False  # already gone

    def test_failed_job_forgettable(self, session, client, server, strings, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(session, "matrix_cached", broken)
        job = client.submit(make_spec("kast"), strings)
        with pytest.raises(JobFailed):
            client.result(job, timeout=120)
        assert server.store.forget(job) is True
        with pytest.raises(UnknownJob):
            client.status(job)


class TestJobTimeout:
    def test_timeout_raises_job_timeout_with_id(self, client, server, strings):
        with saturated_job_pool(server):
            job = client.submit(make_spec("kast"), strings)
            with pytest.raises(JobTimeout) as caught:
                client.result(job, timeout=0.05)
            assert caught.value.job_id == job
            assert caught.value.timeout == 0.05
            # JobTimeout stays catchable as the builtin TimeoutError.
            assert isinstance(caught.value, TimeoutError)
        assert len(client.result(job, timeout=120)) == len(strings)

    def test_timed_out_job_still_collectable(self, client, strings):
        job = client.submit(make_spec("kast"), strings)
        try:
            client.result(job, timeout=0.0)
        except JobTimeout:
            pass
        result = client.result(job, timeout=120)
        assert len(result) == len(strings)


class TestCancel:
    def test_cancel_queued_job(self, client, server, strings):
        with saturated_job_pool(server):
            job = client.submit(make_spec("kast"), strings)
            assert client.cancel(job) is True
            assert client.status(job) == "cancelled"

    def test_cancel_finished_job_returns_false(self, client, server, strings):
        # The wire answer for a finished job is a typed refusal, and the
        # record keeps its terminal status.
        job = client.submit(make_spec("kast"), strings)
        client.result(job, timeout=120)
        with pytest.raises(CannotCancel):
            client.cancel(job)
        assert server.store.get(job).status == "done"


class TestJobTTLSweep:
    """Finished jobs must not be retained forever when clients never fetch."""

    def test_swept_jobs_stop_reporting(self, client, server, strings):
        job = client.submit(make_spec("kast"), strings[:3])
        client.result(job, timeout=120)  # finished (and retained)
        time.sleep(0.08)
        evicted = server.store.sweep(0.05)
        assert job in evicted
        assert job not in [record.job_id for record in server.store.records()]
        with pytest.raises(UnknownJob):
            client.status(job)

    def test_ttl_never_evicts_unfinished_jobs(self, client, server, strings):
        with saturated_job_pool(server):
            job = client.submit(make_spec("kast"), strings)
            time.sleep(0.05)
            assert server.store.sweep(0.0) == []
            assert client.status(job) in ("queued", "running")


class TestCancelledJobResult:
    """A cancelled job's result is a job-failed error, never a hang."""

    def test_result_of_cancelled_job_raises_job_error(self, client, server, strings):
        with saturated_job_pool(server):
            job = client.submit(make_spec("kast"), strings)
            assert client.cancel(job) is True
            with pytest.raises(JobFailed, match="cancelled"):
                client.result(job, timeout=5)
            assert client.status(job) == "cancelled"


class TestSessionCanonicalization:
    def test_partial_json_spec_shares_engine_with_canonical(self, session):
        assert session.engine('{"kind": "kast"}') is session.engine(make_spec("kast"))


class TestEngineSignatureDedupe:
    """Specs differing only in value-irrelevant params share one engine."""

    def test_backend_variants_share_one_engine_and_pair_cache(self, session):
        numpy_spec = make_spec("kast", cut_weight=2, backend="numpy")
        python_spec = make_spec("kast", cut_weight=2, backend="python")
        assert numpy_spec != python_spec  # distinct specs...
        assert session.engine(numpy_spec) is session.engine(python_spec)  # ...one engine

    def test_value_relevant_params_still_get_distinct_engines(self, session):
        assert session.engine(make_spec("kast", cut_weight=2)) is not session.engine(
            make_spec("kast", cut_weight=8)
        )

    def test_shared_engine_reuses_pair_cache_across_backends(self, session, strings):
        subset = strings[:5]
        session.matrix(make_spec("kast", backend="numpy"), subset)
        info = session.engine(make_spec("kast", backend="numpy")).cache_info()
        session.matrix(make_spec("kast", backend="python"), subset)
        after = session.engine(make_spec("kast", backend="python")).cache_info()
        # The second backend's matrix came entirely from the warm cache.
        assert after["pair_misses"] == info["pair_misses"]

    def test_specs_and_cache_info_stay_consistent(self, session, strings):
        numpy_spec = make_spec("kast", backend="numpy")
        python_spec = make_spec("kast", backend="python")
        session.matrix(numpy_spec, strings[:3])
        session.matrix(python_spec, strings[:3])
        # Both specs are reported as warmed; the shared engine reports once.
        assert numpy_spec in session.specs()
        assert python_spec in session.specs()
        assert list(session.cache_info()) == [numpy_spec.canonical()]


class TestResultCache:
    """The persistent signature-keyed matrix result cache (matrix_cache=)."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        return str(tmp_path / "matrix-cache")

    @pytest.fixture
    def cached_session(self, cache_dir):
        with AnalysisSession(matrix_cache=cache_dir) as live:
            yield live

    def test_identical_request_is_a_bit_identical_hit(self, cached_session):
        spec = make_spec("kast", cut_weight=2)
        strings = cached_session.corpus(small=True, seed=7)[:6]
        first, status_first = cached_session.matrix_cached(spec, strings)
        info = cached_session.engine(spec).cache_info()
        second, status_second = cached_session.matrix_cached(spec, strings)
        after = cached_session.engine(spec).cache_info()
        assert (status_first, status_second) == ("miss", "hit")
        assert np.array_equal(first.values, second.values)
        # Zero kernel-pair work for the hit: neither hits nor misses moved.
        assert (after["pair_hits"], after["pair_misses"]) == (info["pair_hits"], info["pair_misses"])

    def test_extension_reuses_prefix_across_sessions(self, cache_dir, tmp_path):
        spec = make_spec("kast", cut_weight=2)
        pair_dir = str(tmp_path / "pair-store")
        with AnalysisSession(matrix_cache=cache_dir, pair_store=pair_dir) as warm:
            strings = warm.corpus(small=True, seed=7)
            warm.matrix(spec, strings[:6])
        # A brand-new session (cold engine) sharing only the store dirs.
        with AnalysisSession(matrix_cache=cache_dir, pair_store=pair_dir) as fresh:
            strings = fresh.corpus(small=True, seed=7)
            extended, status = fresh.matrix_cached(spec, strings[:8])
            info = fresh.engine(spec).cache_info()
        assert status == "miss"  # the result cache answers exact corpora only
        # Only values involving the two appended strings were evaluated:
        # their pairs with everything before them, and their self values.
        appended_pairs = 6 + 7
        assert 0 < info["kernel_evals"] <= appended_pairs + 2
        with AnalysisSession() as cold:
            cold_strings = cold.corpus(small=True, seed=7)
            reference = cold.matrix(spec, cold_strings[:8])
        assert np.array_equal(extended.values, reference.values)  # bit-identical

    def test_restart_hit_served_with_cold_engine(self, cache_dir):
        spec = make_spec("kast", cut_weight=2)
        with AnalysisSession(matrix_cache=cache_dir) as warm:
            strings = warm.corpus(small=True, seed=7)[:6]
            original = warm.matrix(spec, strings)
        with AnalysisSession(matrix_cache=cache_dir) as fresh:
            strings = fresh.corpus(small=True, seed=7)[:6]
            matrix, status = fresh.matrix_cached(spec, strings)
            info = fresh.engine(spec).cache_info()
        assert status == "hit"
        assert (info["pair_hits"], info["pair_misses"]) == (0, 0)
        assert np.array_equal(matrix.values, original.values)

    def test_use_cache_false_bypasses(self, cached_session):
        spec = make_spec("kast", cut_weight=2)
        strings = cached_session.corpus(small=True, seed=7)[:5]
        cached_session.matrix(spec, strings)
        matrix, status = cached_session.matrix_cached(spec, strings, use_cache=False)
        assert status == "bypass"
        assert cached_session.matrix_cache.stats()["hits"] == 0

    def test_signature_keyed_sharing_across_backends(self, cached_session):
        strings = cached_session.corpus(small=True, seed=7)[:5]
        cached_session.matrix(make_spec("kast", backend="numpy"), strings)
        _, status = cached_session.matrix_cached(make_spec("kast", backend="python"), strings)
        assert status == "hit"  # backend is value-irrelevant: same cache key

    def test_sessions_without_cache_bypass(self, session, strings):
        _, status = session.matrix_cached(make_spec("kast"), strings[:3])
        assert status == "bypass"
