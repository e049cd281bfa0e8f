"""Tests for the state-dir namespaces (repro.service.tenancy).

One module opens, walks, sweeps, summarises and counts every namespace of
a state dir — the root one and each ``tenants/<id>/`` — for the server,
the worker and ``gc`` alike.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import AnalysisSession, make_spec
from repro.cli import main
from repro.core.atomicio import TEMP_STALE_SECONDS
from repro.core.pairstore import PairStore
from repro.obs.metrics import MetricsRegistry
from repro.service import AnalysisServer, Authenticator, Worker
from repro.service.protocol import BadRequest, encode_corpus
from repro.service.tenancy import (
    DEFAULT_TENANT,
    StateDir,
    mirror_namespace_counters,
    namespace_stats,
    sweep_namespace,
)

SPEC = make_spec("kast", cut_weight=2)


@pytest.fixture(scope="module")
def strings():
    with AnalysisSession() as session:
        return session.corpus(small=True, seed=7)[:6]


def _sample_values(families, name, **labels):
    for family in families:
        if family["name"] == name:
            return [
                sample["value"] for sample in family["samples"]
                if all(sample["labels"].get(key) == value for key, value in labels.items())
            ]
    return []


class TestOpen:
    def test_root_and_tenant_namespaces_share_one_wake_dir(self, tmp_path):
        state = StateDir(str(tmp_path / "state"))
        root = state.open()
        tenant = state.open("acme")
        assert root.tenant_id == DEFAULT_TENANT and root.root == state.path
        assert tenant.root == os.path.join(state.path, "tenants", "acme")
        assert tenant.store.wake_dir == root.store.wake_dir
        assert tenant.session is not root.session
        for namespace in (root, tenant):
            assert namespace.session.matrix_cache.root == os.path.join(namespace.root, "matrix-cache")
            assert namespace.session.pair_store.root == os.path.join(namespace.root, "pair-store")
            assert namespace.model_store.root == os.path.join(namespace.root, "models")

    def test_a_namespace_is_opened_once(self, tmp_path):
        state = StateDir(str(tmp_path / "state"))
        assert state.open("acme") is state.open("acme")
        assert [namespace.tenant_id for namespace in state.opened()] == [DEFAULT_TENANT, "acme"]

    def test_caller_session_keeps_its_layers(self, tmp_path):
        own_store = PairStore(str(tmp_path / "elsewhere"))
        session = AnalysisSession(pair_store=own_store)
        namespace = StateDir(str(tmp_path / "state")).open(session=session)
        assert namespace.session is session
        assert session.pair_store is own_store
        assert session.matrix_cache is not None  # the missing layer is added

    def test_layers_can_be_left_closed(self, tmp_path):
        state = StateDir(str(tmp_path / "state"), recover=False, result_cache=False, pair_store=False)
        namespace = state.open("acme")
        assert namespace.session.matrix_cache is None
        assert namespace.session.pair_store is None
        stats = namespace_stats(namespace)
        assert stats["matrix_cache"] is None and stats["pair_store"] is None

    def test_bounds_reach_the_layers(self, tmp_path):
        namespace = StateDir(
            str(tmp_path / "state"), max_cache_entries=5, cache_ttl=60.0,
            max_pair_bytes=4096, pair_ttl=30.0,
        ).open("acme")
        assert (namespace.session.matrix_cache.max_entries, namespace.session.matrix_cache.ttl) == (5, 60.0)
        assert (namespace.session.pair_store.max_bytes, namespace.session.pair_store.ttl) == (4096, 30.0)

    def test_invalid_tenant_id_is_a_bad_request(self, tmp_path):
        with pytest.raises(BadRequest):
            StateDir(str(tmp_path / "state")).open("../escape")


class TestNamespaces:
    def test_root_first_then_tenants_sorted_and_listed_afresh(self, tmp_path):
        state = StateDir(str(tmp_path / "state"))
        tenants = os.path.join(state.path, "tenants")
        for name in ("zeta", "alpha", ".hidden"):
            os.makedirs(os.path.join(tenants, name))
        with open(os.path.join(tenants, "stray-file"), "w", encoding="utf-8") as handle:
            handle.write("not a namespace")
        assert [n.tenant_id for n in state.namespaces()] == [DEFAULT_TENANT, "alpha", "zeta"]
        os.makedirs(os.path.join(tenants, "mid"))
        assert [n.tenant_id for n in state.namespaces()] == [DEFAULT_TENANT, "alpha", "mid", "zeta"]

    def test_root_is_yielded_before_the_tenants_are_listed(self, tmp_path):
        state = StateDir(str(tmp_path / "state"))
        walk = state.namespaces()
        assert next(walk).tenant_id == DEFAULT_TENANT
        os.makedirs(os.path.join(state.path, "tenants", "late"))
        assert [namespace.tenant_id for namespace in walk] == ["late"]


def _dead_temp_files(directory):
    """A stale and a fresh temporary of writes that died in *directory*."""
    os.makedirs(directory, exist_ok=True)
    stale = os.path.join(directory, "a.json.tmp.1.deadbeef")
    fresh = os.path.join(directory, "b.json.tmp.1.cafef00d")
    for path in (stale, fresh):
        open(path, "x").close()
    long_ago = time.time() - 2 * TEMP_STALE_SECONDS
    os.utime(stale, (long_ago, long_ago))
    return stale, fresh


class TestSweepAndStats:
    def _finished_job(self, namespace, age):
        record = namespace.store.create("matrix")
        namespace.store.store_result(record.job_id, {"x": 1})
        namespace.store.update(record.job_id, updated_at=time.time() - age)
        return record.job_id

    def test_sweep_drops_old_terminal_jobs_only_with_a_ttl(self, tmp_path):
        namespace = StateDir(str(tmp_path / "state")).open("acme")
        old = self._finished_job(namespace, age=100)
        fresh = self._finished_job(namespace, age=0)
        assert sweep_namespace(namespace)["jobs"] == []
        assert sweep_namespace(namespace, 50, dry_run=True)["jobs"] == [old]
        assert namespace.store.get(old).status == "done"
        assert sweep_namespace(namespace, 50)["jobs"] == [old]
        assert [record.job_id for record in namespace.store.records()] == [fresh]

    def test_sweep_removes_stale_temp_files_from_jobs_and_models(self, tmp_path):
        namespace = StateDir(str(tmp_path / "state")).open("acme")
        temps = [
            _dead_temp_files(directory)
            for directory in (namespace.store.jobs_dir, namespace.model_store.root)
        ]
        sweep_namespace(namespace, dry_run=True)
        for stale, fresh in temps:
            assert os.path.exists(stale) and os.path.exists(fresh)
        sweep_namespace(namespace)
        for stale, fresh in temps:
            assert not os.path.exists(stale) and os.path.exists(fresh)
        assert namespace.store.records() == []

    def test_sweep_keeps_a_model_whose_name_looks_like_a_temp_file(self, tmp_path, strings):
        namespace = StateDir(str(tmp_path / "state")).open("acme")
        model, _ = namespace.session.fit_landmark_model(
            SPEC, strings, name="x.tmp.1.deadbeef", landmarks=3
        )
        path = namespace.model_store.save(model)
        long_ago = time.time() - 2 * TEMP_STALE_SECONDS
        os.utime(path, (long_ago, long_ago))
        sweep_namespace(namespace)
        assert namespace.model_store.load("x.tmp.1.deadbeef") == model

    def test_sweep_evicts_cache_entries_past_the_open_bound(self, tmp_path, strings):
        StateDir(str(tmp_path / "state")).open().session.matrix_cached(SPEC, strings)
        # The same namespace, opened under a bound the entry is past.
        namespace = StateDir(str(tmp_path / "state"), recover=False, cache_ttl=0.0).open()
        assert namespace_stats(namespace)["matrix_cache"]["entries"] == 1
        kept = sweep_namespace(namespace, matrix_cache=False)
        assert kept["matrix_cache"] == [] and namespace_stats(namespace)["matrix_cache"]["entries"] == 1
        assert sweep_namespace(namespace, dry_run=True)["matrix_cache"] == []
        assert len(sweep_namespace(namespace)["matrix_cache"]) == 1
        assert namespace_stats(namespace)["matrix_cache"]["entries"] == 0

    def test_stats_count_jobs_and_read_each_layer(self, tmp_path, strings):
        namespace = StateDir(str(tmp_path / "state")).open()
        self._finished_job(namespace, age=0)
        namespace.store.create("matrix")
        namespace.session.matrix_cached(SPEC, strings)
        cheap = namespace_stats(namespace)
        assert cheap["jobs"] == {"done": 1, "queued": 1}
        assert cheap["matrix_cache"]["entries"] == 1
        assert "segments" not in cheap["pair_store"]  # counters only: no segment walk
        assert cheap["pair_store"]["puts"] > 0
        full = namespace_stats(namespace, full=True)
        assert full["pair_store"]["segments"] >= 1
        assert full["model_store"]["models"] == 0

    def test_counters_carry_the_tenant_label(self, tmp_path, strings):
        namespace = StateDir(str(tmp_path / "state")).open("acme")
        namespace.session.matrix_cached(SPEC, strings)
        registry = MetricsRegistry()
        mirror_namespace_counters(namespace, registry)
        families = registry.snapshot()
        evals = _sample_values(families, "repro_engine_kernel_evals_total", tenant="acme")
        assert evals and evals[0] == len(strings) * (len(strings) + 1) // 2
        assert _sample_values(families, "repro_matrix_cache_stores_total", tenant="acme") == [1.0]
        assert _sample_values(families, "repro_pair_store_puts_total", tenant="acme")
        assert _sample_values(families, "repro_jobstore_created_total", tenant="acme") == [0.0]


class TestWorkerMetrics:
    def test_tenant_fit_reaches_the_worker_snapshot(self, tmp_path, strings):
        state_dir = str(tmp_path / "state")
        tenant = StateDir(state_dir).open("acme")
        record = tenant.store.create(
            "fit-model",
            options={"model": "offline"},
            input={
                "spec": SPEC.to_dict(),
                "strings": list(encode_corpus(strings)),
                "name": "offline",
                "landmarks": 3,
            },
        )
        with Worker(state_dir) as worker:
            assert worker.run_once() == record.job_id
        assert tenant.store.get(record.job_id).status == "done"
        assert tenant.model_store.names() == ["offline"]
        with open(worker.metrics_path, "r", encoding="utf-8") as handle:
            families = json.load(handle)["families"]
        evals = _sample_values(families, "repro_engine_kernel_evals_total", tenant="acme")
        assert evals and evals[0] > 0
        assert _sample_values(families, "repro_jobstore_claims_total", tenant="acme") == [1.0]
        assert _sample_values(families, "repro_engine_kernel_evals_total", tenant=DEFAULT_TENANT) == [0.0]


class TestGcCommand:
    def test_gc_sweeps_and_summarises_every_namespace(self, tmp_path, capsys, strings):
        state_dir = str(tmp_path / "state")
        state = StateDir(state_dir)
        swept = {}
        for tenant_id in (DEFAULT_TENANT, "acme"):
            namespace = state.open(tenant_id)
            record = namespace.store.create("matrix")
            namespace.store.store_result(record.job_id, {"x": 1})
            namespace.store.update(record.job_id, updated_at=time.time() - 100)
            swept[tenant_id] = record.job_id
        state.open("acme").session.matrix_cached(SPEC, strings)
        assert main(["gc", "--state-dir", state_dir, "--ttl", "50", "--cache-ttl", "0"]) == 0
        out = capsys.readouterr().out
        root_part, acme_part = out.split("tenant acme:\n")
        assert swept[DEFAULT_TENANT] in root_part and swept["acme"] in acme_part
        assert "evicted 0 result-cache entr(ies)" in root_part
        assert "evicted 1 result-cache entr(ies)" in acme_part
        assert "pair-store segment(s) from" not in out  # no pair bound given: left alone
        for part in (root_part, acme_part):
            assert "matrix cache: 0 entr(ies)" in part
            assert "pair store  : " in part and "models      : 0 model(s)" in part
        assert state.open("acme").store.records() == []


    def test_gc_removes_stale_temp_files_from_metrics(self, tmp_path):
        state = StateDir(str(tmp_path / "state"))
        stale, fresh = _dead_temp_files(state.metrics_dir)
        assert main(["gc", "--state-dir", state.path, "--ttl", "0", "--dry-run"]) == 0
        assert os.path.exists(stale)
        assert main(["gc", "--state-dir", state.path, "--ttl", "0"]) == 0
        assert not os.path.exists(stale) and os.path.exists(fresh)


class TestServerNamespaces:
    def test_maintenance_removes_stale_temp_files(self, tmp_path):
        with AnalysisServer(state_dir=str(tmp_path / "state"), gc_interval=3600) as server:
            temps = [
                _dead_temp_files(directory)
                for directory in (server.metrics_dir, server.store.jobs_dir, server.model_store.root)
            ]
            server._maintenance_tick()
            for stale, fresh in temps:
                assert not os.path.exists(stale) and os.path.exists(fresh)

    def test_tenant_contexts_wrap_the_state_dir_namespaces(self, tmp_path):
        auth = Authenticator.single("acme-secret", tenant="acme")
        with AnalysisServer(state_dir=str(tmp_path / "state"), authenticator=auth) as server:
            context = server.tenants.context("acme")
            assert context.namespace is server.state.open("acme")
            assert context.store is context.namespace.store
            default = server.tenants.context(DEFAULT_TENANT)
            assert (default.store, default.session, default.model_store) == (
                server.store, server.session, server.model_store
            )
