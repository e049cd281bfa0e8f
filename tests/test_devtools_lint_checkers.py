"""Per-rule fixture tests: each checker catches its seeded violation and
passes the clean twin (repro.devtools.lint.checkers)."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import Project, lint_project


def run_rule(rule, texts):
    """Lint in-memory *texts* with one rule; returns the new findings."""
    report = lint_project(Project.from_texts(texts), select=[rule])
    return report.new


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


def dedent(text):
    return textwrap.dedent(text).lstrip("\n")


# ----------------------------------------------------------------------
# REP001 — atomic writes
# ----------------------------------------------------------------------
class TestRep001AtomicWrites:
    def test_bare_write_open_in_store_module_is_flagged(self):
        findings = run_rule(
            "REP001",
            {
                "repro/core/cachestore.py": dedent(
                    """
                    def save(path, text):
                        with open(path, "w", encoding="utf-8") as handle:
                            handle.write(text)
                    """
                )
            },
        )
        assert len(findings) == 1
        assert findings[0].rule == "REP001"
        assert "os.replace" in findings[0].message

    def test_write_text_method_is_flagged(self):
        findings = run_rule(
            "REP001",
            {
                "repro/service/jobstore.py": dedent(
                    """
                    def save(path, text):
                        path.write_text(text)
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "write_text" in findings[0].message

    def test_full_inline_idiom_passes(self):
        # A function implementing unique-temp + os.replace itself is the
        # idiom, not a violation (this is atomicio's own shape).
        findings = run_rule(
            "REP001",
            {
                "repro/core/pairstore.py": dedent(
                    """
                    import os
                    import uuid

                    def save(path, text):
                        temporary = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
                        with open(temporary, "w", encoding="utf-8") as handle:
                            handle.write(text)
                            handle.flush()
                            os.fsync(handle.fileno())
                        os.replace(temporary, path)
                    """
                )
            },
        )
        assert findings == []

    def test_pid_only_temp_name_is_still_flagged(self):
        # os.replace alone is not enough: a pid-only temp name is the
        # PR 5 thread-collision bug.
        findings = run_rule(
            "REP001",
            {
                "repro/service/worker.py": dedent(
                    """
                    import os

                    def save(path, text):
                        temporary = f"{path}.tmp.{os.getpid()}"
                        with open(temporary, "w", encoding="utf-8") as handle:
                            handle.write(text)
                        os.replace(temporary, path)
                    """
                )
            },
        )
        assert len(findings) == 1

    def test_blessed_helper_call_passes(self):
        findings = run_rule(
            "REP001",
            {
                "repro/core/cachestore.py": dedent(
                    """
                    from repro.core.atomicio import write_text_atomic

                    def save(path, text):
                        write_text_atomic(path, text)
                    """
                )
            },
        )
        assert findings == []

    def test_read_open_passes_and_out_of_scope_module_passes(self):
        texts = {
            "repro/core/cachestore.py": dedent(
                """
                def load(path):
                    with open(path, "r", encoding="utf-8") as handle:
                        return handle.read()
                """
            ),
            # Scripts outside the package are not scanned.
            "benchmarks/run_bench.py": dedent(
                """
                def save(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """
            ),
        }
        assert run_rule("REP001", texts) == []

    @pytest.mark.parametrize(
        "module", ["repro/core/engine.py", "repro/traces/writer.py", "repro/viz/scatter.py"]
    )
    def test_bare_write_open_anywhere_in_the_package_is_flagged(self, module):
        # The scope is every module under repro/, not a fixed store list.
        findings = run_rule(
            "REP001",
            {
                module: dedent(
                    """
                    def save(path, text):
                        with open(path, "w", encoding="utf-8") as handle:
                            handle.write(text)
                    """
                )
            },
        )
        assert rules_of(findings) == ["REP001"]


# ----------------------------------------------------------------------
# REP002 — lock discipline
# ----------------------------------------------------------------------
_LOCKED_CLASS = """
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
        self.count = 0

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self.count += 1
"""


class TestRep002LockDiscipline:
    def test_unguarded_mutation_of_guarded_attr_is_flagged(self):
        findings = run_rule(
            "REP002",
            {
                "repro/service/tenancy.py": dedent(
                    _LOCKED_CLASS
                    + """
    def reset(self):
        self._entries = {}
"""
                )
            },
        )
        assert len(findings) == 1
        assert "_entries" in findings[0].message

    def test_unguarded_subscript_store_is_flagged(self):
        findings = run_rule(
            "REP002",
            {
                "repro/service/tenancy.py": dedent(
                    _LOCKED_CLASS
                    + """
    def sneak(self, key, value):
        self._entries[key] = value
"""
                )
            },
        )
        assert len(findings) == 1

    def test_all_mutations_under_lock_pass(self):
        findings = run_rule(
            "REP002",
            {
                "repro/service/tenancy.py": dedent(
                    _LOCKED_CLASS
                    + """
    def reset(self):
        with self._lock:
            self._entries = {}
"""
                )
            },
        )
        assert findings == []

    def test_init_assignment_is_allowed(self):
        # Construction happens-before any other thread holds a reference.
        findings = run_rule("REP002", {"repro/service/tenancy.py": dedent(_LOCKED_CLASS)})
        assert findings == []

    def test_class_without_lock_is_ignored(self):
        findings = run_rule(
            "REP002",
            {
                "repro/api/session.py": dedent(
                    """
                    class Plain:
                        def __init__(self):
                            self._entries = {}

                        def put(self, key, value):
                            self._entries[key] = value
                    """
                )
            },
        )
        assert findings == []

    def test_jobstore_internals_reached_from_outside_are_flagged(self):
        findings = run_rule(
            "REP002",
            {
                "repro/service/server.py": dedent(
                    """
                    def finish(store, record):
                        store._write_record(record)
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "mutate()" in findings[0].message

    def test_jobstore_internals_inside_jobstore_pass(self):
        findings = run_rule(
            "REP002",
            {
                "repro/service/jobstore.py": dedent(
                    """
                    class JobStore:
                        def _update(self, record):
                            self._write_record(record)
                    """
                )
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003 — determinism
# ----------------------------------------------------------------------
class TestRep003Determinism:
    def test_unseeded_module_randomness_is_flagged(self):
        findings = run_rule(
            "REP003",
            {
                "repro/strings/encoder.py": dedent(
                    """
                    import random

                    def jitter():
                        return random.random()
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "seeded" in findings[0].message

    def test_seeded_generator_passes(self):
        findings = run_rule(
            "REP003",
            {
                "repro/strings/encoder.py": dedent(
                    """
                    import random

                    def generator(seed):
                        rng = random.Random(seed)
                        return rng.random()
                    """
                )
            },
        )
        assert findings == []

    def test_zero_arg_random_instance_is_flagged(self):
        findings = run_rule(
            "REP003",
            {"repro/learn/kpca.py": "import random\nrng = random.Random()\n"},
        )
        assert len(findings) == 1

    def test_wall_clock_in_value_path_is_flagged(self):
        findings = run_rule(
            "REP003",
            {
                "repro/core/engine.py": dedent(
                    """
                    import time

                    def stamp(payload):
                        payload["at"] = time.time()
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_monotonic_duration_clock_passes(self):
        findings = run_rule(
            "REP003",
            {
                "repro/core/engine.py": dedent(
                    """
                    import time

                    def measure():
                        return time.monotonic()
                    """
                )
            },
        )
        assert findings == []

    def test_round_and_precision_formats_are_flagged(self):
        findings = run_rule(
            "REP003",
            {
                "repro/kernels/base.py": dedent(
                    """
                    def lossy(value):
                        a = round(value, 6)
                        b = f"{value:.6f}"
                        c = "%.6f" % value
                        d = format(value, ".6f")
                        return a, b, c, d
                    """
                )
            },
        )
        assert len(findings) == 4

    def test_out_of_scope_module_passes(self):
        # Reports and CLI chatter may format floats for humans freely.
        findings = run_rule(
            "REP003",
            {"repro/pipeline/report.py": "import time\nnow = time.time()\nx = f\"{1.5:.2f}\"\n"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — protocol completeness
# ----------------------------------------------------------------------
def protocol_trio(register_ping=True, parse_ping=True, client_ping=True):
    parse_entry = "PingRequest, " if parse_ping else ""
    route_entry = "        router.register(PingRequest, self._handle_ping)\n" if register_ping else ""
    client_use = "        return self._roundtrip(PingRequest())\n" if client_ping else "        return None\n"
    return {
        "repro/service/protocol.py": dedent(
            f"""
            class Request:
                TYPE = ""

            class PingRequest(Request):
                TYPE = "ping"

            class StatusRequest(Request):
                TYPE = "status"

            _REQUEST_TYPES = {{cls.TYPE: cls for cls in ({parse_entry}StatusRequest,)}}
            """
        ),
        "repro/service/server.py": dedent(
            f"""
            class Server:
                def _register_routes(self, router):
            {route_entry}        router.register(StatusRequest, self._handle_status)
            """
        ),
        "repro/service/client.py": dedent(
            f"""
            class ServiceClient:
                def ping(self):
            {client_use}
                def status(self):
                    return self._roundtrip(StatusRequest())
            """
        ),
    }


class TestRep004ProtocolCompleteness:
    def test_fully_wired_request_passes(self):
        assert run_rule("REP004", protocol_trio()) == []

    def test_missing_parse_table_entry_is_flagged(self):
        findings = run_rule("REP004", protocol_trio(parse_ping=False))
        assert len(findings) == 1
        assert "_REQUEST_TYPES" in findings[0].message
        assert findings[0].path == "repro/service/protocol.py"

    def test_missing_router_registration_is_flagged(self):
        findings = run_rule("REP004", protocol_trio(register_ping=False))
        assert len(findings) == 1
        assert "_register_routes" in findings[0].message

    def test_missing_client_surface_is_flagged(self):
        findings = run_rule("REP004", protocol_trio(client_ping=False))
        assert len(findings) == 1
        assert "ServiceClient" in findings[0].message

    def test_no_protocol_file_means_no_findings(self):
        assert run_rule("REP004", {"repro/core/engine.py": "x = 1\n"}) == []


# ----------------------------------------------------------------------
# REP005 — typed errors
# ----------------------------------------------------------------------
class TestRep005TypedErrors:
    def test_bare_runtime_error_in_service_tier_is_flagged(self):
        findings = run_rule(
            "REP005",
            {
                "repro/service/router.py": dedent(
                    """
                    def handle(request):
                        raise RuntimeError("nope")
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "ServiceError" in findings[0].message

    def test_typed_error_raise_passes(self):
        findings = run_rule(
            "REP005",
            {
                "repro/service/router.py": dedent(
                    """
                    def handle(request):
                        raise JobNotFoundError("job-1")
                    """
                )
            },
        )
        assert findings == []

    def test_raise_outside_service_tier_passes(self):
        findings = run_rule(
            "REP005",
            {"repro/core/engine.py": "def f():\n    raise RuntimeError('internal')\n"},
        )
        assert findings == []

    def test_error_class_missing_from_code_table_is_flagged(self):
        findings = run_rule(
            "REP005",
            {
                "repro/service/protocol.py": dedent(
                    """
                    class ServiceError(Exception):
                        code = "internal-error"

                    class JobNotFoundError(ServiceError):
                        code = "job-not-found"

                    class RateLimitedError(ServiceError):
                        code = "rate-limited"

                    _ERROR_CODES = {cls.code: cls for cls in (JobNotFoundError,)}
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "RateLimitedError" in findings[0].message

    def test_duplicate_error_codes_are_flagged(self):
        findings = run_rule(
            "REP005",
            {
                "repro/service/protocol.py": dedent(
                    """
                    class ServiceError(Exception):
                        code = "internal-error"

                    class AError(ServiceError):
                        code = "same-code"

                    class BError(ServiceError):
                        code = "same-code"

                    _ERROR_CODES = {cls.code: cls for cls in (AError, BError)}
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "same-code" in findings[0].message


# ----------------------------------------------------------------------
# REP006 — metric naming
# ----------------------------------------------------------------------
class TestRep006MetricNaming:
    def test_unprefixed_name_is_flagged(self):
        findings = run_rule(
            "REP006",
            {
                "repro/service/server.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("requests_total", "Requests.").inc()
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "repro_" in findings[0].message

    def test_counter_without_total_suffix_is_flagged(self):
        findings = run_rule(
            "REP006",
            {
                "repro/service/server.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("repro_requests", "Requests.").inc()
                    """
                )
            },
        )
        assert len(findings) == 1
        assert "_total" in findings[0].message

    def test_gauge_with_total_suffix_is_flagged(self):
        findings = run_rule(
            "REP006",
            {
                "repro/service/server.py": dedent(
                    """
                    def collect(registry):
                        registry.gauge("repro_queue_depth_total", "Depth.").set(1)
                    """
                )
            },
        )
        assert len(findings) == 1

    def test_fstring_template_name_passes(self):
        findings = run_rule(
            "REP006",
            {
                "repro/service/worker.py": dedent(
                    """
                    def collect(registry, key):
                        registry.counter(f"repro_engine_{key}_total", "Engine counter.").inc()
                    """
                )
            },
        )
        assert findings == []

    def test_subset_label_schemas_across_sites_pass(self):
        # A worker legitimately reports the same family without the
        # server's tenant label: subset schemas aggregate cleanly.
        findings = run_rule(
            "REP006",
            {
                "repro/service/server.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("repro_requests_total", "Requests.",
                                         method="m", tenant="t").inc()
                    """
                ),
                "repro/service/worker.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("repro_requests_total", "Requests.",
                                         method="m").inc()
                    """
                ),
            },
        )
        assert findings == []

    def test_forked_label_schemas_are_flagged(self):
        findings = run_rule(
            "REP006",
            {
                "repro/service/server.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("repro_requests_total", "Requests.",
                                         method="m", tenant="t").inc()
                    """
                ),
                "repro/service/worker.py": dedent(
                    """
                    def collect(registry):
                        registry.counter("repro_requests_total", "Requests.",
                                         method="m", shard="s").inc()
                    """
                ),
            },
        )
        assert len(findings) == 1
        assert "one family, one schema" in findings[0].message

    def test_registry_module_itself_is_exempt(self):
        findings = run_rule(
            "REP006",
            {"repro/obs/metrics.py": "def f(r, name):\n    r.counter(name, 'x').inc()\n"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP000 — hygiene
# ----------------------------------------------------------------------
class TestRep000Hygiene:
    def test_reasonless_suppression_is_flagged(self):
        findings = run_rule(
            "REP000",
            {"repro/core/engine.py": "import time\nx = time.time()  # repro: lint-ok[REP003]\n"},
        )
        assert len(findings) == 1
        assert "reason" in findings[0].message

    def test_malformed_rule_list_is_flagged(self):
        findings = run_rule(
            "REP000",
            {"repro/core/engine.py": "x = 1  # repro: lint-ok[rep3] lowercase id\n"},
        )
        assert len(findings) == 1
        assert "malformed" in findings[0].message

    def test_unparsable_file_is_flagged(self):
        findings = run_rule("REP000", {"repro/core/engine.py": "def broken(:\n"})
        assert len(findings) == 1
        assert "syntax error" in findings[0].message

    def test_well_formed_suppression_is_clean(self):
        findings = run_rule(
            "REP000",
            {"repro/core/engine.py": "import time\nx = time.time()  # repro: lint-ok[REP003] ttl clock\n"},
        )
        assert findings == []
