"""Unit tests for the observability package: metrics, tracing, logging."""

import json
import logging
import threading

import pytest

from repro.obs.logging import JSONLogFormatter, configure_logging
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, render_fleet
from repro.obs.tracing import (
    TRACE_ID_PATTERN,
    current_span_id,
    current_trace_id,
    new_span_id,
    new_trace_id,
    trace_context,
    valid_trace_id,
)


# ----------------------------------------------------------------------
# MetricsRegistry instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_t_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_total_mirrors_external_counter(self):
        counter = MetricsRegistry().counter("repro_t_total")
        counter.set_total(41)
        counter.set_total(42)
        assert counter.value == 42.0

    def test_same_labels_share_a_cell(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", method="a").inc()
        registry.counter("repro_t_total", method="a").inc()
        registry.counter("repro_t_total", method="b").inc()
        assert registry.counter("repro_t_total", method="a").value == 2.0
        assert registry.counter("repro_t_total", method="b").value == 1.0

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total")
        with pytest.raises(ValueError, match="already registered"):
            # repro: lint-ok[REP006] a counter name reused as a gauge is the error under test
            registry.gauge("repro_t_total")

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            # repro: lint-ok[REP006] an invalid metric name is the error under test
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", **{"bad-label": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_h_seconds", "help", buckets=(1.0, 5.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        histogram.observe(100.0)  # beyond the last bound: +Inf only
        assert histogram.sum == pytest.approx(103.5)
        assert histogram.count == 3
        (family,) = registry.snapshot()
        (sample,) = family["samples"]
        assert sample["bucket_counts"] == [1, 2]  # cumulative
        assert sample["count"] == 3

    def test_timer_context_manager(self):
        histogram = MetricsRegistry().histogram("repro_h_seconds")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_h_seconds", buckets=(1.0, 1.0))

    def test_default_buckets_used_when_unspecified(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_seconds").observe(0.01)
        (family,) = registry.snapshot()
        assert tuple(family["buckets"]) == DEFAULT_BUCKETS


class TestRegistry:
    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_z_total").inc()
        registry.counter("repro_a_total").inc()
        names = [family["name"] for family in registry.snapshot()]
        assert names == ["repro_a_total", "repro_z_total"]

    def test_collectors_run_before_snapshot_and_swallow_errors(self):
        registry = MetricsRegistry()

        def fill(r):
            r.gauge("repro_live").set(7)

        def boom(r):
            raise RuntimeError("collector exploded")

        registry.add_collector(fill)
        registry.add_collector(boom)
        snapshot = registry.snapshot()
        live = next(f for f in snapshot if f["name"] == "repro_live")
        assert live["samples"][0]["value"] == 7.0

    def test_thread_safety_under_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
class TestRender:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_req_total", "Requests.", method="submit").inc(3)
        registry.gauge("repro_depth", "Queue depth.").set(2)
        text = registry.render()
        assert "# HELP repro_req_total Requests." in text
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{method="submit"} 3' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2" in text
        assert text.endswith("\n")

    def test_histogram_lines_include_inf_sum_count(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_sum 0.05" in text
        assert "repro_lat_seconds_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_escaped_total", path='a"b\\c\nd').inc()
        text = registry.render()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_render_fleet_adds_origin_labels(self):
        server = MetricsRegistry()
        server.counter("repro_req_total", method="submit").inc(2)
        worker = MetricsRegistry()
        worker.counter("repro_req_total", method="submit").inc(5)
        text = render_fleet(
            [
                {"origin": "server-1", "families": server.snapshot()},
                {"origin": "worker-1", "families": worker.snapshot()},
            ]
        )
        assert 'repro_req_total{method="submit",origin="server-1"} 2' in text
        assert 'repro_req_total{method="submit",origin="worker-1"} 5' in text
        # One TYPE header even though two sources carry the family.
        assert text.count("# TYPE repro_req_total counter") == 1

    def test_render_fleet_skips_malformed_families(self):
        text = render_fleet(
            [{"origin": "w", "families": [{"name": "bad name", "samples": []}, 42]}]
        )
        assert text == ""


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_new_ids_are_valid_and_unique(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        assert valid_trace_id(first)
        assert len(new_span_id()) == 16

    def test_valid_trace_id_charset(self):
        assert valid_trace_id("abc-123_X.z")
        assert not valid_trace_id("")
        assert not valid_trace_id("has space")
        assert not valid_trace_id("x" * 65)
        assert not valid_trace_id(42)
        assert TRACE_ID_PATTERN.startswith("^")

    def test_context_is_ambient_and_restored(self):
        assert current_trace_id() is None
        with trace_context("trace-1", "span-1"):
            assert current_trace_id() == "trace-1"
            assert current_span_id() == "span-1"
            with trace_context("trace-2"):
                assert current_trace_id() == "trace-2"
            assert current_trace_id() == "trace-1"
        assert current_trace_id() is None
        assert current_span_id() is None

    def test_none_trace_id_is_a_noop(self):
        with trace_context(None):
            assert current_trace_id() is None


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
def _format(record_kwargs=None, **extra):
    formatter = JSONLogFormatter()
    record = logging.LogRecord(
        name="repro.test", level=logging.INFO, pathname=__file__, lineno=1,
        msg="hello %s", args=("world",), exc_info=None,
    )
    for key, value in extra.items():
        setattr(record, key, value)
    return json.loads(formatter.format(record))


class TestJSONLogFormatter:
    def test_basic_fields(self):
        entry = _format()
        assert entry["message"] == "hello world"
        assert entry["level"] == "INFO"
        assert entry["logger"] == "repro.test"
        assert entry["time"].endswith("Z")

    def test_trace_from_record_attrs(self):
        entry = _format(trace_id="t-1", span_id="s-1", job_id="j-1")
        assert entry["trace_id"] == "t-1"
        assert entry["span_id"] == "s-1"
        assert entry["job_id"] == "j-1"

    def test_trace_from_ambient_context(self):
        with trace_context("ambient-trace", "ambient-span"):
            entry = _format()
        assert entry["trace_id"] == "ambient-trace"
        assert entry["span_id"] == "ambient-span"

    def test_exception_rendered(self):
        formatter = JSONLogFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            import sys

            record = logging.LogRecord(
                name="repro.test", level=logging.ERROR, pathname=__file__,
                lineno=1, msg="failed", args=(), exc_info=sys.exc_info(),
            )
        entry = json.loads(formatter.format(record))
        assert "ValueError: boom" in entry["exc_info"]


class TestConfigureLogging:
    def _cleanup(self):
        root = logging.getLogger()
        for handler in list(root.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                root.removeHandler(handler)

    def test_json_toggle_via_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        monkeypatch.setenv("REPRO_LOG_LEVEL", "INFO")
        try:
            handler = configure_logging()
            assert isinstance(handler.formatter, JSONLogFormatter)
            logging.getLogger("repro.test").info("structured line")
            err = capsys.readouterr().err
            entry = json.loads(err.strip().splitlines()[-1])
            assert entry["message"] == "structured line"
        finally:
            self._cleanup()

    def test_plain_format_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        try:
            handler = configure_logging()
            assert not isinstance(handler.formatter, JSONLogFormatter)
        finally:
            self._cleanup()

    def test_reinstall_is_idempotent(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_JSON", "true")
        try:
            configure_logging()
            configure_logging()
            root = logging.getLogger()
            obs_handlers = [
                h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
            ]
            assert len(obs_handlers) == 1
        finally:
            self._cleanup()

    def test_bad_level_falls_back_to_info(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "NOT_A_LEVEL")
        try:
            configure_logging()
            assert logging.getLogger().level == logging.INFO
        finally:
            self._cleanup()
