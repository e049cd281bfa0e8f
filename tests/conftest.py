"""Shared pytest fixtures.

The fixtures deliberately use small, fast corpora (a handful of traces per
category) so the unit-test suite stays quick; the full 110-example
reproduction of the paper's corpus is exercised by the integration test and
by the benchmarks.
"""

from __future__ import annotations

import logging
from typing import List

import pytest

from repro.pipeline.config import ExperimentConfig
from repro.strings.encoder import trace_to_string
from repro.strings.tokens import Token, WeightedString
from repro.traces.model import IOOperation, IOTrace
from repro.workloads.corpus import CorpusConfig, build_corpus


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a test that runs the paper's full experiments (seconds, not milliseconds)")


@pytest.fixture(autouse=True)
def restore_root_logger():
    """Give each test the root logger's handlers and level back as it found them.

    ``repro serve`` / ``repro worker`` run in-process call
    ``configure_logging()``, which leaves a root handler on the stream that
    was ``sys.stderr`` then: pytest's capture, closed once the test ends.
    """
    root = logging.getLogger()
    handlers, level = list(root.handlers), root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


@pytest.fixture
def simple_trace() -> IOTrace:
    """A tiny hand-written trace: one handle, one block, a small write loop."""
    return IOTrace.from_tuples(
        [
            ("open", "f1", 0),
            ("write", "f1", 1024),
            ("write", "f1", 1024),
            ("write", "f1", 1024),
            ("lseek", "f1", 0),
            ("write", "f1", 512),
            ("close", "f1", 0),
        ],
        name="simple",
        label="X",
    )


@pytest.fixture
def two_handle_trace() -> IOTrace:
    """A trace whose operations interleave two file handles."""
    return IOTrace.from_tuples(
        [
            ("open", "f1", 0),
            ("open", "f2", 0),
            ("write", "f1", 64),
            ("read", "f2", 128),
            ("write", "f1", 64),
            ("read", "f2", 128),
            ("close", "f1", 0),
            ("fileno", "f2", 0),
            ("read", "f2", 128),
            ("close", "f2", 0),
        ],
        name="two_handles",
    )


@pytest.fixture
def simple_string(simple_trace: IOTrace) -> WeightedString:
    """The weighted string of the ``simple_trace`` fixture."""
    return trace_to_string(simple_trace)


@pytest.fixture
def small_corpus() -> List[IOTrace]:
    """A reduced labelled corpus (2 originals + 1 copy per class = 16 traces)."""
    return build_corpus(CorpusConfig.small(seed=7))


@pytest.fixture
def small_corpus_strings(small_corpus: List[IOTrace]) -> List[WeightedString]:
    """Weighted strings of the reduced corpus (byte information kept)."""
    return [trace_to_string(trace) for trace in small_corpus]


@pytest.fixture
def small_experiment_config() -> ExperimentConfig:
    """An experiment configuration bound to the reduced corpus."""
    return ExperimentConfig(corpus=CorpusConfig.small(seed=7))


@pytest.fixture
def weighted_string_pair() -> tuple:
    """Two small weighted strings sharing an obvious substring."""
    string_a = WeightedString.from_pairs(
        [("[ROOT]", 1), ("[HANDLE]", 1), ("[BLOCK]", 1), ("write[1024]", 10), ("read[512]", 4), ("[LEVEL_UP]", 2)],
        name="pair_a",
        label="A",
    )
    string_b = WeightedString.from_pairs(
        [("[ROOT]", 1), ("[HANDLE]", 1), ("[BLOCK]", 1), ("write[1024]", 7), ("fsync[0]", 2), ("[LEVEL_UP]", 3)],
        name="pair_b",
        label="B",
    )
    return string_a, string_b
