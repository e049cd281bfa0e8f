"""The linter runs self-hosted over this repository's own `src/` tree.

This is the test CI leans on: every correctness contract the checkers
encode (atomic writes, lock discipline, determinism, protocol
completeness, typed errors, metric naming) holds over the codebase as
committed, modulo the explicitly-justified suppressions and the
committed baseline.
"""

from __future__ import annotations

import importlib
import pathlib
import pkgutil

import repro
import repro.devtools.lint.checkers
from repro.devtools.lint import Baseline, lint_paths, registered_rules

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
REPO_ROOT = SRC.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_src_tree_has_zero_non_baselined_findings():
    baseline = Baseline.load(str(BASELINE)) if BASELINE.exists() else None
    report = lint_paths([str(SRC)], baseline=baseline)
    formatted = "\n".join(
        f"{finding.location()}: {finding.rule} {finding.message}" for finding in report.new
    )
    assert report.new == [], f"new lint findings in src/:\n{formatted}"


def test_committed_baseline_has_no_stale_entries():
    if not BASELINE.exists():
        return
    baseline = Baseline.load(str(BASELINE))
    report = lint_paths([str(SRC)], baseline=baseline)
    stale = [entry.to_dict() for entry in report.stale]
    assert stale == [], f"stale baseline entries (debt already paid): {stale}"


def test_every_committed_suppression_is_justified():
    # REP000 runs as part of the full sweep above, but assert directly so
    # a reason-less suppression fails with a pointed message even if
    # REP000 itself is ever baselined.
    report = lint_paths([str(SRC)], select=["REP000"])
    assert report.new == [], [finding.message for finding in report.new]


def test_the_advertised_rule_set_is_registered():
    rules = registered_rules()
    for rule in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
        assert rule in rules


def test_scan_covers_the_whole_package():
    report = lint_paths([str(SRC)])
    # The tree has ~100 modules; a collapse of the walker to a handful
    # of files would silently void every other assertion here.
    assert report.files > 80


def test_every_module_a_checker_names_exists():
    # A rule scoped to (or exempting) a module by path silently checks
    # nothing once that module is deleted or renamed.
    package = repro.devtools.lint.checkers
    named = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for attribute, value in vars(module).items():
            values = value if isinstance(value, (tuple, list, frozenset, set)) else (value,)
            for path in values:
                if isinstance(path, str) and path.startswith("repro/") and path.endswith(".py"):
                    named.append((f"{info.name}.{attribute}", path))
    assert {path for _, path in named} >= {
        "repro/core/atomicio.py", "repro/service/jobstore.py", "repro/service/protocol.py",
        "repro/service/server.py", "repro/service/client.py", "repro/obs/metrics.py",
    }
    missing = [(where, path) for where, path in named if "*" not in path and not (SRC / path).is_file()]
    assert missing == [], f"checkers name modules that do not exist under src/: {missing}"
