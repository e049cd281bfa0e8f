"""Engine-level tests: suppressions, baseline round-trip, rule filtering,
the registry, and the `repro lint` CLI (repro.devtools.lint)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.devtools.lint import (
    Baseline,
    BaselineEntry,
    BaselineError,
    Checker,
    LintRegistryError,
    Project,
    lint_project,
    register_checker,
    registered_rules,
)

VIOLATION = 'import time\n\ndef stamp():\n    return time.time()\n'
PATH = "repro/core/engine.py"


def run(texts, **kwargs):
    return lint_project(Project.from_texts(texts), **kwargs)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression_silences_the_finding(self):
        text = 'import time\nx = time.time()  # repro: lint-ok[REP003] ttl clock\n'
        report = run({PATH: text}, select=["REP003"])
        assert report.new == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "REP003"

    def test_line_above_suppression_silences_the_next_line(self):
        text = (
            "import time\n"
            "# repro: lint-ok[REP003] ttl clock for the sweep\n"
            "x = time.time()\n"
        )
        report = run({PATH: text}, select=["REP003"])
        assert report.new == []
        assert len(report.suppressed) == 1

    def test_suppression_for_a_different_rule_does_not_silence(self):
        text = 'import time\nx = time.time()  # repro: lint-ok[REP001] wrong rule\n'
        report = run({PATH: text}, select=["REP003"])
        assert len(report.new) == 1

    def test_comment_only_suppression_does_not_leak_past_next_line(self):
        text = (
            "import time\n"
            "# repro: lint-ok[REP003] only the next line\n"
            "a = 1\n"
            "x = time.time()\n"
        )
        report = run({PATH: text}, select=["REP003"])
        assert len(report.new) == 1

    def test_multi_rule_suppression(self):
        text = (
            "import time, random\n"
            "x = (time.time(), random.random())  # repro: lint-ok[REP003,REP001] both rules, one reason\n"
        )
        report = run({PATH: text}, select=["REP003"])
        assert report.new == []
        assert len(report.suppressed) == 2


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_add_then_match_then_expire(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")

        # 1. A fresh violation is a new finding.
        report = run({PATH: VIOLATION}, select=["REP003"])
        assert len(report.new) == 1

        # 2. Grandfather it.
        entries = [BaselineEntry.from_finding(report.new[0], "legacy stamp, tracked in #42")]
        Baseline.save(baseline_path, entries)

        # 3. The same finding now passes as baselined.
        report = run(
            {PATH: VIOLATION}, select=["REP003"], baseline=Baseline.load(baseline_path)
        )
        assert report.new == []
        assert len(report.baselined) == 1
        assert report.stale == []
        assert report.ok

        # 4. Fixing the code expires the entry: stale, not matched.
        fixed = "import time\n\ndef stamp(now):\n    return now\n"
        report = run({PATH: fixed}, select=["REP003"], baseline=Baseline.load(baseline_path))
        assert report.new == []
        assert report.baselined == []
        assert len(report.stale) == 1
        assert report.stale[0].rule == "REP003"

    def test_baseline_is_stable_when_the_line_moves(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        report = run({PATH: VIOLATION}, select=["REP003"])
        Baseline.save(
            baseline_path, [BaselineEntry.from_finding(report.new[0], "legacy")]
        )
        # Unrelated code above moves the finding down two lines; the
        # content-hash match still holds.
        moved = "import os\nimport sys\n" + VIOLATION
        report = run({PATH: moved}, select=["REP003"], baseline=Baseline.load(baseline_path))
        assert report.new == []
        assert len(report.baselined) == 1

    def test_baseline_invalidated_when_the_line_changes(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        report = run({PATH: VIOLATION}, select=["REP003"])
        Baseline.save(baseline_path, [BaselineEntry.from_finding(report.new[0], "legacy")])
        changed = VIOLATION.replace("return time.time()", "return time.time() + 1")
        report = run({PATH: changed}, select=["REP003"], baseline=Baseline.load(baseline_path))
        assert len(report.new) == 1  # the edited line must be re-justified
        assert len(report.stale) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = Baseline.load(str(tmp_path / "absent.json"))
        assert len(baseline) == 0

    def test_corrupt_baseline_is_a_loud_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            Baseline.load(str(path))


# ----------------------------------------------------------------------
# Rule filtering and the registry
# ----------------------------------------------------------------------
class TestFilteringAndRegistry:
    def test_select_runs_only_named_rules(self):
        texts = {
            "repro/service/router.py": "def f():\n    raise RuntimeError('x')\n",
            PATH: VIOLATION,
        }
        report = run(texts, select=["REP005"])
        assert sorted({f.rule for f in report.new}) == ["REP005"]

    def test_ignore_drops_named_rules(self):
        texts = {
            "repro/service/router.py": "def f():\n    raise RuntimeError('x')\n",
            PATH: VIOLATION,
        }
        report = run(texts, ignore=["REP005"])
        assert sorted({f.rule for f in report.new}) == ["REP003"]

    def test_unknown_rule_id_is_a_loud_error(self):
        with pytest.raises(LintRegistryError):
            run({PATH: "x = 1\n"}, select=["REP999"])

    def test_builtin_rules_are_registered(self):
        rules = registered_rules()
        for rule in ("REP000", "REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
            assert rule in rules

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(LintRegistryError):

            @register_checker
            class Duplicate(Checker):
                rule = "REP001"
                summary = "duplicate"

    def test_invalid_rule_id_is_refused(self):
        with pytest.raises(LintRegistryError):

            @register_checker
            class BadId(Checker):
                rule = "bad-id"
                summary = "nope"


# ----------------------------------------------------------------------
# The `repro lint` CLI
# ----------------------------------------------------------------------
@pytest.fixture
def violating_tree(tmp_path):
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "engine.py").write_text(VIOLATION, encoding="utf-8")
    return tmp_path


class TestLintCli:
    def test_exit_one_and_text_output_on_findings(self, violating_tree, capsys):
        code = main(["lint", str(violating_tree)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP003" in out
        assert "engine.py" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format(self, violating_tree, capsys):
        code = main(["lint", str(violating_tree), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["new"][0]["rule"] == "REP003"
        assert payload["files"] == 1

    def test_update_baseline_then_clean_run(self, violating_tree, capsys):
        baseline = str(violating_tree / "baseline.json")
        assert main(["lint", str(violating_tree), "--baseline", baseline, "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(violating_tree), "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_select_and_ignore_flags(self, violating_tree):
        assert main(["lint", str(violating_tree), "--select", "REP001"]) == 0
        assert main(["lint", str(violating_tree), "--ignore", "REP003"]) == 0
        assert main(["lint", str(violating_tree), "--select", "REP003"]) == 1

    def test_unknown_rule_exits_two(self, violating_tree, capsys):
        assert main(["lint", str(violating_tree), "--select", "NOPE99"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP006" in out
