"""REP006 — metric naming and label-set consistency.

The ``/metrics`` endpoint aggregates families from the server, its
request path and every worker snapshot, so naming is a cross-file
contract: all families carry the ``repro_`` prefix (lowercase,
underscores), counters end in ``_total`` (and only counters do), and one
metric name always means one label schema.  A site that adds a label the
other sites lack *forks the family* — dashboards summing over it
silently drop the divergent series.

Checks, over every ``.counter(...)`` / ``.gauge(...)`` /
``.histogram(...)`` call site outside the registry implementation:

* the name (string literal, or f-string *template*) matches
  ``repro_[a-z0-9_]+``;
* counters end in ``_total``; gauges and histograms do not;
* across all sites sharing one name/template, label keyword sets are
  compatible — one site may use a *subset* of another's labels (a worker
  has no ``tenant``), but two sites with mutually exclusive labels are
  a forked family and both are flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Checker, register_checker
from repro.devtools.lint.source import Project, SourceFile

#: The registry implementation itself constructs families generically.
EXEMPT = ("repro/obs/metrics.py",)

_METHODS = ("counter", "gauge", "histogram")
_NAME_PATTERN = re.compile(r"^repro_[a-z0-9_]+$")
#: f-string placeholders are normalised to this token before validation.
_PLACEHOLDER = "x"


def _metric_name_template(node: ast.AST) -> Optional[str]:
    """The metric name with f-string placeholders normalised, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append(_PLACEHOLDER)
        return "".join(parts)
    return None


@register_checker
class MetricNamingChecker(Checker):
    rule = "REP006"
    summary = (
        "metric families are repro_-prefixed (counters end _total) and every "
        "site of one name agrees on a compatible label set"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if source.matches(*EXEMPT):
            return
        for method, name, labels, node in self._sites(source):
            if name is None:
                continue  # computed name: out of static reach
            if not _NAME_PATTERN.match(name):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"metric name {name!r} must match repro_[a-z0-9_]+ "
                    "(repro_ prefix, lowercase, underscores)",
                )
                continue
            if method == "counter" and not name.endswith("_total"):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"counter {name!r} must end in _total",
                )
            elif method != "counter" and name.endswith("_total"):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"{method} {name!r} must not end in _total (counters only)",
                )

    def check_project(self, project: Project) -> Iterator[Finding]:
        sites: Dict[str, List[Tuple[SourceFile, ast.Call, Set[str]]]] = {}
        for source in project.files:
            if source.matches(*EXEMPT):
                continue
            for _method, name, labels, node in self._sites(source):
                if name is not None and _NAME_PATTERN.match(name):
                    sites.setdefault(name, []).append((source, node, labels))
        for name, uses in sorted(sites.items()):
            for index, (source, node, labels) in enumerate(uses):
                for other_source, other_node, other_labels in uses[index + 1 :]:
                    if labels <= other_labels or other_labels <= labels:
                        continue  # subset schemas aggregate cleanly
                    yield self.finding(
                        other_source.path,
                        other_node.lineno,
                        other_node.col_offset,
                        f"metric {name!r} is used with labels "
                        f"{sorted(other_labels)} here but {sorted(labels)} at "
                        f"{source.path}:{node.lineno}: one family, one schema",
                    )

    @staticmethod
    def _sites(source: SourceFile) -> Iterator[Tuple[str, Optional[str], Set[str], ast.Call]]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _METHODS or not node.args:
                continue
            labels = {keyword.arg for keyword in node.keywords if keyword.arg}
            yield node.func.attr, _metric_name_template(node.args[0]), labels, node
