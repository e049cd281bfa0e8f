"""REP001 — atomic-write discipline across the whole package.

Every file the package writes goes through the unique-temp +
``os.replace`` contract (see :mod:`repro.core.atomicio`): a bare
``open(path, "w")`` or ``Path.write_text`` is a torn-file bug waiting
for a crash, and a pid-only temp name is a collision waiting for two
threads of one process.  The rule scans every module under ``repro/``,
so a write added to a module nobody thought to list is still caught,
and flags:

* write-mode builtin ``open(...)`` calls, **unless** the enclosing
  function itself implements the full idiom — an ``os.replace`` call
  plus a per-write-unique ``.tmp.`` temp name (a ``uuid`` component or
  :func:`~repro.core.atomicio.temp_name_for`);
* ``.write_text(...)`` / ``.write_bytes(...)`` attribute calls, which
  are never atomic.

Calling :func:`repro.core.atomicio.write_text_atomic` is the blessed
path and trivially passes (it is not an ``open`` call).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.lint.checkers._helpers import call_name, iter_functions, string_constant
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Checker, register_checker
from repro.devtools.lint.source import Project, SourceFile

#: Every module of the package: all of its file writes must be atomic.
SCOPE = ("repro/*",)

#: The one module allowed to open temp files bare: it *is* the idiom.
EXEMPT = ("repro/core/atomicio.py",)


def _write_mode(call: ast.Call) -> Optional[str]:
    """The mode string when *call* is a write-mode builtin ``open``."""
    if call_name(call) != "open":
        return None
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    mode = string_constant(mode_node) if mode_node is not None else "r"
    if mode is not None and any(flag in mode for flag in ("w", "a", "x", "+")):
        return mode
    return None


def _implements_idiom(function: ast.AST) -> bool:
    """Whether *function* contains the unique-temp + os.replace pattern."""
    has_replace = False
    has_unique_temp = False
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name == "os.replace":
                has_replace = True
            if name is not None and name.endswith("temp_name_for"):
                has_unique_temp = True
        if isinstance(node, ast.JoinedStr):
            # f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}" — the
            # template must carry both the .tmp. infix and a uuid part;
            # a pid-only temp name is exactly the collision bug.
            literal = "".join(
                str(value.value)
                for value in node.values
                if isinstance(value, ast.Constant)
            )
            if ".tmp." in literal:
                mentions_uuid = any(
                    "uuid" in ast.dump(value.value).lower()
                    for value in node.values
                    if isinstance(value, ast.FormattedValue)
                )
                if mentions_uuid:
                    has_unique_temp = True
    return has_replace and has_unique_temp


@register_checker
class AtomicWriteChecker(Checker):
    rule = "REP001"
    summary = (
        "state-dir writes must use the unique-temp + os.replace idiom "
        "(repro.core.atomicio), never a bare open(path, 'w') or write_text"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if not source.matches(*SCOPE) or source.matches(*EXEMPT):
            return
        # Map every node inside a function to its outermost function, so
        # an open() can be excused by the idiom implemented around it.
        enclosing = {}
        for function in iter_functions(source.tree):
            for node in ast.walk(function):
                enclosing.setdefault(node, function)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = _write_mode(node)
            if mode is not None:
                function = enclosing.get(node)
                if function is not None and _implements_idiom(function):
                    continue
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"bare open(..., {mode!r}) on persistent state: use "
                    "repro.core.atomicio.write_text_atomic (unique temp + os.replace)",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f".{node.func.attr}() is not atomic: use "
                    "repro.core.atomicio.write_text_atomic (unique temp + os.replace)",
                )
