"""REP005 — typed-error discipline in the service tier.

Every failure a handler can produce crosses the wire as a typed
``ServiceError`` with a stable ``code`` that round-trips through
``_ERROR_CODES`` back into the same exception class on the client.  A
``raise RuntimeError(...)`` in a handler short-circuits all of that into
an opaque ``internal-error``, and an error class missing from
``_ERROR_CODES`` deserialises into the wrong type.  Two checks:

* **file-level** (service-layer modules): ``raise`` of bare
  ``Exception`` / ``RuntimeError`` / ``BaseException`` — handlers must
  raise a ``ServiceError`` subclass (suppress with a reason for
  process-lifecycle errors that never reach the protocol encoder);
* **project-level** (``protocol.py``): every ``ServiceError`` subclass
  appears in the ``_ERROR_CODES`` round-trip table, and no two error
  classes claim the same ``code`` literal.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.devtools.lint.checkers._helpers import call_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Checker, register_checker
from repro.devtools.lint.source import Project, SourceFile

#: The request-path modules where every raise is answerable over the wire.
SCOPE = (
    "repro/service/server.py",
    "repro/service/router.py",
    "repro/service/auth.py",
    "repro/service/tenancy.py",
)

_PROTOCOL = "repro/service/protocol.py"
_BANNED = {"Exception", "RuntimeError", "BaseException"}


def _service_error_classes(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    """ServiceError subclasses (transitively, within the module)."""
    classes: Dict[str, ast.ClassDef] = {}
    bases: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
            bases[node.name] = {
                base.id for base in node.bases if isinstance(base, ast.Name)
            }

    def derives(name: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        parents = bases.get(name, set())
        return "ServiceError" in parents or any(derives(parent, seen) for parent in parents)

    return {
        name: node
        for name, node in classes.items()
        if name != "ServiceError" and derives(name, set())
    }


def _code_literal(class_node: ast.ClassDef) -> Optional[str]:
    for statement in class_node.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "code":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value
    return None


@register_checker
class TypedErrorChecker(Checker):
    rule = "REP005"
    summary = (
        "service handlers raise ServiceError subclasses (never bare "
        "Exception/RuntimeError); every error code round-trips via _ERROR_CODES"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if not source.matches(*SCOPE):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc
            name: Optional[str] = None
            if isinstance(raised, ast.Call):
                name = call_name(raised)
            elif isinstance(raised, ast.Name):
                name = raised.id
            if name in _BANNED:
                yield self.finding(
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"raise {name} in the service tier becomes an opaque "
                    "internal-error on the wire: raise a ServiceError subclass "
                    "(or suppress with a reason for process-lifecycle failures)",
                )

    def check_project(self, project: Project) -> Iterator[Finding]:
        protocol = project.first(_PROTOCOL)
        if protocol is None:
            return
        error_classes = _service_error_classes(protocol.tree)
        if not error_classes:
            return
        table: Optional[ast.AST] = None
        for node in ast.walk(protocol.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "_ERROR_CODES":
                        table = node.value
        table_names: Set[str] = set()
        if table is not None:
            table_names = {
                child.id for child in ast.walk(table) if isinstance(child, ast.Name)
            }
        codes: Dict[str, str] = {}
        for name, class_node in sorted(error_classes.items()):
            if table is not None and name not in table_names:
                yield self.finding(
                    protocol.path,
                    class_node.lineno,
                    class_node.col_offset,
                    f"{name} is missing from _ERROR_CODES: its code cannot "
                    "round-trip back into the typed class on the client",
                )
            code = _code_literal(class_node)
            if code is None:
                continue
            if code in codes:
                yield self.finding(
                    protocol.path,
                    class_node.lineno,
                    class_node.col_offset,
                    f"{name} reuses error code {code!r} already claimed by "
                    f"{codes[code]}: codes must be distinct to round-trip",
                )
            else:
                codes[code] = name
