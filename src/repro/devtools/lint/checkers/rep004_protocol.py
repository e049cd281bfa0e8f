"""REP004 — protocol completeness across parser, router, and client.

Adding a request type to the wire protocol takes four coordinated edits:
the ``Request`` subclass in ``protocol.py``, its entry in the
``_REQUEST_TYPES`` parse table, a ``Router`` registration in the
server's ``_register_routes``, and a client-facing call on
``ServiceClient``.  Forgetting any one of them compiles fine and fails
only at runtime ("unknown request type", a 404 from the router, or a
feature no client can reach).  This rule cross-references the three
files and reports every ``Request`` subclass missing from any leg.

The checks are name-based over the AST — a class name appearing in the
``_REQUEST_TYPES`` assignment, in the ``_register_routes`` method body,
and anywhere in ``client.py`` — which is exactly the level the bug
happens at: the forgotten edit is a forgotten *name*.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Checker, register_checker
from repro.devtools.lint.source import Project, SourceFile

_PROTOCOL = "repro/service/protocol.py"
_SERVER = "repro/service/server.py"
_CLIENT = "repro/service/client.py"


def _names_in(node: ast.AST) -> Set[str]:
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def _request_subclasses(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    """Concrete Request subclasses (transitively, within the module)."""
    classes: Dict[str, ast.ClassDef] = {}
    bases: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
            bases[node.name] = {
                base.id for base in node.bases if isinstance(base, ast.Name)
            }

    def derives_from_request(name: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        parents = bases.get(name, set())
        if "Request" in parents:
            return True
        return any(derives_from_request(parent, seen) for parent in parents)

    subclasses: Dict[str, ast.ClassDef] = {}
    for name, node in classes.items():
        if name == "Request" or not derives_from_request(name, set()):
            continue
        if _type_literal(node):
            subclasses[name] = node
    return subclasses


def _type_literal(class_node: ast.ClassDef) -> Optional[str]:
    """The class's ``TYPE = "..."`` literal, when concrete and non-empty."""
    for statement in class_node.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "TYPE":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value or None
    return None


def _assignment_value(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
    return None


def _register_routes_names(tree: ast.Module) -> Optional[Set[str]]:
    """Names referenced inside ``_register_routes``; None when absent."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_register_routes":
                return _names_in(node)
    return None


@register_checker
class ProtocolCompletenessChecker(Checker):
    rule = "REP004"
    summary = (
        "every Request subclass must be in _REQUEST_TYPES, registered in the "
        "server's Router dispatch table, and reachable from ServiceClient"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        protocol = project.first(_PROTOCOL)
        if protocol is None:
            return
        subclasses = _request_subclasses(protocol.tree)
        if not subclasses:
            return

        parse_table = _assignment_value(protocol.tree, "_REQUEST_TYPES")
        parse_names = _names_in(parse_table) if parse_table is not None else set()

        server = project.first(_SERVER)
        route_names: Optional[Set[str]] = None
        if server is not None:
            route_names = _register_routes_names(server.tree)
            if route_names is None:  # no _register_routes: scan the whole file
                route_names = _names_in(server.tree)

        client = project.first(_CLIENT)
        client_names = _names_in(client.tree) if client is not None else None

        for name, class_node in sorted(subclasses.items()):
            if parse_table is not None and name not in parse_names:
                yield self.finding(
                    protocol.path,
                    class_node.lineno,
                    class_node.col_offset,
                    f"{name} is not in _REQUEST_TYPES: the server cannot "
                    "parse it off the wire",
                )
            if route_names is not None and name not in route_names:
                yield self.finding(
                    protocol.path,
                    class_node.lineno,
                    class_node.col_offset,
                    f"{name} is not registered in the server's _register_routes "
                    "dispatch table: requests of this type answer 'unknown request'",
                )
            if client_names is not None and name not in client_names:
                yield self.finding(
                    protocol.path,
                    class_node.lineno,
                    class_node.col_offset,
                    f"{name} is never constructed by ServiceClient: the feature "
                    "is unreachable from the client API",
                )
