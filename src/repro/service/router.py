"""The router: typed protocol requests mapped to handler functions.

The last step of :meth:`AnalysisServer.handle
<repro.service.server.AnalysisServer.handle>`.  Handlers are
*registered*, and a double registration is a loud error instead of a
silent overwrite.

A handler takes ``(request, tenant)``: by the time the router runs, the
request is parsed and authenticated, its tenant's
:class:`~repro.service.tenancy.TenantContext` resolved and its quotas
charged, so a handler body is purely business logic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Type

from repro.service.protocol import BadRequest, Request
from repro.service.tenancy import TenantContext

__all__ = ["Router"]


class Router:
    """Dispatch table from request dataclass type to handler."""

    def __init__(self) -> None:
        self._routes: Dict[Type[Request], Callable[[Any, TenantContext], Dict[str, Any]]] = {}

    def register(
        self, request_type: Type[Request], handler: Callable[[Any, TenantContext], Dict[str, Any]]
    ) -> None:
        """Route *request_type* to *handler* (double registration is an error)."""
        if not (isinstance(request_type, type) and issubclass(request_type, Request)):
            raise TypeError(f"can only route Request subclasses, got {request_type!r}")
        if request_type in self._routes:
            raise ValueError(f"{request_type.TYPE!r} is already routed")
        self._routes[request_type] = handler

    def dispatch(self, request: Request, tenant: TenantContext) -> Dict[str, Any]:
        """Invoke the handler routed for *request* on behalf of *tenant*.

        An unrouted type is a ``bad-request``: the protocol knows the
        message but this server exposes no handler for it (e.g. a
        restricted deployment) — distinct from the parse-time "unknown
        type" error only in its message.
        """
        handler = self._routes.get(type(request))
        if handler is None:
            raise BadRequest(f"this server exposes no handler for {request.TYPE!r} requests")
        return handler(request, tenant)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        kinds = ", ".join(sorted(route.TYPE for route in self._routes))
        return f"Router({kinds})"
