"""Bearer-token authentication mapping tokens to tenant ids.

:class:`Authenticator` is the single auth decision point of the service:
:meth:`AnalysisServer.handle <repro.service.server.AnalysisServer.handle>`
hands it the request's bearer token (from the HTTP
``Authorization`` header or the envelope-level ``token`` field, so HTTP
and stdio authenticate identically) and gets back the tenant id the token
names — or a typed :class:`~repro.service.protocol.Unauthorized` error.

Three modes:

* **disabled** (the default) — no tokens configured; every request
  resolves to the default tenant.  This is the pre-auth behaviour, so
  existing deployments, tests and examples keep working unchanged.
* **single-token** (``--token`` / :meth:`Authenticator.single`) — one
  shared secret, one tenant (the default one unless named otherwise).
* **tenants file** (``--tenants tenants.json`` /
  :meth:`Authenticator.from_file`) — a JSON map of tenant ids to tokens
  and optional per-tenant quota overrides::

      {
        "tenants": {
          "alpha": {"token": "alpha-secret",
                    "quotas": {"requests_per_second": 5,
                               "max_queued_jobs": 8,
                               "max_corpus_strings": 1000}},
          "beta":  {"token": "beta-secret"}
        }
      }

Token comparison uses :func:`hmac.compare_digest`, so lookup time does not
leak how much of a guessed token matched.
"""

from __future__ import annotations

import hmac
import json
from typing import Dict, List, Mapping, Optional

from repro.service.protocol import Unauthorized
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantQuotas,
    require_tenant_id,
    valid_tenant_id,
)

__all__ = ["Authenticator"]


class Authenticator:
    """Token → tenant resolution with constant-time comparison.

    Parameters
    ----------
    tokens:
        Mapping of bearer token → tenant id.  ``None`` or empty disables
        authentication entirely (every caller is the default tenant).
    quotas:
        Optional per-tenant :class:`TenantQuotas` overrides (typically
        parsed from the tenants file) the server merges over its defaults.
    """

    def __init__(
        self,
        tokens: Optional[Mapping[str, str]] = None,
        quotas: Optional[Mapping[str, TenantQuotas]] = None,
    ) -> None:
        self._tokens: Dict[str, str] = {}
        for token, tenant_id in (tokens or {}).items():
            if not isinstance(token, str) or not token:
                raise ValueError(f"tokens must be non-empty strings, got {token!r}")
            self._tokens[token] = require_tenant_id(tenant_id)
        self.quota_overrides: Dict[str, TenantQuotas] = dict(quotas or {})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Authenticator":
        """No auth: every request resolves to the default tenant."""
        return cls()

    @classmethod
    def single(cls, token: str, tenant: str = DEFAULT_TENANT) -> "Authenticator":
        """One shared token for one tenant (the CLI's ``--token`` mode)."""
        if not token:
            raise ValueError("single-tenant token must be non-empty")
        return cls({token: tenant})

    @classmethod
    def from_file(cls, path: str) -> "Authenticator":
        """Parse a ``tenants.json`` file (see the module docstring format)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"tenants file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(payload, Mapping) or not isinstance(payload.get("tenants"), Mapping):
            raise ValueError(
                f"tenants file {path!r} must be an object with a 'tenants' object"
            )
        tokens: Dict[str, str] = {}
        quotas: Dict[str, TenantQuotas] = {}
        for tenant_id, entry in payload["tenants"].items():
            if not valid_tenant_id(tenant_id):
                # A config problem, not a wire error: fail construction.
                raise ValueError(f"tenants file {path!r} names invalid tenant id {tenant_id!r}")
            if not isinstance(entry, Mapping):
                raise ValueError(f"tenant {tenant_id!r} entry must be an object")
            unknown = set(entry) - {"token", "quotas"}
            if unknown:
                raise ValueError(f"tenant {tenant_id!r} has unknown keys {sorted(unknown)}")
            token = entry.get("token")
            if not isinstance(token, str) or not token:
                raise ValueError(f"tenant {tenant_id!r} needs a non-empty 'token'")
            if token in tokens:
                raise ValueError(f"token of tenant {tenant_id!r} duplicates tenant {tokens[token]!r}")
            tokens[token] = tenant_id
            if entry.get("quotas") is not None:
                if not isinstance(entry["quotas"], Mapping):
                    raise ValueError(f"tenant {tenant_id!r} 'quotas' must be an object")
                try:
                    quotas[tenant_id] = TenantQuotas.from_dict(entry["quotas"])
                except ValueError as exc:
                    raise ValueError(f"tenant {tenant_id!r}: {exc}") from exc
        if not tokens:
            raise ValueError(f"tenants file {path!r} configures no tenants")
        return cls(tokens, quotas)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._tokens)

    @property
    def tenant_ids(self) -> List[str]:
        """The configured tenant ids (sorted, unique)."""
        return sorted(set(self._tokens.values()))

    def authenticate(self, token: Optional[str]) -> str:
        """The tenant id *token* names; :class:`Unauthorized` otherwise.

        With auth disabled every caller (token or not) is the default
        tenant.  With auth enabled a missing token and an unknown token
        are distinct messages but the same typed error, so probing cannot
        distinguish "wrong token" from "no such tenant".
        """
        if not self.enabled:
            return DEFAULT_TENANT
        if token is None:
            raise Unauthorized(
                "this server requires a bearer token "
                "(Authorization: Bearer <token>, or the envelope 'token' field)"
            )
        for known, tenant_id in self._tokens.items():
            if hmac.compare_digest(known, token):
                return tenant_id
        raise Unauthorized("the supplied token names no configured tenant")

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        mode = f"{len(self._tokens)} token(s)" if self.enabled else "disabled"
        return f"Authenticator({mode})"
