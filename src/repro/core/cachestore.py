"""Persistent, signature-keyed Gram-matrix result cache.

The paper's whole pipeline consumes nothing but the pairwise Gram matrix,
and building it dominates runtime — so a *finished* matrix is the single
most valuable artefact the service can keep.  :class:`MatrixCache` stores
the engine's stamped matrix payloads
(:meth:`~repro.core.engine.GramEngine.matrix_payload`) on disk, keyed by
the value-relevant kernel signature and the corpus content, so that

resubmitting the *same* ``(spec, corpus)`` matrix job — to a live
server, a restarted one, or a sibling sharing the state dir — is served
from the cache bit-identically, with zero kernel evaluations.  The cache
answers exact hits only: a corpus that merely overlaps a cached one
(grown, reordered, subset) is a miss, and its overlapping values come
from the engine's pair layers (the in-memory pair cache and the
persistent :class:`~repro.core.pairstore.PairStore`) instead.

Layout
------
One directory per kernel signature (a digest bucket), two files per
entry::

    root/
        <sig-digest>/
            <key>.meta.json      # identity: signature, fingerprints, names,
                                 # labels, normalized flag, payload checksum
            <key>.payload.json   # the stamped matrix payload (pre-repair)

``<key>`` digests the full entry identity, so distinct corpora under one
signature coexist and a lookup reads exactly one entry: the one whose key
the request's identity hashes to.  Every write is an atomic temp-file +
``os.replace``; payloads are sha256-stamped into their meta file and
verified on load, so a torn or foreign file is discarded (and removed)
instead of served.
Several processes may share one cache directory: racing writers of the
same key write byte-identical content (payloads are deterministic), and a
damaged entry self-heals on the next lookup of its key.

Entries store the **pre-repair** matrix.  PSD repair is deterministic and
cheap next to kernel evaluation, so callers re-apply it after a hit.

Eviction is LRU (meta-file mtime, touched on every hit) bounded by
``max_entries``, plus an optional TTL; :meth:`sweep` enforces both and is
wired into the server's maintenance loop and ``repro-iokast gc``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.atomicio import remove_stale_temp_files, write_text_atomic

__all__ = ["CacheLookup", "MatrixCache", "MatrixCacheError", "payload_identity"]

#: Cache entry format version (bump on incompatible layout or value
#: changes).  Version 2 entries normalise by the Kast self value that
#: equals ``value(a, a)`` (0 for a string lighter than the cut weight);
#: entries of an older version are removed on lookup and recomputed.
_ENTRY_VERSION = 2

#: Default bound on stored entries (one entry is an O(n^2) payload).
_DEFAULT_MAX_ENTRIES = 64


class MatrixCacheError(RuntimeError):
    """Raised for payloads that cannot be cached (missing stamps)."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_identity(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The value-relevant identity of a stamped matrix payload.

    Extracts (and validates the presence of) everything a cache key needs:
    the spec-derived ``kernel_signature``, the per-example content
    ``fingerprints``, the example ``names``/``labels`` and the
    ``normalized`` flag.  Payloads built by
    :meth:`GramEngine.matrix_payload` always carry all of them; anything
    else is refused — an unstamped payload cannot prove what it describes.
    """
    missing = [key for key in ("kernel_signature", "fingerprints", "names", "labels") if key not in payload]
    if missing:
        raise MatrixCacheError(f"matrix payload is not cacheable: missing stamp(s) {missing}")
    fingerprints = [str(item) for item in payload["fingerprints"]]
    names = [str(item) for item in payload["names"]]
    labels = [item if item is None else str(item) for item in payload["labels"]]
    if not (len(fingerprints) == len(names) == len(labels)):
        raise MatrixCacheError(
            "matrix payload is not cacheable: fingerprints/names/labels lengths disagree"
        )
    return {
        "kernel_signature": str(payload["kernel_signature"]),
        "normalized": bool(payload.get("normalized", True)),
        "fingerprints": fingerprints,
        "names": names,
        "labels": labels,
    }


def _entry_key(identity: Dict[str, Any]) -> str:
    return _digest(json.dumps(identity, sort_keys=True, separators=(",", ":")))


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one :meth:`MatrixCache.lookup`.

    ``status`` is ``"hit"`` (exact corpus match; ``payload`` is the full
    stamped payload) or ``"miss"`` (``payload`` is ``None``).
    """

    status: str
    payload: Optional[Dict[str, Any]] = None


_MISS = CacheLookup("miss")


@dataclass
class _Counters:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalid: int = 0


class MatrixCache:
    """Directory-backed store of stamped Gram-matrix payloads.

    Parameters
    ----------
    root:
        Cache directory (created if missing).
    max_entries:
        LRU bound on stored entries; the least-recently-used entries
        beyond it are evicted on :meth:`store` and :meth:`sweep`.
    ttl:
        Optional seconds of idleness (no store, no hit) after which an
        entry is dropped by :meth:`sweep`.  ``None`` keeps entries until
        LRU eviction.
    """

    def __init__(self, root: str, max_entries: int = _DEFAULT_MAX_ENTRIES, ttl: Optional[float] = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0 or None, got {ttl}")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_entries = max_entries
        self.ttl = ttl
        self._counts = _Counters()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _bucket_dir(self, signature: str) -> str:
        return os.path.join(self.root, _digest(signature)[:16])

    @staticmethod
    def _meta_path(bucket: str, key: str) -> str:
        return os.path.join(bucket, f"{key}.meta.json")

    @staticmethod
    def _payload_path(bucket: str, key: str) -> str:
        return os.path.join(bucket, f"{key}.payload.json")

    def _remove_entry(self, bucket: str, key: str) -> None:
        for path in (self._payload_path(bucket, key), self._meta_path(bucket, key)):
            with contextlib.suppress(OSError):
                os.remove(path)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _load_meta(self, bucket: str, key: str, identity: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The entry's meta if it describes *identity*, or ``None`` (removing damage)."""
        try:
            with open(self._meta_path(bucket, key), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if not isinstance(meta, dict) or meta.get("v") != _ENTRY_VERSION:
                raise ValueError(f"unsupported cache entry version {meta.get('v') if isinstance(meta, dict) else meta!r}")
            if payload_identity(meta) != identity:
                raise ValueError("meta identity does not match its entry key")
            if not isinstance(meta.get("payload_sha256"), str):
                raise ValueError("meta carries no payload checksum")
            return meta
        except FileNotFoundError:
            return None
        except (OSError, ValueError, MatrixCacheError, json.JSONDecodeError):
            self._counts.invalid += 1
            self._remove_entry(bucket, key)
            return None

    def _load_payload(self, bucket: str, key: str, meta: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The entry's checksum-verified payload, or ``None`` (removing damage)."""
        try:
            with open(self._payload_path(bucket, key), "r", encoding="utf-8") as handle:
                text = handle.read()
            if _digest(text) != meta["payload_sha256"]:
                raise ValueError("payload checksum mismatch")
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            return payload
        except (OSError, ValueError, json.JSONDecodeError):
            self._counts.invalid += 1
            self._remove_entry(bucket, key)
            return None

    def lookup(
        self,
        signature: str,
        normalized: bool,
        fingerprints: Sequence[str],
        names: Sequence[str],
        labels: Sequence[Optional[str]],
    ) -> CacheLookup:
        """The cached entry whose corpus identity equals the request.

        The entry key is computed from the request identity, so a lookup
        reads one meta file and its payload, whatever else the signature's
        bucket holds.  The meta's identity and the payload checksum are
        verified before anything is served; a served entry's meta file is
        touched, feeding the LRU order.
        """
        # Normalised exactly as store() normalises a payload, so equal
        # identities hash to the same key.
        identity = payload_identity({
            "kernel_signature": signature,
            "normalized": normalized,
            "fingerprints": list(fingerprints),
            "names": list(names),
            "labels": list(labels),
        })
        bucket = self._bucket_dir(identity["kernel_signature"])
        key = _entry_key(identity)
        meta = self._load_meta(bucket, key, identity)
        payload = self._load_payload(bucket, key, meta) if meta is not None else None
        if payload is None:
            self._counts.misses += 1
            return _MISS
        with contextlib.suppress(OSError):
            os.utime(self._meta_path(bucket, key))
        self._counts.hits += 1
        return CacheLookup("hit", payload)

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(self, payload: Dict[str, Any]) -> str:
        """Persist a stamped matrix payload; returns its entry key.

        The payload must carry the engine stamps (see
        :func:`payload_identity`) and should be the *pre-repair* matrix.
        Writing the payload first and its meta second means a crash in
        between leaves an orphan payload no lookup will ever serve.
        """
        identity = payload_identity(payload)
        if not identity["fingerprints"]:
            raise MatrixCacheError("refusing to cache an empty-corpus matrix payload")
        key = _entry_key(identity)
        bucket = self._bucket_dir(identity["kernel_signature"])
        os.makedirs(bucket, exist_ok=True)
        text = json.dumps(payload, sort_keys=True)
        write_text_atomic(self._payload_path(bucket, key), text)
        # repro: lint-ok[REP003] created_at is sidecar meta for TTL sweeps; the hashed payload above is clock-free
        meta = {"v": _ENTRY_VERSION, "payload_sha256": _digest(text), "created_at": time.time(), **identity}
        write_text_atomic(self._meta_path(bucket, key), json.dumps(meta, sort_keys=True))
        self._counts.stores += 1
        self.sweep()
        return key

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _bucket_dirs(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return [
            path for name in names if os.path.isdir(path := os.path.join(self.root, name))
        ]

    def _entries(self) -> List[Tuple[float, str, str]]:
        """Every entry as ``(meta mtime, bucket, key)``."""
        found: List[Tuple[float, str, str]] = []
        for bucket in self._bucket_dirs():
            try:
                names = os.listdir(bucket)
            except FileNotFoundError:
                continue
            for name in names:
                if not name.endswith(".meta.json"):
                    continue
                key = name[: -len(".meta.json")]
                try:
                    mtime = os.path.getmtime(os.path.join(bucket, name))
                except OSError:
                    continue
                found.append((mtime, bucket, key))
        return sorted(found)

    def sweep(
        self,
        ttl: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Drop idle entries past the TTL and LRU entries beyond the bound.

        *ttl*/*max_entries* default to the cache's configured values.
        Returns the evicted entry keys.  Safe to run concurrently with
        lookups and stores in other processes — eviction is per-file
        removal, and a concurrently re-stored entry simply reappears.
        """
        ttl = self.ttl if ttl is None else ttl
        max_entries = self.max_entries if max_entries is None else max_entries
        moment = time.time() if now is None else now  # repro: lint-ok[REP003] TTL eviction clock, not cached content
        entries = self._entries()
        evicted: List[str] = []
        if ttl is not None:
            fresh: List[Tuple[float, str, str]] = []
            for mtime, bucket, key in entries:
                if moment - mtime >= ttl:
                    self._remove_entry(bucket, key)
                    evicted.append(key)
                else:
                    fresh.append((mtime, bucket, key))
            entries = fresh
        excess = len(entries) - max_entries
        for mtime, bucket, key in entries[: max(0, excess)]:
            self._remove_entry(bucket, key)
            evicted.append(key)
        self._counts.evictions += len(evicted)
        for bucket in self._bucket_dirs():
            remove_stale_temp_files(bucket, moment)
        return evicted

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        entries = self._entries()
        for _, bucket, key in entries:
            self._remove_entry(bucket, key)
        self._counts.evictions += len(entries)
        return len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """In-memory counters only — safe on a hot path (no disk walk).

        The per-scrape mirror :mod:`repro.obs` metrics collectors use;
        :meth:`stats` adds the on-disk state at directory-walk cost.
        """
        return {
            "hits": self._counts.hits,
            "misses": self._counts.misses,
            "stores": self._counts.stores,
            "evictions": self._counts.evictions,
            "invalid": self._counts.invalid,
        }

    def stats(self) -> Dict[str, Any]:
        """Counters plus on-disk state (entry count, payload bytes)."""
        entries = self._entries()
        payload_bytes = 0
        for _, bucket, key in entries:
            with contextlib.suppress(OSError):
                payload_bytes += os.path.getsize(self._payload_path(bucket, key))
        return {
            "root": self.root,
            "entries": len(entries),
            "payload_bytes": payload_bytes,
            "max_entries": self.max_entries,
            "ttl": self.ttl,
            **self.counters(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"MatrixCache(root={self.root!r}, entries={len(self._entries())})"
