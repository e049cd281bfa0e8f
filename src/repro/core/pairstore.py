"""Persistent, content-addressed store of individual kernel pair values.

:class:`~repro.core.cachestore.MatrixCache` reuses *finished*
matrices — exact corpus matches only.  Any growth, reordering, subset, or
interleaving of already-seen traces misses it and would recompute every
kernel value, which is exactly the overlap pattern a high-traffic service sees.
:class:`PairStore` closes that gap one level down: it persists *individual*
raw kernel values ``k(a, b)`` keyed by

    (kernel_signature, fingerprint(a), fingerprint(b))

with symmetric canonical ordering (``fp_a <= fp_b``), so any corpus that
overlaps previously computed traces — in any order, any subset, any
interleaving — pays only for its novel pairs.  Self values ``k(a, a)``
(the normalisation denominators) are stored as the degenerate pair
``(fp, fp)``, so a fully covered resubmission performs *zero* kernel
evaluations.  It lives under the service state dir beside ``matrix-cache/``
and is shared by sessions, servers and pull-loop workers alike.

Layout
------
A Gram matrix over ``n`` traces has O(n²) pairs, so one file per pair is a
non-starter.  Entries are sharded into append-friendly *segment files*
bucketed by key digest::

    root/
        <sig-digest>/            # one directory per kernel signature
            <bucket>/            # hex digit of the pair-key digest
                seg-<uuid>.json  # one batch of [fp_a, fp_b, value] rows

One :meth:`put_many` call appends at most one new segment per touched
bucket, and one :meth:`get_many` call reads each touched bucket's segments
once — lookup cost is one segment read per *bucket*, not per pair.  Rows
are JSON ``[fp_a, fp_b, value]`` triples mirroring the engine's
:func:`~repro.core.engine.encode_pair_values` codec: Python's JSON float
representation is the shortest round-tripping form, so values served from
the store are bit-identical to the floats the computing worker produced.

Durability and multi-process sharing
------------------------------------
Every segment is written atomically (unique temp file + ``os.replace``)
and carries a sha256 checksum over its canonical row serialization; a
torn, truncated or foreign segment fails validation on load and is removed
(self-healing) instead of served.  Racing writers produce distinct
segments; racing readers tolerate segments vanishing mid-scan.  Values are
deterministic, so duplicate rows across segments are byte-identical and
last-wins merging is safe.  Buckets accumulating more than
``compact_segments`` files are merged into one (background compaction,
wired into :meth:`sweep` and opportunistically into :meth:`put_many`).
Eviction is LRU at segment granularity (mtime, touched on read hits)
bounded by ``max_bytes``, plus an optional idle TTL.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.atomicio import write_text_atomic

__all__ = ["PairStore", "PairStoreError"]

#: Segment format version (bump on incompatible layout changes).
_SEGMENT_VERSION = 1

#: Default size bound on the store's segment bytes (~256 MB of pair values).
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Default segment-count-per-bucket threshold that triggers compaction.
_DEFAULT_COMPACT_SEGMENTS = 8

#: A pair key: canonically ordered content fingerprints (``fp_a <= fp_b``).
PairFingerprints = Tuple[str, str]


class PairStoreError(RuntimeError):
    """Raised for values or keys the pair store cannot persist."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_pair(pair: Tuple[str, str]) -> PairFingerprints:
    a, b = str(pair[0]), str(pair[1])
    if not a or not b:
        raise PairStoreError(f"pair fingerprints must be non-empty, got {pair!r}")
    return (a, b) if a <= b else (b, a)


def _rows_text(rows: List[List[Any]]) -> str:
    """Canonical serialization the segment checksum covers.

    Floats round-trip exactly through ``json`` (shortest repr), so
    re-serialising parsed rows reproduces these bytes — which is what lets
    a load verify the checksum without a second copy of the payload.
    """
    return json.dumps(rows, separators=(",", ":"))


@dataclass
class _Counters:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    stores: int = 0
    invalid: int = 0
    evicted_segments: int = 0
    compactions: int = 0


class PairStore:
    """Directory-backed, bounded store of raw symmetric kernel pair values.

    Parameters
    ----------
    root:
        Store directory (created if missing) — conventionally
        ``<state-dir>/pair-store`` beside the matrix cache.
    max_bytes:
        LRU bound on total segment bytes; the least-recently-read
        segments beyond it are evicted by :meth:`sweep`.
    ttl:
        Optional seconds of idleness (no write, no read hit) after which
        a segment is dropped by :meth:`sweep`.  ``None`` keeps segments
        until LRU eviction.
    compact_segments:
        Per-bucket segment-file count beyond which the bucket is merged
        into a single segment (on :meth:`put_many` and :meth:`sweep`).
    """

    def __init__(
        self,
        root: str,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        ttl: Optional[float] = None,
        compact_segments: int = _DEFAULT_COMPACT_SEGMENTS,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0 or None, got {ttl}")
        if compact_segments < 2:
            raise ValueError(f"compact_segments must be >= 2, got {compact_segments}")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_bytes = max_bytes
        self.ttl = ttl
        self.compact_segments = compact_segments
        self._counts = _Counters()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _signature_dir(self, signature: str) -> str:
        return os.path.join(self.root, _digest(signature)[:16])

    @staticmethod
    def _bucket_of(pair: PairFingerprints) -> str:
        # One hex digit → 16 buckets per signature: enough fan-out that a
        # bucket stays small, few enough that one put_many touches a
        # handful of files instead of hundreds.
        return _digest(f"{pair[0]}|{pair[1]}")[:1]

    def _bucket_dir(self, signature: str, bucket: str) -> str:
        return os.path.join(self._signature_dir(signature), bucket)

    @staticmethod
    def _segment_files(bucket_dir: str) -> List[str]:
        try:
            names = os.listdir(bucket_dir)
        except FileNotFoundError:
            return []
        return sorted(
            os.path.join(bucket_dir, name)
            for name in names
            if name.startswith("seg-") and name.endswith(".json")
        )

    # ------------------------------------------------------------------
    # Segment IO
    # ------------------------------------------------------------------
    def _load_segment(self, path: str, signature: Optional[str]) -> Optional[Dict[PairFingerprints, float]]:
        """The segment's checksum-verified values, or ``None`` (removing damage).

        A vanished file (compacted or evicted by a sibling process mid-scan)
        is *not* damage — it is skipped silently.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("v") != _SEGMENT_VERSION:
                raise ValueError("unsupported segment version")
            rows = payload.get("pairs")
            if not isinstance(rows, list):
                raise ValueError("segment carries no pair rows")
            if signature is not None and payload.get("signature") != signature:
                raise ValueError("segment signature does not match its directory")
            if _digest(_rows_text(rows)) != payload.get("sha256"):
                raise ValueError("segment checksum mismatch")
            values: Dict[PairFingerprints, float] = {}
            for row in rows:
                if isinstance(row, (str, bytes)) or len(row) != 3:
                    raise ValueError(f"segment row must be [fp_a, fp_b, value], got {row!r}")
                fp_a, fp_b, value = row
                values[(str(fp_a), str(fp_b))] = float(value)
            return values
        except FileNotFoundError:
            return None
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            with self._lock:
                self._counts.invalid += 1
            with contextlib.suppress(OSError):
                os.remove(path)
            return None

    def _write_segment(self, bucket_dir: str, signature: str, values: Mapping[PairFingerprints, float]) -> str:
        os.makedirs(bucket_dir, exist_ok=True)
        rows = [[fp_a, fp_b, float(value)] for (fp_a, fp_b), value in sorted(values.items())]
        payload = {
            "v": _SEGMENT_VERSION,
            "signature": signature,
            "pairs": rows,
            "sha256": _digest(_rows_text(rows)),
        }
        path = os.path.join(bucket_dir, f"seg-{uuid.uuid4().hex}.json")
        write_text_atomic(path, json.dumps(payload, separators=(",", ":")))
        return path

    def _bucket_values(self, signature: str, bucket: str) -> Tuple[Dict[PairFingerprints, float], List[str]]:
        """All values of one bucket plus the segment paths that held them."""
        bucket_dir = self._bucket_dir(signature, bucket)
        merged: Dict[PairFingerprints, float] = {}
        read: List[str] = []
        for path in self._segment_files(bucket_dir):
            values = self._load_segment(path, signature)
            if values is None:
                continue
            merged.update(values)
            read.append(path)
        return merged, read

    # ------------------------------------------------------------------
    # Batched API
    # ------------------------------------------------------------------
    def get_many(
        self, signature: str, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[PairFingerprints, float]:
        """Stored values for the requested fingerprint pairs under *signature*.

        Pairs are canonicalized (``fp_a <= fp_b``), so either orientation
        finds the value; the returned mapping is keyed by the canonical
        form.  Missing pairs are simply absent.  Segments that served at
        least one hit are touched (mtime), feeding the LRU sweep order.
        """
        wanted: Dict[str, List[PairFingerprints]] = {}
        for pair in pairs:
            canonical = _canonical_pair(pair)
            wanted.setdefault(self._bucket_of(canonical), []).append(canonical)
        found: Dict[PairFingerprints, float] = {}
        requested = 0
        for bucket, bucket_pairs in wanted.items():
            requested += len(bucket_pairs)
            available, segments = self._bucket_values(signature, bucket)
            served = False
            for canonical in bucket_pairs:
                value = available.get(canonical)
                if value is not None:
                    found[canonical] = value
                    served = True
            if served:
                for path in segments:
                    with contextlib.suppress(OSError):
                        os.utime(path)
        with self._lock:
            self._counts.hits += len(found)
            self._counts.misses += requested - len(found)
        return found

    def put_many(self, signature: str, values: Mapping[Tuple[str, str], float]) -> int:
        """Persist a batch of raw pair values; returns how many were written.

        Values are grouped by bucket — one new segment file per touched
        bucket, regardless of batch size.  Buckets exceeding the
        compaction threshold are merged immediately afterwards.  Keys are
        content fingerprints, so concurrent writers storing the same pair
        write byte-identical values (kernels are deterministic) and
        duplicates collapse at the next compaction.
        """
        grouped: Dict[str, Dict[PairFingerprints, float]] = {}
        for pair, value in values.items():
            canonical = _canonical_pair(pair)
            grouped.setdefault(self._bucket_of(canonical), {})[canonical] = float(value)
        written = 0
        for bucket, bucket_values in grouped.items():
            bucket_dir = self._bucket_dir(signature, bucket)
            self._write_segment(bucket_dir, signature, bucket_values)
            written += len(bucket_values)
            if len(self._segment_files(bucket_dir)) > self.compact_segments:
                self._compact_bucket(signature, bucket)
        with self._lock:
            self._counts.puts += written
            self._counts.stores += 1
        return written

    # ------------------------------------------------------------------
    # Compaction and eviction
    # ------------------------------------------------------------------
    def _compact_bucket(self, signature: str, bucket: str) -> bool:
        """Merge one bucket's segments into a single segment file.

        Safe against racing processes: only the segments actually read
        are removed (a concurrently appended segment survives), the merged
        segment is written *before* any removal, and duplicate values are
        byte-identical by construction.
        """
        merged, read = self._bucket_values(signature, bucket)
        if len(read) < 2:
            return False
        self._write_segment(self._bucket_dir(signature, bucket), signature, merged)
        for path in read:
            with contextlib.suppress(OSError):
                os.remove(path)
        with self._lock:
            self._counts.compactions += 1
        return True

    def compact(self) -> int:
        """Merge every over-threshold bucket; returns how many were merged."""
        compacted = 0
        for signature_dir, bucket in self._buckets():
            bucket_dir = os.path.join(signature_dir, bucket)
            if len(self._segment_files(bucket_dir)) <= self.compact_segments:
                continue
            # Compaction needs the directory's signature; segments carry it.
            signature = self._dir_signature(bucket_dir)
            if signature is not None and self._compact_bucket(signature, bucket):
                compacted += 1
        return compacted

    def _dir_signature(self, bucket_dir: str) -> Optional[str]:
        for path in self._segment_files(bucket_dir):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                signature = payload.get("signature") if isinstance(payload, dict) else None
                if isinstance(signature, str):
                    return signature
            except (OSError, json.JSONDecodeError):
                continue
        return None

    def _buckets(self) -> List[Tuple[str, str]]:
        found: List[Tuple[str, str]] = []
        try:
            signature_names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        for signature_name in signature_names:
            signature_dir = os.path.join(self.root, signature_name)
            if not os.path.isdir(signature_dir):
                continue
            with contextlib.suppress(OSError):
                for bucket in os.listdir(signature_dir):
                    if os.path.isdir(os.path.join(signature_dir, bucket)):
                        found.append((signature_dir, bucket))
        return found

    def _segments(self) -> List[Tuple[float, int, str]]:
        """Every segment as ``(mtime, size, path)``, oldest first."""
        found: List[Tuple[float, int, str]] = []
        for signature_dir, bucket in self._buckets():
            for path in self._segment_files(os.path.join(signature_dir, bucket)):
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                found.append((status.st_mtime, status.st_size, path))
        return sorted(found)

    def sweep(
        self,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Drop idle segments past the TTL and LRU segments beyond the bound.

        *ttl*/*max_bytes* default to the store's configured values.  Also
        runs background compaction on over-threshold buckets and removes
        stale temp files.  Returns the removed segment paths.  Safe to run
        concurrently with reads and writes in other processes — eviction
        is per-file removal, and a re-stored pair simply reappears.
        """
        ttl = self.ttl if ttl is None else ttl
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        moment = time.time() if now is None else now  # repro: lint-ok[REP003] TTL eviction clock, not stored content
        self.compact()
        segments = self._segments()
        removed: List[str] = []
        if ttl is not None:
            fresh: List[Tuple[float, int, str]] = []
            for mtime, size, path in segments:
                if moment - mtime >= ttl:
                    with contextlib.suppress(OSError):
                        os.remove(path)
                    removed.append(path)
                else:
                    fresh.append((mtime, size, path))
            segments = fresh
        total = sum(size for _, size, _ in segments)
        for mtime, size, path in segments:
            if total <= max_bytes:
                break
            with contextlib.suppress(OSError):
                os.remove(path)
            removed.append(path)
            total -= size
        with self._lock:
            self._counts.evicted_segments += len(removed)
        self._drop_stale_temp_files(moment)
        return removed

    #: Age after which an orphaned ``.tmp.`` file (a crashed writer's) is removed.
    _TEMP_STALE_SECONDS = 3600.0

    def _drop_stale_temp_files(self, now: float) -> None:
        for signature_dir, bucket in self._buckets():
            bucket_dir = os.path.join(signature_dir, bucket)
            with contextlib.suppress(OSError):
                for name in os.listdir(bucket_dir):
                    if ".tmp." not in name:
                        continue
                    path = os.path.join(bucket_dir, name)
                    with contextlib.suppress(OSError):
                        if now - os.path.getmtime(path) >= self._TEMP_STALE_SECONDS:
                            os.remove(path)

    def clear(self) -> int:
        """Drop every segment; returns how many files were removed."""
        segments = self._segments()
        for _, _, path in segments:
            with contextlib.suppress(OSError):
                os.remove(path)
        with self._lock:
            self._counts.evicted_segments += len(segments)
        return len(segments)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The in-memory hit/miss/put counters (cheap: no disk scan).

        This is what ``GET /healthz`` reports — a load-balancer probe must
        not pay for a full store walk.
        """
        with self._lock:
            return {
                "hits": self._counts.hits,
                "misses": self._counts.misses,
                "puts": self._counts.puts,
                "stores": self._counts.stores,
                "invalid": self._counts.invalid,
                "evicted_segments": self._counts.evicted_segments,
                "compactions": self._counts.compactions,
            }

    def stats(self) -> Dict[str, Any]:
        """Counters plus validated on-disk state (entries, segments, bytes).

        Walks and checksum-verifies every segment (healing damage as it
        goes), so ``invalid`` reflects torn segments discovered now too —
        the observability call behind ``repro-iokast remote cache-stats``.
        """
        entries: set = set()
        segment_count = 0
        total_bytes = 0
        for signature_dir, bucket in self._buckets():
            bucket_dir = os.path.join(signature_dir, bucket)
            for path in self._segment_files(bucket_dir):
                values = self._load_segment(path, None)
                if values is None:
                    continue
                segment_count += 1
                with contextlib.suppress(OSError):
                    total_bytes += os.path.getsize(path)
                entries.update((os.path.basename(signature_dir), pair) for pair in values)
        return {
            "root": self.root,
            "entries": len(entries),
            "segments": segment_count,
            "payload_bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "ttl": self.ttl,
            **self.counters(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"PairStore(root={self.root!r}, segments={len(self._segments())})"
