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
non-starter.  The store is log-structured, one append-only directory per
kernel signature::

    root/
        <sig-digest>/            # one directory per kernel signature
            seg-<uuid>.json      # one batch of [fp_a, fp_b, value] rows

One :meth:`put_many` call writes one segment with one fsync.  Rows mirror
the engine's :func:`~repro.core.engine.encode_pair_values` codec: JSON
floats round-trip exactly, so served values are bit-identical to the
computed ones.  Bucket directories of the earlier layout
(``<sig-digest>/<bucket>/``) are never read; :meth:`sweep` and
:meth:`clear` remove them, and their values are recomputed on demand.

Index and verify-once contract
------------------------------
Each :class:`PairStore` keeps an index of the segments it has verified.
A lookup lists the signature directory, parses only names it has not
seen, drops names that vanished (compacted or evicted by any process), and
answers from memory, so lookup work does not grow with the store.  The
index keeps no Python object per value: each distinct fingerprint gets a
small integer id, and each segment is a sorted ``array('Q')`` of packed
``id_a << 32 | id_b`` pairs beside an ``array('d')`` of values — about
16 bytes per value plus one id per fingerprint seen.  Segments are
searched newest first, and a hit touches (LRU) only the segment that
served it.

A process checksum-verifies each segment once, on first read.  Segment
names are uuids and files are only replaced atomically, so a verified
segment never changes through this code.  Damage done to a file after a
process read it is caught by every process that has not read it yet, and
by :meth:`stats`, which re-verifies every segment.

Compaction
----------
A segment is *small* while it holds at most half of ``COMPACT_ROWS``
rows.  When a signature has more than ``COMPACT_SEGMENTS`` small
segments, the smallest are merged, as many as fit in ``COMPACT_ROWS``
rows, into one segment written from the index.  Any two small segments
fit, so every merge makes progress; larger segments are never rewritten,
so LRU eviction keeps a fine granularity.

Durability and multi-process sharing
------------------------------------
Every segment is written atomically (unique temp file + ``os.replace``)
and carries a sha256 checksum over its rows; a torn, truncated or foreign
segment fails validation and is removed (self-healing) instead of served.
Racing writers produce distinct segments, and values are deterministic,
so duplicate rows are byte-identical.  Eviction is LRU per segment
(mtime) bounded by ``max_bytes``, plus an optional idle TTL.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import threading
import time
import uuid
from array import array
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.atomicio import write_text_atomic

__all__ = ["PairStore", "PairStoreError"]

#: Segment format version (bump on incompatible layout changes).
_SEGMENT_VERSION = 1

#: Default size bound on the store's segment bytes (~256 MB of pair values).
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

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


@dataclasses.dataclass
class _Counters:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    stores: int = 0
    invalid: int = 0
    evicted_segments: int = 0
    compactions: int = 0


class _SignatureIndex:
    """The verified segments of one signature directory, as packed arrays."""

    __slots__ = ("signature", "ids", "fingerprints", "segments")

    def __init__(self) -> None:
        self.signature: Optional[str] = None
        self.ids: Dict[str, int] = {}
        self.fingerprints: List[str] = []
        #: Segment name → (sorted packed pair ids, their values), oldest first.
        self.segments: Dict[str, Tuple[array, array]] = {}

    def _id(self, fingerprint: str) -> int:
        found = self.ids.get(fingerprint)
        if found is None:
            found = self.ids[fingerprint] = len(self.fingerprints)
            self.fingerprints.append(fingerprint)
        return found

    def add(self, name: str, values: Mapping[PairFingerprints, float]) -> None:
        packed = sorted((self._id(a) << 32 | self._id(b), value) for (a, b), value in values.items())
        self.segments[name] = (array("Q", [key for key, _ in packed]), array("d", [value for _, value in packed]))

    def find(self, pair: PairFingerprints) -> Optional[Tuple[str, float]]:
        """``(segment name, value)`` of the newest segment holding *pair*."""
        first, second = self.ids.get(pair[0]), self.ids.get(pair[1])
        if first is None or second is None:
            return None
        key = first << 32 | second
        for name in reversed(self.segments):
            keys, values = self.segments[name]
            position = bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                return name, values[position]
        return None

    def values(self, name: str) -> Dict[PairFingerprints, float]:
        keys, values = self.segments[name]
        return {
            (self.fingerprints[key >> 32], self.fingerprints[key & 0xFFFFFFFF]): value
            for key, value in zip(keys, values)
        }


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
    """

    #: Number of small segments per signature beyond which the smallest merge.
    COMPACT_SEGMENTS = 8

    #: Row cap of a merged segment; segments above half of it are never rewritten.
    COMPACT_ROWS = 8192

    #: Age after which an orphaned ``.tmp.`` file (a crashed writer's) is removed.
    _TEMP_STALE_SECONDS = 3600.0

    def __init__(
        self,
        root: str,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        ttl: Optional[float] = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0 or None, got {ttl}")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_bytes = max_bytes
        self.ttl = ttl
        self._counts = _Counters()
        self._indexes: Dict[str, _SignatureIndex] = {}
        # Re-entrant: a segment found damaged during a refresh counts itself.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _signature_dir(self, signature: str) -> str:
        return os.path.join(self.root, _digest(signature)[:16])

    def _signature_dirs(self) -> List[str]:
        paths = [os.path.join(self.root, name) for name in self._names(self.root)]
        return [path for path in paths if os.path.isdir(path)]

    @staticmethod
    def _names(directory: str) -> List[str]:
        try:
            return os.listdir(directory)
        except (FileNotFoundError, NotADirectoryError):
            return []

    def _segment_names(self, directory: str) -> List[str]:
        names = self._names(directory)
        return sorted(name for name in names if name.startswith("seg-") and name.endswith(".json"))

    # ------------------------------------------------------------------
    # Segment IO
    # ------------------------------------------------------------------
    def _load_segment(
        self, path: str, signature: Optional[str]
    ) -> Optional[Tuple[str, Dict[PairFingerprints, float]]]:
        """The segment's signature and checksum-verified values, or ``None``.

        With *signature* ``None`` the segment's own signature is accepted
        when its digest names the segment's directory.  Damage is removed
        (self-healing); a vanished file (compacted or evicted by a sibling
        process mid-scan) is *not* damage and is skipped silently.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("v") != _SEGMENT_VERSION:
                raise ValueError("unsupported segment version")
            rows = payload.get("pairs")
            if not isinstance(rows, list):
                raise ValueError("segment carries no pair rows")
            owner = payload.get("signature")
            if signature is None and isinstance(owner, str) and self._signature_dir(owner) == os.path.dirname(path):
                signature = owner
            if signature is None or owner != signature:
                raise ValueError("segment signature does not match its directory")
            if _digest(_rows_text(rows)) != payload.get("sha256"):
                raise ValueError("segment checksum mismatch")
            values: Dict[PairFingerprints, float] = {}
            for row in rows:
                if isinstance(row, (str, bytes)) or len(row) != 3:
                    raise ValueError(f"segment row must be [fp_a, fp_b, value], got {row!r}")
                values[_canonical_pair((row[0], row[1]))] = float(row[2])
            return signature, values
        except FileNotFoundError:
            return None
        except (OSError, ValueError, TypeError, PairStoreError):
            with self._lock:
                self._counts.invalid += 1
            with contextlib.suppress(OSError):
                os.remove(path)
            return None

    @staticmethod
    def _write_segment(directory: str, signature: str, values: Mapping[PairFingerprints, float]) -> str:
        """Write one segment atomically; returns its file name."""
        os.makedirs(directory, exist_ok=True)
        rows = [[fp_a, fp_b, float(value)] for (fp_a, fp_b), value in sorted(values.items())]
        payload = {
            "v": _SEGMENT_VERSION,
            "signature": signature,
            "pairs": rows,
            "sha256": _digest(_rows_text(rows)),
        }
        name = f"seg-{uuid.uuid4().hex}.json"
        write_text_atomic(os.path.join(directory, name), json.dumps(payload, separators=(",", ":")))
        return name

    # ------------------------------------------------------------------
    # The index (callers hold ``self._lock``)
    # ------------------------------------------------------------------
    def _refresh(self, directory: str, signature: Optional[str]) -> _SignatureIndex:
        """The directory's index, brought in line with its current listing."""
        index = self._indexes.setdefault(directory, _SignatureIndex())
        index.signature = signature or index.signature
        listed = self._segment_names(directory)
        present = set(listed)
        for name in [name for name in index.segments if name not in present]:
            del index.segments[name]
        for name in listed:
            if name not in index.segments:
                loaded = self._load_segment(os.path.join(directory, name), index.signature)
                if loaded is not None:
                    index.signature = loaded[0]
                    index.add(name, loaded[1])
        return index

    def _compact(self, directory: str, index: _SignatureIndex) -> None:
        """Merge small segments until at most ``COMPACT_SEGMENTS`` remain.

        Safe against racing processes: the merged segment is written
        *before* any removal, and duplicate values are byte-identical by
        construction.
        """
        while True:
            small = sorted(
                (len(keys), name)
                for name, (keys, _) in index.segments.items()
                if len(keys) <= self.COMPACT_ROWS // 2
            )
            if len(small) <= self.COMPACT_SEGMENTS:
                return
            chosen: List[str] = []
            total = 0
            for rows, name in small:
                if total + rows > self.COMPACT_ROWS:
                    break
                chosen.append(name)
                total += rows
            merged: Dict[PairFingerprints, float] = {}
            for name in chosen:
                merged.update(index.values(name))
            index.add(self._write_segment(directory, index.signature, merged), merged)
            for name in chosen:
                del index.segments[name]
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(directory, name))
            self._counts.compactions += 1

    # ------------------------------------------------------------------
    # Batched API
    # ------------------------------------------------------------------
    def get_many(
        self, signature: str, pairs: Iterable[Tuple[str, str]]
    ) -> Dict[PairFingerprints, float]:
        """Stored values for the requested fingerprint pairs under *signature*.

        Pairs are canonicalized (``fp_a <= fp_b``), so either orientation
        finds the value; the returned mapping is keyed by the canonical
        form.  Missing pairs are simply absent.  The segments that served
        a hit are touched (mtime), feeding the LRU sweep order.
        """
        directory = self._signature_dir(signature)
        wanted = [_canonical_pair(pair) for pair in pairs]
        found: Dict[PairFingerprints, float] = {}
        served = set()
        with self._lock:
            index = self._refresh(directory, signature)
            for pair in wanted:
                hit = index.find(pair)
                if hit is not None:
                    served.add(hit[0])
                    found[pair] = hit[1]
            self._counts.hits += len(found)
            self._counts.misses += len(wanted) - len(found)
        for name in served:
            with contextlib.suppress(OSError):
                os.utime(os.path.join(directory, name))
        return found

    def put_many(self, signature: str, values: Mapping[Tuple[str, str], float]) -> int:
        """Persist a batch of raw pair values; returns how many were written.

        The batch becomes one new segment file, whatever its size, and the
        signature's small segments are compacted afterwards when there are
        too many.  Keys are content fingerprints, so concurrent writers
        storing the same pair write byte-identical values (kernels are
        deterministic).
        """
        rows = {_canonical_pair(pair): float(value) for pair, value in values.items()}
        directory = self._signature_dir(signature)
        written = self._write_segment(directory, signature, rows) if rows else None
        with self._lock:
            if written is not None:
                # Indexed from memory, before the refresh, so the writer
                # never parses its own segment.
                self._indexes.setdefault(directory, _SignatureIndex()).add(written, rows)
                self._compact(directory, self._refresh(directory, signature))
            self._counts.puts += len(rows)
            self._counts.stores += 1
        return len(rows)

    # ------------------------------------------------------------------
    # Compaction and eviction
    # ------------------------------------------------------------------
    def _segments(self) -> List[Tuple[float, int, str]]:
        """Every segment as ``(mtime, size, path)``, oldest first."""
        found: List[Tuple[float, int, str]] = []
        for directory in self._signature_dirs():
            for name in self._segment_names(directory):
                path = os.path.join(directory, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                found.append((status.st_mtime, status.st_size, path))
        return sorted(found)

    def _drop_strays(self, now: float) -> None:
        """Remove bucket directories of the earlier layout and stale temp files."""
        for directory in self._signature_dirs():
            for name in self._names(directory):
                path = os.path.join(directory, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                elif ".tmp." in name:
                    with contextlib.suppress(OSError):
                        if now - os.path.getmtime(path) >= self._TEMP_STALE_SECONDS:
                            os.remove(path)

    def sweep(
        self,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Drop idle segments past the TTL and LRU segments beyond the bound.

        *ttl*/*max_bytes* default to the store's configured values.  Also
        compacts every signature and drops strays (:meth:`_drop_strays`).
        Returns the removed segment paths.  Safe to run concurrently with
        reads and writes in other processes — eviction is per-file removal,
        and a re-stored pair simply reappears.
        """
        ttl = self.ttl if ttl is None else ttl
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        moment = time.time() if now is None else now  # repro: lint-ok[REP003] TTL eviction clock, not stored content
        for directory in self._signature_dirs():
            with self._lock:
                self._compact(directory, self._refresh(directory, None))
        self._drop_strays(moment)
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
        return removed

    def clear(self) -> int:
        """Drop every segment; returns how many files were removed."""
        self._drop_strays(time.time())  # repro: lint-ok[REP003] temp-file age clock, not stored content
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
            return dataclasses.asdict(self._counts)

    def stats(self) -> Dict[str, Any]:
        """Counters plus validated on-disk state (entries, segments, bytes).

        Walks and checksum-verifies every segment, whether or not this
        process verified it before (healing damage as it goes), so
        ``invalid`` reflects torn segments discovered now too — the
        observability call behind ``repro-iokast remote cache-stats``.
        """
        entries: set = set()
        segment_count = 0
        total_bytes = 0
        for directory in self._signature_dirs():
            for name in self._segment_names(directory):
                path = os.path.join(directory, name)
                loaded = self._load_segment(path, None)
                if loaded is None:
                    continue
                segment_count += 1
                with contextlib.suppress(OSError):
                    total_bytes += os.path.getsize(path)
                entries.update((loaded[0], pair) for pair in loaded[1])
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
