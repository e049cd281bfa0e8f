"""The one blessed atomic text-file write shared by every persistent layer.

Every store in this codebase — job records and payloads
(:mod:`repro.service.jobstore`), matrix-cache entries
(:mod:`repro.core.cachestore`), pair-value segments
(:mod:`repro.core.pairstore`), landmark-model envelopes
(:mod:`repro.streaming.store`), worker metric snapshots
(:mod:`repro.service.worker`) and the CLI's operator-facing output files —
persists JSON text under the same contract:

* **atomic**: the bytes land in a temporary file that is ``os.replace``d
  over the destination, so a crash at any instant leaves either the old
  file or the new file, never a torn one;
* **unique-temp**: the temporary name embeds the pid *and* a fresh
  ``uuid4`` component, so two writers of the same destination — whether
  they are two processes sharing a state dir or two threads of one
  process — never open the same temporary file.  A pid-only suffix is not
  enough: two service jobs finishing the same matrix concurrently would
  share one temp file and the second ``os.replace`` would find it already
  consumed (the PR 5 temp-file collision bug);
* **durable**: the data is flushed and fsynced before the rename, so the
  rename never publishes a name whose bytes are still in flight, and the
  parent directory is fsynced after it, so a crash cannot forget the
  rename once the write has returned.

Four independent copies of this function drifted apart once already (the
job store kept a pid-only temp name long after the caches grew the uuid
component).  Keeping the single implementation here — imported by every
layer, with the ``repro lint`` REP001 checker enforcing that no bare
write sneaks back in — is what makes the discipline auditable.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
import uuid
from typing import Optional

__all__ = ["remove_stale_temp_files", "temp_name_for", "write_text_atomic"]

#: Age after which a temporary file is taken for a dead writer's and removed.
TEMP_STALE_SECONDS = 3600.0

#: Exactly what :func:`temp_name_for` appends: a model named ``a.tmp.b`` is no temporary.
_TEMP_SUFFIX = re.compile(r"\.tmp\.\d+\.[0-9a-f]{8}$")


def temp_name_for(path: str) -> str:
    """A collision-free temporary sibling name for an atomic write to *path*.

    Unique per *call*, not per process: the pid isolates concurrent
    processes, the ``uuid4`` component isolates concurrent threads (and
    re-entrant writes) within one.  The ``.tmp.<pid>.<hex>`` suffix is the
    contract — recovery and sweep passes recognise orphaned temporaries
    (a crashed writer's leavings) by it and clean them up.
    """
    return f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"


def write_text_atomic(path: str, text: str) -> None:
    """Atomically and durably replace *path* with *text* (UTF-8, unique temp).

    On failure the temporary file is best-effort removed so a full disk
    or permission error does not litter the directory with orphans the
    next sweep has to age out.
    """
    temporary = temp_name_for(path)
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise
    # The new name lives in the directory's own data: sync that too.
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def remove_stale_temp_files(directory: str, now: Optional[float] = None) -> None:
    """Remove the temporaries of writes into *directory* that died long ago.

    A writer killed inside :func:`write_text_atomic` leaves its
    ``<name>.tmp.<pid>.<hex>`` file behind.  One older than
    :data:`TEMP_STALE_SECONDS` belongs to no live write, so it goes; a
    younger one may still be renamed into place.  A missing *directory*
    is left alone.
    """
    now = time.time() if now is None else now  # repro: lint-ok[REP003] temp-file age clock, not stored content
    with contextlib.suppress(OSError):
        for name in os.listdir(directory):
            if _TEMP_SUFFIX.search(name):
                path = os.path.join(directory, name)
                with contextlib.suppress(OSError):
                    if now - os.path.getmtime(path) >= TEMP_STALE_SECONDS:
                        os.remove(path)
