"""In-memory span recorder for the benchmark's traced runs.

A span is one call of a wrapped function: its name, start and end, the
span that was open on the same thread when it started (its parent), the
ambient trace id (``repro.obs.tracing.current_trace_id()``) and a few
attributes the wrapper extracted from the arguments or the result (job
id, bytes written, keys requested, ...).  Spans stay in memory and are
written out as JSON lines once, when the process ends.

Times come from ``time.perf_counter()``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``: spans written by the server, the worker
and the load generator share one time axis, so cross-process waits
(record created in one process, claimed in another) are differences of
their timestamps.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracing import current_trace_id

#: ``before(args, kwargs) -> attrs`` / ``after(args, result) -> attrs``.
AttrHook = Callable[..., Dict[str, Any]]


class SpanRecorder:
    """Collects spans from every wrapped function of one process."""

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self._spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._originals: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, function: Callable[..., Any], args: tuple, kwargs: dict,
        before: Optional[AttrHook] = None, after: Optional[AttrHook] = None,
    ) -> Any:
        """Call *function* inside a new span named *name*."""
        stack = self._stack()
        span: Dict[str, Any] = {
            "origin": self.origin,
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "trace": current_trace_id(),
            "attrs": before(args, kwargs) if before is not None else {},
        }
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except BaseException:
            span["attrs"]["error"] = True
            raise
        else:
            if after is not None:
                span["end"] = time.perf_counter()
                span["attrs"].update(after(args, result))
            return result
        finally:
            span.setdefault("end", time.perf_counter())
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def wrap(
        self, owners: Sequence[Any], attribute: str, name: str,
        before: Optional[AttrHook] = None, after: Optional[AttrHook] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *owners* are the class, or every module that holds a reference to
        the function: a module that imported the function by name keeps
        its own reference, so each of those references is replaced too.
        """
        original = getattr(owners[0], attribute)
        for owner in owners[1:]:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"{owner.__name__}.{attribute} is not {name}'s function")

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.record(name, original, args, kwargs, before, after)

        for owner in owners:
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, traced)

    def unwrap(self) -> None:
        """Put back every function :meth:`wrap` replaced."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def spans(self) -> List[Dict[str, Any]]:
        """A snapshot of every span recorded so far."""
        with self._lock:
            return list(self._spans)

    def dump(self, path: str) -> None:
        """Write every recorded span to *path*, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def load_spans(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Read the span files of several processes into one list."""
    spans: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
