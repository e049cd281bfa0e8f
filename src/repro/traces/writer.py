"""Serialise :class:`~repro.traces.model.IOTrace` objects back to plain text.

The writer emits the ``whitespace`` dialect understood by
:class:`repro.traces.parser.TraceParser`, so ``parse(write(trace))`` is an
identity on the semantic fields (name, handle, bytes, offset).  This
round-trip is exercised by property-based tests.
"""

from __future__ import annotations

import os
from typing import List, Optional, TextIO, Union

from repro.core.atomicio import write_text_atomic
from repro.traces.model import IOTrace

__all__ = ["TraceWriter", "write_trace", "format_trace"]


class TraceWriter:
    """Format traces as plain text.

    Parameters
    ----------
    include_offsets:
        When true, offsets are emitted as a trailing ``offset=N`` field.
    include_header:
        When true (default), a comment header with the trace name, label and
        metadata is emitted; the parser folds it back into trace metadata.
    """

    def __init__(self, include_offsets: bool = True, include_header: bool = True) -> None:
        self.include_offsets = include_offsets
        self.include_header = include_header

    def format(self, trace: IOTrace) -> str:
        """Return the plain-text representation of *trace*."""
        lines: List[str] = []
        if self.include_header:
            lines.append(f"# trace: {trace.name}")
            if trace.label is not None:
                lines.append(f"# label: {trace.label}")
            for key, value in trace.metadata.as_dict().items():
                if value and value != "0":
                    lines.append(f"# {key}: {value}")
        for op in trace.operations:
            parts = [op.name, op.handle, str(op.nbytes)]
            if self.include_offsets and op.offset is not None:
                parts.append(f"offset={op.offset}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    def write(self, trace: IOTrace, stream: TextIO) -> None:
        """Write *trace* to an open text stream."""
        stream.write(self.format(trace))

    def write_file(self, trace: IOTrace, path: Union[str, os.PathLike]) -> None:
        """Write *trace* to the file at *path* (UTF-8, atomically replaced)."""
        write_text_atomic(os.fspath(path), self.format(trace))


def format_trace(trace: IOTrace, **kwargs) -> str:
    """Format *trace* with a default-configured :class:`TraceWriter`."""
    return TraceWriter(**kwargs).format(trace)


def write_trace(trace: IOTrace, path: Union[str, os.PathLike], **kwargs) -> None:
    """Write *trace* to *path* with a default-configured :class:`TraceWriter`."""
    TraceWriter(**kwargs).write_file(trace, path)
