"""The one JSON-lines writer behind every streaming sink.

Span sinks, the obs journal sink and xray capsules all write the same
thing: one compact JSON object per line, in a UTF-8 file opened
eagerly, with idempotent close and late writes dropped silently.
:class:`JsonlWriter` is that writer, shared so the three cannot drift.

Each record is encoded in one call to a module-level
:class:`json.JSONEncoder`, whose ``encode`` runs CPython's C encoder,
and written with a single ``write``.  ``json.dump`` would emit the same
bytes, but it always takes the pure-Python encoder and writes once per
token -- on a serving run that records every span, that was the
costliest layer of the whole simulation.
"""

from __future__ import annotations

import json
from typing import IO, Any, Optional, Union

__all__ = ["JsonlWriter"]

#: Compact, deterministic encoding: no whitespace, ``repr`` floats,
#: insertion key order, ASCII-escaped strings.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class JsonlWriter:
    """Writes one compact JSON object per line.

    Takes a path (opened for writing as UTF-8 and owned, so
    :meth:`close` closes it) or an already-open text handle (borrowed:
    :meth:`close` only flushes it).  Usable as a context manager.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]]) -> None:
        if isinstance(path_or_handle, str):
            self.path = path_or_handle
            self._handle: Optional[IO[str]] = open(
                path_or_handle, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self.path = ""
            self._handle = path_or_handle
            self._owns_handle = False

    def write_line(self, record: Any) -> bool:
        """Write one record as a line; False (dropped) after close."""
        handle = self._handle
        if handle is None:
            return False  # Closed: late stragglers are dropped, not an error.
        handle.write(_encode(record) + "\n")
        return True

    def flush(self) -> None:
        """Push buffered lines to the OS (no-op after close)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush, and close the file if this writer opened it (idempotent)."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
        self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
