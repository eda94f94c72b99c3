"""Structured JSON event logs for the serving tier.

An :class:`EventLog` writes one JSON object per line to
``<directory>/<component>.jsonl``, flushed per line (a crashed site
server leaves complete evidence) and size-rotated to ``.jsonl.1`` so a
soak run cannot fill the disk.  Events carry a wall-clock ``ts`` and
whatever fields the caller passes -- serving components always include
``trace_id`` when the request carried one, so a slow batch's log lines
and its span tree correlate by id.

:class:`JsonLineHandler` adapts stdlib ``logging`` records from the
``repro.serving.*`` loggers into the same files, replacing the bare
text ``FileHandler`` the cluster harness used to install.

Module-level :func:`emit` mirrors the metrics/trace pattern: a no-op
(one attribute check) until :func:`install_event_log` points it at a
directory.
"""

from __future__ import annotations

import io
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "EventLog",
    "JsonLineHandler",
    "emit",
    "event_log",
    "install_event_log",
    "uninstall_event_log",
]

_DEFAULT_MAX_BYTES = 5 * 1024 * 1024


def _plain(value: object) -> object:
    """Coerce arbitrary field values to JSON-able scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class EventLog:
    """Per-component JSON-lines files with flush-per-line and rotation."""

    def __init__(self, directory: os.PathLike, max_bytes: int = _DEFAULT_MAX_BYTES):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._streams: Dict[str, io.TextIOWrapper] = {}

    def _path(self, component: str) -> Path:
        safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in component)
        return self.directory / f"{safe}.jsonl"

    def _stream(self, component: str) -> io.TextIOWrapper:
        stream = self._streams.get(component)
        if stream is None or stream.closed:
            stream = open(self._path(component), "a", encoding="utf-8")
            self._streams[component] = stream
        return stream

    def _rotate_if_needed(self, component: str, stream: io.TextIOWrapper) -> io.TextIOWrapper:
        path = self._path(component)
        try:
            size = stream.tell()
        except (OSError, ValueError):
            size = 0
        if size < self.max_bytes:
            return stream
        stream.close()
        rotated = path.with_suffix(path.suffix + ".1")
        try:
            os.replace(path, rotated)
        except OSError:
            pass
        fresh = open(path, "a", encoding="utf-8")
        self._streams[component] = fresh
        return fresh

    def emit(self, component: str, event: str, **fields: object) -> None:
        record = {"ts": time.time(), "event": event}
        for key, value in fields.items():
            record[key] = _plain(value)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            stream = self._rotate_if_needed(component, self._stream(component))
            stream.write(line + "\n")
            stream.flush()

    def close(self) -> None:
        with self._lock:
            for stream in self._streams.values():
                try:
                    stream.close()
                except OSError:
                    pass
            self._streams.clear()


class JsonLineHandler(logging.Handler):
    """Route stdlib logging records into an :class:`EventLog`.

    The component is the logger-name suffix after ``base`` (e.g.
    ``repro.serving.coordinator`` -> ``coordinator``).
    """

    def __init__(
        self,
        event_log: EventLog,
        base: str = "repro.serving",
        component: Optional[str] = None,
    ):
        super().__init__()
        self.event_log = event_log
        self.base = base
        #: When set, every record routes to this one component file --
        #: used by site-server processes so concurrent sites never share
        #: a file (``site-S1.jsonl``, not one interleaved ``site.jsonl``).
        self.component = component

    def emit(self, record: logging.LogRecord) -> None:  # noqa: A003
        try:
            component = self.component
            if component is None:
                component = record.name
                prefix = self.base + "."
                if component.startswith(prefix):
                    component = component[len(prefix):]
                elif component == self.base:
                    component = component.rsplit(".", 1)[-1]
            self.event_log.emit(
                component,
                "log",
                level=record.levelname.lower(),
                message=record.getMessage(),
            )
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)


# ---------------------------------------------------------------------------
# Optional process-global event log; ``emit`` is a cheap no-op until
# ``install_event_log`` is called.

_EVENT_LOG: Optional[EventLog] = None


def install_event_log(directory: os.PathLike, max_bytes: int = _DEFAULT_MAX_BYTES) -> EventLog:
    """Open ``directory`` as the process-global event log (closing any previous one)."""
    global _EVENT_LOG
    if _EVENT_LOG is not None:
        _EVENT_LOG.close()
    _EVENT_LOG = EventLog(directory, max_bytes=max_bytes)
    return _EVENT_LOG


def uninstall_event_log() -> None:
    """Close and remove the process-global event log."""
    global _EVENT_LOG
    if _EVENT_LOG is not None:
        _EVENT_LOG.close()
    _EVENT_LOG = None


def event_log() -> Optional[EventLog]:
    """The process-global event log, or None when none is installed."""
    return _EVENT_LOG


def emit(component: str, event: str, **fields: object) -> None:
    """Append one event to the process-global log (no-op when none is installed)."""
    if _EVENT_LOG is not None:
        _EVENT_LOG.emit(component, event, **fields)
