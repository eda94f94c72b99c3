"""Distributed trace propagation and a bounded in-memory span store.

A :class:`TraceContext` is the (trace_id, span_id) pair that rides the
wire: a trailing optional field on ``QueryRequest``/``ExecuteRequest``
and an extra trailing element on the process-executor pipe protocol --
both tolerated by old peers because the protocol accepts omitted
trailing defaults.  Each hop that does timed work opens a
:class:`SpanTimer` parented on the inbound context and ships the
finished :class:`Span` back with its reply, so one client batch
assembles into a single connected tree: gateway -> coordinator dispatch
-> every visited site server (or resident worker).

Spans cross process boundaries as plain 8-tuples (restricted-unpickler
safe) and are collected into a bounded :class:`SpanStore` with JSON
export; :func:`render_spans` draws the tree, extending the simulated
``distsim/trace.py`` timeline to real deployments (``repro trace``).

In-process tracing mirrors the metrics module's guard: :func:`span`
is a no-op context manager unless :func:`install_spans` has installed a
collector (one module attribute check on the hot path).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TraceContext",
    "Span",
    "SpanTimer",
    "SpanStore",
    "new_trace_id",
    "new_span_id",
    "render_spans",
    "load_spans",
    "active_context",
    "span",
    "install_spans",
    "uninstall_spans",
    "installed_spans",
]


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh random 64-bit span id (hex)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagated half of a span: which trace, which parent."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(wire: Sequence[str]) -> Optional["TraceContext"]:
        """Decode a wire tuple; tolerate () (tracing off) and bare
        (trace_id,) (caller wants a trace but has no parent span)."""
        if not wire:
            return None
        trace_id = str(wire[0])
        span_id = str(wire[1]) if len(wire) > 1 else ""
        if not trace_id:
            return None
        return TraceContext(trace_id, span_id)


@dataclass(frozen=True)
class Span:
    """One completed timed hop."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    component: str
    start: float  # epoch seconds
    duration: float  # seconds
    attrs: Mapping[str, object] = field(default_factory=dict)

    def to_obj(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_obj(obj: Mapping[str, object]) -> "Span":
        return Span(
            trace_id=str(obj["trace_id"]),
            span_id=str(obj["span_id"]),
            parent_id=(str(obj["parent_id"]) if obj.get("parent_id") else None),
            name=str(obj["name"]),
            component=str(obj["component"]),
            start=float(obj["start"]),
            duration=float(obj["duration"]),
            attrs=dict(obj.get("attrs") or {}),
        )

    def to_wire(self) -> Tuple[object, ...]:
        """Plain tuple of scalars/dict: safe through the restricted
        unpickler and the pipe protocol.  parent_id None travels as ''."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id or "",
            self.name,
            self.component,
            self.start,
            self.duration,
            dict(self.attrs),
        )

    @staticmethod
    def from_wire(wire: Sequence[object]) -> "Span":
        trace_id, span_id, parent_id, name, component, start, duration, attrs = wire
        return Span(
            trace_id=str(trace_id),
            span_id=str(span_id),
            parent_id=(str(parent_id) or None),
            name=str(name),
            component=str(component),
            start=float(start),
            duration=float(duration),
            attrs=dict(attrs),  # type: ignore[arg-type]
        )


class SpanTimer:
    """Open a span now, ``finish()`` it later.

    Wall-clock start comes from ``time.time()`` (cross-process
    alignment for rendering); duration from ``perf_counter``.
    """

    def __init__(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        component: str,
        **attrs: object,
    ):
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id or None
        self.name = name
        self.component = component
        self.attrs: Dict[str, object] = dict(attrs)
        self.start = time.time()
        self._t0 = time.perf_counter()

    def context(self) -> TraceContext:
        """The context children of this span should be parented on."""
        return TraceContext(self.trace_id, self.span_id)

    def finish(self, store: Optional["SpanStore"] = None, **extra_attrs: object) -> Span:
        self.attrs.update(extra_attrs)
        done = Span(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            component=self.component,
            start=self.start,
            duration=time.perf_counter() - self._t0,
            attrs=dict(self.attrs),
        )
        if store is not None:
            store.record(done)
        return done


class SpanStore:
    """Bounded FIFO of finished spans with JSON export."""

    def __init__(self, capacity: int = 4096):
        self._spans: deque = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        self._spans.append(span)

    def ingest_wire(self, wires: Iterable[Sequence[object]]) -> None:
        for wire in wires:
            self._spans.append(Span.from_wire(wire))

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        if trace_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids, oldest first."""
        seen: Dict[str, None] = {}
        for s in self._spans:
            seen.setdefault(s.trace_id, None)
        return list(seen)

    def export_obj(self, trace_id: Optional[str] = None) -> Dict[str, object]:
        return {"spans": [s.to_obj() for s in self.spans(trace_id)]}

    def export_json(self, trace_id: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.export_obj(trace_id), indent=indent, sort_keys=True)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


def load_spans(obj: Mapping[str, object]) -> List[Span]:
    """Inverse of :meth:`SpanStore.export_obj`."""
    return [Span.from_obj(entry) for entry in obj.get("spans", ())]  # type: ignore[union-attr]


def render_spans(spans: Sequence[Span], trace_id: Optional[str] = None) -> str:
    """Draw one trace as an indented tree, children ordered by start.

    Orphan spans (parent not in the set -- e.g. evicted from the
    bounded store) are promoted to roots rather than dropped.
    """
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
    if not spans:
        return "(no spans)"
    by_id = {s.span_id: s for s in spans}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for s in spans:
        if s.parent_id and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))

    lines: List[str] = []
    trace_ids = sorted({s.trace_id for s in spans})
    lines.append(f"trace {', '.join(trace_ids)}  ({len(spans)} spans)")

    def walk(span_obj: Span, depth: int) -> None:
        indent = "  " * depth
        ms = span_obj.duration * 1000.0
        attrs = ""
        if span_obj.attrs:
            inner = ", ".join(f"{k}={span_obj.attrs[k]}" for k in sorted(span_obj.attrs))
            attrs = f"  [{inner}]"
        lines.append(f"{indent}{span_obj.name}  ({span_obj.component}, {ms:.2f} ms){attrs}")
        for child in children.get(span_obj.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Optional in-process collector + ambient context.  ``span()`` costs one
# module attribute check when no collector is installed.

_COLLECTOR: Optional[SpanStore] = None
_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_obs_trace_ctx", default=None
)


def install_spans(store: Optional[SpanStore] = None) -> SpanStore:
    """Install (or create and install) the in-process span collector."""
    global _COLLECTOR
    if store is None:
        store = SpanStore()
    _COLLECTOR = store
    return store


def uninstall_spans() -> None:
    """Remove the span collector (``span()`` becomes a no-op)."""
    global _COLLECTOR
    _COLLECTOR = None


def installed_spans() -> Optional[SpanStore]:
    """The installed span collector, or None when tracing is off."""
    return _COLLECTOR


def active_context() -> Optional[TraceContext]:
    """The ambient context, or None (fast) when tracing is off."""
    if _COLLECTOR is None:
        return None
    return _CURRENT.get()


@contextlib.contextmanager
def span(name: str, component: str, **attrs: object):
    """Record a span around a block when a collector is installed.

    Starts a fresh trace when there is no ambient context; nests under
    it otherwise.  Yields the :class:`SpanTimer` (or None when off).
    """
    if _COLLECTOR is None:
        yield None
        return
    parent = _CURRENT.get()
    if parent is None:
        timer = SpanTimer(new_trace_id(), None, name, component, **attrs)
    else:
        timer = SpanTimer(parent.trace_id, parent.span_id, name, component, **attrs)
    token = _CURRENT.set(timer.context())
    try:
        yield timer
    finally:
        _CURRENT.reset(token)
        timer.finish(_COLLECTOR)
