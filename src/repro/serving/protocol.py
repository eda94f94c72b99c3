"""The serving tier's length-prefixed binary wire protocol.

One frame = a fixed header (magic, message kind, payload length) plus a
pickled payload::

    +-------+------+----------------+=================+
    | magic | kind | payload length |     payload     |
    | 2 B   | 1 B  | 4 B big-endian | <length> bytes  |
    +-------+------+----------------+=================+

Every message is a frozen dataclass with a ``KIND`` byte and a
field-tuple wire form; payloads are pickled field tuples (the same
transport the process executor uses -- triplet blobs, QList objects
and fragment XML all ride through unchanged).  The framing layer is
deliberately paranoid: **any** malformed input -- wrong magic, oversized
length, a payload that does not unpickle, a field tuple with the wrong
shape -- raises a *typed* :class:`ProtocolError` subclass, never an
arbitrary exception and never a hang.  The fuzz tests in
``tests/test_serving_protocol.py`` hold the framer to that contract
with random byte prefixes.

Failure taxonomy:

* :class:`FrameError` -- the byte stream itself is broken (bad magic,
  length over :data:`MAX_PAYLOAD_BYTES`, truncation mid-frame).  The
  connection is unrecoverable: a :class:`Framer` poisons itself after
  raising and the peer must drop the socket.
* :class:`PayloadError` -- the frame was well-formed but its payload
  did not decode to the declared message kind.  Also fatal for the
  connection (the stream cannot be trusted), kept distinct because the
  tests and logs care which layer rejected the input.
* :class:`ServingError` and its subclasses -- application-level typed
  failures carried *inside* well-formed :class:`Rejected` /
  :class:`ErrorReply` messages: :class:`Overloaded` (the gateway shed
  the request), :class:`SiteUnavailable` (a site stayed unreachable
  after the retry), :class:`RemoteQueryError` (the request itself was
  bad or the server failed internally).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from repro.distsim.metrics import Metrics
from repro.distsim.transport import restricted_loads

#: Protocol magic: the first two bytes of every frame.
MAGIC = b"RP"
#: Frame header: magic, kind byte, payload length (big-endian u32).
HEADER = struct.Struct("!2sBI")
#: Hard ceiling on one frame's payload.  Generous for fragment pushes
#: (a whole site's XML rides one LoadFragments), tight enough that a
#: corrupt length field cannot make a reader buffer gigabytes.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024
#: Bumped on incompatible wire changes; checked nowhere yet but carried
#: in Ping so mixed deployments can at least be diagnosed.
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------


class ProtocolError(Exception):
    """Base class: the wire layer rejected some input."""


class FrameError(ProtocolError):
    """The byte stream is not a valid frame sequence (drop the connection)."""


class PayloadError(ProtocolError):
    """A well-framed payload did not decode to its declared message kind."""


class ServingError(Exception):
    """Base class for application-level serving failures."""

    #: Wire code carried in Rejected/ErrorReply messages.
    code = "error"


class Overloaded(ServingError):
    """The gateway's admission control shed this request."""

    code = "overloaded"


class SiteUnavailable(ServingError):
    """A site stayed unreachable after the per-site retry."""

    code = "site-unavailable"


class RemoteQueryError(ServingError):
    """The server rejected the request (bad query/engine) or failed on it."""

    code = "bad-request"


#: Error codes carried by Rejected / ErrorReply messages.
ERR_OVERLOADED = Overloaded.code
ERR_SITE_UNAVAILABLE = SiteUnavailable.code
ERR_BAD_REQUEST = RemoteQueryError.code
ERR_UNKNOWN_FRAGMENT = "unknown-fragment"
ERR_STALE_FRAGMENT = "stale-fragment"
ERR_INTERNAL = "internal"


def error_for(code: str, message: str) -> ServingError:
    """The client-side exception for a typed rejection code."""
    for cls in (Overloaded, SiteUnavailable, RemoteQueryError):
        if code == cls.code:
            return cls(message)
    return ServingError(f"[{code}] {message}")


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """Base message: subclasses set ``KIND`` and declare their fields."""

    KIND = 0

    def to_fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def from_fields(cls, payload_fields: tuple) -> "Message":
        declared = fields(cls)
        # Trailing fields with defaults may be omitted on the wire, so
        # a newer message class still decodes an older peer's frames.
        required = sum(1 for f in declared if f.default is MISSING)
        if not isinstance(payload_fields, tuple) or not (
            required <= len(payload_fields) <= len(declared)
        ):
            raise PayloadError(
                f"{cls.__name__} expects {len(declared)} fields, "
                f"got {type(payload_fields).__name__} of "
                f"{len(payload_fields) if isinstance(payload_fields, tuple) else '?'}"
            )
        message = cls(*payload_fields)
        message.validate()
        return message

    def validate(self) -> None:
        """Subclasses raise :class:`PayloadError` on shape violations."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise PayloadError(what)


def _require_trace(trace: object) -> None:
    """A trace field is () (off), (trace_id,) or (trace_id, span_id)."""
    _require(
        isinstance(trace, tuple)
        and len(trace) <= 2
        and all(isinstance(part, str) for part in trace),
        "trace must be a tuple of at most two id strings",
    )


def _require_spans(spans: object) -> None:
    """Span wire forms: 8-tuples of scalars plus a plain attrs dict
    (see :meth:`repro.obs.trace.Span.to_wire`)."""
    _require(isinstance(spans, tuple), "spans must be a tuple")
    for item in spans:  # type: ignore[union-attr]
        _require(
            isinstance(item, tuple)
            and len(item) == 8
            and all(isinstance(part, str) for part in item[:5])
            and all(isinstance(part, (int, float)) for part in item[5:7])
            and isinstance(item[7], dict),
            "each span must be an 8-tuple "
            "(trace_id, span_id, parent_id, name, component, start, duration, attrs)",
        )


# -- coordinator <-> site server --------------------------------------------


@dataclass(frozen=True)
class LoadFragments(Message):
    """Coordinator -> site: make these fragments resident.

    Each entry is an ``(id, epoch, xml)`` triple whose epoch content-
    addresses the copy for the stale-fragment check (see
    :class:`~repro.distsim.resident.ResidentSiteState`).
    """

    KIND = 10
    fragments: tuple  # tuple[(fragment_id, epoch, xml_text), ...]

    def validate(self) -> None:
        _require(isinstance(self.fragments, tuple), "fragments must be a tuple")
        for item in self.fragments:
            _require(
                isinstance(item, tuple)
                and len(item) == 3
                and isinstance(item[0], str)
                and isinstance(item[1], int)
                and not isinstance(item[1], bool)
                and isinstance(item[2], str),
                "each fragment must be an (id, epoch, xml) triple",
            )


@dataclass(frozen=True)
class Loaded(Message):
    """Site -> coordinator: these fragment ids are now resident."""

    KIND = 11
    fragment_ids: tuple

    def validate(self) -> None:
        _require(isinstance(self.fragment_ids, tuple), "fragment_ids must be a tuple")
        _require(
            all(isinstance(fid, str) for fid in self.fragment_ids),
            "fragment ids must be strings",
        )


@dataclass(frozen=True)
class ExecuteRequest(Message):
    """Coordinator -> site: one :class:`~repro.distsim.executors.SiteJob`.

    Carries fragment *ids* only -- the fragments themselves are resident
    on the site (shipped once by :class:`LoadFragments`), so a batch
    costs a query broadcast and a triplet reply, never the data.
    """

    KIND = 12
    request_id: int
    site_id: str
    fragment_ids: tuple
    qlist_obj: tuple
    algebra: str
    segments: tuple
    label: str
    #: Per-fragment epochs, parallel to ``fragment_ids``: the site
    #: serves a copy only at exactly the epoch the coordinator names.
    epochs: tuple
    #: Optional (trace_id, parent_span_id) propagation context.  Empty
    #: means tracing is off; pre-trace coordinators omit the field.
    trace: tuple = ()

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(isinstance(self.site_id, str), "site_id must be a string")
        _require(
            isinstance(self.fragment_ids, tuple)
            and all(isinstance(fid, str) for fid in self.fragment_ids),
            "fragment_ids must be a tuple of strings",
        )
        _require(isinstance(self.qlist_obj, (tuple, list)), "qlist_obj must be a sequence")
        _require(isinstance(self.algebra, str), "algebra must be a name string")
        _require(isinstance(self.segments, tuple), "segments must be a tuple")
        _require(isinstance(self.label, str), "label must be a string")
        _require(
            isinstance(self.epochs, tuple)
            and all(
                isinstance(epoch, int) and not isinstance(epoch, bool)
                for epoch in self.epochs
            )
            and len(self.epochs) == len(self.fragment_ids),
            "epochs must be an int tuple parallel to fragment_ids",
        )
        _require_trace(self.trace)


@dataclass(frozen=True)
class ExecuteReply(Message):
    """Site -> coordinator: wire-form results of one execute request.

    ``results`` is exactly what
    :meth:`repro.distsim.resident.ResidentSiteState.run` returns: one
    ``(triplet blob, nodes, ops, segment_ops)`` tuple per fragment.
    The blob is opaque here; the coordinator decodes it, import-free,
    in :func:`~repro.distsim.executors.outcome_from_wire`.
    """

    KIND = 13
    request_id: int
    results: tuple
    seconds: float
    #: Span wire forms recorded on the site while serving this request
    #: (empty when the request carried no trace context).
    spans: tuple = ()
    #: How many of ``results`` the site served from its results memo.
    memo_hits: int = 0

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(isinstance(self.results, tuple), "results must be a tuple")
        for item in self.results:
            _require(
                isinstance(item, tuple)
                and len(item) == 4
                and isinstance(item[0], bytes)
                and isinstance(item[1], int)
                and isinstance(item[2], int)
                and isinstance(item[3], tuple),
                "each result must be a (blob, nodes, ops, segment_ops) tuple",
            )
        _require(isinstance(self.seconds, float), "seconds must be a float")
        _require_spans(self.spans)
        _require(
            isinstance(self.memo_hits, int) and 0 <= self.memo_hits <= len(self.results),
            "memo_hits must count results",
        )


@dataclass(frozen=True)
class ErrorReply(Message):
    """Site -> coordinator: a typed per-request failure."""

    KIND = 14
    request_id: int
    code: str
    message: str

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(isinstance(self.code, str), "code must be a string")
        _require(isinstance(self.message, str), "message must be a string")


# -- client <-> gateway ------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest(Message):
    """Client -> gateway: evaluate a batch of queries.

    Each query is either a text (compiled server-side through the
    coordinator's cache) or a ``("qlist", to_obj())`` pair for
    pre-compiled queries.
    """

    KIND = 20
    request_id: int
    queries: tuple
    engine: str
    #: Optional trace request: ``(trace_id,)`` asks the gateway to open
    #: a root span, ``(trace_id, span_id)`` parents it on a client-side
    #: span.  Empty (the wire default) means tracing off.
    trace: tuple = ()

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(
            isinstance(self.queries, tuple) and len(self.queries) > 0,
            "queries must be a non-empty tuple",
        )
        for query in self.queries:
            _require(
                isinstance(query, str)
                or (
                    isinstance(query, tuple)
                    and len(query) == 2
                    and query[0] == "qlist"
                ),
                "each query must be a text or a ('qlist', obj) pair",
            )
        _require(isinstance(self.engine, str), "engine must be a name string")
        _require_trace(self.trace)


@dataclass(frozen=True)
class QueryReply(Message):
    """Gateway -> client: per-query answers over one batch ledger."""

    KIND = 21
    request_id: int
    answers: tuple
    metrics_obj: dict
    details: dict
    #: The batch's full span tree (gateway root, coordinator dispatches,
    #: site executions) when the request asked for a trace.
    spans: tuple = ()

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(
            isinstance(self.answers, tuple)
            and all(isinstance(a, bool) for a in self.answers),
            "answers must be a tuple of bools",
        )
        _require(isinstance(self.metrics_obj, dict), "metrics_obj must be a dict")
        _require(isinstance(self.details, dict), "details must be a dict")
        _require_spans(self.spans)


@dataclass(frozen=True)
class Rejected(Message):
    """Gateway -> client: typed refusal (load shed, site down, bad request)."""

    KIND = 22
    request_id: int
    code: str
    message: str

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(isinstance(self.code, str), "code must be a string")
        _require(isinstance(self.message, str), "message must be a string")


# -- telemetry ---------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRequest(Message):
    """Client -> gateway (or coordinator -> site): scrape the registry."""

    KIND = 40
    request_id: int

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")


@dataclass(frozen=True)
class MetricsReply(Message):
    """A metrics registry snapshot plus its Prometheus text exposition.

    ``snapshot`` is the plain-container dict from
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` (restricted-
    unpickler safe); ``text`` is the same data pre-rendered so a dumb
    scraper can dump it without knowing the snapshot schema.
    """

    KIND = 41
    request_id: int
    snapshot: dict
    text: str

    def validate(self) -> None:
        _require(isinstance(self.request_id, int), "request_id must be an int")
        _require(isinstance(self.snapshot, dict), "snapshot must be a dict")
        _require(isinstance(self.text, str), "text must be a string")


# -- liveness / lifecycle ----------------------------------------------------


@dataclass(frozen=True)
class Ping(Message):
    KIND = 30
    nonce: int
    version: int = PROTOCOL_VERSION

    def validate(self) -> None:
        _require(isinstance(self.nonce, int), "nonce must be an int")
        _require(isinstance(self.version, int), "version must be an int")


@dataclass(frozen=True)
class Pong(Message):
    KIND = 31
    nonce: int
    version: int = PROTOCOL_VERSION

    def validate(self) -> None:
        _require(isinstance(self.nonce, int), "nonce must be an int")
        _require(isinstance(self.version, int), "version must be an int")


@dataclass(frozen=True)
class Shutdown(Message):
    """Ask the receiving server to stop accepting and wind down."""

    KIND = 32


MESSAGE_TYPES: dict[int, type[Message]] = {
    cls.KIND: cls
    for cls in (
        LoadFragments,
        Loaded,
        ExecuteRequest,
        ExecuteReply,
        ErrorReply,
        QueryRequest,
        QueryReply,
        Rejected,
        MetricsRequest,
        MetricsReply,
        Ping,
        Pong,
        Shutdown,
    )
}


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """One message as one wire frame (validated like a decoded one)."""
    message.validate()
    payload = pickle.dumps(message.to_fields(), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"payload of {type(message).__name__} is {len(payload)} bytes "
            f"(max {MAX_PAYLOAD_BYTES})"
        )
    return HEADER.pack(MAGIC, type(message).KIND, len(payload)) + payload


def decode_payload(kind: int, payload: bytes) -> Message:
    """Decode one frame's payload into its message, or raise typed errors."""
    message_cls = MESSAGE_TYPES.get(kind)
    if message_cls is None:
        raise PayloadError(f"unknown message kind {kind}")
    try:
        payload_fields = restricted_loads(payload)
    except PayloadError:
        raise
    except Exception as error:  # pickle raises a wide, undocumented set
        raise PayloadError(f"undecodable {message_cls.__name__} payload: {error}") from None
    return message_cls.from_fields(payload_fields)


class FrameSplitter:
    """Incremental splitter: bytes in, raw ``(kind, payload)`` frames out.

    Handles arbitrarily interleaved partial reads (a frame may arrive
    one byte at a time, or many frames in one read).  Raises
    :class:`FrameError` on bad magic or an oversized declared length,
    and poisons itself afterwards: once the stream desynchronizes there
    is no way to find the next frame boundary, so every later feed
    fails fast instead of decoding garbage.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._broken: Optional[str] = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        if self._broken is not None:
            raise FrameError(f"framer poisoned by earlier error: {self._broken}")
        self._buffer.extend(data)
        frames: list[tuple[int, bytes]] = []
        while len(self._buffer) >= HEADER.size:
            magic, kind, length = HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                self._broken = f"bad magic {bytes(magic)!r}"
                raise FrameError(self._broken)
            if length > self.max_payload:
                self._broken = f"declared payload of {length} bytes (max {self.max_payload})"
                raise FrameError(self._broken)
            end = HEADER.size + length
            if len(self._buffer) < end:
                break
            frames.append((kind, bytes(self._buffer[HEADER.size : end])))
            del self._buffer[:end]
        return frames


class Framer:
    """Frame splitter plus payload decoding: bytes in, messages out.

    Decode failures (:class:`PayloadError`) poison the framer like
    frame failures do -- a peer that sent one undecodable payload
    cannot be trusted to have framed the next one honestly.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self._splitter = FrameSplitter(max_payload)
        self._broken: Optional[str] = None

    @property
    def pending_bytes(self) -> int:
        return self._splitter.pending_bytes

    def feed(self, data: bytes) -> list[Message]:
        if self._broken is not None:
            raise ProtocolError(f"framer poisoned by earlier error: {self._broken}")
        try:
            frames = self._splitter.feed(data)
            return [decode_payload(kind, payload) for kind, payload in frames]
        except ProtocolError as error:
            self._broken = str(error)
            raise


# ---------------------------------------------------------------------------
# asyncio stream helpers
# ---------------------------------------------------------------------------


async def read_message(
    reader: asyncio.StreamReader, max_payload: int = MAX_PAYLOAD_BYTES
) -> Optional[Message]:
    """Read one message; ``None`` on clean EOF at a frame boundary.

    Truncation mid-frame (EOF after a partial header or payload) raises
    :class:`FrameError` -- the peer died or lied about the length, and
    the two cases are indistinguishable on the wire.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError(
            f"truncated frame header ({len(error.partial)}/{HEADER.size} bytes)"
        ) from None
    magic, kind, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if length > max_payload:
        raise FrameError(f"declared payload of {length} bytes (max {max_payload})")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"truncated payload ({len(error.partial)}/{length} bytes)"
        ) from None
    return decode_payload(kind, payload)


def write_message(writer: asyncio.StreamWriter, message: Message) -> None:
    """Queue one message on an asyncio stream (caller drains)."""
    writer.write(encode_message(message))


# ---------------------------------------------------------------------------
# Metrics wire form
# ---------------------------------------------------------------------------

#: Metrics fields shipped verbatim (scalar counters and seconds).
_METRIC_SCALARS = (
    "messages",
    "bytes_total",
    "nodes_processed",
    "qlist_ops",
    "compute_seconds_total",
    "elapsed_seconds",
    "wall_seconds",
    "parallel_batches",
    "critical_path_seconds",
    "dirty_site_visits",
    "refresh_rounds",
    "migration_bytes",
    "migration_visits",
)


def metrics_to_wire(metrics: Metrics) -> dict:
    """A batch ledger as a plain dict (what :class:`QueryReply` carries).

    Ships the full deterministic ledger -- per-site visit counters,
    per-kind byte counters and per-segment operation counts included --
    so the client can reconstruct a :class:`~repro.distsim.metrics.Metrics`
    that is **equal counter-for-counter** to what a local engine run
    would have produced.  The differential tests lean on that: the
    simulated ledger is part of the oracle, not just the answers.
    """
    wire = {name: getattr(metrics, name) for name in _METRIC_SCALARS}
    wire["visits"] = dict(metrics.visits)
    wire["bytes_by_kind"] = dict(metrics.bytes_by_kind)
    wire["site_seconds"] = dict(metrics.site_seconds)
    wire["segment_ops"] = dict(metrics.segment_ops)
    wire["critical_site"] = metrics.critical_site
    return wire


def metrics_from_wire(wire: dict) -> Metrics:
    """Inverse of :func:`metrics_to_wire`."""
    metrics = Metrics()
    for name in _METRIC_SCALARS:
        setattr(metrics, name, wire[name])
    metrics.visits.update(wire["visits"])
    metrics.bytes_by_kind.update(wire["bytes_by_kind"])
    metrics.site_seconds.update(wire["site_seconds"])
    metrics.segment_ops.update(wire["segment_ops"])
    metrics.critical_site = wire["critical_site"]
    return metrics


__all__ = [
    "MAGIC",
    "HEADER",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "FrameError",
    "PayloadError",
    "ServingError",
    "Overloaded",
    "SiteUnavailable",
    "RemoteQueryError",
    "ERR_OVERLOADED",
    "ERR_SITE_UNAVAILABLE",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_FRAGMENT",
    "ERR_STALE_FRAGMENT",
    "ERR_INTERNAL",
    "error_for",
    "Message",
    "LoadFragments",
    "Loaded",
    "ExecuteRequest",
    "ExecuteReply",
    "ErrorReply",
    "QueryRequest",
    "QueryReply",
    "Rejected",
    "MetricsRequest",
    "MetricsReply",
    "Ping",
    "Pong",
    "Shutdown",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_payload",
    "FrameSplitter",
    "Framer",
    "read_message",
    "write_message",
    "metrics_to_wire",
    "metrics_from_wire",
]
