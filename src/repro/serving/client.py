"""Client side of the serving tier: blocking socket, engine facade.

Two layers:

* :class:`GatewayClient` -- a deliberately boring synchronous client:
  one blocking socket, one :class:`~repro.serving.protocol.Framer`, a
  socket timeout on every receive so a dead gateway raises instead of
  hanging.  Typed rejections come back as the matching
  :class:`~repro.serving.protocol.ServingError` subclass.
* :class:`NetEngine` -- the engine facade :class:`~repro.core.session.QuerySession`
  builds for ``engine="net:HOST:PORT[/ENGINE]"``.  It plans batches
  locally (same deterministic planner the server re-runs), ships
  pre-compiled QLists, and rebuilds a full
  :class:`~repro.distsim.metrics.BatchResult` -- answers, the complete
  simulated ledger via the metrics wire form, and per-query cost rows
  re-attributed from the local plan.  A session pointed at a gateway is
  therefore drop-in: same result type, same counters, same answers as a
  local engine, which is exactly the property the differential tests
  assert.
"""

from __future__ import annotations

import itertools
import socket
from typing import Iterable, Optional, Sequence, Union

from repro.core.plan import BatchPlan, attribute_costs, coerce_plan
from repro.distsim.metrics import BatchResult, EvalResult
from repro.obs.trace import new_trace_id
from repro.serving.protocol import (
    Framer,
    Message,
    MetricsReply,
    MetricsRequest,
    Ping,
    Pong,
    ProtocolError,
    QueryReply,
    QueryRequest,
    Rejected,
    encode_message,
    error_for,
    metrics_from_wire,
)
from repro.xpath.qlist import QList

DEFAULT_CLIENT_TIMEOUT = 30.0


def parse_net_spec(spec: str) -> tuple[str, int, str]:
    """Split ``net:HOST:PORT[/ENGINE]`` into ``(host, port, engine)``.

    ``engine`` is ``""`` when unspecified (the gateway applies its
    default).
    """
    body = spec[4:] if spec.startswith("net:") else spec
    body, _, engine = body.partition("/")
    host, sep, port_text = body.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad net spec {spec!r}; expected net:HOST:PORT[/ENGINE]")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in net spec {spec!r}") from None
    return host, port, engine


class GatewayClient:
    """One synchronous connection to a gateway."""

    def __init__(
        self, host: str, port: int, timeout: float = DEFAULT_CLIENT_TIMEOUT
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._framer = Framer()
        self._inbox: list[Message] = []
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(self, message: Message) -> None:
        if self._sock is None:
            raise ConnectionError("client is closed")
        self._sock.sendall(encode_message(message))

    def _receive(self) -> Message:
        """The next message off the wire (socket timeout bounded)."""
        while not self._inbox:
            if self._sock is None:
                raise ConnectionError("client is closed")
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("gateway closed the connection")
            self._inbox.extend(self._framer.feed(data))
        return self._inbox.pop(0)

    def _reply_for(self, request_id: int) -> Message:
        """The reply matching ``request_id`` (replies can interleave)."""
        while True:
            message = self._receive()
            if getattr(message, "request_id", None) == request_id:
                return message
            # A reply to some other request on this connection (the
            # session pipelines) -- keep it for its waiter.

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def query(
        self,
        queries: Sequence[Union[str, tuple]],
        engine: str = "",
        trace: bool = False,
    ) -> QueryReply:
        """Evaluate a batch; raises the typed error on rejection.

        ``trace=True`` asks the gateway to record a cross-process span
        tree for this batch; it comes back on ``reply.spans``.
        """
        request_id = next(self._request_ids)
        trace_field = (new_trace_id(),) if trace else ()
        self._send(
            QueryRequest(
                request_id=request_id,
                queries=tuple(queries),
                engine=engine,
                trace=trace_field,
            )
        )
        reply = self._reply_for(request_id)
        if isinstance(reply, Rejected):
            raise error_for(reply.code, reply.message)
        if not isinstance(reply, QueryReply):
            raise ProtocolError(f"expected QueryReply, got {type(reply).__name__}")
        return reply

    def metrics(self) -> MetricsReply:
        """Scrape the server's metrics registry (snapshot + Prometheus text)."""
        request_id = next(self._request_ids)
        self._send(MetricsRequest(request_id=request_id))
        reply = self._reply_for(request_id)
        if not isinstance(reply, MetricsReply):
            raise ProtocolError(f"expected MetricsReply, got {type(reply).__name__}")
        return reply

    def server_stats(self) -> dict[str, float]:
        """Server counters/gauges flattened to ``name{label=value}: n``.

        The client-side window onto ``ServingCoordinator.stats`` and the
        gateway's shed/inflight counters (e.g.
        ``coordinator_events_total{event=retries}``, ``gateway_shed_total``).
        Histograms are skipped -- use :meth:`metrics` for the full snapshot.
        """
        flat: dict[str, float] = {}
        for name, entry in self.metrics().snapshot.items():
            if entry.get("type") == "histogram":
                continue
            for label_str, value in entry.get("values", {}).items():
                key = f"{name}{{{label_str}}}" if label_str else name
                flat[key] = value
        return flat

    def ping(self) -> bool:
        nonce = next(self._request_ids)
        self._send(Ping(nonce=nonce))
        while True:
            message = self._receive()
            if isinstance(message, Pong) and message.nonce == nonce:
                return True

    def close(self) -> None:
        """Idempotent: safe after errors and double closes."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    @property
    def closed(self) -> bool:
        return self._sock is None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<GatewayClient {self.host}:{self.port} {state}>"


class NetEngine:
    """Engine facade over a gateway: plan locally, evaluate remotely.

    Quacks like :class:`~repro.core.engine.Engine` for the evaluation
    surface (``evaluate`` / ``evaluate_many`` / ``close`` / context
    manager) without being one -- it holds no cluster and no algebra,
    so the session-level operations that need local topology access
    (watch, rebalance) are guarded at the session layer.

    The connection is lazy and self-healing: built on first use,
    dropped after a transport error so the next call reconnects (the
    gateway is stateless per request, so a reconnect loses nothing).
    """

    name = "net"

    def __init__(
        self,
        host: str,
        port: int,
        engine: str = "",
        timeout: float = DEFAULT_CLIENT_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.engine_name = engine
        self.timeout = timeout
        #: When True every batch requests a span tree; the latest one is
        #: kept on :attr:`last_spans` (wire tuples -- render with
        #: ``repro.obs.trace.Span.from_wire`` + ``render_spans``).
        self.trace_batches = False
        self.last_spans: tuple = ()
        self._client: Optional[GatewayClient] = None
        self._closed = False

    @classmethod
    def from_spec(cls, spec: str, timeout: float = DEFAULT_CLIENT_TIMEOUT) -> "NetEngine":
        host, port, engine = parse_net_spec(spec)
        return cls(host, port, engine, timeout=timeout)

    def _ensure_client(self) -> GatewayClient:
        if self._closed:
            raise RuntimeError("NetEngine is closed")
        if self._client is None or self._client.closed:
            self._client = GatewayClient(self.host, self.port, timeout=self.timeout)
        return self._client

    def evaluate_many(
        self, batch: Union[BatchPlan, Iterable[Union[str, QList]]]
    ) -> BatchResult:
        """One client batch: same result shape as a local engine's."""
        plan = coerce_plan(batch)
        queries = tuple(
            ("qlist", tuple(tuple(entry) for entry in qlist.to_obj()))
            for qlist in plan.queries
        )
        client = self._ensure_client()
        try:
            reply = client.query(queries, self.engine_name, trace=self.trace_batches)
        except (ProtocolError, ConnectionError, OSError, TimeoutError):
            # The transport is suspect; reconnect on the next call.
            self._drop_client()
            raise
        if self.trace_batches:
            self.last_spans = reply.spans
        metrics = metrics_from_wire(reply.metrics_obj)
        details = dict(reply.details)
        details["transport"] = "net"
        details["gateway"] = f"{self.host}:{self.port}"
        return BatchResult(
            answers=reply.answers,
            engine=details.get("engine", self.name),
            metrics=metrics,
            per_query=attribute_costs(plan, reply.answers, metrics),
            details=details,
        )

    def evaluate(self, qlist: QList) -> EvalResult:
        return self.evaluate_many([qlist]).single()

    def ping(self) -> bool:
        return self._ensure_client().ping()

    def server_metrics(self) -> MetricsReply:
        """The gateway's registry snapshot (see :meth:`GatewayClient.metrics`)."""
        return self._ensure_client().metrics()

    def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def close(self) -> None:
        """Idempotent; the engine is unusable afterwards."""
        self._closed = True
        self._drop_client()

    def __enter__(self) -> "NetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        remote = self.engine_name or "default"
        return f"<NetEngine {self.host}:{self.port} engine={remote}>"


__all__ = [
    "DEFAULT_CLIENT_TIMEOUT",
    "parse_net_spec",
    "GatewayClient",
    "NetEngine",
]
