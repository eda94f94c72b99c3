"""The front-door gateway: many client sessions, one coordinator.

One asyncio TCP server multiplexing concurrent
:class:`~repro.core.session.QuerySession` clients.  Each accepted
:class:`~repro.serving.protocol.QueryRequest` is evaluated on a bounded
worker-thread pool (the engine's evaluation is synchronous CPU work and
the :class:`~repro.serving.coordinator.RemoteSiteExecutor` *blocks* its
thread while site replies stream in -- running it on the event loop
would deadlock the loop against itself), while the loop thread stays
free for frame I/O and the coordinator's site links.

Every request goes to the one
:class:`~repro.serving.coordinator.Coordinator`, as in the paper: one
site broadcasts the query, collects the triplets and solves the
equations.

Admission control is a bounded in-flight queue: ``max_inflight``
requests evaluate concurrently (on as many worker threads), up to
``max_queue`` more wait, and anything beyond that is shed immediately
with a typed ``Rejected(overloaded)`` -- the client sees
:class:`~repro.serving.protocol.Overloaded`, never an unbounded queue.
Failures map to typed rejections the same way: a site that
stayed dead through the retry becomes ``Rejected(site-unavailable)``, a
malformed query becomes ``Rejected(bad-request)``, anything unexpected
becomes ``Rejected(internal)`` -- the connection always gets an answer
or a typed error for every request id it sent.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.distsim.cluster import Cluster
from repro.obs.logging import emit as obs_emit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanStore, SpanTimer, TraceContext
from repro.serving.coordinator import Coordinator, SiteEndpoint
from repro.serving.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    MetricsReply,
    MetricsRequest,
    Ping,
    Pong,
    ProtocolError,
    QueryReply,
    QueryRequest,
    Rejected,
    ServingError,
    Shutdown,
    metrics_to_wire,
    read_message,
    write_message,
)

logger = logging.getLogger("repro.serving.gateway")

#: Detail values that may ride a QueryReply (the restricted unpickler
#: on the client refuses anything class-shaped, so filter server-side).
_PLAIN = (str, int, float, bool, type(None))


def _plain_details(details: dict) -> dict:
    return {
        key: value
        for key, value in details.items()
        if isinstance(key, str) and isinstance(value, _PLAIN)
    }


class Gateway:
    """Front door: accepts client sessions, shields the coordinator."""

    def __init__(
        self,
        cluster: Cluster,
        endpoints: dict[str, Sequence[SiteEndpoint]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 4,
        max_queue: int = 8,
        site_timeout: float = 10.0,
        default_engine: str = "parbox",
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.host = host
        self.port = port  # 0 until started when OS-assigned
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.default_engine = default_engine
        #: One registry for the whole serving process: the coordinator
        #: records its dispatch events into it too, so a single
        #: MetricsReply covers admission, dispatch, and latency.
        self.registry = MetricsRegistry("gateway")
        self.coordinator = Coordinator(
            cluster, endpoints, site_timeout=site_timeout, registry=self.registry
        )
        #: Requests accepted but not yet replied to (admission control).
        self.inflight = 0
        #: Requests shed by admission control (the overload tests read this).
        self.shed_count = 0
        self._requests_total = self.registry.counter(
            "gateway_requests_total", "Query batches received"
        )
        self._shed_total = self.registry.counter(
            "gateway_shed_total", "Query batches shed by admission control"
        )
        self._replies_total = self.registry.counter(
            "gateway_replies_total", "Replies by outcome", labelnames=("status",)
        )
        self._inflight_gauge = self.registry.gauge(
            "gateway_inflight", "Batches admitted but not yet answered"
        )
        self._latency = self.registry.histogram(
            "gateway_request_seconds", "Admission-to-reply latency of served batches"
        )
        #: Bounded store of every span the gateway saw (its own roots,
        #: coordinator dispatches, site executions) -- `repro trace` fuel.
        self.spans = SpanStore()
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self.coordinator.bind_loop(asyncio.get_running_loop())
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-gateway"
        )
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("gateway listening on %s:%d", self.host, self.port)
        return self

    async def stop(self) -> None:
        """Stop accepting, abort sessions, close site links (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        await self.coordinator.aclose()
        logger.info("gateway stopped")

    @property
    def running(self) -> bool:
        return self._server is not None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as error:
                    # A client that desynced its stream cannot be
                    # answered (there is no trustworthy request id);
                    # drop the connection, never the process.
                    logger.warning("gateway: dropping %s: %s", peer, error)
                    break
                except (ConnectionError, OSError):
                    break
                if message is None or isinstance(message, Shutdown):
                    break
                if isinstance(message, Ping):
                    async with write_lock:
                        write_message(writer, Pong(nonce=message.nonce))
                        await writer.drain()
                elif isinstance(message, MetricsRequest):
                    snapshot = self.registry.snapshot()
                    reply = MetricsReply(
                        request_id=message.request_id,
                        snapshot=snapshot,
                        text=self.registry.render_text(),
                    )
                    async with write_lock:
                        write_message(writer, reply)
                        await writer.drain()
                elif isinstance(message, QueryRequest):
                    self._admit(message, writer, write_lock)
                else:
                    logger.warning("gateway: unexpected %s", type(message).__name__)
        finally:
            self._writers.discard(writer)
            writer.transport.abort()

    def _admit(
        self, request: QueryRequest, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self._requests_total.inc()
        if self.inflight >= self.max_inflight + self.max_queue:
            self.shed_count += 1
            self._shed_total.inc()
            self._replies_total.labels(status="shed").inc()
            obs_emit(
                "gateway",
                "shed",
                request_id=request.request_id,
                inflight=self.inflight,
                trace_id=request.trace[0] if request.trace else "",
            )
            rejection = Rejected(
                request.request_id,
                ERR_OVERLOADED,
                f"gateway at capacity ({self.inflight} in flight, "
                f"limit {self.max_inflight}+{self.max_queue})",
            )
            task = asyncio.ensure_future(self._reply(writer, write_lock, rejection))
        else:
            self.inflight += 1
            self._inflight_gauge.set(self.inflight)
            task = asyncio.ensure_future(self._serve(request, writer, write_lock))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(
        self,
        request: QueryRequest,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.perf_counter()
        try:
            reply = await self._evaluate(request)
        except asyncio.CancelledError:
            raise
        finally:
            self.inflight -= 1
            self._inflight_gauge.set(self.inflight)
        elapsed = time.perf_counter() - started
        self._latency.observe(elapsed)
        status = "ok" if isinstance(reply, QueryReply) else reply.code
        self._replies_total.labels(status=status).inc()
        obs_emit(
            "gateway",
            "request",
            request_id=request.request_id,
            status=status,
            seconds=round(elapsed, 6),
            queries=len(request.queries),
            engine=request.engine or self.default_engine,
            trace_id=request.trace[0] if request.trace else "",
        )
        try:
            await self._reply(writer, write_lock, reply)
        except (ConnectionError, OSError):  # client gone; nothing to tell it
            pass

    async def _evaluate(self, request: QueryRequest):
        engine_name = request.engine or self.default_engine
        loop = asyncio.get_running_loop()
        # A non-empty trace field opens the batch's root span here and
        # threads its context through the coordinator to every site.
        ctx = TraceContext.from_wire(request.trace)
        timer: Optional[SpanTimer] = None
        sink: Optional[list] = None
        trace_ctx: Optional[TraceContext] = None
        if ctx is not None:
            timer = SpanTimer(
                ctx.trace_id,
                ctx.span_id or None,
                "gateway.request",
                "gateway",
                request_id=request.request_id,
                engine=engine_name,
                queries=len(request.queries),
            )
            sink = []
            trace_ctx = timer.context()
        evaluate = functools.partial(
            self.coordinator.evaluate,
            request.queries,
            engine_name,
            trace=trace_ctx,
            span_sink=sink,
        )
        try:
            result = await loop.run_in_executor(self._pool, evaluate)
        except ServingError as error:
            return Rejected(request.request_id, error.code, str(error))
        except (ValueError, TypeError) as error:
            return Rejected(request.request_id, ERR_BAD_REQUEST, str(error))
        except RuntimeError as error:
            # Includes pool-shutdown races during stop(): typed, not a hang.
            return Rejected(request.request_id, ERR_INTERNAL, str(error))
        except Exception as error:  # noqa: BLE001 - typed toward the client
            logger.exception("gateway: request %d failed", request.request_id)
            return Rejected(
                request.request_id, ERR_INTERNAL, f"{type(error).__name__}: {error}"
            )
        finally:
            if timer is not None:
                sink.append(timer.finish().to_wire())
                self.spans.ingest_wire(sink)
        details = _plain_details(result.details)
        details["engine"] = result.engine
        return QueryReply(
            request_id=request.request_id,
            answers=tuple(bool(answer) for answer in result.answers),
            metrics_obj=metrics_to_wire(result.metrics),
            details=details,
            spans=tuple(sink) if sink is not None else (),
        )

    async def _reply(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message
    ) -> None:
        async with write_lock:
            write_message(writer, message)
            await writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gateway {self.host}:{self.port} inflight={self.inflight}>"


__all__ = ["Gateway"]
