"""A site server: one network process holding resident fragments.

The deployable counterpart of one simulated
:class:`~repro.distsim.site.Site`.  A site server boots *empty*,
receives its fragments once from the coordinator
(:class:`~repro.serving.protocol.LoadFragments` -- data ships exactly
once, the paper's "one visit" discipline extended to placement), and
then answers :class:`~repro.serving.protocol.ExecuteRequest` messages
through the holder's one request routine -- the very one the process
executor's pipe workers call
(:meth:`repro.distsim.resident.ResidentSiteState.accept`, then
``complete``) -- replying with encoded triplet blobs and the
deterministic operation counts.  Because the request routine is
shared, a site server's replies are bit-for-bit what the simulated
ledger predicts -- which is what lets the differential test harness use
the simulation as the oracle for the whole networked tier.  What is
left here is transport: the typed ``ErrorReply`` codes (a
:class:`~repro.distsim.resident.StaleResidentError` is sorted into
``unknown-fragment`` vs ``stale-fragment`` from the resident ids),
``ExecuteReply``, spans and the registry, whose resident counters are
read from the holder's tallies at every snapshot.

Concurrency model: the read loop stays on the event loop and never
blocks.  Each execute request is accepted -- the memo lookup -- on the
loop; one that every fragment's memo answers is replied to right
there, and only one with fragments left to evaluate runs the rest on a
worker thread (``asyncio.to_thread``), so pings and further requests
keep flowing while a big fragment evaluates.  Replies are correlated by
request id and may complete out of order; a per-connection write lock
keeps frames from interleaving.

Run standalone (the process mode the CLI and the boot-two-sites smoke
use)::

    python -m repro.serving.site_server --host 127.0.0.1 --port 0 --name S1

On startup the server prints ``SITE <name> <host> <port>`` on stdout so
a parent process can harvest the OS-assigned port.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import os
import sys
from typing import Optional

from repro.distsim.resident import (
    ResidentSiteState,
    StaleResidentError,
    UnknownAlgebraError,
    wire_fingerprint,
)
from repro.obs.logging import JsonLineHandler, emit as obs_emit, install_event_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTimer, TraceContext
from repro.serving.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_STALE_FRAGMENT,
    ERR_UNKNOWN_FRAGMENT,
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    LoadFragments,
    Loaded,
    Message,
    MetricsReply,
    MetricsRequest,
    Ping,
    Pong,
    ProtocolError,
    Shutdown,
    read_message,
    write_message,
)

logger = logging.getLogger("repro.serving.site")


class SiteServer:
    """One asyncio TCP server evaluating jobs over resident fragments."""

    def __init__(
        self,
        name: str = "site",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port  # 0 until started when OS-assigned
        #: Resident fragments + compiled query cache -- the same state
        #: class the in-process executor workers run on, so both tiers
        #: share one residency protocol (epochs, ship-once counters,
        #: site-vectorized evaluation).
        self.state = ResidentSiteState()
        #: Test hook: artificial seconds added before every execute
        #: reply, used by the timeout/retry tests to make this site
        #: reliably slower than the coordinator's deadline.
        self.delay_seconds = 0.0
        #: This site's own scrapeable registry (answers MetricsRequest).
        #: The resident gauges and counters are read from the holder's
        #: tallies at every snapshot (:meth:`_collect`).
        self.registry = MetricsRegistry(f"site:{name}")
        self.registry.collectors.append(self._collect)
        self._requests_total = self.registry.counter(
            "site_requests_total", "Execute requests served"
        )
        self._errors_total = self.registry.counter(
            "site_errors_total", "Typed error replies", labelnames=("code",)
        )
        self._execute_seconds = self.registry.histogram(
            "site_execute_seconds", "Per-request resident evaluation time"
        )
        self._fragments_gauge = self.registry.gauge(
            "site_fragments_resident", "Fragments currently resident"
        )
        results_total = self.registry.counter(
            "resident_results_total",
            "Per-fragment results served from a resident copy's memo (hit) "
            "or evaluated (miss)",
            labelnames=("result",),
        )
        self._results = {
            result: results_total.labels(result=result) for result in self.state.result_counts
        }
        kernel_nodes = self.registry.counter(
            "resident_kernel_nodes_total",
            "Nodes the resident kernel really evaluated: full lane pass, "
            "edited-spine recompute, open-spine symbolic completion",
            labelnames=("mode",),
        )
        self._kernel_nodes = {
            mode: kernel_nodes.labels(mode=mode) for mode in self.state.kernel_nodes
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SiteServer":
        if self._server is not None:
            raise RuntimeError(f"site server {self.name} already started")
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("site %s listening on %s:%d", self.name, self.host, self.port)
        return self

    async def stop(self, abort: bool = True) -> None:
        """Stop listening and tear connections down (idempotent).

        ``abort=True`` (the default, and what :meth:`kill` uses) resets
        open connections instead of flushing them -- from the
        coordinator's point of view, exactly what a crashed process
        looks like.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for writer in list(self._writers):
            if abort:
                writer.transport.abort()
            else:
                writer.close()
        self._writers.clear()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        logger.info("site %s stopped", self.name)

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
                    logger.warning("site %s: dropping %s: %s", self.name, peer, error)
                    break
                except (ConnectionError, OSError):
                    break
                if message is None or isinstance(message, Shutdown):
                    break
                await self._dispatch(message, writer, write_lock)
        finally:
            self._writers.discard(writer)
            writer.transport.abort()

    async def _dispatch(
        self, message: Message, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        if isinstance(message, ExecuteRequest):
            # Off the read loop: a slow evaluation must not stall pings
            # or later requests on the same connection.
            task = asyncio.ensure_future(self._execute(message, writer, write_lock))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            return
        if isinstance(message, LoadFragments):
            loaded = await asyncio.to_thread(self._load_fragments, message.fragments)
            await self._send(writer, write_lock, Loaded(fragment_ids=loaded))
        elif isinstance(message, MetricsRequest):
            reply = MetricsReply(
                request_id=message.request_id,
                snapshot=self.registry.snapshot(),
                text=self.registry.render_text(),
            )
            await self._send(writer, write_lock, reply)
        elif isinstance(message, Ping):
            await self._send(writer, write_lock, Pong(nonce=message.nonce))
        else:
            logger.warning("site %s: unexpected %s", self.name, type(message).__name__)

    def _load_fragments(self, wires: tuple) -> tuple:
        self.state.store(wires)
        logger.info(
            "site %s: %d fragment(s) resident after load of %d",
            self.name,
            len(self.state.fragments),
            len(wires),
        )
        return tuple(sorted(self.state.fragments))

    def _collect(self) -> None:
        """Read the holder's tallies into the registry (before every snapshot)."""
        state = self.state
        self._fragments_gauge.set(len(state.fragments))
        # The holder's tallies are the counters' truth, so a counter
        # never drifts from what a pipe worker's ``stats`` reply reports
        # for the same requests.
        for tally, children in (
            (state.result_counts, self._results),
            (state.kernel_nodes, self._kernel_nodes),
        ):
            for key, child in children.items():
                child.value = float(tally[key])

    async def _execute(
        self, request: ExecuteRequest, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            reply = await self._run_request(request)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - reported to the peer, typed
            logger.exception("site %s: request %d failed", self.name, request.request_id)
            reply = ErrorReply(request.request_id, ERR_INTERNAL, f"{type(error).__name__}: {error}")
        if self.delay_seconds:
            await asyncio.sleep(self.delay_seconds)
        try:
            await self._send(writer, write_lock, reply)
        except (ConnectionError, OSError):  # peer gone; nothing to tell it
            pass

    async def _run_request(self, request: ExecuteRequest) -> Message:
        refs = tuple(zip(request.fragment_ids, request.epochs))
        # Fingerprint the wire form as received; a QList is built only
        # for a program this site does not hold yet.
        fingerprint = wire_fingerprint(request.qlist_obj)
        ctx = TraceContext.from_wire(request.trace)
        timer: Optional[SpanTimer] = None
        if ctx is not None:
            timer = SpanTimer(
                ctx.trace_id,
                ctx.span_id or None,
                "site.execute",
                f"site:{self.name}",
                fragments=len(request.fragment_ids),
                label=request.label,
            )
        try:
            pending = self.state.accept(
                self.name, refs, fingerprint, request.qlist_obj, request.algebra
            )
        except UnknownAlgebraError as error:
            return self._error(request, ERR_BAD_REQUEST, str(error))
        except StaleResidentError as stale:
            # Typed, recoverable: the coordinator re-pushes and retries.
            # Unknown = never held (a restarted, empty site); stale =
            # held, but the epoch says the copy predates an update.
            unknown = [fid for fid in stale.missing if fid not in self.state.fragments]
            if unknown:
                return self._error(
                    request, ERR_UNKNOWN_FRAGMENT, f"site {self.name} has no fragment(s) {unknown}"
                )
            return self._error(
                request,
                ERR_STALE_FRAGMENT,
                f"site {self.name} holds stale copies of fragment(s) {list(stale.missing)}",
            )
        # The memo reads were the lookup, answered here; only a request
        # with something to evaluate (cold indices) leaves the loop.
        segments = tuple(tuple(span) for span in request.segments)
        off_loop = bool(pending[2])
        if off_loop:
            results, seconds, hits = await asyncio.to_thread(
                self.state.complete, pending, segments
            )
        else:
            results, seconds, hits = self.state.complete(pending, segments)
        self._requests_total.inc()
        self._execute_seconds.observe(seconds)
        spans = ()
        if timer is not None:
            span = timer.finish(seconds=round(seconds, 6), memo_hits=hits, off_loop=off_loop)
            spans = (span.to_wire(),)
        return ExecuteReply(request.request_id, results, seconds, spans, hits)

    def _error(self, request: ExecuteRequest, code: str, message: str) -> ErrorReply:
        self._errors_total.labels(code=code).inc()
        return ErrorReply(request.request_id, code, message)

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: Message
    ) -> None:
        async with write_lock:
            write_message(writer, message)
            await writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SiteServer {self.name} {self.host}:{self.port} "
            f"fragments={len(self.state.fragments)}>"
        )


# ---------------------------------------------------------------------------
# Process mode
# ---------------------------------------------------------------------------


async def _serve_forever(server: SiteServer) -> None:
    await server.start()
    obs_emit(
        f"site-{server.name}",
        "boot",
        pid=os.getpid(),
        host=server.host,
        port=server.port,
    )
    print(f"SITE {server.name} {server.host} {server.port}", flush=True)
    try:
        await asyncio.Event().wait()  # run until cancelled / killed
    finally:
        await server.stop()


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point of ``python -m repro.serving.site_server``."""
    parser = argparse.ArgumentParser(
        prog="repro-site-server",
        description="one ParBoX site server process (boots empty; the "
        "coordinator pushes fragments on connect)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    parser.add_argument("--name", default="site")
    parser.add_argument(
        "--log-dir", default=None, help="write JSON-lines event logs into this directory"
    )
    args = parser.parse_args(argv)
    if args.log_dir:
        # Structured JSON lines, one file per site, flushed per line --
        # a crashed process still leaves attributable evidence.
        event_log = install_event_log(args.log_dir)
        handler = JsonLineHandler(event_log, component=f"site-{args.name}")
        logging.getLogger("repro.serving").addHandler(handler)
        logging.getLogger("repro.serving").setLevel(logging.INFO)
    server = SiteServer(name=args.name, host=args.host, port=args.port)
    try:
        asyncio.run(_serve_forever(server))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
