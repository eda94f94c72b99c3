"""The serving coordinator: engines unchanged, sites across the network.

The one architectural trick of the serving tier lives here.  Every
engine's parallel stage already funnels through one interface --
:meth:`repro.distsim.executors.SiteExecutor.run_jobs` -- so making the
whole engine family (ParBoX, FullDist, Lazy, Hybrid) run over real
sockets takes exactly one new executor: :class:`RemoteSiteExecutor`
ships each :class:`~repro.distsim.executors.SiteJob` to a site-server
process and rebuilds the :class:`~repro.distsim.executors.SiteOutcome`
from the reply.  The engines cannot tell the difference, which is also
why the simulated ledger survives as the differential oracle: visits,
messages, byte counts and operation counts are computed engine-side
from the decoded triplets, deterministically, exactly as under the
serial executor.

Failure contract (the part the fault-injection suite holds us to):

* every attempt is bounded by ``site_timeout`` -- a dead, slow or
  byte-dropping site can never hang a query;
* a failed attempt is retried **exactly once**, against the site's
  replica endpoint when one is configured, else against a fresh
  connection to the same endpoint;
* a second failure raises :class:`~repro.serving.protocol.SiteUnavailable`
  -- a typed error the gateway forwards as a typed rejection, never a
  hang, never a wrong answer;
* a site that answers ``unknown-fragment`` (it restarted and lost its
  residents) gets its fragments re-pushed and the request re-issued on
  the same connection -- restarts self-heal without operator action.

The coordinator owns the placement truth: fragments are pushed to each
site link once per connection (and re-pushed after reconnects), so
steady-state queries ship fragment *ids* only.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.plan import BatchPlan, QueryCache
from repro.distsim.cluster import Cluster
from repro.distsim.executors import (
    SiteExecutor,
    SiteJob,
    SiteOutcome,
    algebra_wire_name,
    outcome_from_wire,
    resident_fragment_wire,
)
from repro.distsim.metrics import BatchResult
from repro.obs.logging import emit as obs_emit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTimer, TraceContext
from repro.serving.protocol import (
    ERR_STALE_FRAGMENT,
    ERR_UNKNOWN_FRAGMENT,
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    FrameError,
    LoadFragments,
    Loaded,
    Message,
    PayloadError,
    ProtocolError,
    RemoteQueryError,
    SiteUnavailable,
    read_message,
    write_message,
)
from repro.xpath.qlist import QList

logger = logging.getLogger("repro.serving.coordinator")

#: Engines a coordinator will instantiate by request.  The distributed
#: subset only -- NaiveCentralized pulls whole fragments, which the wire
#: protocol deliberately has no message for.
SERVABLE_ENGINES = ("parbox", "fulldist", "lazy", "hybrid")

#: Default per-attempt deadline for one site request.
DEFAULT_SITE_TIMEOUT = 10.0


@dataclass(frozen=True)
class SiteEndpoint:
    """Where one (replica of one) site server listens."""

    host: str
    port: int

    def address(self) -> str:
        return f"{self.host}:{self.port}"


class SiteLink:
    """One managed connection to one site-server endpoint.

    Multiplexes concurrent execute requests over a single socket,
    correlated by request id; tracks which logical sites' fragments
    have been pushed on the *current* connection so a reconnect (the
    site restarted) naturally forgets and re-pushes.
    """

    def __init__(self, endpoint: SiteEndpoint, connect_timeout: float) -> None:
        self.endpoint = endpoint
        self.connect_timeout = connect_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: dict[int, asyncio.Future] = {}
        self._load_waiters: list[asyncio.Future] = []
        self.loaded_sites: set[str] = set()
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        self._drain_lock = asyncio.Lock()
        self._needs_drain = False
        self.load_lock = asyncio.Lock()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def ensure(self) -> None:
        """Connect (or reconnect) the link; idempotent when healthy."""
        async with self._connect_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.endpoint.host, self.endpoint.port),
                timeout=self.connect_timeout,
            )
            self._reader, self._writer = reader, writer
            self.loaded_sites = set()
            self._read_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        error: Exception = ConnectionResetError("site connection closed")
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                self._route(message)
        except (ProtocolError, ConnectionError, OSError) as exc:
            error = exc
        finally:
            self._teardown(error)

    def _route(self, message: Message) -> None:
        if isinstance(message, (ExecuteReply, ErrorReply)):
            future = self._pending.pop(message.request_id, None)
            if future is not None and not future.done():
                future.set_result(message)
            # else: a reply to a request we already timed out on
            # (or a duplicated frame) -- discard.
        elif isinstance(message, Loaded):
            if self._load_waiters:
                waiter = self._load_waiters.pop(0)
                if not waiter.done():
                    waiter.set_result(message)
        else:
            logger.warning("link %s: unexpected %s", self.endpoint.address(), type(message).__name__)

    def _teardown(self, error: Exception) -> None:
        """Fail every waiter and reset the connection state."""
        writer, self._writer = self._writer, None
        self._reader = None
        self.loaded_sites = set()
        if writer is not None:
            writer.transport.abort()
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        for waiter in self._load_waiters:
            if not waiter.done():
                waiter.set_exception(error)
        self._load_waiters.clear()

    async def _send(self, message: Message) -> None:
        """Write one frame; coalesce concurrent senders' drains.

        ``write_message`` only fills the transport buffer, so a batch
        of concurrent requests on this link pipelines: every sender
        writes its frame immediately, then the first one through the
        drain lock flushes the socket for all of them -- N frames, one
        drain pass, instead of one drain await per request.
        """
        writer = self._writer
        if writer is None:
            raise ConnectionResetError(f"link {self.endpoint.address()} is down")
        async with self._write_lock:
            write_message(writer, message)
            self._needs_drain = True
        async with self._drain_lock:
            if self._needs_drain:
                self._needs_drain = False
                writer = self._writer
                if writer is not None:  # torn down between write and drain
                    await writer.drain()

    async def request(self, message: ExecuteRequest, timeout: float) -> Message:
        """Send one execute request and await its correlated reply."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[message.request_id] = future
        try:
            await self._send(message)
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            self._pending.pop(message.request_id, None)

    async def load(self, message: LoadFragments, timeout: float) -> Message:
        """Push fragments and await the acknowledgement."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._load_waiters.append(future)
        try:
            await self._send(message)
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            if future in self._load_waiters:
                self._load_waiters.remove(future)

    def drop(self) -> None:
        """Abort the connection (a failed attempt poisons the socket)."""
        self._teardown(ConnectionResetError(f"link {self.endpoint.address()} dropped"))
        if self._read_task is not None:
            self._read_task.cancel()
            self._read_task = None

    async def aclose(self) -> None:
        task = self._read_task
        self.drop()
        if task is not None:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass


class Coordinator:
    """Dispatches site jobs to networked site servers; owns placement.

    Lives on one asyncio event loop (bound via :meth:`bind_loop`, done
    by the gateway at startup); the synchronous :meth:`evaluate` runs on
    a worker thread and bridges into the loop through
    :class:`RemoteSiteExecutor`.
    """

    def __init__(
        self,
        cluster: Cluster,
        endpoints: dict[str, Sequence[SiteEndpoint]],
        site_timeout: float = DEFAULT_SITE_TIMEOUT,
        connect_timeout: float = 5.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        missing = set(cluster.source_tree().sites()) - set(endpoints)
        if missing:
            raise ValueError(f"no endpoint configured for site(s) {sorted(missing)}")
        self.cluster = cluster
        self.endpoints = {site: tuple(eps) for site, eps in endpoints.items()}
        self.site_timeout = site_timeout
        self.connect_timeout = connect_timeout
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: Observable dispatch counters: "attempts", "retries",
        #: "repushes", "failures" (the retry tests read these).
        self.stats: Counter = Counter()
        #: Metrics registry mirroring ``stats`` (shared with the gateway
        #: when embedded, so one MetricsReply covers both components).
        self.registry = registry if registry is not None else MetricsRegistry("coordinator")
        self._events = self.registry.counter(
            "coordinator_events_total",
            "Dispatch events: attempts, retries, repushes, failures",
            labelnames=("event",),
        )
        #: Per-thread (trace context, span sink) set for the duration of
        #: one evaluate() call; RemoteSiteExecutor.run_jobs runs on the
        #: same worker thread, so it reads the batch's context here.
        self._trace_local = threading.local()
        #: Compiles and plans every batch: a resent batch gets the plan
        #: object it got before (plans are frozen dataclasses over
        #: immutable QLists, so one serves concurrent worker threads).
        self.cache = QueryCache()
        # The fixed ``coordinator="c0"`` label keeps the series the
        # end-to-end benchmark and dashboards key on.
        plan_events = self.registry.counter(
            "coordinator_plan_cache_total",
            "Compiled-plan cache lookups by coordinator and result",
            labelnames=("coordinator", "result"),
        )
        self._plan_hits = plan_events.labels(coordinator="c0", result="hit")
        self._plan_misses = plan_events.labels(coordinator="c0", result="miss")
        #: What the sites report per reply (same series name as on a
        #: site server's own registry, so ``repro top`` reads either).
        results_total = self.registry.counter(
            "resident_results_total",
            "Per-fragment results served from a resident copy's memo (hit) "
            "or evaluated (miss)",
            labelnames=("result",),
        )
        self._result_hits = results_total.labels(result="hit")
        self._result_misses = results_total.labels(result="miss")
        self._links: dict[SiteEndpoint, SiteLink] = {}
        self._request_ids = itertools.count(1)
        self._executor = RemoteSiteExecutor(self)
        self._engines: dict[str, object] = {}
        self._engine_lock = threading.Lock()
        self._closed = False

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop

    def _count(self, event: str) -> None:
        """One dispatch event: legacy Counter and registry stay in step."""
        self.stats[event] += 1
        self._events.labels(event=event).inc()

    # ------------------------------------------------------------------
    # Job dispatch (async, on the serving loop)
    # ------------------------------------------------------------------
    def _link(self, endpoint: SiteEndpoint) -> SiteLink:
        link = self._links.get(endpoint)
        if link is None:
            link = self._links[endpoint] = SiteLink(endpoint, self.connect_timeout)
        return link

    async def execute_job(
        self,
        job: SiteJob,
        trace: Optional[TraceContext] = None,
        sink: Optional[list] = None,
    ) -> SiteOutcome:
        """Run one site job remotely: two bounded attempts, then typed failure.

        When ``trace`` is set, a per-job dispatch span (parented on the
        batch context) wraps the attempts, the site sees the dispatch
        span as its parent, and every finished span lands in ``sink``
        as a wire tuple -- appended only from the serving loop thread.
        """
        candidates = self.endpoints[job.site_id]
        # Attempt plan: primary, then the replica when one exists, else
        # a fresh connection to the primary (covers restarts in place).
        attempts = [candidates[0], candidates[1] if len(candidates) > 1 else candidates[0]]
        timer: Optional[SpanTimer] = None
        if trace is not None:
            timer = SpanTimer(
                trace.trace_id,
                trace.span_id,
                f"dispatch:{job.site_id}",
                "coordinator",
                site=job.site_id,
            )
        trace_id = trace.trace_id if trace is not None else ""
        last_error: Optional[Exception] = None
        try:
            for attempt_index, endpoint in enumerate(attempts):
                link = self._link(endpoint)
                self._count("attempts")
                if attempt_index:
                    self._count("retries")
                    obs_emit(
                        "coordinator",
                        "retry",
                        site=job.site_id,
                        endpoint=endpoint.address(),
                        trace_id=trace_id,
                    )
                try:
                    outcome = await self._attempt(link, job, timer, sink)
                    if timer is not None and sink is not None:
                        sink.append(timer.finish(attempts=attempt_index + 1).to_wire())
                        timer = None
                    return outcome
                except RemoteQueryError:
                    raise  # deterministic rejection; a retry would fail identically
                except (ProtocolError, ConnectionError, OSError, asyncio.TimeoutError) as error:
                    last_error = error
                    logger.warning(
                        "site %s attempt %d via %s failed: %s",
                        job.site_id,
                        attempt_index + 1,
                        endpoint.address(),
                        error,
                    )
                    link.drop()
            self._count("failures")
            obs_emit(
                "coordinator",
                "failure",
                site=job.site_id,
                error=f"{type(last_error).__name__}: {last_error}",
                trace_id=trace_id,
            )
            raise SiteUnavailable(
                f"site {job.site_id} unavailable after retry "
                f"({type(last_error).__name__}: {last_error})"
            )
        finally:
            if timer is not None and sink is not None:
                sink.append(timer.finish(failed=True).to_wire())

    async def execute_jobs(
        self,
        jobs: Sequence[SiteJob],
        trace: Optional[TraceContext] = None,
        sink: Optional[list] = None,
    ) -> list[SiteOutcome]:
        """Run a whole batch of site jobs concurrently, order preserved.

        One coroutine submission covers the entire fan-out (the
        executor thread wakes the loop once per batch, not once per
        job), and because every job writes its request before any
        awaits its reply, the per-link drain coalescing in
        :meth:`SiteLink._send` pipelines all requests sharing a link
        into one socket flush.  Every job settles before the first
        failure is re-raised -- each is self-bounded by the attempt
        timeouts, so waiting for stragglers cannot hang.
        """
        results = await asyncio.gather(
            *(self.execute_job(job, trace=trace, sink=sink) for job in jobs),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    async def _attempt(
        self,
        link: SiteLink,
        job: SiteJob,
        timer: Optional[SpanTimer] = None,
        sink: Optional[list] = None,
    ) -> SiteOutcome:
        await link.ensure()
        await self._ensure_loaded(link, job.site_id)
        request = self._request_for(job, timer)
        reply = await link.request(request, self.site_timeout)
        if isinstance(reply, ErrorReply) and reply.code in (
            ERR_UNKNOWN_FRAGMENT,
            ERR_STALE_FRAGMENT,
        ):
            # The site restarted and lost its residents, or holds copies
            # whose epochs predate an update: re-push and re-issue once
            # on the same healthy connection.
            self._count("repushes")
            obs_emit(
                "coordinator",
                "repush",
                site=job.site_id,
                code=reply.code,
                trace_id=timer.trace_id if timer is not None else "",
            )
            await self._push_fragments(link, job.site_id)
            reply = await link.request(self._request_for(job, timer), self.site_timeout)
        if isinstance(reply, ErrorReply):
            raise RemoteQueryError(f"site {job.site_id}: [{reply.code}] {reply.message}")
        assert isinstance(reply, ExecuteReply)
        if sink is not None and reply.spans:
            sink.extend(reply.spans)
        self._result_hits.inc(reply.memo_hits)
        self._result_misses.inc(len(reply.results) - reply.memo_hits)
        try:
            return outcome_from_wire(job.site_id, reply.results, reply.seconds)
        except ValueError as error:
            # A site whose results do not decode is as untrustworthy as
            # one whose frames do not: same typed failure, same retry.
            raise PayloadError(f"site {job.site_id}: {error}") from None

    def _request_for(self, job: SiteJob, timer: Optional[SpanTimer] = None) -> ExecuteRequest:
        return ExecuteRequest(
            request_id=next(self._request_ids),
            site_id=job.site_id,
            fragment_ids=tuple(f.fragment_id for f in job.fragments),
            qlist_obj=job.qlist.wire_obj(),
            algebra=algebra_wire_name(job.algebra),
            segments=job.segments,
            label=job.label,
            epochs=tuple(f.epoch for f in job.fragments),
            trace=timer.context().to_wire() if timer is not None else (),
        )

    async def _ensure_loaded(self, link: SiteLink, site_id: str) -> None:
        async with link.load_lock:
            if site_id in link.loaded_sites:
                return
            await self._push_fragments(link, site_id)

    async def _push_fragments(self, link: SiteLink, site_id: str) -> None:
        fragment_ids = self.cluster.source_tree().fragments_of(site_id)
        wires = tuple(
            resident_fragment_wire(self.cluster.fragment(fid)) for fid in fragment_ids
        )
        await link.load(LoadFragments(fragments=wires), self.site_timeout)
        link.loaded_sites.add(site_id)
        logger.info(
            "pushed %d fragment(s) of %s to %s", len(wires), site_id, link.endpoint.address()
        )

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in list(self._links.values()):
            await link.aclose()
        self._links.clear()
        self.close_engines()

    # ------------------------------------------------------------------
    # Query evaluation (sync, on a gateway worker thread)
    # ------------------------------------------------------------------
    def job_deadline(self) -> float:
        """Worst-case wall time of one dispatched job, with margin.

        Two attempts, each bounded by connect + push + two requests
        (the re-push path issues the request twice), plus scheduling
        slack -- the outer bound the executor thread waits on so even a
        lost wakeup cannot hang a query forever.
        """
        return 2 * (self.connect_timeout + 3 * self.site_timeout) + 5.0

    def _engine_for(self, name: str):
        from repro.core import ENGINE_REGISTRY  # local: avoids an import cycle

        key = (name or SERVABLE_ENGINES[0]).lower()
        if key not in SERVABLE_ENGINES:
            raise RemoteQueryError(
                f"engine {name!r} is not servable; choose from {list(SERVABLE_ENGINES)}"
            )
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is None:
                # Built over the shared remote executor *instance*, so
                # the engine never tries to close it (ownership rule).
                engine = ENGINE_REGISTRY[key](self.cluster, executor=self._executor)
                self._engines[key] = engine
        return engine

    def _coerce_query(self, query: Union[str, tuple]) -> QList:
        """One client query -> its canonical QList, or a typed rejection."""
        try:
            return self.cache.qlist(query)
        except (TypeError, ValueError) as error:
            if isinstance(query, str):
                raise RemoteQueryError(f"bad query {query!r}: {error}") from None
            raise RemoteQueryError(f"undecodable precompiled query: {error}") from None

    def _plan_for(self, queries: Sequence[Union[str, tuple]]) -> BatchPlan:
        """Check a request batch, then plan it through the shared cache.

        Every query is coerced first, so a bad text or an undecodable
        precompiled query is a typed bad-request before any lookup.
        Standing batches arrive bit-identical request after request and
        hit; each request counts one hit or one miss into
        ``coordinator_plan_cache_total{coordinator,result}``.
        """
        plan, hit = self.cache.lookup_plan([self._coerce_query(query) for query in queries])
        (self._plan_hits if hit else self._plan_misses).inc()
        return plan

    def evaluate(
        self,
        queries: Sequence[Union[str, tuple]],
        engine_name: str,
        trace: Optional[TraceContext] = None,
        span_sink: Optional[list] = None,
    ) -> BatchResult:
        """Plan and evaluate one client batch (runs on a worker thread).

        Replans server-side from the shipped queries; the planner is
        deterministic, so the client's plan and this one slice the
        combined answer vector identically -- which is what lets the
        client reattribute per-query costs from the returned ledger.

        ``trace``/``span_sink`` thread the batch's trace context to the
        executor through a thread-local: the engine's parallel stage
        calls :meth:`RemoteSiteExecutor.run_jobs` on this same thread.
        """
        if self.loop is None:
            raise RuntimeError("coordinator not bound to an event loop")
        engine = self._engine_for(engine_name)
        plan = self._plan_for(queries)
        self._trace_local.ctx = (trace, span_sink)
        try:
            return engine.evaluate_many(plan)
        finally:
            self._trace_local.ctx = (None, None)

    def close_engines(self) -> None:
        with self._engine_lock:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.close()


class RemoteSiteExecutor(SiteExecutor):
    """Site jobs over the network: the executor that makes engines remote.

    ``run_jobs`` is called on a worker thread inside an engine's
    parallel stage; it submits the whole batch to the serving loop as
    **one** :meth:`Coordinator.execute_jobs` coroutine (one loop wakeup
    per batch; the jobs still fan out concurrently inside the loop --
    sites evaluate in parallel for real) and blocks on the ordered
    results.  Per-job failure semantics are the coordinator's: bounded
    attempts, one retry, then
    :class:`~repro.serving.protocol.SiteUnavailable`.
    """

    name = "net"

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator

    def run_jobs(self, jobs: Sequence[SiteJob]) -> list[SiteOutcome]:
        if not jobs:
            return []
        loop = self.coordinator.loop
        if loop is None or not loop.is_running():
            raise RuntimeError("serving loop is not running")
        # Jobs run concurrently, so one job's worst case bounds the
        # batch; the per-job slack only covers loop scheduling.
        deadline = self.coordinator.job_deadline() + 0.1 * len(jobs)
        # The batch's trace context (set by Coordinator.evaluate on this
        # very thread); jobs dispatched outside evaluate are untraced.
        trace, sink = getattr(self.coordinator._trace_local, "ctx", (None, None))
        future = asyncio.run_coroutine_threadsafe(
            self.coordinator.execute_jobs(list(jobs), trace=trace, sink=sink), loop
        )
        try:
            return future.result(timeout=deadline)
        except BaseException:
            future.cancel()
            raise

    def close(self) -> None:
        """No-op: the links belong to the coordinator."""


__all__ = [
    "SERVABLE_ENGINES",
    "DEFAULT_SITE_TIMEOUT",
    "SiteEndpoint",
    "SiteLink",
    "Coordinator",
    "RemoteSiteExecutor",
]
