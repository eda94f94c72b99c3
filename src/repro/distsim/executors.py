"""Interchangeable site-execution strategies.

The paper's ParBoX family evaluates fragments "in parallel, at each
site".  The seed of this repository *simulated* that parallelism: every
site thunk ran serially on the driver thread and the engines composed
the individually-measured seconds with ``max(...)`` by hand.  This
module makes the parallelism real while keeping the simulation honest:

* :class:`SerialSiteExecutor` -- the deterministic baseline; site jobs
  run one after another on the calling thread (the seed's behavior);
* :class:`ThreadSiteExecutor` -- a ``ThreadPoolExecutor`` with one
  worker per dispatched site.  Site evaluations are dispatched
  concurrently and interleave, but ``bottom_up`` is pure-Python CPU
  work, so on a GIL-ful CPython the threads time-slice rather than
  truly overlap -- expect ~1x wall time; the strategy's value is the
  concurrent *structure* (deadlock-freedom, shared-memory dispatch,
  a real pool exercising the engines' fork/join) and real overlap on
  GIL-releasing workloads or free-threaded builds;
* :class:`ProcessSiteExecutor` -- **persistent site workers with
  resident fragment state**.  Each long-lived worker process is brought
  to each epoch of a fragment exactly once -- content-addressed by
  :attr:`Fragment.epoch`, invalidated by the typed update ops, cluster
  split/merge and the stream maintainer -- by the fragment's wire form
  (serialized XML) or, after a journalled content edit, by the edit
  alone (a *patch*), and keeps the parsed fragment plus its linearized
  form resident (:class:`~repro.distsim.resident.ResidentSiteState`,
  shared with the networked serving tier).  Batches then ship only
  ``(fragment_id, epoch)`` references and the query program; replies
  travel as encoded triplet blobs -- served from the resident copy's
  memo while the fragment's epoch stands -- of which the large ones
  ride pickle protocol-5 out-of-band buffers
  (:mod:`~repro.distsim.transport`), with
  ``multiprocessing.shared_memory`` for bulk totals.  A worker
  that missed an invalidation (or a patch's base epoch) answers with a
  typed *stale* reply and the dispatcher re-pushes in full and retries
  -- the in-process mirror of the serving tier's ``unknown-fragment``
  self-heal.  There is no other wire: a job never carries fragment
  XML.

The unit of dispatch is a :class:`SiteJob`: "this site partially
evaluates these fragments against this QList with this algebra".  Every
engine's parallel stage is an instance of that job, which is what lets
one executor interface serve ParBoX, FullDist, Lazy and the sequential
baselines alike.  Executors return :class:`SiteOutcome` values carrying
the triplets, the deterministic operation counts and the *busy seconds*
measured where the work actually ran; the
:meth:`~repro.distsim.runtime.Run.parallel` primitive folds those into
the cost ledger and the critical-path calculation.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Optional, Sequence, Union

from repro.boolexpr.compose import (
    CanonicalAlgebra,
    FormulaAlgebra,
    PaperAlgebra,
)
from repro.fragments.fragment import Fragment
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.xpath.qlist import QList

#: Algebras a remote evaluator (process worker or networked site
#: server) can reconstruct by name.
ALGEBRAS_BY_NAME = {
    CanonicalAlgebra.name: CanonicalAlgebra,
    PaperAlgebra.name: PaperAlgebra,
}


def algebra_wire_name(algebra: FormulaAlgebra) -> str:
    """The registry name an algebra travels under, with an exact-type check.

    Shared by every wire boundary (the process executor and the
    networked serving tier): an exact type match matters because a
    subclass inheriting ``name`` would be silently swapped for its base
    on the remote side, changing answers only under remote execution.
    """
    algebra_name = getattr(algebra, "name", None)
    registered = ALGEBRAS_BY_NAME.get(algebra_name)
    if registered is None or type(algebra) is not registered:
        raise ValueError(
            f"remote execution only supports the named algebras "
            f"{sorted(ALGEBRAS_BY_NAME)}, not {type(algebra).__name__!r}; "
            f"use the serial or threads strategy for custom algebras"
        )
    return algebra_name


# ---------------------------------------------------------------------------
# The unit of dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteJob:
    """One site's parallel work: evaluate ``fragments`` against ``qlist``.

    ``qlist`` may be a *combined* batch query, in which case
    ``segments`` carries the planner's ``(offset, length)`` span per
    unique query so the site can attribute its operation counts back to
    individual queries (``FragmentOutcome.segment_ops``).  An empty
    ``segments`` means single-query accounting.
    """

    site_id: str
    fragments: tuple[Fragment, ...]
    qlist: QList
    algebra: FormulaAlgebra
    label: str = "bottomUp"
    segments: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class FragmentOutcome:
    """The partial answer of one fragment plus its deterministic costs.

    ``nodes_visited`` is ``bottomUp``'s algorithmic cost for (fragment,
    query), not work performed (a resident holder may have answered
    from its memo, or recomputed an edited spine only).
    ``segment_ops`` attributes ``qlist_ops`` to the batch's unique
    queries (one count per :attr:`SiteJob.segments` span); empty for
    unbatched jobs.
    """

    triplet: "VectorTriplet"  # noqa: F821 - imported lazily (cycle)
    nodes_visited: int
    qlist_ops: int
    segment_ops: tuple[int, ...] = ()


@dataclass(frozen=True)
class SiteOutcome:
    """Everything a site sends back after one :class:`SiteJob`.

    ``seconds`` is the busy time measured around the site-local loop,
    in the thread or process where it actually executed.
    """

    site_id: str
    fragments: tuple[FragmentOutcome, ...]
    seconds: float

    def triplets(self) -> dict[str, "VectorTriplet"]:  # noqa: F821
        """The produced triplets keyed by fragment id."""
        return {
            outcome.triplet.fragment_id: outcome.triplet for outcome in self.fragments
        }

    def reply_bytes(self) -> int:
        """Wire size of the one reply message carrying all triplets."""
        return sum(outcome.triplet.wire_bytes() for outcome in self.fragments)


def execute_site_job(job: SiteJob) -> SiteOutcome:
    """Run one site job in the current thread and time it.

    This is the in-process execution path shared by the serial and
    thread strategies; the process strategy evaluates resident
    fragments inside its workers
    (:meth:`~repro.distsim.resident.ResidentSiteState.run`).

    Busy seconds are measured as *thread CPU time*, not wall time: on
    the thread executor, a wall clock would silently charge each site
    for the time it spent waiting on the GIL while its siblings ran,
    making the simulated ledger depend on the execution strategy.  CPU
    time keeps the attribution executor-independent (the evaluation
    loop never blocks, so its CPU time is its serial wall time).
    """
    from repro.core.bottom_up import bottom_up  # local: avoids an import cycle

    started = time.thread_time()
    outcomes = []
    for fragment in job.fragments:
        triplet, stats = bottom_up(fragment, job.qlist, job.algebra)
        outcomes.append(
            FragmentOutcome(
                triplet=triplet,
                nodes_visited=stats.nodes_visited,
                qlist_ops=stats.qlist_ops,
                segment_ops=_segment_ops(stats.nodes_visited, job.segments),
            )
        )
    seconds = time.thread_time() - started
    return SiteOutcome(site_id=job.site_id, fragments=tuple(outcomes), seconds=seconds)


def _segment_ops(
    nodes_visited: int, segments: tuple[tuple[int, int], ...]
) -> tuple[int, ...]:
    """Per-query operation counts of one fragment evaluation.

    ``bottomUp`` touches every entry at every node, so a segment of
    *length* entries costs exactly ``nodes x length`` operations --
    the same accounting unit as ``BottomUpStats.qlist_ops``.
    """
    return tuple(nodes_visited * length for _, length in segments)


# ---------------------------------------------------------------------------
# Process-boundary wire forms
# ---------------------------------------------------------------------------


def resident_fragment_wire(fragment: Fragment) -> tuple[str, int, str]:
    """A fragment's resident-push wire form: ``(id, epoch, XML)``.

    The epoch rides along so the receiving
    :class:`~repro.distsim.resident.ResidentSiteState` can content-
    address its copy; used by the process executor's pushes and the
    serving coordinator's ``LoadFragments`` alike.
    """
    from repro.xmltree.serializer import serialize  # local: import cycle

    return (fragment.fragment_id, fragment.epoch, serialize(fragment.root))


def outcome_from_wire(site_id: str, fragment_results: tuple, seconds: float) -> SiteOutcome:
    """Rebuild a :class:`SiteOutcome` from wire-form per-fragment results.

    The one decode point of both remote tiers.  Each result leads with
    a triplet blob; equal blobs decode to one shared triplet
    (:meth:`~repro.core.vectors.VectorTriplet.from_compact`), so a
    resent result costs the coordinator a table lookup.  A blob that
    does not decode raises :class:`ValueError`.
    """
    from repro.core.vectors import VectorTriplet  # local: import cycle

    outcomes = tuple(
        FragmentOutcome(
            triplet=VectorTriplet.from_compact(blob),
            nodes_visited=nodes,
            qlist_ops=ops,
            segment_ops=tuple(segment_ops),
        )
        for blob, nodes, ops, segment_ops in fragment_results
    )
    return SiteOutcome(site_id=site_id, fragments=outcomes, seconds=seconds)


# ---------------------------------------------------------------------------
# The three strategies
# ---------------------------------------------------------------------------


class SiteExecutor:
    """Strategy interface: run a batch of site jobs, one outcome each.

    ``run_jobs`` must return outcomes for every job (order preserved)
    and may execute them with any concurrency structure; per-site busy
    seconds are always measured where the work ran.
    """

    #: Registry key and display name.
    name = "abstract"

    def run_jobs(self, jobs: Sequence[SiteJob]) -> list[SiteOutcome]:
        raise NotImplementedError

    def retire_fragments(self, fragment_ids: Sequence[str]) -> None:
        """Drop any resident per-fragment state for these fragments.

        Called by the stream maintainer when fragments are removed
        (merge) or migrated (move, off-site split) so stateful
        executors reclaim worker memory; a no-op for the stateless
        strategies.
        """

    def close(self) -> None:
        """Release pooled workers (no-op for poolless strategies)."""

    def __enter__(self) -> "SiteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SerialSiteExecutor(SiteExecutor):
    """The deterministic baseline: jobs run in order on the caller."""

    name = "serial"

    def run_jobs(self, jobs: Sequence[SiteJob]) -> list[SiteOutcome]:
        return [execute_site_job(job) for job in jobs]


#: Worker ceiling for an unbounded thread executor.  ThreadPoolExecutor
#: spawns workers lazily (one per not-yet-covered queued job), so a high
#: ceiling costs nothing up front while letting every site of any batch
#: this repository realistically dispatches run on its own worker.
DEFAULT_THREAD_CEILING = 256


class ThreadSiteExecutor(SiteExecutor):
    """One pool worker per dispatched site (or a configured cap).

    One pool is created lazily and kept for the executor's lifetime:
    spawning threads per batch would cost as much as the site work on
    millisecond workloads (LazyParBoX dispatches one batch per depth
    step).  Workers materialize on demand up to the ceiling, so a
    16-site broadcast really gets 16 concurrent site evaluations and
    batches beyond the ceiling queue rather than fail.
    """

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers or DEFAULT_THREAD_CEILING,
                thread_name_prefix="repro-site",
            )
        return self._pool

    def run_jobs(self, jobs: Sequence[SiteJob]) -> list[SiteOutcome]:
        if not jobs:
            return []
        if len(jobs) == 1:  # no pool needed for a single site
            return [execute_site_job(jobs[0])]
        return list(self._ensure_pool().map(execute_site_job, jobs))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _resident_worker_main(conn) -> None:
    """Entry point of one persistent site-worker process.

    A strict request-reply loop over zero-copy transport frames: the
    parent never has more than one outstanding *frame* per worker, so
    neither side can deadlock on a full pipe.  A frame is one message
    or one ``("batch", messages)`` envelope (see
    :func:`~repro.distsim.transport.unwrap_batch`); a batch is handled
    message by message, in order, and answered with exactly one reply
    per message in one envelope -- so a dispatcher coalescing a whole
    site batch into one pipe write gets one wakeup back.  Messages:

    * ``("push", wires)`` -- install ``(id, epoch, xml)`` triples;
    * ``("patch", patches)`` -- bring resident fragments forward by
      journalled content edits, ``(id, base_epoch, new_epoch, edits)``
      each; one whose ``base_epoch`` is not held is dropped, and the
      job that follows answers *stale*;
    * ``("retire", ids)`` -- drop resident fragments;
    * ``("job", site_id, refs, fingerprint, qlist_obj, algebra, segments
      [, trace])`` -- evaluate resident fragments; answers
      ``("stale", missing)`` instead of guessing when a reference cannot
      be served.  The optional trailing ``trace`` element is a
      ``(trace_id, parent_span_id)`` pair; when present the ok reply
      grows a trailing tuple of span wire forms (both sides index
      tolerantly, so either end may predate the field);
    * ``("stats",)`` -- residency introspection for tests/leak checks,
      with ``result_hits`` / ``result_misses``: per-fragment results
      served from a resident copy's memo vs evaluated, and
      ``kernel_nodes``: nodes really evaluated, by mode
      (:attr:`ResidentSiteState.kernel_nodes`);
    * ``("stop",)`` -- exit (never batched with other messages).
    """
    from repro.core.vectors import compact_with_buffers
    from repro.distsim import transport
    from repro.distsim.resident import ResidentSiteState, StaleResidentError

    state = ResidentSiteState()
    algebras: dict[str, FormulaAlgebra] = {}
    result_counts = {"result_hits": 0, "result_misses": 0}

    def handle(message: tuple) -> tuple:
        """One message -> one reply; errors answer typed, never raise."""
        kind = message[0]
        try:
            if kind == "job":
                _, site_id, refs, fingerprint, qlist_obj, algebra_name, segments = message[:7]
                trace = message[7] if len(message) > 7 else ()
                qlist = state.ensure_query(fingerprint, qlist_obj)
                algebra = algebras.get(algebra_name)
                if algebra is None:
                    algebra = algebras.setdefault(algebra_name, ALGEBRAS_BY_NAME[algebra_name]())
                segments = tuple(tuple(span) for span in segments)
                timer = None
                if trace:
                    timer = obs_trace.SpanTimer(
                        trace[0],
                        trace[1] if len(trace) > 1 else None,
                        "worker.execute",
                        f"worker:{os.getpid()}",
                        site=site_id,
                        fragments=len(refs),
                    )
                try:
                    results, seconds, hits = state.run_counted(
                        site_id, refs, qlist, algebra, segments
                    )
                except StaleResidentError as stale:
                    return ("stale", stale.missing)
                result_counts["result_hits"] += hits
                result_counts["result_misses"] += len(results) - hits
                wired = tuple(
                    (compact_with_buffers(blob), nodes, ops, segment_ops)
                    for blob, nodes, ops, segment_ops in results
                )
                reply = ("ok", site_id, wired, seconds)
                if timer is not None:
                    span = timer.finish(seconds=round(seconds, 6), memo_hits=hits)
                    reply += ((span.to_wire(),),)
                return reply
            if kind == "push":
                return ("ok", state.store(message[1]))
            if kind == "patch":
                return ("ok", state.patch(message[1]))
            if kind == "retire":
                return ("ok", state.retire(message[1]))
            if kind == "stats":
                return (
                    "ok",
                    {
                        "resident": state.resident_epochs(),
                        "receive_counts": dict(state.receive_counts),
                        "digests": state.content_digests(),
                        "queries": sorted(state.queries),
                        **result_counts,
                        "kernel_nodes": dict(state.kernel_nodes),
                    },
                )
            return ("error", "ValueError", f"unknown message {kind!r}")
        except Exception as error:  # surface to the parent, keep serving
            return ("error", type(error).__name__, str(error))

    while True:
        try:
            frame = transport.recv_payload(conn)
        except (EOFError, OSError):
            break
        stop = False
        replies = []
        for message in transport.unwrap_batch(frame):
            if message[0] == "stop":
                stop = True
                break
            replies.append(handle(message))
        if replies:
            try:
                transport.send_payload(conn, transport.wrap_batch(tuple(replies)))
            except (BrokenPipeError, OSError):
                break
        if stop:
            break
    conn.close()


class _ResidentWorker:
    """Parent-side handle of one worker: process, pipe, residency model."""

    __slots__ = ("index", "process", "conn", "resident", "submission")

    def __init__(self, index: int, process, conn) -> None:
        from repro.distsim import transport  # local: import order

        self.index = index
        self.process = process
        self.conn = conn
        #: The dispatcher's model of the worker's residency:
        #: fragment id -> epoch last pushed or patched to.  Optimistic
        #: (updated at enqueue); any desync is caught by the worker's
        #: epoch check and healed by re-push.
        self.resident: dict[str, int] = {}
        #: Coalesces this worker's submissions into framed pipe writes
        #: (one wakeup per flush); dies and is rebuilt with the worker.
        self.submission = transport.SubmissionQueue(
            functools.partial(transport.send_payload, conn)
        )


#: Per-job retry budget across stale replies and worker deaths.  One
#: self-heal round fully restores residency, so hitting the budget
#: means something is systematically wrong -- fail loudly.
_MAX_JOB_ATTEMPTS = 3


class ProcessSiteExecutor(SiteExecutor):
    """Persistent site workers with resident fragment state.

    Workers are long-lived ``multiprocessing`` processes wired to the
    dispatcher by one duplex pipe each.  Sites gain worker *affinity*
    on first dispatch (round-robin over ``max_workers``), so a site's
    fragments are pushed to exactly one worker and stay resident there.
    When a fragment's epoch moves on, a worker whose modelled epoch is
    still on the fragment's edit journal
    (:meth:`~repro.fragments.fragment.Fragment.edits_since`) is sent
    the edits as a *patch*; boot, structural ops, moves, respawns and
    a journal the worker has fallen off keep the full push.  Either
    delivery is recorded in :attr:`ship_log` as ``(worker, fragment,
    epoch)`` and never repeated for the same epoch.  Jobs then carry
    only references and the query program, and all jobs of a batch are
    multiplexed over the worker pipes concurrently (strict one-
    outstanding-message-per-worker request-reply, so a 1-worker pool is
    deadlock-free by construction).

    Self-healing: a worker that missed an invalidation (or dropped a
    patch whose base epoch it lacked) answers *stale* and the
    dispatcher re-pushes exactly the named fragments in full and
    retries; a dead worker is respawned, its residency model reset, and
    its in-flight jobs re-dispatched.  ``stats`` counts ships (full
    pushes), patches, jobs, submits (framed pipe writes), stale retries
    and respawns.

    Submission is **batched**: everything queued for one worker --
    catch-up pushes and all of the batch's jobs bound to it -- ships
    as one framed pipe write (one worker wakeup per batch, not per
    job), and the worker answers with one reply envelope the same way.
    At most one *frame* is in flight per worker, which is the
    request-reply deadlock-freedom argument.

    ``warm`` (a cluster) spawns workers and pre-pushes every site's
    fragments at construction, so the first batch pays neither worker
    spawn nor the full-state ship.  Call :meth:`close` (or use the
    executor as a context manager) to reap the workers; they are
    daemonic, so an unclosed pool dies with the interpreter.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None, warm=None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or min(8, os.cpu_count() or 2)
        #: Counter: ships / patches / jobs / submits / stale_retries /
        #: respawns / retired.
        self.stats: Counter = Counter()
        #: Every delivery of an epoch, by push or by patch:
        #: ``(worker_index, fragment_id, epoch)``.
        self.ship_log: list[tuple[int, str, int]] = []
        self._workers: list[Optional[_ResidentWorker]] = [None] * self.max_workers
        self._site_affinity: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Trace context of the batch being dispatched, read once per
        #: dispatch from the ambient obs context (None when tracing off).
        self._current_trace = None
        if warm is not None:
            self.warm_up(warm)

    def _count(self, event: str, n: int = 1) -> None:
        """One executor event: ``stats`` always, the process-global
        metrics registry only when one is installed (a single module
        attribute check -- the hot path stays free when nobody looks)."""
        self.stats[event] += n
        if obs_metrics._REGISTRY is not None:
            obs_metrics._REGISTRY.counter(
                "executor_events_total",
                "Resident-executor events: ships, patches, jobs, submits, "
                "stale_retries, respawns, retired",
                labelnames=("event",),
            ).labels(event=event).inc(n)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _ResidentWorker:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_resident_worker_main,
            args=(child_conn,),
            name=f"repro-site-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _ResidentWorker(index, process, parent_conn)
        self._workers[index] = worker
        return worker

    def _worker_for(self, site_id: str) -> _ResidentWorker:
        index = self._site_affinity.get(site_id)
        if index is None:
            index = len(self._site_affinity) % self.max_workers
            self._site_affinity[site_id] = index
        worker = self._workers[index]
        if worker is None or not worker.process.is_alive():
            worker = self._respawn(index, count=worker is not None)
        return worker

    def _respawn(self, index: int, count: bool = True) -> _ResidentWorker:
        worker = self._workers[index]
        if worker is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            if count:
                self._count("respawns")
        return self._spawn(index)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[SiteJob]) -> list[SiteOutcome]:
        if not jobs:
            return []
        with self._lock:
            # One ambient-context read per batch (None unless a span
            # collector is installed *and* a span is open on this
            # thread).  Under the lock: a caller still waiting for it
            # must not overwrite the context of the batch in flight.
            self._current_trace = obs_trace.active_context()
            return self._dispatch(list(jobs))

    def _dispatch(self, jobs: list[SiteJob]) -> list[SiteOutcome]:
        outcomes: list[Optional[SiteOutcome]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        # queue item: (payload, tag); tag = ("push",), ("patch",) or ("job", index)
        queues: dict[int, deque] = {}
        for job_index, job in enumerate(jobs):
            worker = self._worker_for(job.site_id)
            queue = queues.setdefault(worker.index, deque())
            self._enqueue(queue, worker, job_index, job)
        self._pump(queues, jobs, outcomes, attempts)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _catch_up(self, worker: _ResidentWorker, fragments) -> list[tuple]:
        """The messages bringing ``worker`` to ``fragments``' live epochs.

        Computed against the dispatcher's residency model, which is
        updated here, so back-to-back callers referencing the same
        fragment produce exactly one delivery between them.  A worker
        modelled on the fragment's edit journal gets the edits (a
        *patch*); any other -- never pushed to, respawned, or behind a
        chain break -- the full wire form.
        """
        wires, patches = [], []
        for fragment in fragments:
            fragment_id, epoch = fragment.fragment_id, fragment.epoch
            held = worker.resident.get(fragment_id)
            if held == epoch:
                continue
            edits = fragment.edits_since(held)
            if edits is None:
                wires.append(resident_fragment_wire(fragment))
                self._count("ships")
            else:
                patches.append((fragment_id, held, epoch, edits))
                self._count("patches")
            worker.resident[fragment_id] = epoch
            self.ship_log.append((worker.index, fragment_id, epoch))
        messages = []
        if wires:
            messages.append(("push", tuple(wires)))
        if patches:
            messages.append(("patch", tuple(patches)))
        return messages

    def _enqueue(
        self,
        queue: deque,
        worker: _ResidentWorker,
        job_index: int,
        job: SiteJob,
        redispatch: bool = False,
    ) -> None:
        """Queue one job (and any catch-up pushes/patches) for ``worker``.

        ``redispatch`` marks the retry of a job already counted (stale
        reply, worker death): it is queued again but not a new job.
        """
        algebra_name = algebra_wire_name(job.algebra)  # validate before any send
        if not redispatch:
            self._count("jobs")
        for message in self._catch_up(worker, job.fragments):
            queue.append((message, (message[0],)))
        from repro.distsim.resident import qlist_fingerprint  # local: import cycle

        payload = (
            "job",
            job.site_id,
            tuple((fragment.fragment_id, fragment.epoch) for fragment in job.fragments),
            qlist_fingerprint(job.qlist),
            job.qlist.wire_obj(),
            algebra_name,
            job.segments,
        )
        if self._current_trace is not None:
            payload += (self._current_trace.to_wire(),)
        queue.append((payload, ("job", job_index)))

    def _pump(
        self,
        queues: dict[int, deque],
        jobs: list[SiteJob],
        outcomes: list,
        attempts: list[int],
    ) -> None:
        """Drain all worker queues concurrently, one in-flight frame each.

        Every kick drains the worker's whole queue through its
        :class:`~repro.distsim.transport.SubmissionQueue` into one
        framed write and expects one reply envelope carrying one reply
        per message, in order.
        """
        from repro.distsim import transport

        in_flight: dict[int, tuple] = {}  # worker index -> tags of the sent frame

        def kick(index: int) -> None:
            while True:
                queue = queues.get(index)
                if not queue:
                    in_flight.pop(index, None)
                    return
                worker = self._workers[index]
                entries = list(queue)
                queue.clear()
                tags = tuple(tag for _, tag in entries)
                try:
                    for payload, _ in entries:
                        worker.submission.submit(payload)
                    worker.submission.flush()
                except (BrokenPipeError, OSError):
                    self._recover(index, tags, queues, jobs, attempts)
                    continue  # retry the (re-queued) work on the fresh worker
                self._count("submits")
                in_flight[index] = tags
                return

        for index in list(queues):
            kick(index)
        while in_flight:
            conn_to_index = {self._workers[i].conn: i for i in in_flight}
            for conn in _connection_wait(list(conn_to_index)):
                index = conn_to_index[conn]
                tags = in_flight[index]
                try:
                    frame = transport.recv_payload(conn)
                except (EOFError, OSError):
                    self._recover(index, tags, queues, jobs, attempts)
                    kick(index)
                    continue
                replies = transport.unwrap_batch(frame)
                if len(replies) != len(tags):  # pragma: no cover - protocol bug
                    raise RuntimeError(
                        f"site worker {index} answered {len(replies)} replies "
                        f"to a {len(tags)}-message frame"
                    )
                for tag, reply in zip(tags, replies):
                    self._on_reply(index, tag, reply, queues, jobs, outcomes, attempts)
                kick(index)

    def _recover(
        self,
        index: int,
        tags: tuple,
        queues: dict[int, deque],
        jobs: list[SiteJob],
        attempts: list[int],
    ) -> None:
        """A worker died mid-exchange: respawn it and re-dispatch.

        ``tags`` names every message of the lost frame.  The fresh
        worker's residency model starts empty, so each re-queued job
        recomputes its full push set (never a patch: there is nothing
        resident to patch); a lost *push* or *patch* needs no replay --
        the next job referencing those fragments will draw a stale
        reply and self-heal.
        """
        worker = self._respawn(index)
        for tag in tags:
            if tag[0] != "job":
                continue
            job_index = tag[1]
            attempts[job_index] += 1
            if attempts[job_index] >= _MAX_JOB_ATTEMPTS:
                raise RuntimeError(
                    f"site worker {index} died repeatedly running "
                    f"job for site {jobs[job_index].site_id!r}"
                )
            self._enqueue(
                queues.setdefault(index, deque()), worker, job_index, jobs[job_index],
                redispatch=True,
            )

    def _on_reply(
        self,
        index: int,
        tag: tuple,
        reply: tuple,
        queues: dict[int, deque],
        jobs: list[SiteJob],
        outcomes: list,
        attempts: list[int],
    ) -> None:
        kind = reply[0]
        if kind == "ok":
            if tag[0] == "job":
                _, site_id, results, seconds = reply[:4]
                outcomes[tag[1]] = outcome_from_wire(site_id, results, seconds)
                if len(reply) > 4 and reply[4]:
                    collector = obs_trace.installed_spans()
                    if collector is not None:
                        collector.ingest_wire(reply[4])
            return
        if kind == "stale" and tag[0] == "job":
            from repro.distsim.resident import StaleResidentError  # local: import cycle

            job_index = tag[1]
            job = jobs[job_index]
            attempts[job_index] += 1
            self._count("stale_retries")
            if attempts[job_index] >= _MAX_JOB_ATTEMPTS:
                raise StaleResidentError(job.site_id, reply[1])
            worker = self._workers[index]
            for fragment_id in reply[1]:  # drop the desynced model entries
                worker.resident.pop(fragment_id, None)
            self._enqueue(
                queues.setdefault(index, deque()), worker, job_index, job, redispatch=True
            )
            return
        if kind == "error":
            raise RuntimeError(f"site worker {index} failed: {reply[1]}: {reply[2]}")
        raise RuntimeError(f"site worker {index}: unexpected reply {reply[:1]!r} to {tag[0]!r}")

    # ------------------------------------------------------------------
    # Residency management
    # ------------------------------------------------------------------
    def warm_up(self, cluster) -> int:
        """Spawn workers and pre-push every site's fragments.

        The opt-in warm start (also reachable as ``warm=cluster`` at
        construction): after it, the first batch pays neither worker
        spawn nor the full-state ship.  Returns the number of fragments
        brought up to date (pushed, or patched when called again after
        content edits); idempotent for unchanged epochs.
        """
        from repro.distsim import transport

        with self._lock:
            shipped = 0
            for site in cluster.sites():
                fragments = list(site.iter_fragments())
                if not fragments:
                    continue
                worker = self._worker_for(site.site_id)
                for message in self._catch_up(worker, fragments):
                    transport.send_payload(worker.conn, message)
                    reply = transport.recv_payload(worker.conn)
                    if reply[0] != "ok":  # pragma: no cover - defensive
                        raise RuntimeError(f"warm-up {message[0]} failed: {reply!r}")
                    shipped += len(message[1])
            return shipped

    def retire_fragments(self, fragment_ids: Sequence[str]) -> None:
        """Tell every worker holding these fragments to drop them."""
        targets = tuple(fragment_ids)
        if not targets:
            return
        from repro.distsim import transport

        with self._lock:
            for worker in self._workers:
                if worker is None or not worker.process.is_alive():
                    continue
                held = [fid for fid in targets if fid in worker.resident]
                if not held:
                    continue
                try:
                    transport.send_payload(worker.conn, ("retire", tuple(held)))
                    transport.recv_payload(worker.conn)
                except (BrokenPipeError, EOFError, OSError):
                    self._respawn(worker.index)
                    continue
                for fragment_id in held:
                    worker.resident.pop(fragment_id, None)
                self._count("retired", len(held))

    def worker_stats(self) -> list[dict]:
        """Residency introspection of every live worker (tests, leaks)."""
        from repro.distsim import transport

        with self._lock:
            stats = []
            for worker in self._workers:
                if worker is None or not worker.process.is_alive():
                    continue
                transport.send_payload(worker.conn, ("stats",))
                reply = transport.recv_payload(worker.conn)
                if reply[0] != "ok":  # pragma: no cover - defensive
                    raise RuntimeError(f"stats request failed: {reply!r}")
                stats.append({"worker": worker.index, **reply[1]})
            return stats

    def close(self) -> None:
        from repro.distsim import transport

        with self._lock:
            workers = [worker for worker in self._workers if worker is not None]
            self._workers = [None] * self.max_workers
            self._site_affinity.clear()
            for worker in workers:
                try:
                    transport.send_payload(worker.conn, ("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for worker in workers:
                worker.process.join(timeout=5)
                if worker.process.is_alive():  # pragma: no cover - defensive
                    worker.process.terminate()
                    worker.process.join(timeout=1)
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover - already torn down
                    pass


#: Strategy name -> constructor, for the CLI and ``Engine(executor=...)``.
EXECUTOR_REGISTRY: dict[str, type[SiteExecutor]] = {
    SerialSiteExecutor.name: SerialSiteExecutor,
    ThreadSiteExecutor.name: ThreadSiteExecutor,
    ProcessSiteExecutor.name: ProcessSiteExecutor,
}


def resolve_executor(
    executor: Union[str, SiteExecutor, None],
    max_workers: Optional[int] = None,
) -> SiteExecutor:
    """Normalize an executor choice to an instance.

    Accepts ``None`` (the serial default), a registry name or an
    already-built :class:`SiteExecutor` (returned unchanged, so a pool
    can be shared across engines).
    """
    if executor is None:
        return SerialSiteExecutor()
    if isinstance(executor, SiteExecutor):
        return executor
    try:
        factory = EXECUTOR_REGISTRY[executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {sorted(EXECUTOR_REGISTRY)}"
        ) from None
    if factory is SerialSiteExecutor:
        return factory()
    return factory(max_workers=max_workers)


__all__ = [
    "SiteJob",
    "FragmentOutcome",
    "SiteOutcome",
    "execute_site_job",
    "ALGEBRAS_BY_NAME",
    "algebra_wire_name",
    "resident_fragment_wire",
    "outcome_from_wire",
    "SiteExecutor",
    "SerialSiteExecutor",
    "ThreadSiteExecutor",
    "ProcessSiteExecutor",
    "DEFAULT_THREAD_CEILING",
    "EXECUTOR_REGISTRY",
    "resolve_executor",
]
