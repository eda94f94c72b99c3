"""The :class:`Run` ledger: cost attribution for one evaluation.

Engines drive a ``Run`` through six primitives:

* :meth:`Run.visit` -- record a coordinator/engine-initiated contact to
  a site (the paper's visit count);
* :meth:`Run.message` -- record an inter-site message and get back its
  simulated transfer time (0 for intra-site);
* :meth:`Run.compute` -- execute a site-local thunk, wall-clock time it,
  attribute the seconds and return ``(result, seconds)``;
* :meth:`Run.parallel` -- dispatch a batch of
  :class:`~repro.distsim.executors.SiteJob` values through the run's
  site executor (serial / threads / process), attribute per-site busy
  seconds and return the :class:`ParallelBatch` of outcomes;
* :meth:`Run.join` -- fold per-branch finish times into the simulated
  elapsed time of the fork/join: the *critical path* (max over
  branches), recorded with the branch that determined it;
* :meth:`Run.add_ops` -- record deterministic operation counts
  (nodes processed, ``node x |QList|`` ops);
* :meth:`Run.migrate` -- record a fragment-data shipment between sites
  during rebalancing (one :data:`MSG_MIGRATE` message, counted both in
  the normal traffic ledger and in the dedicated migration counters).

The engine composes those ingredients into a simulated elapsed time
(:meth:`Run.join` over parallel branches, sum over sequential steps)
and stores it with :meth:`Run.finish`.  Independently of the simulated
composition, the ledger tracks the *real* wall-clock time of the
computation phases (``metrics.wall_seconds``), which shrinks below
``compute_seconds_total`` when a concurrent executor overlaps site
work -- the two are reported side by side by the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, TypeVar

from repro.distsim.cluster import Cluster
from repro.distsim.executors import (
    SerialSiteExecutor,
    SiteExecutor,
    SiteJob,
    SiteOutcome,
)
from repro.distsim.metrics import Metrics
from repro.distsim.trace import Trace

#: Message kind of fragment-data shipments during rebalancing.  Defined
#: here (not in :mod:`repro.core.engine` with the evaluation kinds)
#: because :meth:`Run.migrate` is the primitive that emits it and
#: ``distsim`` must not import ``core``.
MSG_MIGRATE = "migrate"

T = TypeVar("T")


@dataclass(frozen=True)
class ParallelBatch:
    """The outcomes of one :meth:`Run.parallel` dispatch.

    ``outcomes`` preserves dispatch order (site id -> outcome);
    ``wall_seconds`` is the real end-to-end duration of the batch,
    which under a concurrent executor is less than the sum of the
    per-site busy times.
    """

    outcomes: dict[str, SiteOutcome]
    wall_seconds: float

    def busy_seconds_total(self) -> float:
        """Sum of all per-site busy seconds (the serial-equivalent cost)."""
        return sum(outcome.seconds for outcome in self.outcomes.values())

    def __iter__(self):
        return iter(self.outcomes.items())

    def __len__(self) -> int:
        return len(self.outcomes)


class Run:
    """Cost ledger bound to a cluster for the duration of one evaluation.

    Pass a :class:`~repro.distsim.trace.Trace` to additionally record
    the full event timeline (visits, messages, computations in order)
    and a :class:`~repro.distsim.executors.SiteExecutor` to choose how
    :meth:`parallel` batches really execute (default: serial).
    """

    def __init__(
        self,
        cluster: Cluster,
        trace: Optional[Trace] = None,
        executor: Optional[SiteExecutor] = None,
    ) -> None:
        self.cluster = cluster
        self.metrics = Metrics()
        self.trace = trace
        self.executor = executor or SerialSiteExecutor()
        self._finished = False
        self._longest_join = 0.0

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def visit(self, site_id: str, dirty: bool = False) -> None:
        """Count one visit to ``site_id``.

        ``dirty=True`` additionally counts the visit as a dirty-site
        contact (stream maintenance visits *only* dirty sites; the
        separate counter lets the shape checks assert that).
        """
        self.metrics.visits[site_id] += 1
        if dirty:
            self.metrics.dirty_site_visits += 1
        if self.trace is not None:
            self.trace.record_visit(site_id)

    def message(self, src_site: str, dst_site: str, nbytes: int, kind: str) -> float:
        """Record a message; returns its simulated transfer seconds.

        Intra-site messages cost nothing and are not counted as network
        traffic (they never leave the machine).
        """
        same = src_site == dst_site
        if not same:
            self.metrics.messages += 1
            self.metrics.bytes_total += nbytes
            self.metrics.bytes_by_kind[kind] += nbytes
        if self.trace is not None:
            self.trace.record_message(src_site, dst_site, kind, nbytes)
        return self.cluster.network.transfer_seconds(nbytes, same_site=same)

    def migrate(self, src_site: str, dst_site: str, nbytes: int) -> float:
        """Record one fragment migration; returns its transfer seconds.

        A migration contacts both endpoints (the origin is told to ship,
        the target to receive) and moves ``nbytes`` of fragment data as
        one :data:`MSG_MIGRATE` message.  The bytes count toward the
        normal traffic ledger *and* the dedicated migration counters, so
        rebalancing cost stays distinguishable from evaluation cost.
        An intra-site "migration" (placement unchanged, or a merge whose
        endpoints share a site) costs nothing and is not counted.
        """
        if src_site == dst_site:
            return 0.0
        self.visit(src_site)
        self.visit(dst_site)
        self.metrics.migration_visits += 2
        self.metrics.migration_bytes += nbytes
        return self.message(src_site, dst_site, nbytes, MSG_MIGRATE)

    def compute(self, site_id: str, thunk: Callable[[], T]) -> tuple[T, float]:
        """Execute ``thunk`` as site-local work; returns (result, seconds).

        Serial primitive: the thunk runs inline on the calling thread.
        The attributed seconds are thread CPU time -- the same clock
        :func:`~repro.distsim.executors.execute_site_job` uses -- so
        the simulated ledger stays in one clock domain regardless of
        how the parallel stages execute; the real elapsed wall time of
        the call accumulates separately into ``wall_seconds``.
        """
        wall_started = time.perf_counter()
        cpu_started = time.thread_time()
        result = thunk()
        seconds = time.thread_time() - cpu_started
        self.metrics.compute_seconds_total += seconds
        self.metrics.wall_seconds += time.perf_counter() - wall_started
        self.metrics.site_seconds[site_id] += seconds
        if self.trace is not None:
            self.trace.record_compute(site_id, seconds, getattr(thunk, "__name__", ""))
        return result, seconds

    def parallel(self, jobs: Iterable[SiteJob]) -> ParallelBatch:
        """Dispatch site jobs through the executor; attribute their costs.

        Per-site busy seconds are measured where the work ran and
        accumulate into ``compute_seconds_total`` and ``site_seconds``
        exactly as serial :meth:`compute` calls would; the batch's real
        end-to-end duration accumulates into ``wall_seconds``, so the
        simulated ledger is executor-independent while the wall clock
        reflects true concurrency.
        """
        job_list = list(jobs)
        seen_sites = {job.site_id for job in job_list}
        if len(seen_sites) != len(job_list):
            # The batch result is keyed by site id; a duplicate would
            # silently drop one job's triplets while still charging its
            # seconds.  Engines batch at most one job per site (that is
            # the paper's visit unit); merge fragments into one job.
            raise ValueError("parallel() requires at most one job per site per batch")
        started = time.perf_counter()
        outcomes = self.executor.run_jobs(job_list)
        wall = time.perf_counter() - started
        batch_outcomes: dict[str, SiteOutcome] = {}
        for job, outcome in zip(job_list, outcomes):
            batch_outcomes[outcome.site_id] = outcome
            self.metrics.compute_seconds_total += outcome.seconds
            self.metrics.site_seconds[outcome.site_id] += outcome.seconds
            if self.trace is not None:
                self.trace.record_compute(outcome.site_id, outcome.seconds, job.label)
        self.metrics.wall_seconds += wall
        self.metrics.parallel_batches += 1
        return ParallelBatch(outcomes=batch_outcomes, wall_seconds=wall)

    def join(self, branch_finish: Mapping[str, float]) -> float:
        """Simulated elapsed time of a fork/join: the critical path.

        ``branch_finish`` maps each parallel branch (site id) to its
        finish time relative to the fork.  Returns the maximum;
        repeated joins (e.g. one per LazyParBoX depth step) accumulate
        their critical paths, and ``metrics.critical_site`` keeps the
        site that bounded the *longest* join of the run -- the branch
        that dominated the elapsed time, not merely the last one.
        """
        if not branch_finish:
            return 0.0
        critical_site, finish = max(branch_finish.items(), key=lambda item: item[1])
        if finish >= self._longest_join:
            self._longest_join = finish
            self.metrics.critical_site = critical_site
        self.metrics.critical_path_seconds += finish
        return finish

    def add_ops(self, nodes: int, ops: int) -> None:
        """Record deterministic computation counters."""
        self.metrics.nodes_processed += nodes
        self.metrics.qlist_ops += ops

    def add_segment_ops(self, segment_index: int, ops: int) -> None:
        """Attribute operations to one batch segment (unique query)."""
        self.metrics.segment_ops[segment_index] += ops

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self, elapsed_seconds: float) -> Metrics:
        """Set the simulated elapsed time and freeze the run."""
        if self._finished:
            raise RuntimeError("run already finished")
        self.metrics.elapsed_seconds = elapsed_seconds
        self._finished = True
        return self.metrics


__all__ = ["Run", "ParallelBatch", "MSG_MIGRATE"]
