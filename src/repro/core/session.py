"""``QuerySession``: the batched front door to every engine.

A session owns the pieces a long-running coordinator needs to serve
many queries cheaply:

* a :class:`~repro.core.plan.QueryCache` so each distinct query text is
  parsed/normalized/compiled exactly once for the session's lifetime;
* an engine (by registry name or as a pre-built instance) whose
  :meth:`~repro.core.engine.Engine.evaluate_many` turns a planned batch
  into one set of site visits;
* a ``batch_size`` knob that chunks arbitrarily long query streams into
  bounded broadcasts (an unbounded combined QList would eventually make
  the broadcast message itself the bottleneck).

The session surface is intentionally small::

    with QuerySession(cluster, engine="parbox", batch_size=16) as session:
        outcome = session.evaluate_many(list_of_query_texts)
        outcome.answers          # one bool per input query, input order
        outcome.bytes_per_query  # the amortization headline

        watch = session.watch(list_of_query_texts)   # keep them standing
        session.rebalance(queries=list_of_query_texts,
                          maintainer=watch)          # re-place the data for them
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

from repro.boolexpr.compose import FormulaAlgebra
from repro.core.engine import Engine
from repro.core.plan import BatchPlan, QueryCache
from repro.distsim.cluster import Cluster
from repro.distsim.executors import SiteExecutor
from repro.distsim.metrics import BatchResult, EvalResult, QueryCost
from repro.distsim.trace import Trace
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.xpath.qlist import QList

Query = Union[str, QList]


@dataclass(frozen=True)
class SessionOutcome:
    """The flattened result of one :meth:`QuerySession.evaluate_many`.

    ``batches`` keeps the underlying chunk results (one
    :class:`~repro.distsim.metrics.BatchResult` per dispatched batch);
    the aggregate accessors sum over them so callers see one stream of
    N queries regardless of how it was chunked.
    """

    answers: tuple[bool, ...]
    per_query: tuple[QueryCost, ...]
    batches: tuple[BatchResult, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.answers)

    @property
    def bytes_total(self) -> int:
        """Network bytes across every batch of the call."""
        return sum(batch.metrics.bytes_total for batch in self.batches)

    @property
    def messages_total(self) -> int:
        return sum(batch.metrics.messages for batch in self.batches)

    @property
    def visits_total(self) -> int:
        return sum(batch.metrics.total_visits() for batch in self.batches)

    @property
    def elapsed_seconds(self) -> float:
        """Simulated elapsed time: batches run one after another."""
        return sum(batch.metrics.elapsed_seconds for batch in self.batches)

    @property
    def bytes_per_query(self) -> float:
        """Amortized traffic per query -- the batching headline number."""
        return self.bytes_total / len(self.answers)

    @property
    def visits_per_query(self) -> float:
        return self.visits_total / len(self.answers)

    @property
    def messages_per_query(self) -> float:
        return self.messages_total / len(self.answers)


class QuerySession:
    """Plan, cache and batch-evaluate queries against one cluster.

    ``engine`` is a registry name (``"parbox"``, ``"fulldist"``, ...)
    or an :class:`~repro.core.engine.Engine` instance.  A session that
    *resolved* the engine from a name owns it -- :meth:`close` (or the
    context manager) tears it down, executor pool included; a pre-built
    engine belongs to its builder, mirroring the executor-ownership
    rule on :class:`~repro.core.engine.Engine` itself.

    ``batch_size`` bounds how many queries ride one combined broadcast
    (``None`` = the whole call in one batch); the compiled-query cache
    persists across calls and batches either way.
    """

    def __init__(
        self,
        cluster: Optional[Cluster],
        engine: Union[str, Engine] = "parbox",
        algebra: Optional[FormulaAlgebra] = None,
        trace: Optional[Trace] = None,
        executor: Union[str, SiteExecutor, None] = None,
        batch_size: Optional[int] = None,
        cache: Optional[QueryCache] = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.batch_size = batch_size
        # Not `cache or ...`: a shared cache that is still empty is
        # falsy (it has a __len__) but must still be adopted.
        self.cache = cache if cache is not None else QueryCache()
        if isinstance(engine, Engine):
            # A pre-built engine already fixed its algebra, trace and
            # executor; silently ignoring these knobs would make the
            # caller believe they took effect.
            conflicting = [
                knob
                for knob, value in (
                    ("algebra", algebra),
                    ("trace", trace),
                    ("executor", executor),
                )
                if value is not None
            ]
            if conflicting:
                raise ValueError(
                    f"{', '.join(conflicting)} cannot be combined with a "
                    "pre-built engine instance; configure the engine itself"
                )
            self.engine = engine
            self._owns_engine = False
        elif engine.startswith("net:"):
            # A networked session: queries go to a gateway whose
            # coordinator owns the cluster, so none is needed (or used)
            # locally and the engine-tuning knobs live server-side.
            conflicting = [
                knob
                for knob, value in (
                    ("algebra", algebra),
                    ("trace", trace),
                    ("executor", executor),
                )
                if value is not None
            ]
            if conflicting:
                raise ValueError(
                    f"{', '.join(conflicting)} cannot be combined with a "
                    "net: engine; those knobs are configured on the gateway"
                )
            from repro.serving.client import NetEngine  # local: core stays importable alone

            self.engine = NetEngine.from_spec(engine)
            self._owns_engine = True
        else:
            if cluster is None:
                raise ValueError("a local engine needs a cluster (only net: sessions may omit it)")
            from repro.core import ENGINE_REGISTRY  # local: avoids an import cycle

            engine_cls = ENGINE_REGISTRY.get(engine.lower())
            if engine_cls is None:
                raise ValueError(
                    f"unknown engine {engine!r}; choose from "
                    f"{sorted(set(ENGINE_REGISTRY))}"
                )
            self.engine = engine_cls(cluster, algebra, trace, executor=executor)
            self._owns_engine = True

    # ------------------------------------------------------------------
    # Compilation / planning
    # ------------------------------------------------------------------
    def compile(self, query: Query) -> QList:
        """Compile one query through the session cache (texts only)."""
        return self.cache.qlist(query)

    def plan(self, queries: Sequence[Query]) -> BatchPlan:
        """Plan a batch without evaluating it (inspection, tests).

        Plans through the session's cache, so a batch of the same
        compiled queries gets the plan it got before -- from this
        session or any other caller sharing the cache (see
        :meth:`~repro.core.plan.QueryCache.lookup_plan`).
        """
        return self.cache.lookup_plan(queries)[0]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: Query) -> EvalResult:
        """Evaluate one query (cache-compiled, batch of one)."""
        return self.engine.evaluate_many(self.plan([query])).single()

    def evaluate_batch(self, queries: Sequence[Query]) -> BatchResult:
        """Evaluate one un-chunked batch: one combined broadcast."""
        if obs_metrics._REGISTRY is not None:
            registry = obs_metrics._REGISTRY
            registry.counter("session_batches_total", "Batches evaluated").inc()
            registry.counter("session_queries_total", "Queries evaluated").inc(
                len(queries)
            )
        # The ambient span makes executor-side spans (e.g. resident
        # workers) children of one session.batch root per batch.
        with obs_trace.span("session.batch", "session", queries=len(queries)):
            return self.engine.evaluate_many(self.plan(queries))

    def evaluate_many(self, queries: Iterable[Query]) -> SessionOutcome:
        """Evaluate a query stream, chunked to ``batch_size`` per batch."""
        if isinstance(queries, str):
            raise TypeError(
                "evaluate_many takes a sequence of queries; "
                "use evaluate() for a single query text"
            )
        query_list = list(queries)
        if not query_list:
            raise ValueError("evaluate_many needs at least one query")
        step = self.batch_size or len(query_list)
        batches = [
            self.evaluate_batch(query_list[start : start + step])
            for start in range(0, len(query_list), step)
        ]
        # Re-index the per-query rows from batch-local to stream-local,
        # so per_query[i] always describes the i-th input query.
        per_query: list[QueryCost] = []
        for batch in batches:
            offset = len(per_query)
            per_query.extend(
                replace(cost, index=cost.index + offset) for cost in batch.per_query
            )
        return SessionOutcome(
            answers=tuple(answer for batch in batches for answer in batch.answers),
            per_query=tuple(per_query),
            batches=tuple(batches),
        )

    def _require_local(self, operation: str) -> None:
        """Topology-touching operations need the cluster in-process.

        A ``net:`` session holds neither the cluster nor a local
        algebra/executor to maintain standing queries with; those
        operations belong on the gateway side of the wire.
        """
        if self.cluster is None or not isinstance(self.engine, Engine):
            raise RuntimeError(
                f"{operation}() needs a local engine over a cluster; "
                "a net: session only evaluates queries"
            )

    # ------------------------------------------------------------------
    # Stream mode
    # ------------------------------------------------------------------
    def watch(
        self,
        queries: Sequence[Query],
        names: Optional[Sequence[str]] = None,
    ) -> "StreamMaintainer":  # noqa: F821 - imported lazily below
        """Keep ``queries`` standing and maintain them under updates.

        The session's batch mode answers a stream of queries once;
        *watch* mode turns the same queries into standing subscriptions
        on a :class:`~repro.stream.maintainer.StreamMaintainer` that
        shares this session's compiled-query cache and the engine's
        site executor (so dirty-site refreshes run under the session's
        execution strategy).  Apply update batches with
        ``maintainer.apply([...])`` and read answer flips off
        ``maintainer.changefeed``; the caller owns the handle (closing
        it never tears down the shared executor).  The whole book is
        registered in one call: each site is visited once, with the
        book's combined QList, however many unique queries it holds.

        ``names`` labels the subscriptions (default: the query texts,
        or ``q<i>`` for pre-compiled QLists).
        """
        self._require_local("watch")
        from repro.stream.maintainer import StreamMaintainer  # local: keeps core free of stream

        query_list = list(queries)
        if not query_list:
            raise ValueError("watch needs at least one query")
        if names is None:
            # Default names from the texts, suffixed on repeats so a
            # popular subscription arriving twice still registers (the
            # planner dedups them onto one segment regardless).
            counts: dict[str, int] = {}
            names = []
            for index, query in enumerate(query_list):
                base = query if isinstance(query, str) else f"q{index}"
                seen = counts.get(base, 0)
                counts[base] = seen + 1
                names.append(base if seen == 0 else f"{base}#{seen + 1}")
        name_list = list(names)
        if len(name_list) != len(query_list):
            raise ValueError("names and queries must have the same length")
        maintainer = StreamMaintainer(
            self.cluster,
            algebra=self.engine.algebra,
            executor=self.engine.executor,
            cache=self.cache,
        )
        maintainer.subscribe_many(zip(name_list, query_list))
        return maintainer

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(
        self,
        queries: Optional[Sequence[Query]] = None,
        update_rates: Optional[dict] = None,
        workload: Optional["Workload"] = None,  # noqa: F821 - imported lazily below
        maintainer: Optional["StreamMaintainer"] = None,  # noqa: F821
        constraints: Optional["Constraints"] = None,  # noqa: F821
    ) -> "RebalanceOutcome":  # noqa: F821
        """Optimize this cluster's placement for a workload and enact it.

        The write-path counterpart of :meth:`evaluate_many` and
        :meth:`watch`: where those *read* the cluster topology, this
        one rewrites it.  The workload is either given ready-made
        (``workload=``) or built from ``queries`` (compiled through the
        session cache, duplicates folding into weights) plus optional
        per-fragment ``update_rates``.  The optimizer
        (:func:`~repro.placement.optimizer.optimize_placement`)
        searches move/split/merge actions under ``constraints``; the
        plan is then enacted -- through ``maintainer`` when standing
        queries must stay live (pass the handle :meth:`watch` returned;
        answers are preserved bitwise while the data migrates), or
        straight onto the cluster otherwise.  Returns the
        :class:`~repro.placement.rebalancer.RebalanceOutcome` tying the
        plan to the migrations that really shipped.
        """
        self._require_local("rebalance")
        from repro.placement import (  # local: keeps core importable without placement
            Workload,
            enact_plan,
            optimize_placement,
        )

        if workload is None:
            if queries is None:
                raise ValueError("pass queries= (or a ready workload=)")
            workload = Workload.from_queries(
                queries, cache=self.cache, update_rates=update_rates
            )
        elif queries is not None or update_rates is not None:
            raise ValueError("pass either workload= or queries=/update_rates=, not both")
        plan = optimize_placement(self.cluster, workload, constraints)
        if maintainer is not None:
            return enact_plan(plan, maintainer=maintainer)
        return enact_plan(plan, cluster=self.cluster)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """The compiled-query cache's hit/miss counters."""
        return self.cache.stats()

    def close(self) -> None:
        """Tear down the engine this session built from a name."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuerySession engine={self.engine.name} "
            f"batch_size={self.batch_size} cached={len(self.cache)}>"
        )


__all__ = ["QuerySession", "SessionOutcome"]
