"""``StreamMaintainer``: thousands of standing queries, kept live.

The paper's Section 5 bound -- after an update only the edited
fragment's site re-runs ``bottomUp`` and maintenance traffic is
``O(|q| card(F_j))``, independent of ``|T|`` and of the update size --
is realized here for a whole *batch* of standing queries at once:

1. **cache** -- for every live segment (unique compiled query) the
   maintainer caches each fragment's 0-based triplet slice and the
   segment's solved answer; a subscribe call evaluates *only its fresh
   segments*, all of them in one visit per site (a duplicate evaluates
   nothing at all), so booting a whole book costs one broadcast;
2. **refresh** -- after an update batch
   (:func:`~repro.stream.updates.apply_updates`), only the dirty
   fragments' sites re-run ``bottomUp`` -- over the combined QList, one
   traversal per fragment however many queries stand (a resident
   holder re-runs it along the edited spine only) -- dispatched as
   one :class:`~repro.distsim.executors.SiteJob` per dirty site through
   the run's executor, so dirty sites refresh concurrently under the
   ``threads``/``process`` strategies;
3. **ship** -- each refreshed combined triplet is split into
   per-segment slices (:meth:`~repro.stream.dirty.DirtyIndex.slices_of`)
   and **only the slices that differ from the cache** cross the
   network (``triplet-delta`` messages; a dirty site whose triplet did
   not move sends a control-sized ack);
4. **re-solve** -- only the segments owning a changed slice re-solve
   their (per-segment, hence small) Boolean equation system, along the
   changed fragments' root paths only; every other answer is untouched;
5. **notify** -- answers that flipped are appended to the
   :class:`Changefeed` as ``(query, old, new)`` events, and the whole
   round is summarized in a :class:`MaintenanceRound` cost ledger.

Rebalancing rides the same path: a batch may carry
:class:`~repro.stream.updates.MoveFragment` ops (and splits/merges
targeting other sites), whose fragment-data shipments are metered as
``MSG_MIGRATE`` traffic (:attr:`~repro.distsim.metrics.Metrics.migration_bytes`
/ ``migration_visits``) *without* dirtying anything -- cached
per-segment triplets are placement-independent, so standing answers
survive a migration bitwise untouched.

Per-round costs, in ledger units: site work is one combined-QList
``bottomUp`` per dirty fragment (``O(Σ|q_i| · |F_dirty|)`` node x
entry ops -- the algorithmic cost; a patched resident holder really
evaluates ``O(depth)`` nodes per edit); traffic is the changed slices only, worst case
``O(Σ|q_i| · card(F_dirty))`` formula terms plus control acks --
independent of ``|T|`` and of the update size, the paper's Section 5
bound extended to a whole standing book.

Hot-path notes: the per-fragment refresh runs ``bottomUp``'s bitset
kernel on every ground node (all but the root-to-virtual-node paths --
see :mod:`repro.core.bottom_up`), the combined QList's
compiled form is cached on the QList across rounds, and under the
``process`` executor the refreshed triplets return in the compact
bitmask+residue wire form (:meth:`~repro.core.vectors.VectorTriplet.to_compact`)
-- none of which moves the *simulated* ledger: ``triplet-delta`` bytes
stay defined over ``wire_bytes()`` and are bitwise identical across
kernels and executors (checked by ``tests/test_hotpath_kernel.py``).

Checked by ``tests/test_stream_maintainer.py`` (dirty-site-only
visits, delta-only shipping, oracle agreement across engines x
executors), ``tests/test_rebalance_properties.py`` (random
move/split/merge streams under live books) and the ``stream`` /
``placement`` experiments' shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.boolexpr.compose import DEFAULT_ALGEBRA, FormulaAlgebra
from repro.core.engine import CONTROL_BYTES, MSG_CONTROL, MSG_TRIPLET_DELTA
from repro.core.eval_st import RetainedSolve, assemble
from repro.core.plan import BatchPlan, QueryCache
from repro.core.vectors import VectorTriplet
from repro.distsim.cluster import Cluster
from repro.distsim.executors import SiteExecutor, SiteJob, resolve_executor
from repro.distsim.metrics import Metrics
from repro.distsim.runtime import Run
from repro.obs import metrics as obs_metrics
from repro.stream.dirty import DirtyIndex, Segment, SegmentKey
from repro.stream.updates import (
    AppliedBatch,
    Migration,
    UpdateError,
    UpdateOp,
    apply_updates,
)
from repro.xpath.qlist import QList

Query = Union[str, QList]


@dataclass(frozen=True)
class ChangeEvent:
    """One standing query's answer flipped during one refresh round."""

    round_seq: int
    name: str
    query: Optional[str]  # the query's source text, when known
    old_answer: bool
    new_answer: bool


class Changefeed:
    """An append-only stream of :class:`ChangeEvent`\\ s.

    The maintainer appends; consumers either iterate the full history
    or :meth:`drain` the events they have not seen yet.
    """

    def __init__(self) -> None:
        self.events: list[ChangeEvent] = []
        self._cursor = 0

    def append(self, event: ChangeEvent) -> None:
        self.events.append(event)

    def drain(self) -> list[ChangeEvent]:
        """The events appended since the previous ``drain()``."""
        fresh = self.events[self._cursor :]
        self._cursor = len(self.events)
        return fresh

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass(frozen=True)
class MaintenanceRound:
    """The ledger of one refresh round (one update batch).

    ``nodes_recomputed`` is ``bottomUp``'s algorithmic cost for
    (fragment, query), not work performed, summed over the dirty
    fragments.
    """

    seq: int
    ops: tuple[str, ...]  # human-readable op descriptions
    dirty_fragments: tuple[str, ...]
    sites_visited: tuple[str, ...]
    traffic_bytes: int
    nodes_recomputed: int
    slices_shipped: int
    segments_resolved: int
    changed: tuple[str, ...]  # subscription names whose answer flipped
    events: tuple[ChangeEvent, ...]
    structural: bool
    metrics: Metrics = field(repr=False)
    #: Cross-site fragment-data shipments (rebalancing moves, off-site
    #: splits, cross-site merges) this round enacted.
    migrations: tuple[Migration, ...] = ()

    @property
    def triplet_changed(self) -> bool:
        """Did any dirty fragment's partial answer actually move?"""
        return self.slices_shipped > 0

    @property
    def migration_bytes(self) -> int:
        """One-off fragment-data bytes the round's migrations shipped."""
        return sum(migration.nbytes for migration in self.migrations)

    def is_localized(self) -> bool:
        """True when only dirty fragments' sites (and migration
        endpoints) participated."""
        endpoints = {m.origin for m in self.migrations} | {
            m.target for m in self.migrations
        }
        return len(set(self.sites_visited) - endpoints) <= len(self.dirty_fragments)


class StreamMaintainer:
    """Incremental maintenance of a batch of standing Boolean queries.

    ``executor`` follows the engine convention: a registry name is
    resolved and owned (closed by :meth:`close`), a pre-built
    :class:`~repro.distsim.executors.SiteExecutor` instance is shared
    and left to its builder.  ``cache`` lets a
    :class:`~repro.core.session.QuerySession` share its compiled-query
    cache with the maintainer it spawns.
    """

    def __init__(
        self,
        cluster: Cluster,
        algebra: Optional[FormulaAlgebra] = None,
        executor: Union[str, SiteExecutor, None] = None,
        cache: Optional[QueryCache] = None,
    ) -> None:
        self.cluster = cluster
        self.algebra = algebra or DEFAULT_ALGEBRA
        self.executor = resolve_executor(executor)
        self._owns_executor = not isinstance(executor, SiteExecutor)
        # Not `cache or ...`: an empty shared cache is falsy (len 0)
        # but must still be shared.
        self.cache = cache if cache is not None else QueryCache()
        self.index = DirtyIndex()
        self.changefeed = Changefeed()
        #: segment key -> fragment id -> the fragment's 0-based slice.
        self._triplets: dict[SegmentKey, dict[str, VectorTriplet]] = {}
        #: segment key -> the segment's solved Boolean answer.
        self._segment_answers: dict[SegmentKey, bool] = {}
        self._names: list[str] = []  # subscription order
        self._queries: dict[str, QList] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def subscribe(self, name: str, query: Query) -> bool:
        """Register one standing query; returns its current answer.

        :meth:`subscribe_many` with one pair.
        """
        return self.subscribe_many([(name, query)])[0]

    def subscribe_many(self, pairs: Iterable[tuple[str, Query]]) -> list[bool]:
        """Register ``(name, query)`` pairs; returns their current answers.

        Every query is compiled and every name checked before any state
        changes, so a parse error or a repeated name anywhere in
        ``pairs`` leaves the maintainer exactly as it was.  A query
        compiling to an already-standing segment costs nothing beyond
        bookkeeping -- no site work, no solve.  The call's fresh
        segments are evaluated together: one visit per site carrying
        their joint QList (not the whole standing book), whose combined
        triplets are cut into per-segment slices; then each fresh
        segment is solved once.
        """
        compiled: dict[str, QList] = {}
        for name, query in pairs:
            if name in self._queries or name in compiled:
                raise ValueError(f"subscription {name!r} already registered")
            compiled[name] = self.cache.qlist(query)
        segments, fresh = [], []
        for name, qlist in compiled.items():
            segment, is_new = self.index.subscribe(name, qlist)
            self._names.append(name)
            self._queries[name] = qlist
            segments.append(segment)
            if is_new:
                fresh.append(segment)
        if fresh:
            self._evaluate_segments(fresh)
            for segment in fresh:
                self._solve_segment(segment)
        return [self._segment_answers[segment.key] for segment in segments]

    def unsubscribe(self, name: str) -> None:
        """Remove a standing query.

        Dropping a duplicate never re-solves anything; dropping a
        segment's last rider just forgets its caches -- the surviving
        segments' 0-based caches are untouched by the re-offsetting.
        """
        if name not in self._queries:
            raise ValueError(f"unknown subscription {name!r}")
        segment, removed = self.index.unsubscribe(name)
        self._names.remove(name)
        del self._queries[name]
        if removed:
            del self._triplets[segment.key]
            del self._segment_answers[segment.key]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered subscription names, in registration order."""
        return list(self._names)

    def answers(self) -> dict[str, bool]:
        """Current answer of every standing query."""
        return {
            name: self._segment_answers[self.index.segment_of(name).key]
            for name in self._names
        }

    def answer(self, name: str) -> bool:
        """Current answer of one standing query."""
        return self._segment_answers[self.index.segment_of(name).key]

    def plan(self) -> Optional[BatchPlan]:
        """The live combined plan (None when nothing stands)."""
        if not self._names:
            return None
        return self.index.plan(self._names)

    def combined_size(self) -> int:
        """|QList| of the combined standing query."""
        return len(self.index.combined()) if self._names else 0

    def duplicate_subscriptions(self) -> int:
        """Standing queries sharing another one's compiled segment."""
        return self.index.duplicate_count()

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(self, ops: Sequence[UpdateOp]) -> MaintenanceRound:
        """Apply one update batch to the cluster, then refresh.

        The batch mutates the document/decomposition *first*
        (:func:`~repro.stream.updates.apply_updates`); the refresh then
        touches exactly the dirty fragments' sites.  If an op fails
        mid-batch, the earlier ops have already mutated the document --
        their dirty fragments are refreshed *before* the error is
        re-raised, so the standing answers never silently diverge from
        the live document.
        """
        try:
            batch = apply_updates(self.cluster, list(ops))
        except UpdateError as error:
            partial = error.applied
            if partial is not None and partial.effects:
                self._refresh(partial)
            raise
        return self._refresh(batch)

    def refresh(self, fragment_ids: Sequence[str]) -> MaintenanceRound:
        """Refresh after out-of-band edits inside the given fragments.

        For callers that changed fragment contents directly (a
        ``node.text = ...``) instead of going through the typed update
        log: the epoch bump the typed ops make happens here, so every
        resident holder of the old content is invalidated (it re-ships;
        there is no edit to patch with).  Unknown fragment ids are
        an error here -- silently skipping one would leave a caller
        serving stale answers with no signal.  (``apply`` tolerates
        mid-batch removals; that path filters internally.)
        """
        unknown = [
            fragment_id
            for fragment_id in fragment_ids
            if fragment_id not in self.cluster.fragmented_tree.fragments
        ]
        if unknown:
            raise KeyError(f"unknown fragment(s) {unknown}")
        for fragment_id in dict.fromkeys(fragment_ids):
            self.cluster.fragment(fragment_id).bump_epoch()
        batch = AppliedBatch(effects=(), dirty=tuple(dict.fromkeys(fragment_ids)))
        return self._refresh(batch)

    def _refresh(self, batch: AppliedBatch) -> MaintenanceRound:
        self._seq += 1
        run = Run(self.cluster, executor=self.executor)
        run.metrics.refresh_rounds += 1
        coordinator = self.cluster.coordinator_site

        # Structural updates retire fragments: forget their slices so
        # the per-segment equation systems match the live source tree.
        for fragment_id in batch.removed:
            for cached in self._triplets.values():
                cached.pop(fragment_id, None)

        # Resident executors (persistent process workers, networked
        # sites) hold fragment copies keyed by epoch.  Removed fragments
        # must be dropped outright; migrated ones will re-ship to their
        # new site's worker, so the old copy is garbage too.
        retired = tuple(batch.removed) + tuple(
            migration.fragment_id for migration in batch.migrations
        )
        if retired:
            self.executor.retire_fragments(tuple(dict.fromkeys(retired)))

        # Meter the batch's fragment migrations (rebalancing moves,
        # off-site splits, cross-site merges): the data genuinely
        # crosses the network, but no triplet changes -- cached slices
        # are placement-independent, so the standing answers stay valid
        # with no recomputation at all.
        migration_seconds = 0.0
        for migration in batch.migrations:
            migration_seconds += run.migrate(
                migration.origin, migration.target, migration.nbytes
            )

        dirty = [
            fragment_id
            for fragment_id in batch.dirty
            if fragment_id in self.cluster.fragmented_tree.fragments
        ]
        events: list[ChangeEvent] = []
        changed_names: list[str] = []
        slices_shipped = 0
        nodes_recomputed = 0
        resolved: list[Segment] = []

        if self._names and dirty:
            combined = self.index.combined()
            spans = self.index.spans()
            # Group dirty fragments by site: one job -- one visit, one
            # combined bottomUp pass per fragment -- per dirty site.
            by_site: dict[str, list[str]] = {}
            for fragment_id in dirty:
                by_site.setdefault(self.cluster.site_of(fragment_id), []).append(
                    fragment_id
                )
            jobs = []
            for site_id, fragment_ids in by_site.items():
                run.visit(site_id, dirty=True)
                jobs.append(
                    SiteJob(
                        site_id=site_id,
                        fragments=tuple(
                            self.cluster.fragment(fid) for fid in fragment_ids
                        ),
                        qlist=combined,
                        algebra=self.algebra,
                        label="refresh",
                        segments=spans,
                    )
                )
            parallel = run.parallel(jobs)

            dirty_segments: dict[SegmentKey, Segment] = {}
            site_finish: dict[str, float] = {}
            for site_id, outcome in parallel:
                shipped_bytes = 0
                for fragment_outcome in outcome.fragments:
                    run.add_ops(
                        fragment_outcome.nodes_visited, fragment_outcome.qlist_ops
                    )
                    for segment_index, ops_count in enumerate(
                        fragment_outcome.segment_ops
                    ):
                        run.add_segment_ops(segment_index, ops_count)
                    nodes_recomputed += fragment_outcome.nodes_visited
                    fragment_id = fragment_outcome.triplet.fragment_id
                    cached_slices = {
                        key: per_fragment[fragment_id]
                        for key, per_fragment in self._triplets.items()
                        if fragment_id in per_fragment
                    }
                    for segment, fresh in self.index.changed_segments(
                        cached_slices, fragment_outcome.triplet
                    ):
                        self._triplets[segment.key][fragment_id] = fresh
                        dirty_segments[segment.key] = segment
                        shipped_bytes += fresh.wire_bytes()
                        slices_shipped += 1
                # Ship only what changed; an unchanged dirty site still
                # acknowledges with a control-sized message.
                if shipped_bytes:
                    transfer = run.message(
                        site_id, coordinator, shipped_bytes, MSG_TRIPLET_DELTA
                    )
                else:
                    transfer = run.message(
                        site_id, coordinator, CONTROL_BYTES, MSG_CONTROL
                    )
                site_finish[site_id] = outcome.seconds + transfer

            old_answers = self.answers()
            (_, solve_seconds) = run.compute(
                coordinator,
                lambda: [
                    self._solve_segment(segment) for segment in dirty_segments.values()
                ],
            )
            resolved = list(dirty_segments.values())
            elapsed = run.join(site_finish) + solve_seconds
            for name in self._names:
                new_answer = self.answer(name)
                if new_answer != old_answers[name]:
                    changed_names.append(name)
                    event = ChangeEvent(
                        round_seq=self._seq,
                        name=name,
                        query=self._queries[name].source,
                        old_answer=old_answers[name],
                        new_answer=new_answer,
                    )
                    self.changefeed.append(event)
                    events.append(event)
        else:
            elapsed = 0.0

        run.finish(elapsed + migration_seconds)
        if obs_metrics._REGISTRY is not None:
            registry = obs_metrics._REGISTRY
            rounds = registry.counter(
                "stream_rounds_total", "Maintenance refresh rounds completed"
            )
            work = registry.counter(
                "stream_round_work_total",
                "Per-round maintenance work: dirty fragments, traffic bytes,"
                " nodes recomputed, answer flips",
                labelnames=("kind",),
            )
            rounds.inc()
            work.labels(kind="dirty_fragments").inc(len(dirty))
            work.labels(kind="traffic_bytes").inc(run.metrics.bytes_total)
            work.labels(kind="nodes_recomputed").inc(nodes_recomputed)
            work.labels(kind="flips").inc(len(changed_names))
        return MaintenanceRound(
            seq=self._seq,
            ops=tuple(effect.op.describe() for effect in batch.effects),
            dirty_fragments=tuple(dirty),
            sites_visited=tuple(run.metrics.visits),
            traffic_bytes=run.metrics.bytes_total,
            nodes_recomputed=nodes_recomputed,
            slices_shipped=slices_shipped,
            segments_resolved=len(resolved),
            changed=tuple(changed_names),
            events=tuple(events),
            structural=batch.structural,
            metrics=run.metrics,
            migrations=batch.migrations,
        )

    # ------------------------------------------------------------------
    # Per-segment evaluation / solving
    # ------------------------------------------------------------------
    def _evaluate_segments(self, segments: list[Segment]) -> None:
        """Evaluate the given segments over every fragment, together.

        One :class:`SiteJob` per site carrying the segments' joint QList
        (their entries appended end to end, with their spans as
        ``segments=``) -- the subscribe cost is ``O(Σ|q_new| |T|)``
        site work and one visit per site however many segments are
        fresh, not a re-evaluation of the whole standing book.  When
        the segments are the whole book, the joint QList *is*
        :meth:`DirtyIndex.combined`, so the program the first refresh
        rounds run is already resident.  Each fragment's triplet is cut
        into per-segment slices (:meth:`VectorTriplet.sliced`) and
        replaces the segment's cache.
        """
        if len(segments) == self.index.segment_count:
            qlist, spans = self.index.combined(), self.index.spans()
        else:
            qlist, spans = self.index.joint(segments)
        run = Run(self.cluster, executor=self.executor)
        source_tree = self.cluster.source_tree()
        placement = self.cluster.placement
        jobs = []
        for site_id in source_tree.sites():
            run.visit(site_id)
            # The placement's reverse index resolves a site's fragments
            # in O(card(F_Si)) -- SourceTree.fragments_of would rescan
            # the whole fragment tree once per site.
            fragment_ids = placement.fragments_of(site_id)
            jobs.append(
                SiteJob(
                    site_id=site_id,
                    fragments=tuple(
                        self.cluster.fragment(fid) for fid in fragment_ids
                    ),
                    qlist=qlist,
                    algebra=self.algebra,
                    label="subscribe",
                    segments=spans,
                )
            )
        caches: list[dict[str, VectorTriplet]] = [{} for _ in segments]
        for _, outcome in run.parallel(jobs):
            for fragment_outcome in outcome.fragments:
                run.add_ops(fragment_outcome.nodes_visited, fragment_outcome.qlist_ops)
                triplet = fragment_outcome.triplet
                for cache, (offset, length) in zip(caches, spans):
                    cache[triplet.fragment_id] = triplet.sliced(offset, length)
        run.finish(0.0)
        for segment, cache in zip(segments, caches):
            self._triplets[segment.key] = cache

    def _solve_segment(self, segment: Segment) -> bool:
        """Solve one segment's (small) equation system at the coordinator."""
        (answer,), _ = assemble(segment.solved, self._triplets[segment.key],
                                self.cluster.source_tree(), [segment.answer_index])
        self._segment_answers[segment.key] = answer
        return answer

    # ------------------------------------------------------------------
    # Oracles
    # ------------------------------------------------------------------
    def recompute_from_scratch(self) -> dict[str, bool]:
        """Re-evaluate and re-solve every segment from scratch; refresh all caches."""
        segments = self.index.segments()
        if segments:
            self._evaluate_segments(segments)
        for segment in segments:
            segment.solved = RetainedSolve()
            self._solve_segment(segment)
        return self.answers()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor pool the maintainer owns (if any)."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "StreamMaintainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamMaintainer {len(self)} standing "
            f"({self.index.segment_count} segments) rounds={self._seq}>"
        )


__all__ = [
    "StreamMaintainer",
    "MaintenanceRound",
    "Changefeed",
    "ChangeEvent",
]
