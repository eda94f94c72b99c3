"""The batch planner: many queries, one combined broadcast.

The paper bounds site visits *per query*; a coordinator serving many
standing queries wants them bounded *per batch*.  The trick is purely
front-end: QList entries only ever reference earlier entries of the
same query, so concatenating several QLists with offset-shifted operand
indices yields one well-formed QList whose single ``bottomUp`` pass
computes every input query at once.  This module is the planner layer
every engine (and the standing book of :mod:`repro.stream`) batches
through:

* :class:`QueryCache` -- memoizes the text -> AST -> normal form ->
  QList compilation pipeline, keyed by query text (a bounded LRU), and
  the batch -> :class:`BatchPlan` step after it, keyed by the canonical
  QLists it handed out (the one plan cache every caller shares);
* :func:`plan_batch` / :class:`BatchPlan` -- deduplicates repeated
  queries (identical QLists collapse into one shared segment), offsets
  and concatenates the unique ones, and remembers how to slice the
  combined answer vector back into per-query answers;
* :func:`attribute_costs` -- splits a batch ledger into per-query
  :class:`~repro.distsim.metrics.QueryCost` rows (exact operation
  attribution from the planner's segments, amortized shares for the
  batch-level costs that exist once per batch).

Engines consume a :class:`BatchPlan` through
:meth:`repro.core.engine.Engine.evaluate_many`; a plan of one query is
the degenerate case and reuses the input QList unchanged, which keeps
``evaluate()`` bitwise identical to the pre-batch code path.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.core.eval_st import RetainedSolve
from repro.distsim.metrics import Metrics, QueryCost
from repro.xpath import build_qlist, normalize, parse_query
from repro.xpath.ast import BoolExpr
from repro.xpath.normalize import NBool
from repro.xpath.qlist import QEntry, QList, append_shifted


@dataclass(frozen=True)
class CompiledQuery:
    """One query text carried through the whole compilation pipeline."""

    text: str
    ast: BoolExpr
    normalized: NBool
    qlist: QList


#: Bound on a :class:`QueryCache` (distinct texts, LRU).  A standing
#: book re-sends its texts and keeps them recent; the bound exists so a
#: server fed never-seen texts for its whole life does not pin every
#: AST, normal form and QList it ever compiled (~9 KB a text).
QUERY_CACHE_SIZE = 1024

#: Bound on a :class:`QueryCache`'s planned batches (LRU): a standing
#: book of a few dozen batches stays planned, a stream of never-seen
#: batches cannot grow it.
PLAN_CAP = 256

#: What :meth:`QueryCache.qlist` accepts: a text, a compiled QList, or
#: the ``("qlist", entries)`` wire form a client ships precompiled.
_WireOrQuery = Union[str, QList, tuple]


def _bounded_put(lru: OrderedDict, key, value, cap: int):
    """Store ``value`` unless a racing thread stored first; return the winner.

    Callers hold the cache lock.  Keeping the first stored object is what
    makes "one object per key" hold when two threads miss together.
    """
    value = lru.setdefault(key, value)
    lru.move_to_end(key)
    while len(lru) > cap:
        lru.popitem(last=False)
    return value


class QueryCache:
    """Memoized text -> AST -> normal form -> QList -> batch plan.

    A pub/sub coordinator sees the same subscription text over and over;
    re-parsing it per batch would dominate small-query workloads.  The
    cache keeps the :data:`QUERY_CACHE_SIZE` most recently used texts
    (an evicted one simply compiles again, to an equal QList) and hands
    out one QList object per text, so a batch of compiled queries is a
    tuple of canonical objects -- the key of the :data:`PLAN_CAP` most
    recently planned batches (:meth:`lookup_plan`).  Sessions and the
    serving coordinator plan through it, and a session's stream
    maintainer compiles through the same one; :meth:`stats` reports the
    compile hit rate for the benchmarks.
    """

    def __init__(self) -> None:
        self._compiled: OrderedDict[str, CompiledQuery] = OrderedDict()
        #: Precompiled wire forms -> their canonical QList.
        self._interned: OrderedDict[tuple, QList] = OrderedDict()
        #: Tuples of canonical QLists (hashed by identity) -> plan.
        self._planned: OrderedDict[tuple, BatchPlan] = OrderedDict()
        #: A coordinator compiles on several worker threads at once.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def compile(self, text: str) -> CompiledQuery:
        """Compile ``text``, reusing the pipeline output on repeat texts."""
        with self._lock:
            cached = self._compiled.get(text)
            if cached is not None:
                self._compiled.move_to_end(text)
                self.hits += 1
                return cached
            self.misses += 1
        ast = parse_query(text)
        normalized = normalize(ast)
        qlist = build_qlist(normalized, source=text)
        compiled = CompiledQuery(text=text, ast=ast, normalized=normalized, qlist=qlist)
        with self._lock:
            return _bounded_put(self._compiled, text, compiled, QUERY_CACHE_SIZE)

    def qlist(self, query: _WireOrQuery) -> QList:
        """Coerce a query to its canonical QList.

        A text compiles through :meth:`compile`; a QList passes through
        unchanged; a ``("qlist", entries)`` wire form is interned by its
        entries, so a client resending a precompiled query gets the
        same object back (and with it the same plan).  A malformed wire
        form raises ``ValueError`` / ``TypeError``.
        """
        if isinstance(query, QList):
            return query
        if isinstance(query, str):
            return self.compile(query).qlist
        tag, entries = query
        if tag != "qlist":
            raise ValueError(f"unknown query tag {tag!r}")
        key = tuple((op, value, tuple(args)) for op, value, args in entries)
        with self._lock:
            qlist = self._interned.get(key)
            if qlist is not None:
                self._interned.move_to_end(key)
                return qlist
        qlist = QList.from_obj(key)
        with self._lock:
            return _bounded_put(self._interned, key, qlist, QUERY_CACHE_SIZE)

    def lookup_plan(self, queries: Sequence[_WireOrQuery]) -> tuple[BatchPlan, bool]:
        """The batch's plan, and whether it was already planned.

        Planning is deterministic, so a batch of the same canonical
        QLists gets the very plan object it got before -- and with it a
        combined QList whose wire form, byte size and fingerprint are
        already worked out.
        """
        qlists = tuple(self.qlist(query) for query in queries)
        with self._lock:
            plan = self._planned.get(qlists)
            if plan is not None:
                self._planned.move_to_end(qlists)
                return plan, True
        plan = plan_batch(qlists)
        with self._lock:
            return _bounded_put(self._planned, qlists, plan, PLAN_CAP), False

    def __len__(self) -> int:
        return len(self._compiled)

    def __contains__(self, text: str) -> bool:
        return text in self._compiled

    def stats(self) -> dict:
        """Compile hit/miss counters, resident texts and planned batches."""
        total = self.hits + self.misses
        return {
            "entries": len(self._compiled),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "plans": len(self._planned),
        }


@dataclass(frozen=True)
class BatchPlan:
    """How a batch of queries maps onto one combined QList.

    ``queries[i]`` answers at ``combined[answer_indices[i]]``; the
    combined entries decompose into ``segments[k] = (offset, length)``,
    one per *unique* query, and ``segment_of[i]`` names the segment
    query *i* landed in (duplicates share a segment -- and therefore a
    broadcast slice, a triplet slice and the site work for it).
    ``solved`` holds the plan's last equation solve for the next one to
    reuse (:func:`~repro.core.eval_st.assemble`).
    """

    combined: QList
    queries: tuple[QList, ...]
    answer_indices: tuple[int, ...]
    segments: tuple[tuple[int, int], ...]
    segment_of: tuple[int, ...]
    solved: RetainedSolve = field(
        default_factory=RetainedSolve, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def unique_count(self) -> int:
        """Number of distinct QLists after deduplication."""
        return len(self.segments)

    def duplicate_count(self) -> int:
        """How many input queries were collapsed onto an earlier twin."""
        return len(self.queries) - len(self.segments)

    def entries_saved(self) -> int:
        """Combined-QList entries avoided by deduplication."""
        return sum(len(q) for q in self.queries) - len(self.combined)

    def queries_in_segment(self, segment_index: int) -> list[int]:
        """Input-query indices sharing one unique segment."""
        return [i for i, seg in enumerate(self.segment_of) if seg == segment_index]


def plan_batch(queries: Sequence[QList]) -> BatchPlan:
    """Plan a batch: dedupe, offset, concatenate, remember the slices.

    Two queries are duplicates when their entry tuples are identical
    (hash-consing makes the entry tuple a canonical form of the
    compiled query); the second occurrence reuses the first one's
    segment wholesale, sharing its variables and its answer entry.  A
    single-query batch reuses the input QList object unchanged.
    """
    qlists = list(queries)
    if not qlists:
        raise ValueError("cannot plan an empty batch")
    if len(qlists) == 1:
        only = qlists[0]
        return BatchPlan(
            combined=only,
            queries=(only,),
            answer_indices=(only.answer_index,),
            segments=((0, len(only)),),
            segment_of=(0,),
        )

    entries: list[QEntry] = []
    segments: list[tuple[int, int]] = []
    segment_by_shape: dict[tuple[QEntry, ...], int] = {}
    answer_indices: list[int] = []
    segment_of: list[int] = []
    sources: list[str] = []
    for qlist in qlists:
        shape = qlist.entries
        segment_index = segment_by_shape.get(shape)
        if segment_index is None:
            offset = append_shifted(entries, qlist)
            segment_index = len(segments)
            segments.append((offset, len(qlist)))
            segment_by_shape[shape] = segment_index
            sources.append(qlist.source or "?")
        offset, _ = segments[segment_index]
        answer_indices.append(offset + qlist.answer_index)
        segment_of.append(segment_index)

    combined = QList(entries, source=" + ".join(sources))
    return BatchPlan(
        combined=combined,
        queries=tuple(qlists),
        answer_indices=tuple(answer_indices),
        segments=tuple(segments),
        segment_of=tuple(segment_of),
    )


def coerce_plan(batch: Union[BatchPlan, Iterable[Union[str, QList]]]) -> BatchPlan:
    """Accept a ready plan, or a mix of texts/QLists to plan now."""
    if isinstance(batch, BatchPlan):
        return batch
    if isinstance(batch, str):
        raise TypeError(
            "a batch is a sequence of queries; wrap a single query text "
            "in a list (or call evaluate())"
        )
    cache = QueryCache()
    return plan_batch([cache.qlist(query) for query in batch])


def attribute_costs(
    plan: BatchPlan, answers: Sequence[bool], metrics: Metrics
) -> tuple[QueryCost, ...]:
    """Split a finished batch ledger into per-query cost rows.

    Attribution policy (documented on :class:`QueryCost`):

    * **qlist_ops** -- exact: the planner's segments let every site
      report ``nodes x segment-length`` operation counts per unique
      query (``metrics.segment_ops``); duplicates split their shared
      segment's count evenly.
    * **bytes** -- weighted by each query's share of the total query
      size: a 23-entry query genuinely occupies more of the broadcast
      and of the reply triplets than a 2-entry one.
    * **visits / messages / elapsed** -- amortized ``total / N``: these
      costs exist once per batch regardless of N, which is the whole
      point of batching.
    """
    n = len(plan.queries)
    total_entries = sum(len(q) for q in plan.queries)
    sharing = Counter(plan.segment_of)
    costs = []
    for index, qlist in enumerate(plan.queries):
        segment = plan.segment_of[index]
        weight = len(qlist) / total_entries if total_entries else 0.0
        costs.append(
            QueryCost(
                index=index,
                source=qlist.source,
                answer=bool(answers[index]),
                qlist_len=len(qlist),
                shared_with=sharing[segment] - 1,
                visits=metrics.total_visits() / n,
                messages=metrics.messages / n,
                bytes_sent=metrics.bytes_total * weight,
                qlist_ops=metrics.segment_ops[segment] / sharing[segment],
                elapsed_seconds=metrics.elapsed_seconds / n,
            )
        )
    return tuple(costs)


__all__ = [
    "CompiledQuery",
    "QueryCache",
    "QUERY_CACHE_SIZE",
    "PLAN_CAP",
    "BatchPlan",
    "plan_batch",
    "coerce_plan",
    "attribute_costs",
]
