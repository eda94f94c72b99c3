"""The dependency index: fragment updates -> affected query slices.

The combined QList of a standing batch decomposes into *segments*, one
per unique compiled query (:mod:`repro.core.plan`).  The planner's
offset-shifting guarantees that a segment's entries reference only
entries -- and only sub-fragment variables -- of the same segment, so
the combined Boolean equation system splits into independent per-segment
systems.  That independence is what makes maintenance cheap, and this
module is its bookkeeping:

* :class:`Segment` -- one unique compiled query, the subscription names
  riding on it, and its current offset in the combined QList;
* :class:`DirtyIndex` -- the live segment table.  ``subscribe`` /
  ``unsubscribe`` are *incremental*: a duplicate query joins an
  existing segment (no new combined entries, nothing to recompute), a
  fresh one appends a segment at the end (earlier segments keep their
  offsets), and removing a segment merely re-offsets its successors --
  per-segment caches are 0-based, so no cached triplet is invalidated;
* :meth:`DirtyIndex.changed_segments` -- given a dirty fragment's old
  per-segment triplets and its freshly recomputed combined triplet,
  the segments whose slice actually changed: exactly the query slices
  whose answers may move, and the only slices worth shipping.

Costs, in the units the ledger reports: ``subscribe``/``unsubscribe``
are O(1) segment-table work (plus one O(combined) concatenation,
amortized by caching); ``changed_segments`` is one slice comparison
per live segment, O(Σ|q_i|) per refreshed fragment.  No operation here
ever touches fragment *content* -- the index is pure bookkeeping over
compiled queries, which is why segment caches survive placement
changes untouched.

Checked by ``tests/test_stream_maintainer.py`` (incremental
subscribe/unsubscribe leave sibling segments' caches byte-identical;
only changed slices ship) and, end to end, by the ``stream``
experiment's flat-traffic shape check
(:func:`repro.bench.shape_checks.check_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from repro.core.eval_st import RetainedSolve
from repro.core.plan import BatchPlan
from repro.core.vectors import VectorTriplet
from repro.xpath.qlist import QEntry, QList, append_shifted

#: A segment's identity: the canonical entry tuple of its compiled query.
SegmentKey = tuple[QEntry, ...]


@dataclass
class Segment:
    """One unique standing query, the subscriptions sharing it, its last solve."""

    key: SegmentKey
    qlist: QList
    members: dict[str, None] = field(default_factory=dict)  # insertion-ordered set
    solved: RetainedSolve = field(
        default_factory=RetainedSolve, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.qlist)

    @property
    def answer_index(self) -> int:
        """Answer entry inside the segment's own (0-based) index space."""
        return self.qlist.answer_index


class DirtyIndex:
    """The live mapping subscriptions <-> segments <-> combined QList."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self._by_key: dict[SegmentKey, Segment] = {}
        self._segment_of: dict[str, Segment] = {}  # subscription name -> segment
        self._combined: Optional[QList] = None
        self._spans: Optional[tuple[tuple[int, int], ...]] = None

    # ------------------------------------------------------------------
    # Registration (incremental)
    # ------------------------------------------------------------------
    def subscribe(self, name: str, qlist: QList) -> tuple[Segment, bool]:
        """Attach ``name`` to its query's segment; create it if fresh.

        Returns ``(segment, is_new)``.  Only a *new* segment extends
        the combined QList (appended at the end, so existing offsets --
        and therefore existing per-segment caches -- stay valid).
        """
        if name in self._segment_of:
            raise ValueError(f"subscription {name!r} already registered")
        key = qlist.entries
        segment = self._by_key.get(key)
        is_new = segment is None
        if segment is None:
            segment = Segment(key=key, qlist=qlist)
            self._segments.append(segment)
            self._by_key[key] = segment
            self._invalidate()
        segment.members[name] = None
        self._segment_of[name] = segment
        return segment, is_new

    def unsubscribe(self, name: str) -> tuple[Segment, bool]:
        """Detach ``name``; drop its segment when it was the last rider.

        Returns ``(segment, segment_removed)``.  Removing a middle
        segment re-offsets its successors in the combined QList, which
        is free: caches are keyed by segment and 0-based.
        """
        segment = self._segment_of.pop(name, None)
        if segment is None:
            raise ValueError(f"unknown subscription {name!r}")
        del segment.members[name]
        if segment.members:
            return segment, False
        self._segments.remove(segment)
        del self._by_key[segment.key]
        self._invalidate()
        return segment, True

    def _invalidate(self) -> None:
        self._combined = None
        self._spans = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segment_of)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def segments(self) -> list[Segment]:
        """The live segments in combined-QList order."""
        return list(self._segments)

    def segment_of(self, name: str) -> Segment:
        return self._segment_of[name]

    def names(self) -> list[str]:
        """All subscription names, grouped by segment in segment order."""
        return [name for segment in self._segments for name in segment.members]

    def duplicate_count(self) -> int:
        """Subscriptions that ride another subscription's segment."""
        return len(self._segment_of) - len(self._segments)

    # ------------------------------------------------------------------
    # The combined view
    # ------------------------------------------------------------------
    def combined(self) -> QList:
        """The concatenated QList of every live segment (cached)."""
        if self._combined is None:
            self._combined, self._spans = self.joint(self._segments)
        return self._combined

    def spans(self) -> tuple[tuple[int, int], ...]:
        """Per-segment ``(offset, length)`` inside the combined QList."""
        self.combined()
        assert self._spans is not None
        return self._spans

    @staticmethod
    def joint(segments: list[Segment]) -> tuple[QList, tuple[tuple[int, int], ...]]:
        """``segments``' entries appended end to end, and their spans.

        Of all live segments in order this is :meth:`combined`; of a
        subscribe call's fresh segments it is the one program their
        first evaluation ships.
        """
        entries: list[QEntry] = []
        spans = tuple(
            (append_shifted(entries, segment.qlist), len(segment)) for segment in segments
        )
        source = " + ".join(segment.qlist.source or "?" for segment in segments)
        return QList(entries, source=source), spans

    def plan(self, order: list[str]) -> BatchPlan:
        """A :class:`BatchPlan` view over the current segment table.

        ``order`` fixes the per-query row order (the maintainer passes
        subscription order); the combined QList, spans and answer
        indices come from the live index, so the plan a fresh
        ``plan_batch`` would produce for the same queries evaluates
        identically even when the segment order differs.
        """
        combined = self.combined()
        spans = self.spans()
        segment_index = {id(segment): i for i, segment in enumerate(self._segments)}
        queries = []
        answer_indices = []
        segment_of = []
        for name in order:
            segment = self._segment_of[name]
            index = segment_index[id(segment)]
            queries.append(segment.qlist)
            answer_indices.append(spans[index][0] + segment.answer_index)
            segment_of.append(index)
        return BatchPlan(
            combined=combined,
            queries=tuple(queries),
            answer_indices=tuple(answer_indices),
            segments=spans,
            segment_of=tuple(segment_of),
        )

    # ------------------------------------------------------------------
    # Dirty resolution
    # ------------------------------------------------------------------
    def slices_of(self, combined_triplet: VectorTriplet) -> Iterator[tuple[Segment, VectorTriplet]]:
        """Split one fragment's combined triplet into per-segment slices.

        Each slice is re-based to the segment's own 0-based index
        space, so it compares equal to (and can replace) the triplet a
        standalone evaluation of that segment would produce.
        """
        for (offset, length), segment in zip(self.spans(), self._segments):
            yield segment, combined_triplet.sliced(offset, length)

    def changed_segments(
        self,
        cached: Mapping[SegmentKey, VectorTriplet],
        combined_triplet: VectorTriplet,
    ) -> list[tuple[Segment, VectorTriplet]]:
        """The slices of ``combined_triplet`` that differ from ``cached``.

        ``cached`` maps segment key -> the fragment's previous 0-based
        slice (absent for a fragment new to the decomposition: then
        every slice counts as changed).  Only these slices need to
        cross the network, and only their segments need re-solving.
        """
        changed = []
        for segment, fresh in self.slices_of(combined_triplet):
            if cached.get(segment.key) != fresh:
                changed.append((segment, fresh))
        return changed


__all__ = ["Segment", "SegmentKey", "DirtyIndex"]
