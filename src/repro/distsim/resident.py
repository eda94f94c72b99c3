"""Resident site state: the one protocol behind every remote evaluator.

A *resident* holder (a persistent process-executor worker, a networked
``SiteServer``) is brought to each epoch of a fragment -- the
content-address minted by :meth:`Fragment.bump_epoch` -- **once**:
by its wire form (:meth:`ResidentSiteState.store`) or, when it holds
the epoch a journalled content edit started from, by the edit alone
(:meth:`ResidentSiteState.patch`).  It keeps three things per
fragment: the epoch it holds, the parsed :class:`Fragment`, and its
:class:`~repro.core.bottom_up.GroundLinear` linearization (``None``
for fragments with virtual nodes).  Batches ship only ``(fragment_id,
epoch)`` references plus the query program; evaluation runs through
:func:`~repro.core.bottom_up.site_bottom_up`, so all ground fragments
co-located on the holder fold in one site-vectorized pass with shared
compiled programs and per-``(fragment, query)`` base caches -- which a
patch splices rather than drops.

A job referencing an epoch the holder does not have raises
:class:`StaleResidentError` -- typed, with the exact missing ids -- so
dispatchers re-push and retry instead of serving stale answers.  This
is the in-process mirror of the serving tier's ``unknown-fragment`` /
``stale-fragment`` self-heal, and both tiers run through this class.

``receive_counts`` tracks arrivals (pushes and applied patches) per
``(fragment_id, epoch)`` so the differential tests can assert the
each-epoch-arrives-once contract from the holder's side, not just the
dispatcher's model.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from typing import Optional, Sequence

from repro.fragments.fragment import Fragment
from repro.xpath.qlist import QList


class StaleResidentError(RuntimeError):
    """A job referenced fragments this holder lacks or holds stale.

    Recoverable by construction: ``missing`` names exactly the
    fragments whose wire form must be (re-)pushed before the retry.
    Raised when a holder missed an invalidation -- a ``MoveFragment``
    re-homing the fragment, a ``SplitFragment``/``MergeFragment``
    rewriting it, or any content edit bumping its epoch.
    """

    def __init__(self, site_id: str, missing: Sequence[str]) -> None:
        self.site_id = site_id
        self.missing = tuple(missing)
        super().__init__(
            f"site {site_id}: resident state is missing or stale for "
            f"fragment(s) {sorted(self.missing)}"
        )


def fragment_digest(fragment: Fragment) -> str:
    """Content digest of a fragment's tree: SHA-1 of its serialized form.

    Lets a test compare a remote holder's copy (``content_digests`` in
    the worker's ``stats`` reply) with the coordinator's fragment
    without shipping either.
    """
    from repro.xmltree.serializer import serialize  # local: import cycle

    return hashlib.sha1(serialize(fragment.root).encode("utf-8")).hexdigest()


def qlist_fingerprint(qlist: QList) -> str:
    """Stable content fingerprint of a QList's wire form (cached on it).

    Resident holders key their query cache on this, so a dispatcher
    can ship the program once and reference it by fingerprint after --
    and two QList objects with identical entries share one resident
    compilation.
    """
    cached = getattr(qlist, "_resident_fingerprint", None)
    if cached is None:
        payload = json.dumps(qlist.to_obj(), separators=(",", ":"))
        cached = hashlib.sha1(payload.encode("utf-8")).hexdigest()
        try:
            qlist._resident_fingerprint = cached
        except AttributeError:
            pass
    return cached


class ResidentSiteState:
    """Fragment + query residency of one remote evaluation holder."""

    def __init__(self) -> None:
        #: fragment id -> (epoch, Fragment, GroundLinear | None)
        self.fragments: dict[str, tuple] = {}
        #: query fingerprint -> canonical QList object
        self.queries: dict[str, QList] = {}
        #: (fragment_id, epoch) -> arrivals by push or patch (once-per-epoch witness)
        self.receive_counts: Counter = Counter()

    # ------------------------------------------------------------------
    # Residency lifecycle
    # ------------------------------------------------------------------
    def store(self, wires: Sequence[tuple]) -> int:
        """Install fragments from ``(fragment_id, epoch, xml)`` wire triples.

        Parsing and linearization happen here, exactly once per epoch;
        afterwards evaluation never touches XML again.  Returns the
        number of fragments installed.
        """
        from repro.core.bottom_up import linearize_ground  # local: import cycle
        from repro.xmltree.parser import parse_xml  # local: import cycle

        for fragment_id, epoch, xml_text in wires:
            fragment = Fragment(fragment_id, parse_xml(xml_text).root)
            fragment.epoch = epoch
            self.fragments[fragment_id] = (epoch, fragment, linearize_ground(fragment))
            self.receive_counts[(fragment_id, epoch)] += 1
        return len(wires)

    def patch(self, patches: Sequence[tuple]) -> int:
        """Bring resident fragments forward by journalled content edits.

        Each patch is ``(fragment_id, base_epoch, new_epoch, edits)``
        with ``edits`` as :meth:`Fragment.apply_edit` takes them.  It is
        applied only to a copy held at exactly ``base_epoch`` -- the
        tree is edited, a ground fragment's linearization (and every
        per-query base list cached on it) spliced at the touched range,
        and the copy stamped ``new_epoch``.  Any other patch is dropped
        untouched: the job that follows references ``new_epoch``, draws
        :class:`StaleResidentError` and is healed by a full push.
        Returns the number of patches applied.
        """
        applied = 0
        for fragment_id, base_epoch, new_epoch, edits in patches:
            entry = self.fragments.get(fragment_id)
            if entry is None or entry[0] != base_epoch:
                continue
            _, fragment, linear = entry
            reshaped = False
            for edit in edits:
                kind, postorder = edit[0], edit[2]
                node = fragment.apply_edit(edit)
                if linear is None:
                    continue
                if kind == "set":
                    linear.relabel(postorder, node.label, node.text)
                elif kind == "ins":
                    linear.insert_leaf(postorder, node.label, node.text)
                    reshaped = True
                else:  # "del": ``node`` is the detached subtree's root
                    linear.delete_subtree(postorder, sum(1 for _ in node.iter_subtree()))
                    reshaped = True
            if reshaped:
                linear.relevel()
            fragment.epoch = new_epoch
            self.fragments[fragment_id] = (new_epoch, fragment, linear)
            self.receive_counts[(fragment_id, new_epoch)] += 1
            applied += 1
        return applied

    def retire(self, fragment_ids: Sequence[str]) -> int:
        """Drop resident fragments; returns how many were actually held."""
        dropped = 0
        for fragment_id in fragment_ids:
            if self.fragments.pop(fragment_id, None) is not None:
                dropped += 1
        return dropped

    def resident_epochs(self) -> dict[str, int]:
        """Live ``fragment_id -> epoch`` view (leak checks, debugging)."""
        return {fid: entry[0] for fid, entry in self.fragments.items()}

    def content_digests(self) -> dict[str, str]:
        """``fragment_id -> fragment_digest`` of every resident tree."""
        return {fid: fragment_digest(entry[1]) for fid, entry in self.fragments.items()}

    def missing_for(self, refs: Sequence[tuple]) -> list[str]:
        """Which ``(fragment_id, epoch)`` references this holder cannot serve.

        Epochs must match exactly: a copy is never served on its id alone.
        """
        missing = []
        for fragment_id, epoch in refs:
            entry = self.fragments.get(fragment_id)
            if entry is None or entry[0] != epoch:
                missing.append(fragment_id)
        return missing

    # ------------------------------------------------------------------
    # Query residency
    # ------------------------------------------------------------------
    def ensure_query(self, fingerprint: str, qlist_obj=None) -> QList:
        """The canonical resident QList for ``fingerprint``.

        The first reference must carry the wire form (``qlist_obj``);
        later references hit the cache, which is what keeps compiled
        entries, ground programs, lane kernels and per-fragment base
        arrays alive across batches.
        """
        qlist = self.queries.get(fingerprint)
        if qlist is None:
            if qlist_obj is None:
                raise KeyError(f"unknown resident query {fingerprint!r}")
            qlist = QList.from_obj(qlist_obj)
            self.queries[fingerprint] = qlist
        return qlist

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        site_id: str,
        refs: Sequence[tuple],
        qlist: QList,
        algebra,
        segments: tuple = (),
    ) -> tuple[tuple, float]:
        """Evaluate resident fragments; results in wire form.

        ``refs`` is the ordered ``(fragment_id, epoch)`` list of the
        job; raises :class:`StaleResidentError` before touching any
        fragment if one reference cannot be served.  Returns
        ``(per-fragment results, busy seconds)`` where each result is
        ``(compact triplet, nodes visited, qlist ops, segment ops)`` --
        bitwise identical to the per-fragment path, one vectorized
        pass for all ground fragments.
        """
        from repro.core.bottom_up import site_bottom_up  # local: import cycle

        missing = self.missing_for(refs)
        if missing:
            raise StaleResidentError(site_id, missing)
        residents = [
            (entry[1], entry[2])
            for entry in (self.fragments[fragment_id] for fragment_id, _ in refs)
        ]
        n = len(qlist)
        started = time.thread_time()
        evaluated = site_bottom_up(residents, qlist, algebra)
        results = tuple(
            (
                triplet.to_compact(),
                nodes,
                nodes * n,
                tuple(nodes * length for _, length in segments),
            )
            for triplet, nodes in evaluated
        )
        seconds = time.thread_time() - started
        return results, seconds


__all__ = [
    "ResidentSiteState",
    "StaleResidentError",
    "fragment_digest",
    "qlist_fingerprint",
]
