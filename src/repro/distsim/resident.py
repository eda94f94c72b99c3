"""Resident site state: the one protocol behind every remote evaluator.

A *resident* holder (a persistent process-executor worker, a networked
``SiteServer``) is brought to each epoch of a fragment -- the
content-address minted by :meth:`Fragment.bump_epoch` -- **once**:
by its wire form (:meth:`ResidentSiteState.store`) or, when it holds
the epoch a journalled content edit started from, by the edit alone
(:meth:`ResidentSiteState.patch`).  It keeps three things per
fragment: the epoch it holds, the parsed :class:`Fragment`, and its
:class:`~repro.core.bottom_up.GroundLinear` linearization (virtual
leaves included).  Batches ship only ``(fragment_id, epoch)``
references plus the query program; evaluation runs through
:func:`~repro.core.bottom_up.site_bottom_up`, so all fragments
co-located on the holder fold in one site-vectorized pass with shared
compiled programs and per-``(fragment, query)`` base caches -- which a
patch splices rather than drops.  A copy that has been patched also
keeps every node's ``V`` / ``DV`` per query it answers, and a patch
marks them stale along the edited node's root path: the job after an
edit pays for that spine, not for the fragment.

The triplet of a fragment is a function of the fragment's content and
the query alone (the fact the paper's maintenance scheme rests on), so
each resident copy also keeps, *at its epoch*, the finished reply item
of every ``(query, algebra)`` it has answered: a resend against an
unchanged fragment skips the kernel and the encode.  The memo hangs
off the ``(epoch, Fragment, linear)`` entry itself
(:class:`ResidentFragment`), and a new entry is the only way a copy
ever changes (:meth:`ResidentSiteState.install`, ``patch``), so a push,
a patch, a retire or a re-install drops it by construction.  Query
residency is an LRU of :data:`QUERY_CAP` programs; evicting one drops
what every fragment derived from it.

**One request routine.**  Both transports -- the pipe worker and the
site server -- answer an execute request through the same two calls,
and keep only their framing, replies and error mapping for themselves.
:meth:`~ResidentSiteState.accept` resolves the algebra by name, finds
the resident query by fingerprint (:meth:`~ResidentSiteState.ensure_query`),
reads each fragment entry once for the epoch check and the memo
(:meth:`~ResidentSiteState.lookup`) and counts memo hits and misses --
cheap enough for an event loop.  :meth:`~ResidentSiteState.complete`
runs the kernel over whatever the memo left cold, then builds the
replies.  A job referencing an epoch the holder does not have raises
:class:`StaleResidentError` -- typed, with the exact missing ids -- so
dispatchers re-push and retry instead of serving stale answers: the
worker answers ``("stale", missing)``, the server ``unknown-fragment``
or ``stale-fragment``.

The holder's tallies live beside each other and nowhere else:
``kernel_nodes`` (nodes really evaluated, by mode), ``result_counts``
(per-fragment results served from the memo vs evaluated) and
``receive_counts`` (arrivals by push or applied patch per
``(fragment_id, epoch)``, so the differential tests can assert the
each-epoch-arrives-once contract from the holder's side, not just the
dispatcher's model).  The worker's ``stats`` reply and the site
server's registry both read them.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter, OrderedDict
from typing import Sequence

from repro.distsim.executors import ALGEBRAS_BY_NAME
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


class UnknownAlgebraError(ValueError):
    """An execute request named an algebra no holder can rebuild."""


def fragment_digest(fragment: Fragment) -> str:
    """Content digest of a fragment's tree: SHA-1 of its serialized form.

    Lets a test compare a remote holder's copy (``content_digests`` in
    the worker's ``stats`` reply) with the coordinator's fragment
    without shipping either.
    """
    from repro.xmltree.serializer import serialize  # local: import cycle

    return hashlib.sha1(serialize(fragment.root).encode("utf-8")).hexdigest()


def wire_fingerprint(qlist_obj) -> str:
    """Content fingerprint of a QList wire form (lists or tuples alike)."""
    payload = json.dumps(qlist_obj, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def qlist_fingerprint(qlist: QList) -> str:
    """Stable content fingerprint of a QList's wire form (cached on it).

    Resident holders key their query cache on this, so a dispatcher
    can ship the program once and reference it by fingerprint after --
    and two QList objects with identical entries share one resident
    compilation.
    """
    cached = qlist._resident_fingerprint
    if cached is None:
        cached = qlist._resident_fingerprint = wire_fingerprint(qlist.wire_obj())
    return cached


#: Resident query programs per holder (least recently referenced goes
#: first).  Each pins two generated kernels, a leaf memo and, on every
#: fragment, a base list and a results memo; dispatchers resend the
#: wire form with every job, so a re-reference just re-installs.
QUERY_CAP = 128


class ResidentFragment(tuple):
    """One resident copy: ``(epoch, Fragment, GroundLinear)``.

    ``results`` maps ``query -> {algebra type -> (triplet blob,
    nodes_visited)}`` for what this copy, at this epoch, has answered.
    It is reachable through this entry only: replacing the entry --
    the one way a holder's copy changes -- leaves it to the collector.
    """

    def __new__(cls, epoch: int, fragment: Fragment, linear) -> "ResidentFragment":
        self = super().__new__(cls, (epoch, fragment, linear))
        self.results: dict = {}
        return self


class ResidentSiteState:
    """Fragment + query residency of one remote evaluation holder."""

    def __init__(self) -> None:
        #: fragment id -> :class:`ResidentFragment`
        self.fragments: dict[str, ResidentFragment] = {}
        #: query fingerprint -> canonical QList object, LRU-ordered
        self.queries: OrderedDict[str, QList] = OrderedDict()
        #: (fragment_id, epoch) -> arrivals by push or patch (once-per-epoch witness)
        self.receive_counts: Counter = Counter()
        #: Nodes really evaluated, by mode: ``full`` lane pass, ``spine``
        #: recompute, ``open`` symbolic completion (every linearization
        #: of this holder tallies here; unlocked, so an observation --
        #: exact under a single-threaded worker).
        self.kernel_nodes: dict[str, int] = {"full": 0, "spine": 0, "open": 0}
        #: Per-fragment results of accepted requests: served from a
        #: resident copy's memo (``hit``) or left to evaluate (``miss``).
        #: Unlocked and exact: :meth:`accept` runs on the holder's one
        #: dispatching thread (the worker's loop, the server's event loop).
        self.result_counts: dict[str, int] = {"hit": 0, "miss": 0}

    # ------------------------------------------------------------------
    # Residency lifecycle
    # ------------------------------------------------------------------
    def store(self, wires: Sequence[tuple]) -> int:
        """Install fragments from ``(fragment_id, epoch, xml)`` wire triples.

        Parsing and linearization happen here, exactly once per epoch;
        afterwards evaluation never touches XML again.  Returns the
        number of fragments installed.
        """
        from repro.xmltree.parser import parse_xml  # local: import cycle

        for fragment_id, epoch, xml_text in wires:
            fragment = Fragment(fragment_id, parse_xml(xml_text).root)
            fragment.epoch = epoch
            self.install(fragment)
            self.receive_counts[(fragment_id, epoch)] += 1
        return len(wires)

    def install(self, fragment: Fragment) -> None:
        """Make ``fragment`` the resident copy, at its own epoch.

        Every whole-tree replacement goes through here -- a push, or a
        test swapping a site's copy -- so whatever the replaced copy
        had answered goes with it, whether or not the epoch moved.
        """
        from repro.core.bottom_up import linearize  # local: import cycle

        linear = linearize(fragment)
        linear.work = self.kernel_nodes
        self.fragments[fragment.fragment_id] = ResidentFragment(fragment.epoch, fragment, linear)

    def patch(self, patches: Sequence[tuple]) -> int:
        """Bring resident fragments forward by journalled content edits.

        Each patch is ``(fragment_id, base_epoch, new_epoch, edits)``
        with ``edits`` as :meth:`Fragment.apply_edit` takes them.  It is
        applied only to a copy held at exactly ``base_epoch`` -- the
        tree is edited, its linearization (and every per-query list
        cached on it) spliced at the touched range, the retained
        vectors marked stale along the edited spine, and the copy
        stamped ``new_epoch`` under a fresh entry, without the results
        the old epoch had answered.  Any other patch is dropped
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
            self.fragments[fragment_id] = ResidentFragment(new_epoch, fragment, linear)
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

    # ------------------------------------------------------------------
    # Query residency
    # ------------------------------------------------------------------
    def ensure_query(self, fingerprint: str, qlist_obj=None) -> QList:
        """The canonical resident QList for ``fingerprint``.

        The first reference must carry the wire form (``qlist_obj``);
        later references hit the cache, which is what keeps compiled
        entries, ground programs, lane kernels, per-fragment base
        arrays, retained vectors and answered results alive across
        batches.  Beyond :data:`QUERY_CAP` programs the least recently
        referenced one is dropped, with all of those on every fragment.
        """
        qlist = self.queries.get(fingerprint)
        if qlist is not None:
            self.queries.move_to_end(fingerprint)
            return qlist
        if qlist_obj is None:
            raise KeyError(f"unknown resident query {fingerprint!r}")
        qlist = self.queries[fingerprint] = QList.from_obj(qlist_obj)
        qlist._resident_fingerprint = fingerprint  # what qlist_fingerprint would work out
        while len(self.queries) > QUERY_CAP:
            _, evicted = self.queries.popitem(last=False)
            for entry in list(self.fragments.values()):
                entry.results.pop(evicted, None)
                entry[2].forget(evicted)
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
        fragment (or any memo) if one reference cannot be served.
        Returns ``(per-fragment results, busy seconds)`` where each
        result is ``(triplet blob, nodes visited, qlist ops, segment
        ops)`` -- bitwise identical to the per-fragment path, one
        vectorized pass for all fragments that have to be evaluated.

        A fragment whose copy already answered ``qlist`` under this
        algebra at the epoch it still holds is served from that copy's
        memo, and one whose copy was patched since is recomputed along
        the edited spines only: the same blob, the same ``nodes
        visited`` either way.  Those counts (and the ops derived from
        them) are ``bottomUp``'s algorithmic cost for (fragment,
        query), not work performed -- :attr:`kernel_nodes` has that --
        and ``seconds`` stays what the call really spent, so on a warm
        holder it times the lookups.  Only a resident query
        (:meth:`ensure_query`) is memoized, so the memo is bounded like
        query residency is.
        """
        return self.complete(self.lookup(site_id, refs, qlist, algebra), segments)[:2]

    def accept(
        self,
        site_id: str,
        refs: Sequence[tuple],
        fingerprint: str,
        qlist_obj,
        algebra_name: str,
    ) -> tuple:
        """Open an execute request: the one routine both transports call.

        Resolves ``algebra_name`` (:class:`UnknownAlgebraError` if no
        holder can rebuild it), finds the resident query by
        ``fingerprint`` (installing ``qlist_obj`` on first reference),
        reads the memo (:meth:`lookup`, which raises
        :class:`StaleResidentError`) and tallies the hits and misses in
        :attr:`result_counts`.  Returns the pending job for
        :meth:`complete`; its cold indices (``pending[2]``) say whether
        anything is left to evaluate.
        """
        algebra_cls = ALGEBRAS_BY_NAME.get(algebra_name)
        if algebra_cls is None:
            raise UnknownAlgebraError(f"unknown algebra {algebra_name!r}")
        qlist = self.ensure_query(fingerprint, qlist_obj)
        pending = self.lookup(site_id, refs, qlist, algebra_cls())
        cold = len(pending[2])
        self.result_counts["hit"] += len(refs) - cold
        self.result_counts["miss"] += cold
        return pending

    def lookup(self, site_id: str, refs: Sequence[tuple], qlist: QList, algebra) -> tuple:
        """The first half of :meth:`run`: the epoch check and the memo reads.

        Raises :class:`StaleResidentError` as :meth:`run` does.  Returns
        the pending job ``(entries, items, cold, qlist, algebra,
        seconds)`` for :meth:`complete`: the entries read, the memoized
        item per reference (``None`` at the ``cold`` indices) and the
        busy seconds so far.  Cheap enough for an event loop.
        """
        # One read per fragment: the epoch check, the evaluation and
        # the memo all see the same entry, so a concurrent install can
        # neither slip a newer tree under an older reference nor be
        # handed this call's results.  Epochs must match exactly: a
        # copy is never served on its id alone.
        entries = [self.fragments.get(fragment_id) for fragment_id, _ in refs]
        missing = [
            fragment_id
            for (fragment_id, epoch), entry in zip(refs, entries)
            if entry is None or entry[0] != epoch
        ]
        if missing:
            raise StaleResidentError(site_id, missing)
        started = time.thread_time()
        algebra_type = type(algebra)
        items, cold = [], []
        for index, entry in enumerate(entries):
            answered = entry.results.get(qlist)
            item = answered.get(algebra_type) if answered else None
            if item is None:
                cold.append(index)
            items.append(item)
        return entries, items, cold, qlist, algebra, time.thread_time() - started

    def complete(self, pending: tuple, segments: tuple = ()) -> tuple[tuple, float, int]:
        """The second half of :meth:`run`: evaluate what :meth:`lookup` left cold.

        Runs the kernel over the cold entries only, memoizes their
        items (for a resident query) and builds the result tuples.
        Returns ``(results, busy seconds of both halves, memo hits)``.
        """
        from repro.core.bottom_up import site_bottom_up  # local: import cycle

        entries, items, cold, qlist, algebra, seconds = pending
        started = time.thread_time()
        if cold:
            resident_query = self.queries.get(qlist._resident_fingerprint) is qlist
            evaluated = site_bottom_up(
                [entries[index][1:] for index in cold], qlist, algebra
            )
            for index, (triplet, nodes) in zip(cold, evaluated):
                items[index] = (triplet.to_blob(), nodes)
                if resident_query:
                    entries[index].results.setdefault(qlist, {})[type(algebra)] = items[index]
        n = len(qlist)
        results = tuple(
            (blob, nodes, nodes * n, tuple(nodes * length for _, length in segments))
            for blob, nodes in items
        )
        seconds += time.thread_time() - started
        return results, seconds, len(items) - len(cold)


__all__ = [
    "QUERY_CAP",
    "ResidentFragment",
    "ResidentSiteState",
    "StaleResidentError",
    "UnknownAlgebraError",
    "fragment_digest",
    "qlist_fingerprint",
    "wire_fingerprint",
]
