"""Fragments and fragmented trees.

The decomposition model follows the paper exactly: fragments are
disjoint subtrees of the original document; where a sub-fragment was cut
out, the parent fragment keeps a **virtual node** whose ``fragment_ref``
names it.  No constraint is placed on nesting depth, fragment sizes or
the number of fragments ("our fragmentation setting is the most generic
possible").
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Optional

from repro.xmltree.node import XMLNode
from repro.xmltree.serializer import estimated_wire_bytes
from repro.xmltree.tree import XMLTree


class FragmentationError(ValueError):
    """Raised for inconsistent fragment structures."""


#: Process-wide epoch token source.  Tokens are opaque and globally
#: unique, so two distinct fragments (even with the same id, from
#: different clusters) never share one -- resident-state holders that
#: key on ``(fragment_id, epoch)`` are therefore content-addressed.
_epochs = itertools.count(1)

#: Longest chain of content edits a fragment remembers.  A holder
#: further behind than this is re-shipped in full: replaying more edits
#: costs about what re-parsing the fragment does, and the bound keeps
#: the journal's memory independent of the stream's length.
JOURNAL_CAP = 32


class Fragment:
    """One fragment: an id plus a subtree whose leaves may be virtual."""

    def __init__(self, fragment_id: str, root: XMLNode) -> None:
        if root.is_virtual:
            raise FragmentationError("a fragment root cannot be virtual")
        self.fragment_id = fragment_id
        self.root = root
        self.epoch: int = next(_epochs)
        #: ``(base_epoch, edit)`` links, oldest first and contiguous: the
        #: last link leads to :attr:`epoch`, each earlier one to the
        #: next link's base.
        self._journal: deque = deque(maxlen=JOURNAL_CAP)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def virtual_nodes(self) -> list[XMLNode]:
        """The virtual leaves, in document order."""
        return [node for node in self.root.iter_subtree() if node.is_virtual]

    def sub_fragment_ids(self) -> list[str]:
        """Ids of direct sub-fragments, in document order.

        This is the paper's ``F_j`` (the sub-fragments of fragment
        ``F_j``); ``len(...)`` is ``card(F_j)``.
        """
        return [node.fragment_ref for node in self.virtual_nodes() if node.fragment_ref]

    def node_by_id(self, node_id: int) -> XMLNode:
        """Find a node of this fragment by id (linear scan)."""
        for node in self.root.iter_subtree():
            if node.node_id == node_id:
                return node
        raise KeyError(f"node {node_id} not in fragment {self.fragment_id}")

    def locate(self, node_id: int) -> tuple[XMLNode, tuple[int, ...], int]:
        """Find a node by id, with its position: ``(node, path, postorder)``.

        ``node_id`` is process-local; the position is what survives the
        wire.  ``path`` is the child-index path from the root (a holder
        walks it down its own copy of the tree) and ``postorder`` the
        node's index in ``root.iter_postorder()`` (virtual leaves
        counted), which addresses the same node in a
        :class:`~repro.core.bottom_up.GroundLinear`.
        """
        for preorder, node in enumerate(self.root.iter_subtree()):
            if node.node_id == node_id:
                break
        else:
            raise KeyError(f"node {node_id} not in fragment {self.fragment_id}")
        path = []
        current = node
        while current is not self.root:
            path.append(current.parent.children.index(current))
            current = current.parent
        # Postorder puts before a node what document order does, minus
        # its ancestors (they follow it), plus its own descendants.
        descendants = sum(1 for _ in node.iter_subtree()) - 1
        postorder = preorder - len(path) + descendants
        return node, tuple(reversed(path)), postorder

    def apply_edit(self, edit: tuple) -> XMLNode:
        """Apply one position-addressed content edit to this fragment's tree.

        The one implementation behind both ends of a patch: the typed
        content ops mutate the coordinator's fragment through it and a
        resident holder replays the same tuple on its copy.  An edit is
        ``(kind, path, postorder, ...)`` with ``path``/``postorder`` as
        :meth:`locate` returns them, taken *before* the edit:

        * ``("set", path, postorder, label, text)`` -- relabel the node
          (``None`` keeps the label / the text);
        * ``("ins", path, postorder, label, text)`` -- append a fresh
          leaf under the node (which lands at ``postorder``, pushing
          its parent to ``postorder + 1``);
        * ``("del", path, postorder)`` -- detach the node's subtree.

        Returns the node relabelled, inserted or detached.  Touches
        neither the epoch nor the journal; see :meth:`bump_epoch`.
        """
        kind = edit[0]
        node = self.root
        for index in edit[1]:
            node = node.children[index]
        if kind == "set":
            label, text = edit[3], edit[4]
            if label is not None:
                node.label = label
            if text is not None:
                node.text = text
            return node
        if kind == "ins":
            return node.add_child(XMLNode(edit[3], text=edit[4]))
        if kind == "del":
            return node.detach()
        raise ValueError(f"unknown edit kind {kind!r}")

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of non-virtual nodes (the paper's |F_j|)."""
        return self.root.subtree_size()

    def wire_bytes(self) -> int:
        """Byte cost of shipping this fragment over the network."""
        return estimated_wire_bytes(self.root)

    def bump_epoch(self, edit: Optional[tuple] = None) -> int:
        """Mark this fragment's content as changed.

        Every mutation path that edits fragment content (typed update
        ops, cluster split/merge, out-of-band ``refresh``) calls this;
        resident-state holders compare epochs to decide whether their
        cached copy is still the live one.

        A typed content op passes the position-addressed ``edit`` it
        just made (see :mod:`repro.stream.updates`), which is journalled
        as the link from the old epoch to the new one so a holder of the
        old epoch can be patched instead of re-shipped.  A bump without
        an edit (split/merge, out-of-band ``refresh``) says "changed,
        no telling how" and breaks the chain.
        """
        if edit is None:
            self._journal.clear()
        else:
            self._journal.append((self.epoch, edit))
        self.epoch = next(_epochs)
        return self.epoch

    def edits_since(self, epoch: Optional[int]) -> Optional[tuple]:
        """The edits leading from ``epoch`` to the live epoch, in order.

        ``None`` when ``epoch`` is not on the journalled chain -- the
        chain was broken since, or the holder is more than
        :data:`JOURNAL_CAP` edits behind -- and only a full re-ship
        brings its holder up to date.
        """
        if epoch == self.epoch:
            return ()
        for index, (base_epoch, _edit) in enumerate(self._journal):
            if base_epoch == epoch:
                return tuple(
                    edit for _base, edit in itertools.islice(self._journal, index, None)
                )
        return None

    def deep_copy(self) -> "Fragment":
        """Independent copy (fresh node ids, fresh epoch)."""
        return Fragment(self.fragment_id, self.root.deep_copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fragment {self.fragment_id} size={self.size()} subs={self.sub_fragment_ids()}>"


class FragmentedTree:
    """A complete decomposition: fragment store + fragment-tree shape.

    Invariants checked at construction and after every mutation:

    * exactly one root fragment;
    * every virtual node references an existing fragment;
    * every non-root fragment is referenced by exactly one virtual node;
    * the reference relation is acyclic (a tree).
    """

    def __init__(self, fragments: dict[str, Fragment], root_fragment_id: str) -> None:
        self.fragments = dict(fragments)
        self.root_fragment_id = root_fragment_id
        self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.root_fragment_id not in self.fragments:
            raise FragmentationError(f"missing root fragment {self.root_fragment_id!r}")
        referenced: dict[str, str] = {}
        for fragment in self.fragments.values():
            for sub_id in fragment.sub_fragment_ids():
                if sub_id not in self.fragments:
                    raise FragmentationError(
                        f"fragment {fragment.fragment_id} references unknown {sub_id!r}"
                    )
                if sub_id in referenced:
                    raise FragmentationError(f"fragment {sub_id!r} referenced twice")
                if sub_id == self.root_fragment_id:
                    raise FragmentationError("the root fragment cannot be referenced")
                referenced[sub_id] = fragment.fragment_id
        for fragment_id in self.fragments:
            if fragment_id != self.root_fragment_id and fragment_id not in referenced:
                raise FragmentationError(f"fragment {fragment_id!r} is unreachable")
        self._parents = referenced

    # ------------------------------------------------------------------
    # Fragment-tree relations (Fig. 2(b), left)
    # ------------------------------------------------------------------
    def parent_of(self, fragment_id: str) -> Optional[str]:
        """Parent fragment id, or None for the root fragment."""
        if fragment_id == self.root_fragment_id:
            return None
        return self._parents[fragment_id]

    def children_of(self, fragment_id: str) -> list[str]:
        """Direct sub-fragment ids in document order."""
        return self.fragments[fragment_id].sub_fragment_ids()

    def depth_of(self, fragment_id: str) -> int:
        """Distance (in fragment-tree edges) from the root fragment."""
        depth = 0
        current: Optional[str] = fragment_id
        while True:
            current = self.parent_of(current)  # type: ignore[arg-type]
            if current is None:
                return depth
            depth += 1

    def iter_depth_first(self) -> Iterator[str]:
        """Fragment ids in pre-order over the fragment tree."""
        stack = [self.root_fragment_id]
        while stack:
            fragment_id = stack.pop()
            yield fragment_id
            stack.extend(reversed(self.children_of(fragment_id)))

    def _depths(self) -> dict[str, int]:
        """Every fragment's depth, in pre-order: one O(|F|) pass.

        Computed per call, not kept: splits and merges change the
        decomposition.  Walks the validated parent map (which lists
        each fragment's children in document order) rather than
        :meth:`children_of`, which scans a fragment's nodes.
        """
        children: dict[str, list[str]] = {}
        for child, parent in self._parents.items():
            children.setdefault(parent, []).append(child)
        depths: dict[str, int] = {}
        stack = [(self.root_fragment_id, 0)]
        while stack:
            fragment_id, depth = stack.pop()
            depths[fragment_id] = depth
            stack.extend((child, depth + 1) for child in reversed(children.get(fragment_id, ())))
        return depths

    def fragments_at_depth(self, depth: int) -> list[str]:
        """All fragment ids at the given fragment-tree depth."""
        return [fid for fid, at in self._depths().items() if at == depth]

    def max_depth(self) -> int:
        """Depth of the deepest fragment."""
        return max(self._depths().values())

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def card(self) -> int:
        """``card(F)``: the number of fragments."""
        return len(self.fragments)

    def total_size(self) -> int:
        """Total number of non-virtual nodes across fragments (|T|)."""
        return sum(fragment.size() for fragment in self.fragments.values())

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def stitch(self) -> XMLTree:
        """Reassemble the original document (on copies; non-destructive)."""
        root_copy = self._stitch_fragment(self.root_fragment_id)
        return XMLTree(root_copy)

    def _stitch_fragment(self, fragment_id: str) -> XMLNode:
        copy = self.fragments[fragment_id].root.deep_copy()
        # Replace virtual leaves by stitched sub-fragments.
        for node in list(copy.iter_subtree()):
            if node.is_virtual and node.fragment_ref:
                node.replace_with(self._stitch_fragment(node.fragment_ref))
        return copy

    def deep_copy(self) -> "FragmentedTree":
        """Independent copy of the whole decomposition."""
        copies = {fid: fragment.deep_copy() for fid, fragment in self.fragments.items()}
        return FragmentedTree(copies, self.root_fragment_id)

    def revalidate(self) -> None:
        """Re-check invariants after in-place mutation (split/merge)."""
        self._validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FragmentedTree card={self.card()} size={self.total_size()} "
            f"root={self.root_fragment_id}>"
        )


__all__ = ["Fragment", "FragmentedTree", "FragmentationError", "JOURNAL_CAP"]
