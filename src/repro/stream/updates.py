"""The typed update log: what publishers do to a fragmented document.

The paper's Section 5 names four update operations -- ``insNode``,
``delNode``, ``splitFragments``, ``mergeFragments`` -- and proves that
maintenance after any of them is local to the touched fragments.  This
module turns them (plus a ``relabel`` content edit and a
``moveFragments`` placement change, the natural fifth and sixth) into
*value objects* so that an update stream can be generated, logged,
replayed and batch-applied:

* every op is a frozen dataclass naming its target fragment and (where
  needed) a node by its stable ``node_id``;
* :meth:`UpdateOp.apply` mutates the cluster and returns an
  :class:`UpdateEffect` -- which fragments are now dirty, which were
  created or removed, and which fragment data *migrated* between sites
  (a :class:`Migration` per cross-site shipment, so the maintainer can
  meter rebalancing traffic without re-deriving it);
* :func:`apply_updates` applies a whole batch in order and folds the
  effects into one :class:`AppliedBatch`, the input the
  :class:`~repro.stream.maintainer.StreamMaintainer` maintains from.

:class:`MoveFragment` is the op the placement optimizer
(:mod:`repro.placement`) emits alongside split/merge: it re-assigns one
fragment to another site.  Content, triplets and standing answers are
untouched by a move -- only the placement (and therefore future cost)
changes -- so a move dirties nothing; what it *does* produce is a
:class:`Migration` whose byte cost the maintainer charges as
``MSG_MIGRATE`` traffic.  Splits that target another site and merges
whose endpoints live on different sites migrate data the same way.

Node addressing uses ``node_id`` (not child-index paths) deliberately:
ids are stable under sibling insertion/deletion, so ops inside one
batch cannot invalidate each other's targets unless one genuinely
deletes the other's node -- which :func:`apply_updates` reports as the
error it is.  A ``node_id`` is process-local, though, so at apply time
each content op (``insNode``/``delNode``/``relabel``) resolves it to a
*position* in the scan that finds the node anyway, makes the edit in
position-addressed form (:meth:`Fragment.apply_edit`) and journals it
with the epoch bump (:meth:`Fragment.bump_epoch`): that edit, not the
fragment, is what a resident holder of the previous epoch is sent.

Checked by ``tests/test_stream_updates.py`` (per-op semantics, batch
folding, mid-batch failure contract), ``tests/test_placement.py``
(``MoveFragment`` migrates without dirtying) and the property suites
``tests/test_stream_maintainer.py`` /
``tests/test_rebalance_properties.py`` (random op streams, incremental
== from-scratch bitwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.distsim.cluster import Cluster
from repro.xmltree.node import XMLNode


class UpdateError(ValueError):
    """Raised when an update op cannot be applied to the cluster.

    When raised from :func:`apply_updates`, the ``applied`` attribute
    holds the :class:`AppliedBatch` of the ops that *did* apply before
    the failure (the document is already mutated by them).
    """

    applied: "AppliedBatch | None" = None


@dataclass(frozen=True)
class Migration:
    """One cross-site fragment-data shipment caused by an update op."""

    fragment_id: str
    origin: str
    target: str
    nbytes: int


@dataclass(frozen=True)
class UpdateEffect:
    """What one applied op did to the decomposition."""

    op: "UpdateOp"
    dirty: tuple[str, ...]
    created: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    migrated: tuple[Migration, ...] = ()


def _locate(
    cluster: Cluster, fragment_id: str, node_id: int
) -> tuple[XMLNode, tuple[int, ...], int]:
    """The op's target node and its position (see :meth:`Fragment.locate`)."""
    if fragment_id not in cluster.fragmented_tree.fragments:
        raise UpdateError(f"unknown fragment {fragment_id!r}")
    try:
        return cluster.fragment(fragment_id).locate(node_id)
    except KeyError:
        raise UpdateError(
            f"node {node_id} not found in fragment {fragment_id} "
            "(deleted earlier in the batch?)"
        ) from None


def _edit(cluster: Cluster, fragment_id: str, edit: tuple) -> None:
    """Make a content edit and journal it as the link to the new epoch."""
    fragment = cluster.fragment(fragment_id)
    fragment.apply_edit(edit)
    fragment.bump_epoch(edit)


class UpdateOp:
    """Base class: one edit against one fragment of the cluster."""

    fragment_id: str

    def apply(self, cluster: Cluster) -> UpdateEffect:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class InsNode(UpdateOp):
    """``insNode(A, v)``: attach a fresh leaf under ``parent_node_id``."""

    fragment_id: str
    parent_node_id: int
    label: str
    text: Optional[str] = None

    def apply(self, cluster: Cluster) -> UpdateEffect:
        parent, path, postorder = _locate(cluster, self.fragment_id, self.parent_node_id)
        if parent.is_virtual:
            raise UpdateError("cannot insert under a virtual node")
        _edit(cluster, self.fragment_id, ("ins", path, postorder, self.label, self.text))
        return UpdateEffect(self, dirty=(self.fragment_id,))

    def describe(self) -> str:
        return f"ins {self.label!r} under node {self.parent_node_id} of {self.fragment_id}"


@dataclass(frozen=True)
class DelNode(UpdateOp):
    """``delNode(v)``: detach the subtree rooted at ``node_id``."""

    fragment_id: str
    node_id: int

    def apply(self, cluster: Cluster) -> UpdateEffect:
        node, path, postorder = _locate(cluster, self.fragment_id, self.node_id)
        if node is cluster.fragment(self.fragment_id).root:
            raise UpdateError("cannot delete a fragment's root")
        if any(sub.is_virtual for sub in node.iter_subtree()):
            # Deleting a subtree holding virtual leaves would orphan
            # whole sub-fragments; merge them back first.
            raise UpdateError("subtree contains virtual nodes; mergeFragments first")
        _edit(cluster, self.fragment_id, ("del", path, postorder))
        return UpdateEffect(self, dirty=(self.fragment_id,))

    def describe(self) -> str:
        return f"del node {self.node_id} of {self.fragment_id}"


@dataclass(frozen=True)
class Relabel(UpdateOp):
    """Edit a node's label and/or text in place (content update)."""

    fragment_id: str
    node_id: int
    label: Optional[str] = None
    text: Optional[str] = None

    def apply(self, cluster: Cluster) -> UpdateEffect:
        node, path, postorder = _locate(cluster, self.fragment_id, self.node_id)
        if node.is_virtual:
            raise UpdateError("cannot relabel a virtual node")
        _edit(cluster, self.fragment_id, ("set", path, postorder, self.label, self.text))
        return UpdateEffect(self, dirty=(self.fragment_id,))

    def describe(self) -> str:
        parts = []
        if self.label is not None:
            parts.append(f"label={self.label!r}")
        if self.text is not None:
            parts.append(f"text={self.text!r}")
        return f"relabel node {self.node_id} of {self.fragment_id} ({', '.join(parts)})"


@dataclass(frozen=True)
class SplitFragment(UpdateOp):
    """``splitFragments(v)``: carve a new fragment out at ``node_id``."""

    fragment_id: str
    node_id: int
    new_fragment_id: Optional[str] = None
    target_site: Optional[str] = None

    def apply(self, cluster: Cluster) -> UpdateEffect:
        node = _locate(cluster, self.fragment_id, self.node_id)[0]
        origin = cluster.site_of(self.fragment_id)
        new_id = cluster.split_fragment(
            self.fragment_id, node, self.new_fragment_id, self.target_site
        )
        migrated: tuple[Migration, ...] = ()
        destination = cluster.site_of(new_id)
        if destination != origin:
            # The carved-out subtree physically leaves the origin site.
            migrated = (
                Migration(
                    new_id, origin, destination, cluster.fragment(new_id).wire_bytes()
                ),
            )
        return UpdateEffect(
            self, dirty=(self.fragment_id, new_id), created=(new_id,), migrated=migrated
        )

    def describe(self) -> str:
        suffix = f" -> {self.target_site}" if self.target_site else ""
        return f"split {self.fragment_id} at node {self.node_id}{suffix}"


@dataclass(frozen=True)
class MergeFragment(UpdateOp):
    """``mergeFragments(v)``: absorb ``child_fragment_id`` back."""

    fragment_id: str
    child_fragment_id: str

    def apply(self, cluster: Cluster) -> UpdateEffect:
        if self.fragment_id not in cluster.fragmented_tree.fragments:
            raise UpdateError(f"unknown fragment {self.fragment_id!r}")
        fragment = cluster.fragment(self.fragment_id)
        virtual = next(
            (
                node
                for node in fragment.virtual_nodes()
                if node.fragment_ref == self.child_fragment_id
            ),
            None,
        )
        if virtual is None:
            raise UpdateError(
                f"{self.child_fragment_id!r} is not a sub-fragment of {self.fragment_id!r}"
            )
        parent_site = cluster.site_of(self.fragment_id)
        child_site = cluster.site_of(self.child_fragment_id)
        migrated: tuple[Migration, ...] = ()
        if child_site != parent_site:
            # The absorbed data physically moves to the parent's site.
            migrated = (
                Migration(
                    self.child_fragment_id,
                    child_site,
                    parent_site,
                    cluster.fragment(self.child_fragment_id).wire_bytes(),
                ),
            )
        absorbed = cluster.merge_fragment(self.fragment_id, virtual)
        assert absorbed == self.child_fragment_id
        return UpdateEffect(
            self, dirty=(self.fragment_id,), removed=(absorbed,), migrated=migrated
        )

    def describe(self) -> str:
        return f"merge {self.child_fragment_id} back into {self.fragment_id}"


@dataclass(frozen=True)
class MoveFragment(UpdateOp):
    """``moveFragments(F, S)``: re-assign a fragment to another site.

    The rebalancing primitive: fragment content is untouched, so the
    cached triplets and every standing answer stay valid -- nothing is
    dirtied.  What changes is the placement (and with it the source
    tree and all future evaluation/maintenance costs), plus a one-off
    :class:`Migration` of the fragment's wire bytes when the target
    really is a different site.  Moving to the current site is the
    paper-style no-op: empty effect.
    """

    fragment_id: str
    target_site: str

    def apply(self, cluster: Cluster) -> UpdateEffect:
        if self.fragment_id not in cluster.fragmented_tree.fragments:
            raise UpdateError(f"unknown fragment {self.fragment_id!r}")
        origin = cluster.site_of(self.fragment_id)
        if origin == self.target_site:
            return UpdateEffect(self, dirty=())
        nbytes = cluster.fragment(self.fragment_id).wire_bytes()
        cluster.move_fragment(self.fragment_id, self.target_site)
        return UpdateEffect(
            self,
            dirty=(),
            migrated=(Migration(self.fragment_id, origin, self.target_site, nbytes),),
        )

    def describe(self) -> str:
        return f"move {self.fragment_id} to {self.target_site}"


#: The ops that change the decomposition or placement (not just content).
STRUCTURAL_OPS = (SplitFragment, MergeFragment, MoveFragment)


@dataclass(frozen=True)
class AppliedBatch:
    """The folded effect of one update batch, in application order."""

    effects: tuple[UpdateEffect, ...]
    dirty: tuple[str, ...]  # fragments needing re-evaluation (still alive)
    created: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    structural: bool = field(default=False)
    migrations: tuple[Migration, ...] = ()

    def __len__(self) -> int:
        return len(self.effects)

    @property
    def migration_bytes(self) -> int:
        """Total fragment data the batch shipped between sites."""
        return sum(migration.nbytes for migration in self.migrations)


def apply_updates(cluster: Cluster, ops: Sequence[UpdateOp]) -> AppliedBatch:
    """Apply a batch of ops in order; fold their effects.

    ``dirty`` lists every fragment whose content (or virtual-leaf
    structure) changed and that still exists after the batch, in
    first-touch order -- the set of fragments whose sites must re-run
    ``bottomUp``.  Fragments removed mid-batch (merges) drop out of the
    dirty set; fragments created mid-batch (splits) join it.

    Ops apply in order with no rollback (a real site applies edits as
    they arrive).  When one fails, the earlier ops *have already
    mutated the document*: the raised :class:`UpdateError` carries the
    partial fold as ``error.applied`` so a maintainer can still refresh
    the fragments the half-batch dirtied.
    """
    effects: list[UpdateEffect] = []
    dirty: dict[str, None] = {}
    created: dict[str, None] = {}
    removed: dict[str, None] = {}
    migrations: list[Migration] = []
    structural = False
    for op in ops:
        try:
            effect = op.apply(cluster)
        except UpdateError as error:
            error.applied = AppliedBatch(
                effects=tuple(effects),
                dirty=tuple(dirty),
                created=tuple(created),
                removed=tuple(removed),
                structural=structural,
                migrations=tuple(migrations),
            )
            raise
        effects.append(effect)
        structural = structural or isinstance(op, STRUCTURAL_OPS)
        migrations.extend(effect.migrated)
        for fragment_id in effect.dirty:
            dirty.setdefault(fragment_id)
        for fragment_id in effect.created:
            created.setdefault(fragment_id)
        for fragment_id in effect.removed:
            dirty.pop(fragment_id, None)
            if fragment_id in created:
                del created[fragment_id]
            else:
                removed.setdefault(fragment_id)
    return AppliedBatch(
        effects=tuple(effects),
        dirty=tuple(dirty),
        created=tuple(created),
        removed=tuple(removed),
        structural=structural,
        migrations=tuple(migrations),
    )


__all__ = [
    "UpdateOp",
    "InsNode",
    "DelNode",
    "Relabel",
    "SplitFragment",
    "MergeFragment",
    "MoveFragment",
    "Migration",
    "UpdateEffect",
    "AppliedBatch",
    "apply_updates",
    "UpdateError",
    "STRUCTURAL_OPS",
]
