"""Placement and the source tree (paper, Section 2.1 / Fig. 2(b)).

The *placement* is the paper's mapping function ``h`` assigning each
fragment to a site.  The *source tree* ``S_T`` is the fragment tree
relabelled by ``h``; it is **the only structure the evaluation and
maintenance algorithms require** -- they never inspect fragment contents
beyond what the sites report.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.fragments.fragment import FragmentedTree


class Placement:
    """The assignment ``h: fragment id -> site id``.

    Alongside the forward map a reverse index ``site id -> fragment
    ids`` is maintained on every mutation, so :meth:`fragments_of` and
    :meth:`sites` are dictionary lookups rather than full scans (the
    stream maintainer resolves every site's fragment list when a new
    subscription's segment is first evaluated).
    """

    def __init__(self, assignment: dict[str, str]) -> None:
        self._assignment: dict[str, str] = {}
        self._by_site: dict[str, dict[str, None]] = {}
        for fragment_id, site_id in assignment.items():
            self.assign(fragment_id, site_id)

    def site_of(self, fragment_id: str) -> str:
        """The site storing ``fragment_id``."""
        return self._assignment[fragment_id]

    def assign(self, fragment_id: str, site_id: str) -> None:
        """Add or move a fragment's assignment."""
        previous = self._assignment.get(fragment_id)
        if previous is not None:
            self._drop_reverse(fragment_id, previous)
        self._assignment[fragment_id] = site_id
        self._by_site.setdefault(site_id, {})[fragment_id] = None

    def remove(self, fragment_id: str) -> None:
        """Forget a fragment (after a merge)."""
        site_id = self._assignment.pop(fragment_id)
        self._drop_reverse(fragment_id, site_id)

    def _drop_reverse(self, fragment_id: str, site_id: str) -> None:
        stored = self._by_site[site_id]
        del stored[fragment_id]
        if not stored:  # a site with no fragments is no site at all
            del self._by_site[site_id]

    def fragments_of(self, site_id: str) -> list[str]:
        """All fragments stored at ``site_id`` (insertion order)."""
        return list(self._by_site.get(site_id, ()))

    def sites(self) -> list[str]:
        """Distinct site ids, in first-appearance order."""
        return list(self._by_site)

    def items(self) -> Iterator[tuple[str, str]]:
        """Iterate ``(fragment_id, site_id)`` pairs."""
        return iter(self._assignment.items())

    def copy(self) -> "Placement":
        """Independent copy."""
        return Placement(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Placement {self._assignment!r}>"


class SourceTree:
    """The source tree ``S_T``: fragment-tree shape + site labels.

    A snapshot structure: build it from a :class:`FragmentedTree` and a
    :class:`Placement` with :meth:`from_fragmented_tree`, or rebuild it
    after fragmentation changes (split/merge).  It deliberately stores
    only ids and the parent relation -- the metadata a coordinator would
    realistically hold.
    """

    def __init__(
        self,
        root_fragment_id: str,
        parents: dict[str, Optional[str]],
        children: dict[str, list[str]],
        site_by_fragment: dict[str, str],
    ) -> None:
        self.root_fragment_id = root_fragment_id
        self._parents = dict(parents)
        self._children = {fid: list(subs) for fid, subs in children.items()}
        self._site_by_fragment = dict(site_by_fragment)
        # A snapshot: its pre-order and every fragment's depth are
        # fixed here, in one pass.
        depths: dict[str, int] = {}
        stack = [(root_fragment_id, 0)]
        while stack:
            fragment_id, depth = stack.pop()
            depths[fragment_id] = depth
            stack.extend((child, depth + 1) for child in reversed(self._children[fragment_id]))
        self._depths = depths
        self._preorder = tuple(depths)

    @classmethod
    def from_fragmented_tree(cls, tree: FragmentedTree, placement: Placement) -> "SourceTree":
        """Induce the source tree from a decomposition and its placement."""
        parents: dict[str, Optional[str]] = {}
        children: dict[str, list[str]] = {}
        site_by_fragment: dict[str, str] = {}
        for fragment_id in tree.fragments:
            parents[fragment_id] = tree.parent_of(fragment_id)
            children[fragment_id] = tree.children_of(fragment_id)
            site_by_fragment[fragment_id] = placement.site_of(fragment_id)
        return cls(tree.root_fragment_id, parents, children, site_by_fragment)

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def sites(self) -> list[str]:
        """Distinct sites appearing in the source tree."""
        seen: dict[str, None] = {}
        for fragment_id in self.iter_fragments_preorder():
            seen.setdefault(self._site_by_fragment[fragment_id])
        return list(seen)

    def site_of(self, fragment_id: str) -> str:
        """The site storing the given fragment."""
        return self._site_by_fragment[fragment_id]

    def fragments_of(self, site_id: str) -> list[str]:
        """Fragments stored at a site, in pre-order (``card(F_Si)`` many)."""
        return [
            fragment_id
            for fragment_id in self.iter_fragments_preorder()
            if self._site_by_fragment[fragment_id] == site_id
        ]

    @property
    def coordinator_site(self) -> str:
        """The site holding the root fragment (default coordinator)."""
        return self._site_by_fragment[self.root_fragment_id]

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def fragment_ids(self) -> list[str]:
        """All fragment ids, pre-order."""
        return list(self._preorder)

    def iter_fragments_preorder(self) -> Iterator[str]:
        """Pre-order traversal of the fragment-tree shape (fixed at build)."""
        return iter(self._preorder)

    def parent_of(self, fragment_id: str) -> Optional[str]:
        """Parent fragment id (None for the root fragment)."""
        return self._parents[fragment_id]

    def children_of(self, fragment_id: str) -> list[str]:
        """Direct sub-fragment ids."""
        return list(self._children[fragment_id])

    def depth_of(self, fragment_id: str) -> int:
        """Fragment-tree depth (root fragment = 0)."""
        return self._depths[fragment_id]

    def fragments_at_depth(self, depth: int) -> list[str]:
        """Fragments at the given depth, pre-order."""
        return [fid for fid, at in self._depths.items() if at == depth]

    def max_depth(self) -> int:
        """Depth of the deepest fragment."""
        return max(self._depths.values())

    def card(self) -> int:
        """``card(F)``: the number of fragments."""
        return len(self._parents)

    def wire_bytes(self) -> int:
        """Approximate size of shipping the source tree to a site."""
        total = 0
        for fragment_id in self.iter_fragments_preorder():
            total += len(fragment_id) + len(self._site_by_fragment[fragment_id]) + 8
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SourceTree card={self.card()} sites={len(self.sites())}>"


__all__ = ["Placement", "SourceTree"]
