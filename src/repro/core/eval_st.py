"""``Procedure evalST``: composing partial answers (paper, Section 3.1).

The triplets collected from all fragments form a linear system of
Boolean equations -- each variable ``Var(F_k, kind, i)`` is defined by
the corresponding entry of ``F_k``'s triplet, whose formula in turn may
reference ``F_k``'s sub-fragments.  Because the fragment dependency
relation is a tree, the system is acyclic and one bottom-up pass over
the source tree solves it; the query answer is ``V_Froot[last]``
(Example 3.3 walks through the unification).

The implementation delegates to
:class:`~repro.boolexpr.equations.BooleanEquationSystem`, whose memoized
evaluation *is* that bottom-up pass; its memo is per interned formula,
so the N answer reads of one batch share every common sub-formula.

**Retained solve.**  :func:`assemble`, the one assembly routine, keeps
per fragment a weak reference to the triplet object it solved with and
the values it read, as per-kind int bitmasks (``known``, ``value``; bit
*i* = entry *i*), in a :class:`RetainedSolve` holder.  The next solve
through the holder re-reads only the *dirty* fragments: those whose
triplet is not the retained object, and their ancestors (a changed
triplet can only move the variables on its path to the root).  A new
:class:`SourceTree` object dirties all: it fixes the child tuples, and
:class:`~repro.distsim.cluster.Cluster` builds one on every split /
merge / move.
Clean known entries resolve to constants; the solved variables are
harvested back into masks.  A resend costs ``O(|F|)`` identity checks
plus one mask read per answer, an edit its root paths.  Identity is a
sound key because triplets are immutable, and resident holders hand
back the same object for an unchanged result (blob interning); tree
callers build fresh triplets and re-solve in full.  One holder lives on
each :class:`~repro.core.plan.BatchPlan` (ParBoX, Hybrid, the served
coordinator) and each standing :class:`~repro.stream.dirty.Segment`.
Racing threads share it without a lock: a solve reads the immutable
snapshot once and publishes a new one in one assignment, so it can
lose its publication but never its answer.
"""

from __future__ import annotations

import weakref
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.boolexpr.equations import BooleanEquationSystem
from repro.boolexpr.formula import FALSE, TRUE, Var
from repro.core.vectors import VectorTriplet
from repro.fragments.source_tree import SourceTree
from repro.xpath.qlist import QList


#: A variable kind's slot in a triplet's vectors and in the masks.
_SLOT = {"V": 0, "CV": 1, "DV": 2}


class FragmentSolve(NamedTuple):
    """What one solve read of one fragment (bit *i* = entry *i*)."""

    #: The triplet object solved with: identity is the key.  Weak, so a
    #: tree caller's fresh per-batch triplets are not kept alive by it.
    triplet: "weakref.ref[VectorTriplet]"
    known: tuple[int, int, int]  # per kind V / CV / DV: entries read
    value: tuple[int, int, int]  # their truth values


class RetainedSolve:
    """The last solve of one plan or segment, for the next to reuse.

    ``snapshot`` is ``None`` or an immutable ``(source_tree, {fragment
    id: FragmentSolve})``, replaced whole by each :func:`assemble`.
    """

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: Optional[tuple[SourceTree, dict[str, FragmentSolve]]] = None


def build_equation_system(
    triplets: Mapping[str, VectorTriplet],
    solved: Optional[Mapping[str, FragmentSolve]] = None,
) -> BooleanEquationSystem:
    """Turn a set of triplets into the Boolean equation system.

    Conceptually defines ``Var(F, 'V', i) := V_F[i]`` (and CV/DV
    likewise) for every fragment ``F`` present; partial sets are
    allowed -- LazyParBoX adds triplets one source-tree depth at a time
    and an absent fragment's variables are simply unbound.

    The definitions materialize *lazily* through the solver's resolver
    hook: reading one answer touches only the variables reachable from
    it (the fragment-tree spine), not the full ``3 n card(F)``
    definition set -- which keeps the composition stage O(reachable) as
    fragment counts grow.  ``solved`` maps clean fragments to what an
    earlier solve read of them; their known entries resolve to
    constants.
    """
    solved = solved or {}

    def resolve(var: Var):
        triplet = triplets.get(var.owner)
        if triplet is None:
            return None
        slot = _SLOT[var.kind]
        vector = (triplet.v, triplet.cv, triplet.dv)[slot]
        index = var.index
        # Full bounds check: Python's negative indexing would otherwise
        # silently resolve Var(F, 'V', -1) to the last entry instead of
        # leaving it unbound.
        if not 0 <= index < len(vector):
            return None
        retained = solved.get(var.owner)
        if retained is not None and retained.known[slot] >> index & 1:
            return TRUE if retained.value[slot] >> index & 1 else FALSE
        return vector[index]

    return BooleanEquationSystem(resolver=resolve)


def answer_variable(
    source_tree: SourceTree,
    qlist: Optional[QList] = None,
    index: Optional[int] = None,
) -> Var:
    """The variable whose value is the query answer: ``V_Froot[last]``.

    Pass ``qlist`` for a standalone query (its last entry), or
    ``index`` for a batch member's answer entry inside a combined
    QList.  This is the single place that encodes "the answer lives in
    the root fragment's ``V`` vector".
    """
    if index is None:
        if qlist is None:
            raise ValueError("answer_variable needs a qlist or an index")
        index = qlist.answer_index
    return Var(source_tree.root_fragment_id, "V", index)


def eval_st(
    triplets: Mapping[str, VectorTriplet],
    source_tree: SourceTree,
    qlist: QList,
) -> bool:
    """Solve the equation system and return the query answer."""
    return eval_st_many(triplets, source_tree, [qlist.answer_index])[0]


def eval_st_many(
    triplets: Mapping[str, VectorTriplet],
    source_tree: SourceTree,
    answer_indices: Sequence[int],
) -> list[bool]:
    """Solve the system once; read several answer entries at the root.

    The batched composition stage: a combined batch QList produces one
    equation system, and each query's answer is the root fragment's
    ``V`` value at that query's answer index.  :func:`assemble` with
    nothing retained.
    """
    return assemble(RetainedSolve(), triplets, source_tree, answer_indices)[0]


def assemble(
    retained: RetainedSolve,
    triplets: Mapping[str, VectorTriplet],
    source_tree: SourceTree,
    answer_indices: Sequence[int],
) -> tuple[list[bool], int]:
    """Answer the root entries, re-solving only the dirty fragments.

    Returns the answers and how many fragments were dirty (0 for a
    resend of the retained triplets, the edited fragments' root paths
    after an edit, ``card(F)`` on a first solve).  See the module
    docstring for the invalidation rule.
    """
    snapshot = retained.snapshot
    previous = snapshot[1] if snapshot and snapshot[0] is source_tree else {}
    order = source_tree.fragment_ids()
    missing = [fid for fid in order if fid not in triplets]
    if missing:
        raise ValueError(f"evalST needs a triplet for every fragment; missing {missing}")
    dirty = {
        fid for fid in order
        if fid not in previous or previous[fid].triplet() is not triplets[fid]
    }
    for fid in list(dirty):
        parent = source_tree.parent_of(fid)
        while parent is not None and parent not in dirty:
            dirty.add(parent)
            parent = source_tree.parent_of(parent)
    root = source_tree.root_fragment_id
    if not dirty:
        known, value = previous[root].known[0], previous[root].value[0]
        if all(index >= 0 and known >> index & 1 for index in answer_indices):
            return [bool(value >> index & 1) for index in answer_indices], 0

    clean = {fid: entry for fid, entry in previous.items() if fid not in dirty}
    system = build_equation_system(triplets, solved=clean)
    answers = [
        system.value_of(answer_variable(source_tree, index=index))
        for index in answer_indices
    ]
    masks = {fid: [*clean[fid].known, *clean[fid].value] if fid in clean else [0] * 6
             for fid in order}
    for var, truth in system.solved().items():
        if var.owner in masks:
            slot, bit = _SLOT[var.kind], 1 << var.index
            masks[var.owner][slot] |= bit
            masks[var.owner][slot + 3] |= bit if truth else 0
    retained.snapshot = (source_tree, {
        fid: FragmentSolve(weakref.ref(triplets[fid]), tuple(m[:3]), tuple(m[3:]))
        for fid, m in masks.items()})
    return answers, len(dirty)


def resolve_triplet(
    triplet: VectorTriplet,
    children: Mapping[str, VectorTriplet],
) -> VectorTriplet:
    """Substitute *ground* child triplets into a parent's triplet.

    Used by FullDistParBoX (``evalDistrST``) and NaiveDistributed, where
    a site resolves its fragment's formulas locally before passing a
    variable-free triplet upward ("no variables appear in the resulting
    triplet of vectors").
    """
    env = {}
    for child in children.values():
        if not child.is_ground():
            raise ValueError(f"child triplet {child.fragment_id} is not ground")
        env.update(child.binding_env())
    resolved = triplet.substitute(env)
    if not resolved.is_ground():
        unresolved = sorted({var.owner for var in resolved.variables()})
        raise ValueError(f"triplet {triplet.fragment_id} still references {unresolved}")
    return resolved


__all__ = [
    "eval_st",
    "eval_st_many",
    "assemble",
    "RetainedSolve",
    "FragmentSolve",
    "build_equation_system",
    "answer_variable",
    "resolve_triplet",
]
