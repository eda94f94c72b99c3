"""``Procedure evalST``: composing partial answers (paper, Section 3.1).

The triplets collected from all fragments form a linear system of
Boolean equations -- each variable ``Var(F_k, kind, i)`` is defined by
the corresponding entry of ``F_k``'s triplet, whose formula in turn may
reference ``F_k``'s sub-fragments.  Because the fragment dependency
relation is a tree, the system is acyclic and one bottom-up pass over
the source tree solves it; the query answer is ``V_Froot[last]``
(Example 3.3 walks through the unification).

**The walk.**  :func:`walk` first goes down the source tree: the root is
asked for its answer entries, and every other fragment for the entries
its parent's asked-for formulas name -- at most ``V[i]`` where some
QList entry is ``*/q_i`` and ``DV[i]`` where one is ``//q_i``, often far
fewer once the parent's ground parts have folded.  It then comes back
up, evaluating each fragment's asked-for entries with its children's
values as constants.  The whole static ``*/`` / ``//`` set is not
evaluated: on a 48-fragment chain at |q| = 23 the root's answers fold
without reading below, and that set cost 4.6x the walk.

**One step.**  :func:`step` evaluates the wanted entries of one
fragment's triplet and returns them as per-kind int bitmasks
(``known``, ``value``; bit *i* = entry *i*).  It is three-valued: a
variable whose fragment has no value yet is unknown
(:meth:`~repro.boolexpr.formula.Formula.evaluate` is Kleene's), and so
is an entry it decides.  Every composition goes through it:
:func:`assemble` (ParBoX, Hybrid, the served coordinator, each standing
segment of :class:`~repro.stream.maintainer.StreamMaintainer`);
:func:`walk` over the fragments fetched so far (LazyParBoX: an absent
fragment is unknown, an answer ``None`` until decided);
:func:`resolve_ground` at a site (FullDistParBoX, NaiveDistributed) and
:func:`solve_every` (Selection's visit-2 values), both wanting every
entry.

**Retained solve.**  The masks a walk leaves behind, with a weak
reference to the triplet object each was solved from, are the
:class:`RetainedSolve` table.  The next walk through the holder steps
only the *dirty* fragments -- those whose triplet is not the retained
object, and their ancestors (a changed triplet can only move the values
on its path to the root) -- plus any clean fragment asked for an entry
it does not hold yet.  A new :class:`SourceTree` object dirties all: it
fixes the child tuples, and :class:`~repro.distsim.cluster.Cluster`
builds one on every split / merge / move.  A resend costs ``O(|F|)``
identity checks plus one mask read per answer, an edit its root paths.
Identity is a sound key because triplets are immutable, and resident
holders hand back the same object for an unchanged result (blob
interning); tree callers build fresh triplets and re-solve in full.
One holder lives on each :class:`~repro.core.plan.BatchPlan` (ParBoX,
Hybrid, the served coordinator) and each standing
:class:`~repro.stream.dirty.Segment`.  Racing threads share it without
a lock: a walk reads the immutable snapshot once and publishes a new
one in one assignment, so it can lose its publication but never its
answer.
"""

from __future__ import annotations

import weakref
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.boolexpr.formula import Var
from repro.core.vectors import VectorTriplet, ground_triplet_from_bools
from repro.fragments.source_tree import SourceTree
from repro.xpath.qlist import QList


#: A variable kind's slot in a triplet's vectors and in the masks.
_SLOT = {"V": 0, "CV": 1, "DV": 2}


class FragmentSolve(NamedTuple):
    """What one step read of one fragment (bit *i* = entry *i*)."""

    #: The triplet object solved with: identity is the key.  Weak, so a
    #: tree caller's fresh per-batch triplets are not kept alive by it.
    triplet: "weakref.ref[VectorTriplet]"
    known: tuple[int, int, int]  # per kind V / CV / DV: entries decided
    value: tuple[int, int, int]  # their truth values


class RetainedSolve:
    """The last solve of one plan or segment, for the next to reuse.

    ``snapshot`` is ``None`` or an immutable ``(source_tree, {fragment
    id: FragmentSolve})``, replaced whole by each :func:`walk`.
    """

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: Optional[tuple[SourceTree, dict[str, FragmentSolve]]] = None


class _Values:
    """A table of solved fragments, read as a variable assignment.

    ``get(var)`` is the variable's truth value, or ``None`` while its
    fragment has no value for that entry -- the reads
    :meth:`~repro.boolexpr.formula.Formula.evaluate` makes.
    """

    __slots__ = ("table",)

    def __init__(self, table: Mapping[str, FragmentSolve]) -> None:
        self.table = table

    def get(self, var: Var) -> Optional[bool]:
        solved = self.table.get(var.owner)
        if solved is not None:
            slot = _SLOT[var.kind]
            if solved.known[slot] >> var.index & 1:
                return bool(solved.value[slot] >> var.index & 1)
        return None


def step(
    triplet: VectorTriplet,
    table: Mapping[str, FragmentSolve],
    wanted: tuple[int, int, int],
    held: Optional[FragmentSolve] = None,
) -> FragmentSolve:
    """Evaluate the ``wanted`` entries of one fragment's triplet.

    ``wanted`` is a ``(V, CV, DV)`` mask triple; a variable reads its
    fragment's entry from ``table`` and is unknown when the table does
    not decide it.  An entry is *known* when its Kleene value is.  The
    masks extend ``held``, what an earlier step of the same triplet
    decided.
    """
    values = _Values(table)
    known, value = (list(held.known), list(held.value)) if held else ([0, 0, 0], [0, 0, 0])
    for slot, vector in enumerate((triplet.v, triplet.cv, triplet.dv)):
        mask = wanted[slot]
        while mask:
            bit = mask & -mask
            mask ^= bit
            truth = vector[bit.bit_length() - 1].evaluate(values)
            if truth is not None:
                known[slot] |= bit
                if truth:
                    value[slot] |= bit
    return FragmentSolve(weakref.ref(triplet), tuple(known), tuple(value))


def walk(
    retained: RetainedSolve,
    triplets: Mapping[str, VectorTriplet],
    source_tree: SourceTree,
    answer_indices: Sequence[int],
) -> tuple[list[Optional[bool]], int]:
    """The pass over the fragments at hand; the root's triplet must be one.

    A fragment absent from ``triplets`` is unknown.  Returns each
    answer (``None`` where the triplets at hand leave it open) and how
    many fragments were dirty (0 for a resend of the retained triplets,
    the edited fragments' root paths after an edit, all on a first
    walk).  See the module docstring for the walk and the invalidation
    rule.
    """
    snapshot = retained.snapshot
    previous = snapshot[1] if snapshot and snapshot[0] is source_tree else {}
    order = [fid for fid in source_tree.fragment_ids() if fid in triplets]
    dirty = {
        fid for fid in order
        if fid not in previous or previous[fid].triplet() is not triplets[fid]
    }
    for fid in list(dirty):
        parent = source_tree.parent_of(fid)
        while parent is not None and parent not in dirty:
            dirty.add(parent)
            parent = source_tree.parent_of(parent)
    table = {fid: solved for fid, solved in previous.items() if fid not in dirty}

    # Down: what each fragment is asked for and does not hold yet.
    root = source_tree.root_fragment_id
    size = len(triplets[root])
    answers = 0
    for index in answer_indices:
        if not 0 <= index < size:
            raise IndexError(f"answer entry {index} outside a {size}-entry triplet")
        answers |= 1 << index
    asked = {root: [answers, 0, 0]}
    needed = {}
    for fid in order:
        masks = asked.get(fid)
        held = table.get(fid)
        if masks and held:
            masks = [mask & ~known for mask, known in zip(masks, held.known)]
        if not masks or not any(masks):
            continue
        needed[fid] = masks
        triplet = triplets[fid]
        for slot, vector in enumerate((triplet.v, triplet.cv, triplet.dv)):
            mask = masks[slot]
            while mask:
                bit = mask & -mask
                mask ^= bit
                for var in vector[bit.bit_length() - 1].variables():
                    asked.setdefault(var.owner, [0, 0, 0])[_SLOT[var.kind]] |= 1 << var.index

    # Up: children before parents.  A dirty fragment nobody asked
    # anything of is still recorded, so that a resend finds it clean.
    for fid in reversed(order):
        masks = needed.get(fid)
        if masks is not None:
            table[fid] = step(triplets[fid], table, masks, table.get(fid))
        elif fid in dirty:
            table[fid] = FragmentSolve(weakref.ref(triplets[fid]), (0, 0, 0), (0, 0, 0))
    if needed or dirty:
        retained.snapshot = (source_tree, table)
    solved = table.get(root)
    return [
        bool(solved.value[0] >> i & 1) if solved.known[0] >> i & 1 else None
        for i in answer_indices
    ], len(dirty)


def assemble(
    retained: RetainedSolve,
    triplets: Mapping[str, VectorTriplet],
    source_tree: SourceTree,
    answer_indices: Sequence[int],
) -> tuple[list[bool], int]:
    """Answer the root entries from a triplet for every fragment.

    :func:`walk` over a complete reply set: returns the answers and how
    many fragments were dirty.  Raises :class:`ValueError` when a
    fragment's triplet is missing (before anything is published) or a
    triplet reads an entry no fragment below it provides.
    """
    missing = [fid for fid in source_tree.fragment_ids() if fid not in triplets]
    if missing:
        raise ValueError(f"evalST needs a triplet for every fragment; missing {missing}")
    answers, solved = walk(retained, triplets, source_tree, answer_indices)
    if None in answers:
        raise ValueError("the triplets leave an answer undetermined")
    return answers, solved


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


def solve_every(
    triplet: VectorTriplet, table: Mapping[str, FragmentSolve]
) -> FragmentSolve:
    """Every entry of ``triplet``, its sub-fragments' values from ``table``.

    What Selection ships in visit 2.  Raises :class:`ValueError` when
    an entry reads a fragment ``table`` does not hold.
    """
    every = (1 << len(triplet)) - 1
    solved = step(triplet, table, (every, every, every))
    if solved.known != (every, every, every):
        raise ValueError(f"triplet {triplet.fragment_id} reads fragments not yet solved")
    return solved


def resolve_ground(
    triplet: VectorTriplet, table: Mapping[str, FragmentSolve]
) -> tuple[FragmentSolve, VectorTriplet]:
    """``evalDistrST``'s local step at a site (FullDistParBoX, NaiveDistributed).

    :func:`solve_every` over the children's values, and the
    variable-free triplet the site passes up ("no variables appear in
    the resulting triplet of vectors").
    """
    solved = solve_every(triplet, table)
    n = len(triplet)
    ground = ground_triplet_from_bools(
        triplet.fragment_id, *([mask >> i & 1 for i in range(n)] for mask in solved.value)
    )
    return solved, ground


__all__ = [
    "eval_st",
    "eval_st_many",
    "assemble",
    "walk",
    "step",
    "solve_every",
    "resolve_ground",
    "RetainedSolve",
    "FragmentSolve",
]
