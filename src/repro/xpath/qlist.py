"""``QList(q)``: the topologically-ordered list of sub-queries.

The distributed evaluator does not interpret the query AST directly; it
interprets a flat list of sub-query entries, each referring to earlier
entries by index -- exactly the paper's ``QList(q)`` (Section 2.2) and
the case analysis of ``Procedure bottomUp`` (Fig. 3(b)):

====  =================  ========================================
case  entry              value at node ``v``
====  =================  ========================================
c0    ``ε``              true
c1    ``label() = l``    ``label(v) = l``
c2    ``text() = str``   ``text(v) = str``
c3    ``*/qj``           ``CV_v(qj)``        (some child satisfies qj)
c4    ``ε[qj]/qk``       ``V_v(qj) ∧ V_v(qk)``
--    ``ε[qj]``          ``V_v(qj)``         (alias; see Example 2.1's q4)
c5    ``//qj``           ``DV_v(qj)``        (some desc-or-self satisfies)
c6    ``qj ∨ qk``        ``V_v(qj) ∨ V_v(qk)``
c7    ``qj ∧ qk``        ``V_v(qj) ∧ V_v(qk)``
c8    ``¬qj``            ``¬V_v(qj)``
====  =================  ========================================

Entries are hash-consed (common sub-queries share one entry), keeping
``|QList(q)| = O(|q|)``; the answer to the whole query is the value of
the **last** entry.  The builder guarantees the last entry is the root
even under hash-consing by appending an ``ε[qj]`` alias when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.xpath.normalize import (
    NAnd,
    NBool,
    NDescendant,
    NExists,
    NLabelIs,
    NNot,
    NOr,
    NSelf,
    NStep,
    NTextIs,
    NWildcard,
)

OP_EPSILON = "eps"  # c0: ε
OP_LABEL_IS = "label"  # c1: label() = l
OP_TEXT_IS = "text"  # c2: text() = str
OP_CHILD = "child"  # c3: */qj
OP_SELF_SEQ = "selfseq"  # c4: ε[qj]/qk
OP_SELF_QUAL = "self"  # ε[qj] alias (value = V(qj))
OP_DESC = "desc"  # c5: //qj
OP_OR = "or"  # c6
OP_AND = "and"  # c7
OP_NOT = "not"  # c8

_ARITY = {
    OP_EPSILON: 0,
    OP_LABEL_IS: 0,
    OP_TEXT_IS: 0,
    OP_CHILD: 1,
    OP_SELF_QUAL: 1,
    OP_DESC: 1,
    OP_NOT: 1,
    OP_SELF_SEQ: 2,
    OP_OR: 2,
    OP_AND: 2,
}


@dataclass(frozen=True)
class QEntry:
    """One sub-query: an operator, an optional payload, operand indices."""

    op: str
    value: Optional[str] = None
    args: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in _ARITY:
            raise ValueError(f"unknown QList operator {self.op!r}")
        if len(self.args) != _ARITY[self.op]:
            raise ValueError(f"{self.op} takes {_ARITY[self.op]} operand(s)")
        needs_value = self.op in (OP_LABEL_IS, OP_TEXT_IS)
        if needs_value != (self.value is not None):
            raise ValueError(f"payload mismatch for {self.op}")

    def describe(self, prefix: str = "q") -> str:
        """Human-readable rendering, paper-style (``q5 = */q4``)."""
        refs = [f"{prefix}{arg + 1}" for arg in self.args]
        if self.op == OP_EPSILON:
            return "ε"
        if self.op == OP_LABEL_IS:
            return f"label() = {self.value}"
        if self.op == OP_TEXT_IS:
            return f'text() = "{self.value}"'
        if self.op == OP_CHILD:
            return f"*/{refs[0]}"
        if self.op == OP_SELF_QUAL:
            return f"ε[{refs[0]}]"
        if self.op == OP_SELF_SEQ:
            return f"ε[{refs[0]}]/{refs[1]}"
        if self.op == OP_DESC:
            return f"//{refs[0]}"
        if self.op == OP_OR:
            return f"{refs[0]} ∨ {refs[1]}"
        if self.op == OP_AND:
            return f"{refs[0]} ∧ {refs[1]}"
        return f"¬{refs[0]}"


class QList:
    """An immutable, topologically ordered sub-query list.

    ``qlist[i]`` is the i-th entry; every operand index of entry *i* is
    ``< i``; the last entry is the whole query.  ``len(qlist)`` is the
    paper's ``|QList(q)|`` -- the query-size parameter of Experiments 1-3.
    """

    def __init__(self, entries: list[QEntry], source: Optional[str] = None) -> None:
        for index, entry in enumerate(entries):
            if any(arg >= index or arg < 0 for arg in entry.args):
                raise ValueError(f"entry {index} is not topologically ordered")
        self._entries = tuple(entries)
        self.source = source
        # Derived from the immutable entries, computed on first use.
        self._wire_obj: Optional[tuple] = None
        self._wire_bytes: Optional[int] = None
        #: Content fingerprint of the wire form, filled in by
        #: :func:`repro.distsim.resident.qlist_fingerprint` or by the
        #: holder that built this QList from a fingerprinted wire form.
        self._resident_fingerprint: Optional[str] = None

    @property
    def entries(self) -> tuple[QEntry, ...]:
        """The entry tuple (read-only)."""
        return self._entries

    @property
    def answer_index(self) -> int:
        """Index of the entry whose value is the query answer (the last)."""
        return len(self._entries) - 1

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> QEntry:
        return self._entries[index]

    def __iter__(self) -> Iterator[QEntry]:
        return iter(self._entries)

    def pretty(self) -> str:
        """Multi-line rendering in the paper's ``qi = ...`` style."""
        return "\n".join(
            f"q{index + 1} = {entry.describe()}" for index, entry in enumerate(self._entries)
        )

    # ------------------------------------------------------------------
    # Wire format (what the coordinator broadcasts to the sites)
    # ------------------------------------------------------------------
    def to_obj(self) -> list:
        """JSON-able representation: ``[[op, value, [args...]], ...]``."""
        return [[e.op, e.value, list(e.args)] for e in self._entries]

    @classmethod
    def from_obj(cls, obj: list, source: Optional[str] = None) -> "QList":
        """Inverse of :meth:`to_obj`."""
        entries = [QEntry(op, value=value, args=tuple(args)) for op, value, args in obj]
        return cls(entries, source=source)

    def wire_obj(self) -> tuple:
        """:meth:`to_obj` as nested tuples, built once and shared.

        What dispatchers put on the wire with every job of every batch:
        immutable, so one object serves them all (and pickles once per
        frame); :meth:`from_obj` reads it like the list form.
        """
        cached = self._wire_obj
        if cached is None:
            cached = self._wire_obj = tuple(
                (e.op, e.value, e.args) for e in self._entries
            )
        return cached

    def wire_bytes(self) -> int:
        """Byte size of the broadcast message carrying this query."""
        cached = self._wire_bytes
        if cached is None:
            import json

            cached = self._wire_bytes = len(
                json.dumps(self.to_obj(), separators=(",", ":")).encode()
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QList |q|={len(self)} source={self.source!r}>"


class _Builder:
    """Hash-consing accumulator for QList entries."""

    def __init__(self) -> None:
        self.entries: list[QEntry] = []
        self._interned: dict[QEntry, int] = {}

    def intern(self, entry: QEntry) -> int:
        existing = self._interned.get(entry)
        if existing is not None:
            return existing
        index = len(self.entries)
        self.entries.append(entry)
        self._interned[entry] = index
        return index

    # -- Boolean expressions -------------------------------------------------
    def compile_bool(self, expr: NBool) -> int:
        if isinstance(expr, NLabelIs):
            return self.intern(QEntry(OP_LABEL_IS, value=expr.label))
        if isinstance(expr, NTextIs):
            return self.intern(QEntry(OP_TEXT_IS, value=expr.value))
        if isinstance(expr, NAnd):
            left = self.compile_bool(expr.left)
            right = self.compile_bool(expr.right)
            return self.intern(QEntry(OP_AND, args=(left, right)))
        if isinstance(expr, NOr):
            left = self.compile_bool(expr.left)
            right = self.compile_bool(expr.right)
            return self.intern(QEntry(OP_OR, args=(left, right)))
        if isinstance(expr, NNot):
            return self.intern(QEntry(OP_NOT, args=(self.compile_bool(expr.operand),)))
        if isinstance(expr, NExists):
            return self.compile_path(expr.steps)
        raise TypeError(f"not a normalized expression: {expr!r}")

    # -- Paths ----------------------------------------------------------------
    def compile_path(self, steps: tuple[NStep, ...]) -> int:
        """Compile right-to-left: each step wraps its continuation."""
        cont: Optional[int] = None
        for step in reversed(steps):
            if isinstance(step, NSelf):
                qualifier = self.compile_bool(step.qualifier)
                if cont is None:
                    cont = self.intern(QEntry(OP_SELF_QUAL, args=(qualifier,)))
                else:
                    cont = self.intern(QEntry(OP_SELF_SEQ, args=(qualifier, cont)))
            elif isinstance(step, NWildcard):
                if cont is None:
                    cont = self.intern(QEntry(OP_EPSILON))
                cont = self.intern(QEntry(OP_CHILD, args=(cont,)))
            elif isinstance(step, NDescendant):
                if cont is None:
                    cont = self.intern(QEntry(OP_EPSILON))
                cont = self.intern(QEntry(OP_DESC, args=(cont,)))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")
        if cont is None:  # the empty path ε
            cont = self.intern(QEntry(OP_EPSILON))
        return cont


def append_shifted(entries: list[QEntry], qlist: QList) -> int:
    """Append ``qlist``'s entries with operand indices offset in place.

    The one primitive behind multi-query combination: operand indices
    only ever reference earlier entries of the same query, so shifting
    them by the current length keeps the growing list topologically
    ordered.  Returns the offset the appended query starts at (its
    answer entry is ``offset + qlist.answer_index``).  Shared by the
    batch planner (:func:`repro.core.plan.plan_batch`) and the standing
    book's segment table (:class:`repro.stream.dirty.DirtyIndex`).
    """
    offset = len(entries)
    for entry in qlist:
        entries.append(
            QEntry(entry.op, value=entry.value, args=tuple(arg + offset for arg in entry.args))
        )
    return offset


def build_qlist(expr: NBool, source: Optional[str] = None) -> QList:
    """Compile a normalized query into its ``QList``.

    The answer entry is guaranteed to be last: if hash-consing resolved
    the root to an earlier entry, an ``ε[qj]`` alias is appended (this is
    also how the paper's Example 2.1 ends, with ``q10 = ε[q9]``).
    """
    builder = _Builder()
    root = builder.compile_bool(expr)
    if root != len(builder.entries) - 1:
        # Append directly (not via intern): an identical alias may already
        # exist at a lower index, which would break the answer-is-last
        # invariant.
        builder.entries.append(QEntry(OP_SELF_QUAL, args=(root,)))
    return QList(builder.entries, source=source)


__all__ = [
    "QList",
    "QEntry",
    "build_qlist",
    "append_shifted",
    "OP_EPSILON",
    "OP_LABEL_IS",
    "OP_TEXT_IS",
    "OP_CHILD",
    "OP_SELF_QUAL",
    "OP_SELF_SEQ",
    "OP_DESC",
    "OP_OR",
    "OP_AND",
    "OP_NOT",
]
