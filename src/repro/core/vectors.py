"""The ``(V, CV, DV)`` vector triplet -- a fragment's partial answer.

For a fragment ``F_j`` and query list ``qL`` of length *n*, partial
evaluation returns three vectors of Boolean formulas (paper, Fig. 3(b)):

* ``V[i]``  -- value of sub-query ``qL[i]`` at the **root** of ``F_j``;
* ``CV[i]`` -- true iff some *child* of the root satisfies ``qL[i]``;
* ``DV[i]`` -- true iff the root or some *descendant* satisfies ``qL[i]``.

Entries are formulas over the variables of ``F_j``'s virtual nodes
(``Var(F_k, kind, i)``); a triplet with no sub-fragments is ground.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections import OrderedDict
from typing import Iterable, Mapping, Union

from repro.boolexpr.formula import (
    FALSE,
    TRUE,
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    const,
    formula_from_obj,
)
from repro.distsim.transport import restricted_loads

#: Decoded triplets kept by :meth:`VectorTriplet.from_compact`, keyed
#: by their encoded blob (least recently decoded goes first).  Sized to
#: hold every distinct result of a standing book of a few dozen batches
#: over a few dozen fragments; a result that fell out is decoded again.
INTERN_CAP = 1024

_interned: "OrderedDict[bytes, VectorTriplet]" = OrderedDict()
_intern_lock = threading.Lock()


class VectorTriplet:
    """The partial answer of one fragment (immutable value object).

    Immutable, so :meth:`wire_bytes` and :meth:`variable_count` are
    computed once per object -- and :meth:`from_compact` hands every
    receiver of one encoded blob the same object.
    """

    __slots__ = (
        "fragment_id", "v", "cv", "dv", "_wire_bytes", "_variable_count", "__weakref__"
    )

    def __init__(
        self,
        fragment_id: str,
        v: Iterable[Formula],
        cv: Iterable[Formula],
        dv: Iterable[Formula],
    ) -> None:
        self.fragment_id = fragment_id
        self.v = tuple(v)
        self.cv = tuple(cv)
        self.dv = tuple(dv)
        if not (len(self.v) == len(self.cv) == len(self.dv)):
            raise ValueError("V, CV, DV must have equal length")
        self._wire_bytes = None
        self._variable_count = None

    def __len__(self) -> int:
        return len(self.v)

    # ------------------------------------------------------------------
    # Variables / groundness
    # ------------------------------------------------------------------
    def variables(self) -> frozenset[Var]:
        """All free variables across the three vectors.

        Accumulates into one mutable set and freezes once; the previous
        per-formula ``frozenset | frozenset`` rebuild was quadratic in
        the vector length.  Each formula's own variable set is cached on
        the (interned) formula, so this is a union of ready sets.
        """
        out: set[Var] = set()
        for vector in (self.v, self.cv, self.dv):
            for formula in vector:
                vars_ = formula.variables()
                if vars_:
                    out.update(vars_)
        return frozenset(out)

    def variable_count(self) -> int:
        """``len(self.variables())``, computed once.

        The number is what every batch asks for (ParBoX's solve-size
        report, groundness checks); keeping the set itself on each
        shared triplet would cost kilobytes where this costs an int.
        """
        cached = self._variable_count
        if cached is None:
            cached = self._variable_count = len(self.variables())
        return cached

    def referenced_fragments(self) -> frozenset[str]:
        """Ids of the sub-fragments whose variables appear."""
        return frozenset(var.owner for var in self.variables())

    def is_ground(self) -> bool:
        """True when no variables remain (leaf fragments, resolved triplets)."""
        return self.variable_count() == 0

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def substitute(self, env: Mapping[Var, Formula]) -> "VectorTriplet":
        """Replace variables, yielding a new (possibly ground) triplet."""
        return VectorTriplet(
            self.fragment_id,
            (formula.substitute(env) for formula in self.v),
            (formula.substitute(env) for formula in self.cv),
            (formula.substitute(env) for formula in self.dv),
        )

    def binding_env(self) -> dict[Var, Formula]:
        """The variable bindings this triplet *provides* to its parent.

        For every index ``i``, maps ``Var(F_j, 'V', i) -> V[i]`` and
        likewise for CV/DV.  Used when resolving a parent's triplet from
        its children's (NaiveDistributed, FullDistParBoX, evalST).
        """
        env: dict[Var, Formula] = {}
        for index in range(len(self.v)):
            env[Var(self.fragment_id, "V", index)] = self.v[index]
            env[Var(self.fragment_id, "CV", index)] = self.cv[index]
            env[Var(self.fragment_id, "DV", index)] = self.dv[index]
        return env

    def shifted(self, delta: int) -> "VectorTriplet":
        """Shift every variable's QList index by ``delta`` (entries as-is).

        Re-bases a triplet between a segment's local index space and
        its position inside a combined batch QList.  Sound because the
        batch planner offsets whole segments: all of a slice's
        variables move by the same amount, which preserves the
        canonical operand order inside every formula.
        """
        if delta == 0:
            return self

        def shift(formula: Formula) -> Formula:
            env = {
                var: Var(var.owner, var.kind, var.index + delta)
                for var in formula.variables()
            }
            return formula.substitute(env) if env else formula

        return VectorTriplet(
            self.fragment_id,
            (shift(formula) for formula in self.v),
            (shift(formula) for formula in self.cv),
            (shift(formula) for formula in self.dv),
        )

    def sliced(self, offset: int, length: int) -> "VectorTriplet":
        """The ``[offset, offset+length)`` slice, re-based to index 0.

        Because combined-QList entries only ever reference entries (and
        sub-fragment variables) of their own segment, the slice equals
        what ``bottomUp`` would have produced for that segment's
        standalone QList -- the identity the stream maintainer's
        per-segment caches are built on.  A ground triplet has no
        variable to re-base: its slice is the plain slice, known ground.
        """
        stop = offset + length
        piece = VectorTriplet(
            self.fragment_id,
            self.v[offset:stop],
            self.cv[offset:stop],
            self.dv[offset:stop],
        )
        if self.is_ground():
            piece._variable_count = 0
            return piece
        return piece.shifted(-offset)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_obj(self) -> dict:
        """JSON-able representation (what a site sends the coordinator)."""
        return {
            "fragment": self.fragment_id,
            "v": [formula.to_obj() for formula in self.v],
            "cv": [formula.to_obj() for formula in self.cv],
            "dv": [formula.to_obj() for formula in self.dv],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "VectorTriplet":
        """Inverse of :meth:`to_obj`."""
        return cls(
            obj["fragment"],
            (formula_from_obj(item) for item in obj["v"]),
            (formula_from_obj(item) for item in obj["cv"]),
            (formula_from_obj(item) for item in obj["dv"]),
        )

    def wire_bytes(self) -> int:
        """Byte size of the compact JSON serialization (traffic unit).

        This is the **simulated** cost ledger's unit and is defined over
        :meth:`to_obj`, never over the compact codec below -- the
        benchmark shape checks pin exact byte counts to it.  Computed
        once per triplet.
        """
        cached = self._wire_bytes
        if cached is None:
            cached = self._wire_bytes = len(
                json.dumps(self.to_obj(), separators=(",", ":")).encode()
            )
        return cached

    # ------------------------------------------------------------------
    # Compact wire codec (the transport actually used across processes)
    # ------------------------------------------------------------------
    def to_compact(self) -> tuple:
        """Compact triplet encoding: ground bitmasks + hash-consed residue.

        The ground prefix -- every ``TRUE``/``FALSE`` entry, i.e. the
        whole triplet for ground fragments -- collapses into three int
        bitmasks (bit *i* set iff entry *i* is ``TRUE``).  The residual
        formulas are emitted once each through a shared table (children
        before parents, duplicates collapsed -- the wire-side mirror of
        the in-memory interning pool), and each non-constant entry is a
        ``(vector, entry, table-index)`` triple.  Pickled
        (:meth:`to_blob`), this is what every resident holder replies
        with; orders of magnitude cheaper than :meth:`to_obj` for the
        (dominant) ground case.  The *simulated* ledger stays on
        :meth:`wire_bytes` unchanged.
        """
        masks = []
        residues: list[tuple[int, int, int]] = []
        table: list[tuple] = []
        index_of: dict[Formula, int] = {}

        def encode(formula: Formula) -> int:
            cached = index_of.get(formula)
            if cached is not None:
                return cached
            cls = type(formula)
            if cls is Var:
                node = ("v", formula.owner, formula.kind, formula.index)
            elif cls is Not:
                node = ("n", encode(formula.child))
            elif cls is And:
                node = ("a", tuple(encode(child) for child in formula.children))
            elif cls is Or:
                node = ("o", tuple(encode(child) for child in formula.children))
            else:  # pragma: no cover - defensive
                raise TypeError(f"cannot encode {formula!r}")
            table.append(node)
            index = len(table) - 1
            index_of[formula] = index
            return index

        for vector_index, vector in enumerate((self.v, self.cv, self.dv)):
            mask = 0
            for entry_index, formula in enumerate(vector):
                if isinstance(formula, Const):
                    if formula.value:
                        mask |= 1 << entry_index
                else:
                    residues.append((vector_index, entry_index, encode(formula)))
            masks.append(mask)
        return (
            self.fragment_id,
            len(self.v),
            masks[0],
            masks[1],
            masks[2],
            tuple(residues),
            tuple(table),
        )

    def to_blob(self) -> bytes:
        """:meth:`to_compact`, pickled: the one opaque value a reply carries.

        A site encodes a result once and may resend the same bytes for
        as long as the fragment and the query stand; a receiver decodes
        them with :meth:`from_compact`, which refuses any blob that
        references a global.
        """
        return pickle.dumps(self.to_compact(), protocol=5)

    @classmethod
    def from_compact(cls, wire: Union[tuple, bytes]) -> "VectorTriplet":
        """Inverse of :meth:`to_compact` and of :meth:`to_blob`.

        Rebuilds through the *raw* (interning) constructors, never the
        canonicalizing smart constructors, so the decoded formulas are
        structurally identical to what the sender held -- including
        non-canonical shapes produced by the paper-literal algebra.

        A blob (``bytes``, or the buffer a protocol-5 transport hands
        back) is decoded once: the triplet is kept in a table of at most
        :data:`INTERN_CAP` entries keyed by the blob, and every later
        decode of equal bytes returns that same immutable object with
        its cached :meth:`wire_bytes` and :meth:`variable_count`.  A blob
        that does not unpickle without imports, or not to a compact
        triplet, raises :class:`ValueError`.
        """
        if isinstance(wire, tuple):
            return cls._from_compact_tuple(wire)
        blob = wire if type(wire) is bytes else bytes(wire)
        with _intern_lock:
            triplet = _interned.get(blob)
            if triplet is not None:
                _interned.move_to_end(blob)
                return triplet
        try:
            compact = restricted_loads(blob)
        except Exception as error:  # pickle raises a wide, undocumented set
            raise ValueError(f"undecodable triplet blob: {error}") from None
        triplet = cls._from_compact_tuple(compact)
        with _intern_lock:
            # A racing decoder of equal bytes may have stored first: its
            # object wins, so every caller holds the same one.
            triplet = _interned.setdefault(blob, triplet)
            _interned.move_to_end(blob)
            while len(_interned) > INTERN_CAP:
                _interned.popitem(last=False)
        return triplet

    @classmethod
    def _from_compact_tuple(cls, wire: tuple) -> "VectorTriplet":
        if not isinstance(wire, tuple) or len(wire) != 7:
            raise ValueError("a compact triplet is a 7-tuple")
        fragment_id, n, v_mask, cv_mask, dv_mask, residues, table = wire
        try:
            formulas: list[Formula] = []
            for node in table:
                tag = node[0]
                if tag == "v":
                    formulas.append(Var(node[1], node[2], node[3]))
                elif tag == "n":
                    formulas.append(Not(formulas[node[1]]))
                elif tag == "a":
                    formulas.append(And(tuple(formulas[i] for i in node[1])))
                elif tag == "o":
                    formulas.append(Or(tuple(formulas[i] for i in node[1])))
                else:
                    raise ValueError(f"unknown compact formula tag {tag!r}")
            vectors = [
                [TRUE if mask >> i & 1 else FALSE for i in range(n)]
                for mask in (v_mask, cv_mask, dv_mask)
            ]
            for vector_index, entry_index, table_index in residues:
                vectors[vector_index][entry_index] = formulas[table_index]
        except (TypeError, IndexError) as error:
            raise ValueError(f"malformed compact triplet: {error}") from None
        return cls(fragment_id, *vectors)

    def formula_size(self) -> int:
        """Total formula nodes across the vectors (size-bound checks)."""
        return sum(f.size() for vec in (self.v, self.cv, self.dv) for f in vec)

    # ------------------------------------------------------------------
    # Equality (incremental maintenance compares old/new triplets)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTriplet):
            return NotImplemented
        return (
            self.fragment_id == other.fragment_id
            and self.v == other.v
            and self.cv == other.cv
            and self.dv == other.dv
        )

    def __hash__(self) -> int:
        return hash((self.fragment_id, self.v, self.cv, self.dv))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ground = "ground" if self.is_ground() else f"vars={self.variable_count()}"
        return f"<VectorTriplet {self.fragment_id} n={len(self)} {ground}>"


def ground_triplet_from_bools(
    fragment_id: str,
    v: Iterable[bool],
    cv: Iterable[bool],
    dv: Iterable[bool],
) -> VectorTriplet:
    """Build a ground triplet from plain Booleans (centralized evaluator)."""
    return VectorTriplet(
        fragment_id,
        (const(x) for x in v),
        (const(x) for x in cv),
        (const(x) for x in dv),
    )


#: Blobs at or above this many bytes leave the pickle stream as
#: out-of-band buffers.  Below it -- one pipe buffer -- copying the
#: bytes through the stream costs less than a frame of their own.
OOB_BLOB_BYTES = 1 << 16


def compact_with_buffers(blob: bytes, threshold: int = OOB_BLOB_BYTES):
    """Lift a large triplet blob out of the pickle stream.

    Wrapping the bytes in :class:`pickle.PickleBuffer` lets a
    protocol-5 pickler ship them out-of-band (see
    :mod:`repro.distsim.transport`), so a bulky reply is never copied
    through the pickle stream.  :meth:`VectorTriplet.from_compact`
    accepts what the transport hands back for either form, so the
    rewrite is transparent to receivers.  The *simulated* ledger is
    untouched -- it is defined on :meth:`VectorTriplet.wire_bytes`.
    """
    if len(blob) < threshold:
        return blob
    return pickle.PickleBuffer(blob)


def clear_interned() -> None:
    """Forget every decoded triplet (tests compare against a cold table)."""
    with _intern_lock:
        _interned.clear()


__all__ = [
    "VectorTriplet",
    "ground_triplet_from_bools",
    "compact_with_buffers",
    "clear_interned",
    "INTERN_CAP",
    "OOB_BLOB_BYTES",
]
