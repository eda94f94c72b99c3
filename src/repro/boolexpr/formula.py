"""Immutable Boolean formulas with canonicalizing, hash-consing constructors.

A formula is one of:

* :class:`Const` -- the singletons :data:`TRUE` / :data:`FALSE`;
* :class:`Var` -- a free variable ``(owner, kind, index)``.  In the
  paper's notation, the variables introduced for virtual node ``F2`` and
  sub-query ``q8`` are ``x8`` (``kind='V'``), ``cx8`` (``'CV'``) and
  ``dx8`` (``'DV'``); here they are ``Var('F2', 'V', 8)`` etc.;
* :class:`Not` / :class:`And` / :class:`Or` -- connectives.  ``And`` and
  ``Or`` are n-ary.

Use the smart constructors :func:`make_and`, :func:`make_or` and
:func:`make_not` (or the convenience operators ``&``, ``|``, ``~``):
they flatten nested connectives, fold constants, deduplicate operands,
absorb complementary literals and order operands canonically, so that
equal Boolean functions built the same way compare equal and -- more
importantly for the paper's bounds -- formula size stays proportional to
the number of distinct variables, i.e. ``O(card(F_j))`` per vector entry.

**Hash-consing.**  Every constructor (smart or raw) interns its result
in a per-class pool, so structurally equal formulas built in one process
are one object.  That turns the partial-evaluation hot loop's costs
from per-occurrence into per-distinct-formula: ``sort_key`` / ``size`` /
``variables`` are each computed once and cached on the instance, pool
hits skip allocation entirely, and downstream memo tables (the equation
solver, the compact triplet codec) key on formulas with cached hashes.
The pools hold weak references, so formulas no longer reachable from
live triplets are garbage-collected normally.  Interning is best-effort
under free-threading -- a rare race can leave two equal instances alive
-- so ``__eq__`` keeps its structural fallback and nothing *requires*
identity for correctness.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union
from weakref import WeakValueDictionary

Obj = Union[bool, list]  # the JSON-able wire representation


class Formula:
    """Base class of all formulas.  Instances are immutable and hashable.

    ``_key`` / ``_hash`` / ``_size`` / ``_vars`` cache the derived
    measurements; with interned instances each is computed at most once
    per *distinct* formula in the process.
    """

    __slots__ = ("_key", "_hash", "_size", "_vars", "__weakref__")

    # -- canonical ordering -------------------------------------------------
    def sort_key(self) -> tuple:
        """A total order on formulas used to canonicalize operand tuples."""
        key = getattr(self, "_key", None)
        if key is None:
            key = self._compute_key()
            self._key = key
        return key

    def _compute_key(self) -> tuple:
        raise NotImplementedError

    # -- measurements --------------------------------------------------------
    def size(self) -> int:
        """Number of nodes in the formula tree (wire-size unit)."""
        size = getattr(self, "_size", None)
        if size is None:
            size = self._compute_size()
            self._size = size
        return size

    def _compute_size(self) -> int:
        raise NotImplementedError

    def variables(self) -> frozenset["Var"]:
        """The set of free variables (computed once, then cached)."""
        vars_ = getattr(self, "_vars", None)
        if vars_ is None:
            vars_ = self._compute_variables()
            self._vars = vars_
        return vars_

    def _compute_variables(self) -> frozenset["Var"]:
        raise NotImplementedError

    def is_ground(self) -> bool:
        """True when the formula contains no variables."""
        return not self.variables()

    # -- evaluation / substitution -------------------------------------------
    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        """Evaluate under a total assignment; raises ``KeyError`` on gaps."""
        raise NotImplementedError

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        """Replace variables by formulas, re-canonicalizing on the way up."""
        raise NotImplementedError

    # -- wire format -----------------------------------------------------------
    def to_obj(self) -> Obj:
        """JSON-able representation (see :func:`formula_from_obj`)."""
        raise NotImplementedError

    # -- operators --------------------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return make_and(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return make_or(self, other)

    def __invert__(self) -> "Formula":
        return make_not(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        if getattr(self, "_hash", None) is None:
            self._hash = hash(self.sort_key())
        return self._hash


#: Bootstrap pool for the two constants (filled by the TRUE/FALSE
#: definitions below; ``Const(...)`` afterwards returns the singletons).
_CONST_POOL: dict[bool, "Const"] = {}


class Const(Formula):
    """A Boolean constant; use the singletons :data:`TRUE` / :data:`FALSE`."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "Const":
        value = bool(value)
        existing = _CONST_POOL.get(value)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.value = value
        _CONST_POOL[value] = self
        return self

    def __reduce__(self):
        return (Const, (self.value,))

    def _compute_key(self) -> tuple:
        return (0, self.value)

    def _compute_size(self) -> int:
        return 1

    def _compute_variables(self) -> frozenset["Var"]:
        return frozenset()

    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        return self.value

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        return self

    def to_obj(self) -> Obj:
        return self.value

    def __repr__(self) -> str:
        return "1" if self.value else "0"


#: The true constant.
TRUE = Const(True)
#: The false constant.
FALSE = Const(False)

_VAR_POOL: "WeakValueDictionary[tuple, Var]" = WeakValueDictionary()
_NOT_POOL: "WeakValueDictionary[Formula, Not]" = WeakValueDictionary()


class Var(Formula):
    """A free variable identified by ``(owner, kind, index)``.

    ``owner`` names the virtual node / fragment that introduced the
    variable, ``kind`` is one of ``'V'``, ``'CV'``, ``'DV'`` (which of the
    three result vectors it refers to) and ``index`` is the position in
    ``QList(q)``.
    """

    __slots__ = ("owner", "kind", "index")

    _PREFIX = {"V": "", "CV": "c", "DV": "d"}

    def __new__(cls, owner: str, kind: str, index: int) -> "Var":
        key = (owner, kind, index)
        existing = _VAR_POOL.get(key)
        if existing is not None:
            return existing
        if kind not in ("V", "CV", "DV"):
            raise ValueError(f"unknown vector kind {kind!r}")
        self = super().__new__(cls)
        self.owner = owner
        self.kind = kind
        self.index = index
        return _VAR_POOL.setdefault(key, self)

    def __reduce__(self):
        return (Var, (self.owner, self.kind, self.index))

    def _compute_key(self) -> tuple:
        return (1, self.owner, self.kind, self.index)

    def _compute_size(self) -> int:
        return 1

    def _compute_variables(self) -> frozenset["Var"]:
        return frozenset((self,))

    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        return env[self]

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        return env.get(self, self)

    def to_obj(self) -> Obj:
        return ["var", self.owner, self.kind, self.index]

    def __repr__(self) -> str:
        # Matches the paper's naming: x8 / cx8 / dx8 for fragment F2, q8.
        return f"{self._PREFIX[self.kind]}{self.owner}.{self.index}"


class Not(Formula):
    """Negation.  Build through :func:`make_not`."""

    __slots__ = ("child",)

    def __new__(cls, child: Formula) -> "Not":
        existing = _NOT_POOL.get(child)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.child = child
        return _NOT_POOL.setdefault(child, self)

    def __reduce__(self):
        return (Not, (self.child,))

    def _compute_key(self) -> tuple:
        return (2, self.child.sort_key())

    def _compute_size(self) -> int:
        return 1 + self.child.size()

    def _compute_variables(self) -> frozenset["Var"]:
        return self.child.variables()

    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        return not self.child.evaluate(env)

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        return make_not(self.child.substitute(env))

    def to_obj(self) -> Obj:
        return ["not", self.child.to_obj()]

    def __repr__(self) -> str:
        return f"~{self.child!r}"


class _NAry(Formula):
    """Shared implementation of the two n-ary connectives."""

    __slots__ = ("children",)
    _TAG = ""
    _RANK = -1
    _JOIN = ""
    #: Per-concrete-class interning pool (set on And / Or below).
    _pool: "WeakValueDictionary[tuple, _NAry]"

    def __new__(cls, children: tuple[Formula, ...]) -> "_NAry":
        children = tuple(children)
        pool = cls._pool
        existing = pool.get(children)
        if existing is not None:
            return existing
        if len(children) < 2:
            raise ValueError(f"{cls.__name__} needs at least two operands")
        self = super().__new__(cls)
        self.children = children
        return pool.setdefault(children, self)

    def __reduce__(self):
        return (type(self), (self.children,))

    def _compute_key(self) -> tuple:
        return (self._RANK, tuple(child.sort_key() for child in self.children))

    def _compute_size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def _compute_variables(self) -> frozenset["Var"]:
        # One mutable set, frozen once -- the repeated
        # ``frozenset | frozenset`` of the pre-interning implementation
        # was quadratic in the number of operands.
        out: set[Var] = set()
        for child in self.children:
            out.update(child.variables())
        return frozenset(out)

    def to_obj(self) -> Obj:
        return [self._TAG, [child.to_obj() for child in self.children]]

    def __repr__(self) -> str:
        return "(" + self._JOIN.join(repr(child) for child in self.children) + ")"


class And(_NAry):
    """Conjunction.  Build through :func:`make_and`."""

    __slots__ = ()
    _TAG = "and"
    _RANK = 3
    _JOIN = " & "
    _pool: "WeakValueDictionary[tuple, And]" = WeakValueDictionary()

    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        return all(child.evaluate(env) for child in self.children)

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        return make_and(*(child.substitute(env) for child in self.children))


class Or(_NAry):
    """Disjunction.  Build through :func:`make_or`."""

    __slots__ = ()
    _TAG = "or"
    _RANK = 4
    _JOIN = " | "
    _pool: "WeakValueDictionary[tuple, Or]" = WeakValueDictionary()

    def evaluate(self, env: Mapping["Var", bool]) -> bool:
        return any(child.evaluate(env) for child in self.children)

    def substitute(self, env: Mapping["Var", "Formula"]) -> "Formula":
        return make_or(*(child.substitute(env) for child in self.children))


def pool_stats() -> dict[str, int]:
    """Approximate live-instance counts of the interning pools."""
    return {
        "var": len(_VAR_POOL),
        "not": len(_NOT_POOL),
        "and": len(And._pool),
        "or": len(Or._pool),
    }


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def make_not(formula: Formula) -> Formula:
    """Canonical negation: folds constants and double negation."""
    if formula is TRUE:
        return FALSE
    if formula is FALSE:
        return TRUE
    if isinstance(formula, Const):  # non-singleton constants, defensively
        return FALSE if formula.value else TRUE
    if isinstance(formula, Not):
        return formula.child
    return Not(formula)


def _canonical_operands(
    operands: Iterable[Formula],
    flatten_type: type,
    identity: Const,
    absorbing: Const,
) -> Optional[list[Formula]]:
    """Flatten/dedup/fold operands; None signals the absorbing constant."""
    seen: dict[tuple, Formula] = {}
    stack = list(operands)
    stack.reverse()
    ordered = True
    saw_not = False
    last_key: Optional[tuple] = None
    while stack:
        operand = stack.pop()
        if isinstance(operand, Const):
            if operand.value == absorbing.value:
                return None
            continue  # identity element: drop
        if isinstance(operand, flatten_type):
            stack.extend(reversed(operand.children))
            continue
        if isinstance(operand, Not):
            saw_not = True
        key = operand.sort_key()
        if key not in seen:
            seen[key] = operand
            if ordered:
                if last_key is not None and key < last_key:
                    ordered = False
                last_key = key
    # Complement absorption: x op ~x == absorbing.  A complementary
    # pair needs a Not among the operands, so the scan is skipped
    # entirely for the (hot) negation-free case; the complement's key
    # is derived without building the complement formula: for a ``Not``
    # it is the child's key, otherwise ``make_not`` would wrap (rank 2).
    if saw_not:
        for operand in seen.values():
            if isinstance(operand, Not):
                complement_key = operand.child.sort_key()
            else:
                complement_key = (2, operand.sort_key())
            if complement_key in seen:
                return None
    flat = list(seen.values())
    if not ordered:
        # Operands coming out of interned connectives are already in
        # canonical order; only genuinely unordered inputs pay the sort.
        flat.sort(key=Formula.sort_key)
    return flat


def make_and(*operands: Formula) -> Formula:
    """Canonical conjunction of any number of operands (0 -> TRUE)."""
    flat = _canonical_operands(operands, And, identity=TRUE, absorbing=FALSE)
    if flat is None:
        return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(*operands: Formula) -> Formula:
    """Canonical disjunction of any number of operands (0 -> FALSE)."""
    flat = _canonical_operands(operands, Or, identity=FALSE, absorbing=TRUE)
    if flat is None:
        return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def const(value: bool) -> Const:
    """The singleton constant for ``value``."""
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def formula_from_obj(obj: Obj) -> Formula:
    """Inverse of :meth:`Formula.to_obj`.

    The wire format is JSON-able: ``True``/``False`` for constants,
    ``["var", owner, kind, index]``, ``["not", f]``,
    ``["and"|"or", [f, ...]]``.
    """
    if isinstance(obj, bool):
        return const(obj)
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"malformed formula object: {obj!r}")
    tag = obj[0]
    if tag == "var":
        _, owner, kind, index = obj
        return Var(owner, kind, index)
    if tag == "not":
        return make_not(formula_from_obj(obj[1]))
    if tag == "and":
        return make_and(*(formula_from_obj(child) for child in obj[1]))
    if tag == "or":
        return make_or(*(formula_from_obj(child) for child in obj[1]))
    raise ValueError(f"unknown formula tag {tag!r}")


__all__ = [
    "Formula",
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "TRUE",
    "FALSE",
    "const",
    "make_not",
    "make_and",
    "make_or",
    "formula_from_obj",
    "pool_stats",
]
