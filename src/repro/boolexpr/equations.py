"""Systems of Boolean equations and their solution.

The third stage of ParBoX (paper, "Composition of partial answers")
receives, for each fragment, vectors whose entries are formulas over the
variables of its sub-fragments.  Together these form a *linear system of
Boolean equations*: every variable is defined by exactly one formula, and
the dependency relation between fragments is a tree -- hence acyclic --
so the system can be solved by a single bottom-up pass (Example 3.3
walks through the unification ``dx8 -> 1``, ``dy8 -> dx8``, ``dz8 -> 0``).

:class:`BooleanEquationSystem` implements the general solver.  It does
not assume tree structure; any acyclic definition set is solved by an
iterative memoized worklist, and genuine cycles raise
:class:`CyclicDefinitionError`.

The solver memoizes **per distinct formula**, not just per variable:
formulas are hash-consed (:mod:`repro.boolexpr.formula`), so a memo
table keyed on formula objects shares every common sub-formula's truth
value across all reads of the system -- the N answer entries of a
batched ``evalST`` (:func:`repro.core.eval_st.eval_st_many`) each cost
only the sub-formulas the earlier reads have not already forced.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.boolexpr.formula import And, Const, Formula, Not, Or, Var


class CyclicDefinitionError(ValueError):
    """The definitions contain a dependency cycle (impossible for trees)."""

    def __init__(self, cycle: list[Var]) -> None:
        super().__init__("cyclic variable definitions: " + " -> ".join(map(repr, cycle)))
        self.cycle = cycle


class UnboundVariableError(KeyError):
    """A formula references a variable with no definition."""

    def __init__(self, var: Var) -> None:
        super().__init__(f"no definition for variable {var!r}")
        self.var = var


class BooleanEquationSystem:
    """A set of definitions ``var := formula`` plus a solver.

    >>> from repro.boolexpr import Var, TRUE, make_or
    >>> sys_ = BooleanEquationSystem()
    >>> a, b = Var("F1", "V", 0), Var("F2", "V", 0)
    >>> sys_.define(a, make_or(b, TRUE))
    >>> sys_.define(b, TRUE)
    >>> sys_.value_of(a)
    True
    """

    def __init__(
        self, resolver: Optional[Callable[[Var], Optional[Formula]]] = None
    ) -> None:
        self._definitions: dict[Var, Formula] = {}
        self._solution: dict[Var, bool] = {}
        self._partial: dict[Var, bool | None] = {}
        #: formula -> truth value, shared across every read of the
        #: system (interning makes equal formulas one key).
        self._memo: dict[Formula, bool] = {}
        #: Optional lazy definition source: consulted (and its result
        #: cached into ``_definitions``) when a variable has no
        #: explicit definition.  ``None`` from the resolver means
        #: genuinely unbound.  Lets ``evalST`` hand the solver a whole
        #: triplet set without materializing the ``3 n card(F)``
        #: definitions the answer never reaches.
        self._resolver = resolver

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def define(self, var: Var, formula: Formula) -> None:
        """Add ``var := formula``; redefining a variable is an error."""
        if var in self._definitions:
            raise ValueError(f"variable {var!r} is already defined")
        self._definitions[var] = formula
        self._solution.clear()
        self._partial.clear()
        self._memo.clear()

    def define_many(self, pairs: Iterable[tuple[Var, Formula]]) -> None:
        """Add several definitions at once."""
        for var, formula in pairs:
            self.define(var, formula)

    def _lookup(self, var: Var) -> Optional[Formula]:
        """The definition of ``var``, pulling lazily from the resolver.

        A resolver hit is cached into ``_definitions`` without touching
        the solution/memo caches: the definition was always this value,
        it just had not been materialized yet.
        """
        definition = self._definitions.get(var)
        if definition is None and self._resolver is not None:
            definition = self._resolver(var)
            if definition is not None:
                self._definitions[var] = definition
        return definition

    def is_defined(self, var: Var) -> bool:
        """True when the system carries (or can resolve) a definition."""
        return self._lookup(var) is not None

    def definition_of(self, var: Var) -> Formula:
        """The defining formula of ``var``."""
        definition = self._lookup(var)
        if definition is None:
            raise UnboundVariableError(var)
        return definition

    def __len__(self) -> int:
        return len(self._definitions)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def value_of(self, var: Var) -> bool:
        """The truth value of ``var`` under the (unique) solution."""
        if var in self._solution:
            return self._solution[var]
        return self._eval_formula(var)

    def evaluate(self, formula: Formula) -> bool:
        """Truth value of an arbitrary formula over defined variables."""
        return self._eval_formula(formula)

    def partial_value_of(self, var: Var) -> bool | None:
        """Kleene (three-valued) value of ``var`` given *partial* definitions.

        Undefined variables evaluate to "unknown" (``None``); unknowns
        propagate through connectives except where the known operands
        force the result (``x OR 1 == 1`` even with ``x`` unknown).
        LazyParBoX uses this to stop descending the source tree as soon
        as the answers gathered so far determine the query result
        (paper, Section 4 "Lazy computation").
        """
        if var in self._partial:
            return self._partial[var]
        if self._lookup(var) is None:
            self._partial[var] = None
            return None
        stack: list[tuple[Var, bool]] = [(var, False)]
        while stack:
            current, expanded = stack.pop()
            if expanded:
                definition = self._definitions[current]
                env = {v: self._partial.get(v) for v in definition.variables()}
                self._partial[current] = _kleene(definition, env)
                continue
            if current in self._partial:
                continue
            definition = self._lookup(current)
            if definition is None:
                self._partial[current] = None
                continue
            stack.append((current, True))
            for dependency in definition.variables():
                if dependency not in self._partial:
                    stack.append((dependency, False))
        return self._partial[var]

    def try_evaluate(self, formula: Formula) -> bool | None:
        """Kleene value of an arbitrary formula; ``None`` when undetermined."""
        env = {var: self.partial_value_of(var) for var in formula.variables()}
        return _kleene(formula, env)

    def _eval_formula(self, root: Formula) -> bool:
        """Iterative worklist evaluation with a per-formula memo.

        Stack entries are ``(formula, expanded)``: an unexpanded entry
        schedules its children (for a ``Var``, its defining formula),
        an expanded one combines the already-memoized child values.
        LIFO order guarantees a sub-formula is fully resolved before any
        later reference to it pops, so every distinct formula is
        evaluated at most once *per system lifetime* -- the memo
        survives across reads.  Cycle detection tracks only variables
        (the formula structure itself is acyclic by construction).
        """
        if isinstance(root, Const):
            return root.value
        memo = self._memo
        cached = memo.get(root)
        if cached is not None:
            return cached
        definitions = self._definitions
        solution = self._solution
        in_progress: set[Var] = set()
        path: list[Var] = []
        stack: list[tuple[Formula, bool]] = [(root, False)]
        while stack:
            formula, expanded = stack.pop()
            cls = type(formula)
            if expanded:
                if cls is Var:
                    value = memo[definitions[formula]]
                    memo[formula] = value
                    solution[formula] = value
                    in_progress.discard(formula)
                    path.pop()
                elif cls is Not:
                    memo[formula] = not memo[formula.child]
                elif cls is And:
                    memo[formula] = all(memo[child] for child in formula.children)
                else:  # Or
                    memo[formula] = any(memo[child] for child in formula.children)
                continue
            if formula in memo:
                continue
            if cls is Const:
                memo[formula] = formula.value
                continue
            if cls is Var:
                if formula in solution:
                    memo[formula] = solution[formula]
                    continue
                if formula in in_progress:
                    start = path.index(formula)
                    raise CyclicDefinitionError(path[start:] + [formula])
                definition = self._lookup(formula)
                if definition is None:
                    raise UnboundVariableError(formula)
                in_progress.add(formula)
                path.append(formula)
                stack.append((formula, True))
                if definition not in memo:
                    stack.append((definition, False))
                continue
            stack.append((formula, True))
            if cls is Not:
                child = formula.child
                if child not in memo:
                    stack.append((child, False))
            else:
                for child in formula.children:
                    if child not in memo:
                        stack.append((child, False))
        return memo[root]

    def solved(self) -> Mapping[Var, bool]:
        """Every variable solved so far (a live view, not a copy)."""
        return self._solution

    def solve_all(self) -> Mapping[Var, bool]:
        """Solve every defined variable and return the full assignment."""
        for var in list(self._definitions):
            self.value_of(var)
        return dict(self._solution)


def _kleene(formula: Formula, env: Mapping[Var, bool | None]) -> bool | None:
    """Three-valued evaluation: ``None`` stands for "unknown"."""
    from repro.boolexpr.formula import And, Const, Not, Or

    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Var):
        return env.get(formula)
    if isinstance(formula, Not):
        value = _kleene(formula.child, env)
        return None if value is None else not value
    if isinstance(formula, And):
        saw_unknown = False
        for child in formula.children:
            value = _kleene(child, env)
            if value is False:
                return False
            if value is None:
                saw_unknown = True
        return None if saw_unknown else True
    if isinstance(formula, Or):
        saw_unknown = False
        for child in formula.children:
            value = _kleene(child, env)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False
    raise TypeError(f"not a formula: {formula!r}")


__all__ = ["BooleanEquationSystem", "CyclicDefinitionError", "UnboundVariableError"]
