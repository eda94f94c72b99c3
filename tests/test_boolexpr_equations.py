"""Unit tests for the Boolean equation system solver."""

import pytest

from repro.boolexpr import (
    FALSE,
    TRUE,
    BooleanEquationSystem,
    CyclicDefinitionError,
    UnboundVariableError,
    Var,
    make_and,
    make_not,
    make_or,
)


def v(name, index=0):
    return Var(name, "V", index)


class TestDefinitions:
    def test_define_and_lookup(self):
        system = BooleanEquationSystem()
        system.define(v("a"), TRUE)
        assert system.is_defined(v("a"))
        assert system.definition_of(v("a")) is TRUE
        assert len(system) == 1

    def test_redefinition_rejected(self):
        system = BooleanEquationSystem()
        system.define(v("a"), TRUE)
        with pytest.raises(ValueError):
            system.define(v("a"), FALSE)

    def test_missing_definition(self):
        system = BooleanEquationSystem()
        with pytest.raises(UnboundVariableError):
            system.definition_of(v("a"))

    def test_define_many(self):
        system = BooleanEquationSystem()
        system.define_many([(v("a"), TRUE), (v("b"), FALSE)])
        assert len(system) == 2


class TestSolving:
    def test_ground_values(self):
        system = BooleanEquationSystem()
        system.define(v("a"), TRUE)
        system.define(v("b"), FALSE)
        assert system.value_of(v("a")) is True
        assert system.value_of(v("b")) is False

    def test_chain_resolution(self):
        # The paper's Example 3.3: dx8 -> 1, dy8 -> dx8, dz8 -> 0,
        # answer = dy8 OR dz8 -> true.
        system = BooleanEquationSystem()
        dx8 = Var("F2", "DV", 7)
        dy8 = Var("F1", "DV", 7)
        dz8 = Var("F3", "DV", 7)
        system.define(dx8, TRUE)
        system.define(dy8, dx8)
        system.define(dz8, FALSE)
        assert system.evaluate(make_or(dy8, dz8)) is True

    def test_deep_chain_is_iterative(self):
        system = BooleanEquationSystem()
        previous = None
        for index in range(5000):
            var = v("f", index)
            system.define(var, TRUE if previous is None else previous)
            previous = var
        assert system.value_of(v("f", 4999)) is True

    def test_diamond_dependencies(self):
        system = BooleanEquationSystem()
        system.define(v("d"), TRUE)
        system.define(v("b"), v("d"))
        system.define(v("c"), make_not(v("d")))
        system.define(v("a"), make_and(v("b"), make_or(v("c"), v("d"))))
        assert system.value_of(v("a")) is True

    def test_unbound_raises(self):
        system = BooleanEquationSystem()
        system.define(v("a"), v("missing"))
        with pytest.raises(UnboundVariableError):
            system.value_of(v("a"))

    def test_cycle_detection(self):
        system = BooleanEquationSystem()
        system.define(v("a"), v("b"))
        system.define(v("b"), v("a"))
        with pytest.raises(CyclicDefinitionError):
            system.value_of(v("a"))

    def test_self_cycle_detection(self):
        # Note make_or(a, TRUE) would canonicalize to TRUE and hide the
        # cycle; negation keeps the self-reference alive.
        system = BooleanEquationSystem()
        system.define(v("a"), make_not(v("a")))
        with pytest.raises(CyclicDefinitionError):
            system.value_of(v("a"))


class TestPartialEvaluation:
    """Kleene semantics used by LazyParBoX."""

    def test_undefined_is_unknown(self):
        system = BooleanEquationSystem()
        assert system.partial_value_of(v("missing")) is None

    def test_known_value_resolves(self):
        system = BooleanEquationSystem()
        system.define(v("a"), TRUE)
        assert system.partial_value_of(v("a")) is True

    def test_or_short_circuits_unknown(self):
        system = BooleanEquationSystem()
        system.define(v("a"), make_or(v("missing"), TRUE))
        assert system.partial_value_of(v("a")) is True

    def test_and_short_circuits_unknown(self):
        system = BooleanEquationSystem()
        system.define(v("a"), make_and(v("missing"), FALSE))
        assert system.partial_value_of(v("a")) is False

    def test_unknown_propagates(self):
        system = BooleanEquationSystem()
        system.define(v("a"), make_or(v("missing"), FALSE))
        assert system.partial_value_of(v("a")) is None

    def test_not_of_unknown(self):
        system = BooleanEquationSystem()
        system.define(v("a"), make_not(v("missing")))
        assert system.partial_value_of(v("a")) is None

    def test_try_evaluate_formula(self):
        system = BooleanEquationSystem()
        system.define(v("a"), TRUE)
        assert system.try_evaluate(make_or(v("a"), v("missing"))) is True
        assert system.try_evaluate(make_and(v("a"), v("missing"))) is None

    def test_nested_partial_resolution(self):
        # a depends on b which depends on an unknown, but b's known
        # disjunct decides it -- resolution must see through the chain.
        system = BooleanEquationSystem()
        system.define(v("b"), make_or(v("missing"), TRUE))
        system.define(v("a"), v("b"))
        assert system.partial_value_of(v("a")) is True

    def test_partial_cache_invalidated_by_new_definition(self):
        system = BooleanEquationSystem()
        system.define(v("a"), v("late"))
        assert system.partial_value_of(v("a")) is None
        system.define(v("late"), TRUE)
        assert system.partial_value_of(v("a")) is True
