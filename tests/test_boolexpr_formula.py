"""Unit tests for Boolean formulas and their canonicalization."""

import pytest

from repro.boolexpr import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Var,
    formula_from_obj,
    make_and,
    make_not,
    make_or,
)


@pytest.fixture
def variables():
    return Var("F1", "V", 0), Var("F1", "V", 1), Var("F2", "DV", 0)


class TestConstants:
    def test_singletons(self):
        assert TRUE.value is True
        assert FALSE.value is False

    def test_evaluate(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False

    def test_repr(self):
        assert repr(TRUE) == "1"
        assert repr(FALSE) == "0"


class TestVar:
    def test_identity(self):
        assert Var("F1", "V", 3) == Var("F1", "V", 3)
        assert Var("F1", "V", 3) != Var("F1", "DV", 3)
        assert Var("F1", "V", 3) != Var("F2", "V", 3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Var("F1", "X", 0)

    def test_repr_matches_paper_naming(self):
        # Paper: x8 / cx8 / dx8 for fragment F2, sub-query q8.
        assert repr(Var("F2", "V", 8)) == "F2.8"
        assert repr(Var("F2", "CV", 8)) == "cF2.8"
        assert repr(Var("F2", "DV", 8)) == "dF2.8"

    def test_evaluate_reads_binding(self, variables):
        x, _, _ = variables
        assert x.evaluate({x: True}) is True
        assert x.evaluate({}) is None  # unbound is unknown


class TestKleeneEvaluate:
    """Three-valued evaluation: what LazyParBoX's early stop reads."""

    def test_or_decided_by_a_known_true(self, variables):
        x, y, _ = variables
        assert make_or(x, y).evaluate({y: True}) is True

    def test_and_decided_by_a_known_false(self, variables):
        x, y, _ = variables
        assert make_and(x, y).evaluate({y: False}) is False

    def test_unknown_propagates(self, variables):
        x, y, _ = variables
        assert make_or(x, y).evaluate({y: False}) is None
        assert make_and(x, y).evaluate({y: True}) is None

    def test_not_of_unknown(self, variables):
        x, _, _ = variables
        assert make_not(x).evaluate({}) is None
        assert make_not(x).evaluate({x: False}) is True

    def test_nested_resolution(self, variables):
        x, y, z = variables
        formula = make_and(make_or(x, y), make_not(z))
        assert formula.evaluate({y: True, z: False}) is True
        assert formula.evaluate({y: True}) is None
        assert formula.evaluate({z: True}) is False


class TestNotConstructor:
    def test_constant_folding(self):
        assert make_not(TRUE) is FALSE
        assert make_not(FALSE) is TRUE

    def test_double_negation(self, variables):
        x, _, _ = variables
        assert make_not(make_not(x)) is x

    def test_wraps_variables(self, variables):
        x, _, _ = variables
        negated = make_not(x)
        assert isinstance(negated, Not)
        assert negated.child is x


class TestAndConstructor:
    def test_identity_and_absorbing(self, variables):
        x, _, _ = variables
        assert make_and(x, TRUE) is x
        assert make_and(x, FALSE) is FALSE
        assert make_and() is TRUE
        assert make_and(TRUE, TRUE) is TRUE

    def test_single_operand(self, variables):
        x, _, _ = variables
        assert make_and(x) is x

    def test_deduplication(self, variables):
        x, y, _ = variables
        assert make_and(x, x) == x
        assert make_and(x, y, x) == make_and(x, y)

    def test_flattening(self, variables):
        x, y, z = variables
        nested = make_and(make_and(x, y), z)
        assert isinstance(nested, And)
        assert len(nested.children) == 3

    def test_complement_absorption(self, variables):
        x, y, _ = variables
        assert make_and(x, make_not(x)) is FALSE
        assert make_and(x, y, make_not(y)) is FALSE

    def test_operand_order_canonical(self, variables):
        x, y, _ = variables
        assert make_and(x, y) == make_and(y, x)
        assert hash(make_and(x, y)) == hash(make_and(y, x))


class TestOrConstructor:
    def test_identity_and_absorbing(self, variables):
        x, _, _ = variables
        assert make_or(x, FALSE) is x
        assert make_or(x, TRUE) is TRUE
        assert make_or() is FALSE

    def test_flatten_dedup_order(self, variables):
        x, y, z = variables
        assert make_or(make_or(x, y), z) == make_or(z, y, x)
        assert make_or(x, x) == x

    def test_complement_absorption(self, variables):
        x, _, _ = variables
        assert make_or(x, make_not(x)) is TRUE

    def test_operators(self, variables):
        x, y, _ = variables
        assert (x | y) == make_or(x, y)
        assert (x & y) == make_and(x, y)
        assert (~x) == make_not(x)


class TestEvaluationAndSubstitution:
    def test_evaluate(self, variables):
        x, y, z = variables
        formula = (x & y) | ~z
        assert formula.evaluate({x: True, y: True, z: True}) is True
        assert formula.evaluate({x: False, y: True, z: True}) is False
        assert formula.evaluate({x: False, y: False, z: False}) is True

    def test_variables(self, variables):
        x, y, z = variables
        assert ((x & y) | ~z).variables() == {x, y, z}
        assert TRUE.variables() == frozenset()

    def test_is_ground(self, variables):
        x, _, _ = variables
        assert TRUE.is_ground()
        assert not x.is_ground()

    def test_substitute_partial(self, variables):
        x, y, _ = variables
        formula = x & y
        assert formula.substitute({x: TRUE}) is y
        assert formula.substitute({x: FALSE}) is FALSE

    def test_substitute_with_formula(self, variables):
        x, y, z = variables
        assert (x | z).substitute({x: y & z}) == (y & z) | z

    def test_substitute_simplifies_complements(self, variables):
        x, y, _ = variables
        formula = x | y
        assert formula.substitute({x: ~y}) is TRUE


class TestSizeAccounting:
    def test_sizes(self, variables):
        x, y, _ = variables
        assert TRUE.size() == 1
        assert x.size() == 1
        assert (~x).size() == 2
        assert (x & y).size() == 3

    def test_canonicalization_bounds_size(self, variables):
        x, _, _ = variables
        formula = FALSE
        for _ in range(50):
            formula = make_or(formula, x)
        assert formula is x  # 50 ors collapse to the single variable


class TestWireFormat:
    @pytest.mark.parametrize(
        "build",
        [
            lambda x, y, z: TRUE,
            lambda x, y, z: FALSE,
            lambda x, y, z: x,
            lambda x, y, z: ~x,
            lambda x, y, z: x & y,
            lambda x, y, z: (x & y) | ~z,
            lambda x, y, z: ~(x | (y & ~z)),
        ],
    )
    def test_round_trip(self, variables, build):
        formula = build(*variables)
        assert formula_from_obj(formula.to_obj()) == formula

    def test_malformed_objects_rejected(self):
        with pytest.raises(ValueError):
            formula_from_obj(["nope"])
        with pytest.raises(ValueError):
            formula_from_obj([])
        with pytest.raises(ValueError):
            formula_from_obj("string")
