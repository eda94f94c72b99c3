"""Unit tests for the hash-consed formula pool and its derived caches."""

import pickle

from repro.boolexpr import (
    FALSE,
    TRUE,
    And,
    Const,
    Not,
    Or,
    Var,
    make_and,
    make_not,
    make_or,
)
from repro.boolexpr.formula import pool_stats


class TestInterning:
    def test_vars_are_interned(self):
        assert Var("F1", "V", 3) is Var("F1", "V", 3)
        assert Var("F1", "V", 3) is not Var("F1", "DV", 3)

    def test_consts_are_singletons(self):
        assert Const(True) is TRUE
        assert Const(False) is FALSE
        assert ~TRUE is FALSE

    def test_connectives_are_interned(self):
        x, y = Var("F1", "V", 0), Var("F1", "V", 1)
        assert make_and(x, y) is make_and(x, y)
        assert make_or(x, y) is make_or(y, x)  # canonical order first
        assert make_not(x) is make_not(x)
        assert Not(x) is Not(x)  # raw constructors intern too
        assert And((x, y)) is And((x, y))
        assert Or((x, y)) is Or((x, y))

    def test_structural_equality_is_identity_in_process(self):
        x, y, z = (Var("F", "V", i) for i in range(3))
        left = make_or(make_and(x, y), ~z)
        right = make_or(~z, make_and(y, x))
        assert left is right

    def test_paper_shapes_intern_without_canonicalizing(self):
        x = Var("F", "V", 0)
        duplicated = And((x, x))  # the paper-literal algebra can build this
        assert duplicated is And((x, x))
        assert len(duplicated.children) == 2  # not deduplicated

    def test_pool_stats_counts_live_formulas(self):
        x = Var("Fstats", "V", 99)
        kept = make_not(x)
        stats = pool_stats()
        assert stats["var"] >= 1 and stats["not"] >= 1
        assert kept is make_not(x)


class TestDerivedCaches:
    def test_variables_computed_once_and_shared(self):
        x, y = Var("F1", "V", 0), Var("F2", "CV", 5)
        formula = make_and(x, y)
        first = formula.variables()
        assert first == {x, y}
        assert formula.variables() is first  # cached frozenset

    def test_size_cached(self):
        x, y = Var("F1", "V", 0), Var("F1", "V", 1)
        formula = make_and(x, make_or(x, y))
        assert formula.size() == formula.size() == 5

    def test_sort_key_stable_under_interning(self):
        x, y = Var("F1", "V", 0), Var("F1", "V", 1)
        assert make_and(x, y).sort_key() == make_and(y, x).sort_key()


class TestPickling:
    def test_round_trip_reinterns(self):
        x, y, z = (Var("F", "V", i) for i in range(3))
        for formula in (TRUE, FALSE, x, ~x, x & y, (x & y) | ~z, And((x, x))):
            clone = pickle.loads(pickle.dumps(formula))
            assert clone is formula  # unpickling lands in the pool

    def test_cross_structure_sharing_survives(self):
        x = Var("F", "V", 0)
        shared = make_not(x)
        pair = pickle.loads(pickle.dumps((shared, make_or(shared, Var("F", "V", 1)))))
        assert pair[0] is shared
        assert pair[0] in pair[1].children
