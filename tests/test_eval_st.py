"""Unit tests for evalST, resolve_triplet and the answer variable."""

import pytest

from repro.boolexpr import FALSE, TRUE, Var, make_or
from repro.core import (
    answer_variable,
    build_equation_system,
    eval_st,
    resolve_triplet,
)
from repro.core.vectors import VectorTriplet, ground_triplet_from_bools
from repro.fragments import Fragment, FragmentedTree, Placement, SourceTree
from repro.xmltree import XMLNode, element
from repro.xpath import compile_query


def two_fragment_setup():
    """F0 (with virtual F1) over sites S0/S1 and a 1-entry query."""
    f0_root = element("a")
    f0_root.add_child(XMLNode.virtual("F1"))
    tree = FragmentedTree(
        {"F0": Fragment("F0", f0_root), "F1": Fragment("F1", element("b"))}, "F0"
    )
    placement = Placement({"F0": "S0", "F1": "S1"})
    return tree, SourceTree.from_fragmented_tree(tree, placement)


class TestBuildEquationSystem:
    def test_defines_three_vectors_per_fragment(self):
        triplet = ground_triplet_from_bools("F1", [True], [False], [True])
        system = build_equation_system({"F1": triplet})
        assert system.value_of(Var("F1", "V", 0)) is True
        assert system.value_of(Var("F1", "CV", 0)) is False
        assert system.value_of(Var("F1", "DV", 0)) is True

    def test_cross_fragment_resolution(self):
        child = ground_triplet_from_bools("F1", [True], [False], [True])
        parent = VectorTriplet(
            "F0",
            [make_or(Var("F1", "V", 0), FALSE)],
            [Var("F1", "V", 0)],
            [Var("F1", "DV", 0)],
        )
        system = build_equation_system({"F0": parent, "F1": child})
        assert system.value_of(Var("F0", "V", 0)) is True

    def test_out_of_range_indices_unbound(self):
        """The lazy resolver must bounds-check: an out-of-range index is unbound.

        Python's negative indexing would otherwise silently resolve
        ``Var(F, 'V', -1)`` to the *last* entry instead of raising.
        """
        from repro.boolexpr import UnboundVariableError

        triplet = ground_triplet_from_bools("F1", [True, False], [False] * 2, [True] * 2)
        system = build_equation_system({"F1": triplet})
        for index in (-1, 2):
            with pytest.raises(UnboundVariableError):
                system.value_of(Var("F1", "V", index))


class TestAnswerVariable:
    def test_points_at_root_fragment_last_entry(self):
        _, source_tree = two_fragment_setup()
        qlist = compile_query("[//b and //c]")
        var = answer_variable(source_tree, qlist)
        assert var == Var("F0", "V", qlist.answer_index)


class TestEvalSt:
    def test_missing_triplet_rejected(self):
        _, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplet = ground_triplet_from_bools("F0", [True] * len(qlist), [False] * len(qlist), [True] * len(qlist))
        with pytest.raises(ValueError, match="missing"):
            eval_st({"F0": triplet}, source_tree, qlist)

    def test_end_to_end(self):
        from repro.core import bottom_up

        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {
            fid: bottom_up(fragment, qlist)[0] for fid, fragment in tree.fragments.items()
        }
        assert eval_st(triplets, source_tree, qlist) is True

    def test_extra_triplets_tolerated(self):
        from repro.core import bottom_up

        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {
            fid: bottom_up(fragment, qlist)[0] for fid, fragment in tree.fragments.items()
        }
        triplets["GHOST"] = ground_triplet_from_bools(
            "GHOST", [False] * len(qlist), [False] * len(qlist), [False] * len(qlist)
        )
        assert eval_st(triplets, source_tree, qlist) is True


class TestResolveTriplet:
    def test_resolves_to_ground(self):
        child = ground_triplet_from_bools("K", [True], [False], [True])
        parent = VectorTriplet("P", [Var("K", "DV", 0)], [Var("K", "V", 0)], [TRUE])
        resolved = resolve_triplet(parent, {"K": child})
        assert resolved.is_ground()
        assert resolved.v[0] is TRUE
        assert resolved.cv[0] is TRUE

    def test_non_ground_child_rejected(self):
        child = VectorTriplet("K", [Var("X", "V", 0)], [FALSE], [FALSE])
        parent = VectorTriplet("P", [Var("K", "V", 0)], [FALSE], [FALSE])
        with pytest.raises(ValueError, match="not ground"):
            resolve_triplet(parent, {"K": child})

    def test_unresolved_references_rejected(self):
        parent = VectorTriplet("P", [Var("MISSING", "V", 0)], [FALSE], [FALSE])
        with pytest.raises(ValueError, match="MISSING"):
            resolve_triplet(parent, {})

    def test_multiple_children(self):
        left = ground_triplet_from_bools("L", [False], [False], [False])
        right = ground_triplet_from_bools("R", [True], [False], [True])
        parent = VectorTriplet(
            "P",
            [make_or(Var("L", "V", 0), Var("R", "V", 0))],
            [FALSE],
            [make_or(Var("L", "DV", 0), Var("R", "DV", 0))],
        )
        resolved = resolve_triplet(parent, {"L": left, "R": right})
        assert resolved.v[0] is TRUE
        assert resolved.dv[0] is TRUE
