"""Unit tests for evalST: the one fragment step, the walk and its callers."""

import pytest

from repro.boolexpr import FALSE, TRUE, Var, make_and, make_or
from repro.core import bottom_up, eval_st
from repro.core.eval_st import RetainedSolve, resolve_ground, step, walk
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


class TestStep:
    def test_reads_wanted_entries_only(self):
        triplet = ground_triplet_from_bools("F1", [True, False], [False, True], [True, True])
        solved = step(triplet, {}, (0b01, 0b10, 0))
        assert solved.known == (0b01, 0b10, 0)
        assert solved.value == (0b01, 0b10, 0)
        assert solved.triplet() is triplet

    def test_cross_fragment_read(self):
        child = step(ground_triplet_from_bools("F1", [True], [False], [True]), {}, (1, 0, 1))
        parent = VectorTriplet(
            "F0",
            [make_or(Var("F1", "V", 0), FALSE)],
            [Var("F1", "V", 0)],
            [Var("F1", "DV", 0)],
        )
        solved = step(parent, {"F1": child}, (1, 1, 1))
        assert solved.known == (1, 1, 1) and solved.value == (1, 1, 1)

    def test_absent_or_undecided_entries_are_unknown(self):
        parent = VectorTriplet(
            "F0",
            [make_or(Var("F1", "V", 0), Var("F2", "V", 0))],
            [make_and(Var("F1", "V", 0), Var("F2", "V", 0))],
            [Var("F1", "CV", 0)],
        )
        f1 = step(ground_triplet_from_bools("F1", [True], [True], [True]), {}, (1, 0, 0))
        solved = step(parent, {"F1": f1}, (1, 1, 1))
        # V decided by the known disjunct; CV waits on F2; F1's CV was
        # never solved, so DV is unknown too.
        assert solved.known == (1, 0, 0) and solved.value == (1, 0, 0)

    def test_extends_what_an_earlier_step_held(self):
        triplet = ground_triplet_from_bools("F1", [True, False], [False, True], [True, True])
        first = step(triplet, {}, (0b01, 0, 0))
        solved = step(triplet, {}, (0b10, 0, 0b10), held=first)
        assert solved.known == (0b11, 0, 0b10) and solved.value == (0b01, 0, 0b10)

    def test_out_of_range_entry_rejected(self):
        triplet = ground_triplet_from_bools("F1", [True], [False], [True])
        with pytest.raises(IndexError):
            step(triplet, {}, (0b10, 0, 0))


class TestWalk:
    def test_absent_fragment_leaves_the_answer_open(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {"F0": bottom_up(tree.fragments["F0"], qlist)[0]}
        assert walk(RetainedSolve(), triplets, source_tree, [qlist.answer_index])[0] == [None]
        triplets["F1"] = bottom_up(tree.fragments["F1"], qlist)[0]
        assert walk(RetainedSolve(), triplets, source_tree, [qlist.answer_index])[0] == [True]

    def test_asks_each_fragment_only_what_its_parent_reads(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {fid: bottom_up(f, qlist)[0] for fid, f in tree.fragments.items()}
        retained = RetainedSolve()
        walk(retained, triplets, source_tree, [qlist.answer_index])
        solved = retained.snapshot[1]
        read = set()
        for slot, vector in enumerate((triplets["F0"].v, triplets["F0"].cv, triplets["F0"].dv)):
            for index, formula in enumerate(vector):
                if solved["F0"].known[slot] >> index & 1:
                    read |= {(var.kind, var.index) for var in formula.variables()}
        kinds = ("V", "CV", "DV")
        held = {(kind, i) for slot, kind in enumerate(kinds) for i in range(len(qlist))
                if solved["F1"].known[slot] >> i & 1}
        assert held == read and read

    def test_a_clean_fragment_answers_new_entries(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b and not(//c)]")
        triplets = {fid: bottom_up(f, qlist)[0] for fid, f in tree.fragments.items()}
        retained = RetainedSolve()
        every = list(range(len(qlist)))
        fresh = walk(RetainedSolve(), triplets, source_tree, every)[0]
        assert walk(retained, triplets, source_tree, [qlist.answer_index]) == ([True], 2)
        # Nothing dirty, but the root is asked for more: answered from
        # the same triplets without re-solving.
        assert walk(retained, triplets, source_tree, every) == (fresh, 0)

    def test_answer_index_out_of_range(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {fid: bottom_up(f, qlist)[0] for fid, f in tree.fragments.items()}
        for index in (-1, len(qlist)):
            with pytest.raises(IndexError):
                walk(RetainedSolve(), triplets, source_tree, [index])


class TestEvalSt:
    def test_missing_triplet_rejected(self):
        _, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplet = ground_triplet_from_bools("F0", [True] * len(qlist), [False] * len(qlist), [True] * len(qlist))
        with pytest.raises(ValueError, match="missing"):
            eval_st({"F0": triplet}, source_tree, qlist)

    def test_end_to_end(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {
            fid: bottom_up(fragment, qlist)[0] for fid, fragment in tree.fragments.items()
        }
        assert eval_st(triplets, source_tree, qlist) is True

    def test_extra_triplets_tolerated(self):
        tree, source_tree = two_fragment_setup()
        qlist = compile_query("[//b]")
        triplets = {
            fid: bottom_up(fragment, qlist)[0] for fid, fragment in tree.fragments.items()
        }
        triplets["GHOST"] = ground_triplet_from_bools(
            "GHOST", [False] * len(qlist), [False] * len(qlist), [False] * len(qlist)
        )
        assert eval_st(triplets, source_tree, qlist) is True


class TestResolveGround:
    def _ground(self, fragment_id, v, cv, dv):
        triplet = ground_triplet_from_bools(fragment_id, v, cv, dv)
        return resolve_ground(triplet, {})[0]

    def test_resolves_to_ground(self):
        child = self._ground("K", [True], [False], [True])
        parent = VectorTriplet("P", [Var("K", "DV", 0)], [Var("K", "V", 0)], [TRUE])
        solved, ground = resolve_ground(parent, {"K": child})
        assert ground.is_ground()
        assert ground.v[0] is TRUE
        assert ground.cv[0] is TRUE
        assert solved.value == (1, 1, 1)
        assert ground.wire_bytes() == ground_triplet_from_bools("P", [1], [1], [1]).wire_bytes()

    def test_unresolved_references_rejected(self):
        parent = VectorTriplet("P", [Var("MISSING", "V", 0)], [FALSE], [FALSE])
        with pytest.raises(ValueError, match="P"):
            resolve_ground(parent, {})

    def test_multiple_children(self):
        left = self._ground("L", [False], [False], [False])
        right = self._ground("R", [True], [False], [True])
        parent = VectorTriplet(
            "P",
            [make_or(Var("L", "V", 0), Var("R", "V", 0))],
            [FALSE],
            [make_or(Var("L", "DV", 0), Var("R", "DV", 0))],
        )
        _, ground = resolve_ground(parent, {"L": left, "R": right})
        assert ground.v[0] is TRUE
        assert ground.dv[0] is TRUE
