"""Unit tests for the partial-evaluation bottomUp procedure."""

import pytest

from repro.boolexpr import FALSE, TRUE, PaperAlgebra, Var
from repro.core import bottom_up, evaluate_tree
from repro.core.vectors import VectorTriplet
from repro.fragments import Fragment
from repro.xmltree import XMLNode, XMLTree, element
from repro.xpath import compile_query


def fragment_of(node, fragment_id="F"):
    return Fragment(fragment_id, node)


class TestGroundFragments:
    """Fragments without virtual nodes: V[last] equals the centralized answer."""

    @pytest.mark.parametrize(
        "query",
        [
            "[//stock]",
            '[//code/text() = "GOOG"]',
            "[broker/market]",
            "[not //zzz]",
            "[label() = portofolio]",
            "[* and not(//a or b)]",
        ],
    )
    def test_matches_centralized(self, query):
        root = element(
            "portofolio",
            element("broker", element("market", element("stock", element("code", text="GOOG")))),
        )
        qlist = compile_query(query)
        triplet, _ = bottom_up(fragment_of(root.deep_copy()), qlist)
        assert triplet.is_ground()
        oracle, _ = evaluate_tree(XMLTree(root), qlist)
        assert triplet.v[qlist.answer_index].evaluate({}) == oracle


class TestVectorSemantics:
    def test_cv_is_children_disjunction(self):
        # CV[label() = b] is true iff some direct child is labelled b.
        root = element("a", element("b"), element("c"))
        qlist = compile_query("[b]")  # entries: label-b, selfqual, child
        triplet, _ = bottom_up(fragment_of(root), qlist)
        label_index = next(i for i, e in enumerate(qlist) if e.op == "label")
        assert triplet.cv[label_index] is TRUE
        assert triplet.v[label_index] is FALSE  # the root is 'a'

    def test_dv_includes_self(self):
        root = element("b")
        qlist = compile_query("[b]")
        triplet, _ = bottom_up(fragment_of(root), qlist)
        label_index = next(i for i, e in enumerate(qlist) if e.op == "label")
        assert triplet.dv[label_index] is TRUE
        assert triplet.cv[label_index] is FALSE

    def test_dv_includes_deep_descendants(self):
        root = element("a", element("x", element("x", element("b"))))
        qlist = compile_query("[b]")
        triplet, _ = bottom_up(fragment_of(root), qlist)
        label_index = next(i for i, e in enumerate(qlist) if e.op == "label")
        assert triplet.dv[label_index] is TRUE


class TestVirtualNodes:
    def test_virtual_child_introduces_variables(self):
        root = element("a")
        root.add_child(XMLNode.virtual("F9"))
        qlist = compile_query("[//b]")
        triplet, _ = bottom_up(fragment_of(root), qlist)
        assert not triplet.is_ground()
        assert triplet.referenced_fragments() == {"F9"}
        # The answer //b at the root: DV of the label entry includes the
        # virtual node's DV variable.
        label_index = next(i for i, e in enumerate(qlist) if e.op == "label")
        assert Var("F9", "DV", label_index) in triplet.dv[label_index].variables()

    def test_two_virtual_children(self):
        root = element("a")
        root.add_child(XMLNode.virtual("L"))
        root.add_child(XMLNode.virtual("R"))
        qlist = compile_query("[//b]")
        triplet, _ = bottom_up(fragment_of(root), qlist)
        assert triplet.referenced_fragments() == {"L", "R"}

    def test_virtual_nodes_not_counted_as_work(self):
        root = element("a", element("b"))
        root.add_child(XMLNode.virtual("F1"))
        qlist = compile_query("[//b]")
        _, stats = bottom_up(fragment_of(root), qlist)
        assert stats.nodes_visited == 2  # a and b, not the virtual leaf

    def test_true_short_circuits_variables(self):
        # If the local data already satisfies //b, the answer entry is
        # TRUE regardless of what the sub-fragment holds.
        root = element("a", element("b"))
        root.add_child(XMLNode.virtual("F1"))
        qlist = compile_query("[//b]")
        triplet, _ = bottom_up(fragment_of(root), qlist)
        assert triplet.v[qlist.answer_index] is TRUE


class TestStatsAndAlgebra:
    def test_ops_counting(self):
        root = element("a", element("b"), element("c"))
        qlist = compile_query("[//b and c]")
        _, stats = bottom_up(fragment_of(root), qlist)
        assert stats.nodes_visited == 3
        assert stats.qlist_ops == 3 * len(qlist)

    def test_paper_algebra_same_semantics(self):
        root = element("a", element("b"))
        root.add_child(XMLNode.virtual("F1"))
        qlist = compile_query("[//b or //c]")
        canonical, _ = bottom_up(fragment_of(root), qlist)
        paper, _ = bottom_up(fragment_of(root), qlist, algebra=PaperAlgebra())
        index = qlist.answer_index
        for env_value in (False, True):
            env = {var: env_value for var in paper.v[index].variables()}
            env_c = {var: env_value for var in canonical.v[index].variables()}
            assert paper.v[index].evaluate(env) == canonical.v[index].evaluate(env_c)

    def test_deep_fragment_no_recursion_error(self):
        current = root = XMLNode("n")
        for _ in range(5000):
            current = current.add_child(XMLNode("n"))
        current.add_child(XMLNode("b"))
        qlist = compile_query("[//b]")
        triplet, stats = bottom_up(fragment_of(root), qlist)
        assert triplet.v[qlist.answer_index] is TRUE
        assert stats.nodes_visited == 5002


class TestTripletObject:
    def test_wire_round_trip(self):
        root = element("a", element("b"))
        root.add_child(XMLNode.virtual("F1"))
        qlist = compile_query("[//b and //c]")
        triplet, _ = bottom_up(fragment_of(root, "Fx"), qlist)
        restored = VectorTriplet.from_obj(triplet.to_obj())
        assert restored == triplet
        assert restored.wire_bytes() == triplet.wire_bytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorTriplet("F", [TRUE], [TRUE, FALSE], [TRUE])
