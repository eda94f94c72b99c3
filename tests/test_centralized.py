"""Semantics tests for the centralized evaluator (the test oracle itself).

Every case here is hand-computed, so these tests anchor the whole
repository's notion of XBL semantics.
"""

import pytest

from repro.core import evaluate_tree
from repro.xmltree import XMLNode, XMLTree, element, parse_xml
from repro.xpath import compile_query


def ask(tree_text: str, query: str) -> bool:
    answer, _ = evaluate_tree(parse_xml(tree_text), compile_query(query))
    return answer


DOC = """
<portofolio>
  <broker>
    <name>Bache</name>
    <market>
      <name>NYSE</name>
      <stock><code>IBM</code><buy>80</buy><sell>78</sell></stock>
    </market>
  </broker>
  <broker>
    <name>Merill Lynch</name>
    <market>
      <name>NASDAQ</name>
      <stock><code>GOOG</code><buy>370</buy><sell>372</sell></stock>
    </market>
  </broker>
</portofolio>
"""


class TestPathSemantics:
    def test_child(self):
        assert ask(DOC, "[broker]") is True
        assert ask(DOC, "[stock]") is False  # not a direct child

    def test_child_chain(self):
        assert ask(DOC, "[broker/market/stock]") is True
        assert ask(DOC, "[broker/stock]") is False

    def test_descendant(self):
        assert ask(DOC, "[//stock]") is True
        assert ask(DOC, "[//nothing]") is False

    def test_descendant_mid_path(self):
        assert ask(DOC, "[broker//code]") is True

    def test_descendant_excludes_self_for_labels(self):
        # //a from the root selects descendants via a child step; the
        # root itself is not a child of anything.
        assert ask("<a><b/></a>", "[//a]") is False
        assert ask("<a><a/></a>", "[//a]") is True

    def test_nested_descendant_repetition(self):
        # a//a needs two distinct 'a' nodes on a descendant chain.
        assert ask("<r><a><x><a/></x></a></r>", "[a//a]") is True
        assert ask("<r><a><x/></a></r>", "[a//a]") is False

    def test_wildcard(self):
        assert ask(DOC, "[*]") is True
        assert ask("<leaf/>", "[*]") is False

    def test_wildcard_chain(self):
        assert ask(DOC, "[*/*/*/code]") is True

    def test_self_path(self):
        assert ask("<leaf/>", "[.]") is True

    def test_absolute_path_names_root(self):
        assert ask(DOC, "[/portofolio/broker]") is True
        assert ask(DOC, "[/wrong/broker]") is False


class TestQualifiers:
    def test_simple_qualifier(self):
        assert ask(DOC, "[//market[name]]") is True
        assert ask(DOC, "[//market[zzz]]") is False

    def test_qualifier_with_comparison(self):
        assert ask(DOC, '[//stock[code = "GOOG"]]') is True
        assert ask(DOC, '[//stock[code = "MSFT"]]') is False

    def test_conjunctive_qualifier_same_node(self):
        # One stock must have both properties.
        assert ask(DOC, '[//stock[code = "GOOG" and sell = "372"]]') is True
        assert ask(DOC, '[//stock[code = "GOOG" and sell = "78"]]') is False

    def test_mid_path_qualifier(self):
        assert ask(DOC, '[//market[name = "NYSE"]/stock/code]') is True
        assert ask(DOC, '[//market[name = "LSE"]/stock/code]') is False

    def test_nested_qualifiers(self):
        assert ask(DOC, '[//broker[market[stock[code = "IBM"]]]]') is True


class TestComparisons:
    def test_text_equality(self):
        assert ask(DOC, '[//code/text() = "IBM"]') is True
        assert ask(DOC, '[//code/text() = "ibm"]') is False  # case-sensitive

    def test_equals_sugar(self):
        assert ask(DOC, '[//name = "Bache"]') is True

    def test_label_test_at_root(self):
        assert ask(DOC, "[label() = portofolio]") is True
        assert ask(DOC, "[label() = broker]") is False

    def test_text_on_element_itself(self):
        # text() = str compares the node's own text (Example 2.1 style).
        assert ask("<a><b>v</b></a>", '[b/text() = "v"]') is True
        assert ask("<a><b><c>v</c></b></a>", '[b/text() = "v"]') is False

    def test_bare_text_at_root(self):
        assert ask("<a>hello</a>", '[text() = "hello"]') is True
        assert ask("<a><b>hello</b></a>", '[text() = "hello"]') is False


class TestBooleans:
    def test_conjunction(self):
        assert ask(DOC, "[//code and //sell]") is True
        assert ask(DOC, "[//code and //zzz]") is False

    def test_disjunction(self):
        assert ask(DOC, "[//zzz or //sell]") is True
        assert ask(DOC, "[//zzz or //yyy]") is False

    def test_negation(self):
        assert ask(DOC, "[not //zzz]") is True
        assert ask(DOC, "[not //code]") is False

    def test_section22_example(self):
        query = (
            '[//broker[//stock/code/text() = "GOOG" and '
            'not(//stock/code/text() = "YHOO")]]'
        )
        assert ask(DOC, query) is True

    def test_de_morgan_consistency(self):
        assert ask(DOC, "[not(//code or //zzz)]") == ask(
            DOC, "[not //code and not //zzz]"
        )


class TestStats:
    def test_node_and_op_counts(self):
        tree = parse_xml("<a><b/><c/></a>")
        qlist = compile_query("[//b]")
        answer, stats = evaluate_tree(tree, qlist)
        assert answer is True
        assert stats.nodes_visited == 3
        assert stats.qlist_ops == 3 * len(qlist)
        assert stats.wall_seconds >= 0

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_virtual_nodes_rejected(self, depth):
        # depth 0: the root itself is virtual; deeper: a virtual node
        # under a chain of ground ancestors with ground siblings.
        root = node = XMLNode.virtual("F1") if depth == 0 else element("a")
        for level in range(1, depth + 1):
            node.add_child(element("b", "x"))
            child = XMLNode.virtual("F1") if level == depth else element("a")
            node.add_child(child)
            node.add_child(element("c"))
            node = child
        with pytest.raises(ValueError, match="requires an unfragmented tree"):
            evaluate_tree(XMLTree(root), compile_query("[//b]"))
