"""Unit tests for the XML parser and serializer."""

import random

import pytest

from repro.xmltree import XMLNode, XMLTree, element, parse_xml, serialize, estimated_wire_bytes
from repro.xmltree.parser import XMLParseError, parse_fragment_root

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the fixed seeds still run
    given = None


class TestParsing:
    def test_single_element(self):
        tree = parse_xml("<a/>")
        assert tree.root.label == "a"
        assert tree.size() == 1

    def test_nested_elements(self):
        tree = parse_xml("<a><b><c/></b><d/></a>")
        assert [n.label for n in tree.iter_nodes()] == ["a", "b", "c", "d"]

    def test_text_content(self):
        tree = parse_xml("<code>GOOG</code>")
        assert tree.root.text == "GOOG"

    def test_whitespace_only_text_dropped(self):
        tree = parse_xml("<a>\n  <b/>\n</a>")
        assert tree.root.text is None

    def test_entities(self):
        tree = parse_xml("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;</a>")
        assert tree.root.text == "<x> & \"y\" '"

    def test_numeric_entities(self):
        tree = parse_xml("<a>&#65;&#x42;</a>")
        assert tree.root.text == "AB"

    def test_comments_skipped(self):
        tree = parse_xml("<!-- head --><a><!-- inner --><b/></a>")
        assert tree.size() == 2

    def test_xml_declaration_skipped(self):
        tree = parse_xml('<?xml version="1.0"?><a/>')
        assert tree.root.label == "a"

    def test_cdata(self):
        tree = parse_xml("<a><![CDATA[1 < 2 & 3]]></a>")
        assert tree.root.text == "1 < 2 & 3"

    def test_attributes_parsed_and_ignored(self):
        tree = parse_xml('<a id="1" name="x"><b k="v"/></a>')
        assert tree.size() == 2

    def test_virtual_node_round_trip(self):
        tree = parse_xml('<a><frag:ref id="F2"/></a>')
        virtual = tree.root.children[0]
        assert virtual.is_virtual
        assert virtual.fragment_ref == "F2"

    def test_parse_fragment_root(self):
        node = parse_fragment_root("<b><c/></b>")
        assert node.label == "b"
        assert len(node.children) == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            "<a attr=value/>",
            "<a>&unknown;</a>",
            "<a>&broken</a>",
            '<frag:ref id="F1">x</frag:ref>',
            "<frag:ref/>",
            "< a/>",
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(XMLParseError):
            parse_xml(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as exc:
            parse_xml("<a><b></c></a>")
        assert exc.value.position > 0


class TestSerialization:
    def test_round_trip_structure(self):
        original = XMLTree(
            element(
                "portfolio",
                element("broker", element("name", text="Bache")),
                element("market", text="NYSE"),
            )
        )
        reparsed = parse_xml(serialize(original))
        assert original.structurally_equal(reparsed)

    def test_round_trip_with_virtual_nodes(self):
        root = element("a", element("b"))
        root.add_child(XMLNode.virtual("F3"))
        original = XMLTree(root)
        reparsed = parse_xml(serialize(original))
        assert original.structurally_equal(reparsed)

    def test_escaping_round_trip(self):
        original = XMLTree(element("a", text='1 < 2 & "3"'))
        reparsed = parse_xml(serialize(original))
        assert reparsed.root.text == '1 < 2 & "3"'

    def test_pretty_print_contains_newlines(self):
        tree = XMLTree(element("a", element("b")))
        assert "\n" in serialize(tree, indent=2)
        assert "\n" not in serialize(tree, indent=0)

    def test_estimated_wire_bytes_matches_serialization(self):
        tree = XMLTree(
            element("a", element("b", text="hello"), element("c"), element("d", text="x"))
        )
        assert estimated_wire_bytes(tree) == len(serialize(tree))

    def test_estimated_wire_bytes_counts_virtual(self):
        root = element("a")
        root.add_child(XMLNode.virtual("F1"))
        assert estimated_wire_bytes(XMLTree(root)) == len(serialize(XMLTree(root)))


def _shape(node):
    """``(label, text, children)`` of an element, ``("@", id)`` of a virtual leaf."""
    if node.is_virtual:
        return ("@", node.fragment_ref)
    return (node.label, node.text, tuple(_shape(child) for child in node.children))


class TestParity:
    """Input -> tree structure and input -> error tables, recorded with the
    recursive-descent reader this module's single-pass tokenizer replaced."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("<a>a<b/>c</a>", ("a", "ac", (("b", None, ()),))),
            ("<a>x<b>y</b>z<c/>w</a>", ("a", "xzw", (("b", "y", ()), ("c", None, ())))),
            ("<a>   </a>", ("a", None, ())),
            ("<a>\n\t \n</a>", ("a", None, ())),
            ("<a>  padded  </a>", ("a", "padded", ())),
            ("<a> left<b/>right </a>", ("a", "leftright", (("b", None, ()),))),
            ("<a >x</a >", ("a", "x", ())),
            ("<a\n>y</a\n>", ("a", "y", ())),
            ("<a ><b /></a >", ("a", None, (("b", None, ()),))),
            ("<a k='v'/>", ("a", None, ())),
            ("<a k='it&apos;s' j=\"&lt;&amp;&gt;\">t</a>", ("a", "t", ())),
            ('<a k = "v" >t</a>', ("a", "t", ())),
            ("<a k='v'k2='w'/>", ("a", None, ())),
            ("<frag:ref id='F2' />", ("@", "F2")),
            ("<a><frag:ref id='F2' /><frag:ref id=\"F3\"/></a>",
             ("a", None, (("@", "F2"), ("@", "F3")))),
            ("<a><frag:ref  id = 'F9'   /></a>", ("a", None, (("@", "F9"),))),
            ("<a>&#65;&#x42;&#X43;&#0100;</a>", ("a", "ABCd", ())),
            ("<a>&#x1F600; &#233;</a>", ("a", "\U0001F600 é", ())),
            ("<a>&amp;amp;</a>", ("a", "&amp;", ())),
            ("<a>1 &lt; 2</a>", ("a", "1 < 2", ())),
            ("<café>naïve</café>", ("café", "naïve", ())),
            ("<ñ><日本>語</日本></ñ>",
             ("ñ", None, (("日本", "語", ()),))),
            ("<a.b-c_d:e/>", ("a.b-c_d:e", None, ())),
            ("<_x><x1/></_x>", ("_x", None, (("x1", None, ()),))),
            ("<a><!-- c --><b/><?pi x?><![CDATA[<&>]]><c/></a>",
             ("a", "<&>", (("b", None, ()), ("c", None, ())))),
            ("<a><![CDATA[ x ]]>  y  </a>", ("a", "x   y", ())),
            ("<a><![CDATA[]]></a>", ("a", None, ())),
            ("<a>x<![CDATA[ ]]>y</a>", ("a", "x y", ())),
            ("<?xml version='1.0'?>\n<!-- head -->\n<a/>\n<!-- tail -->\n", ("a", None, ())),
            ("  <a/>  ", ("a", None, ())),
            ("<a><b>x</b> <c>y</c></a>", ("a", None, (("b", "x", ()), ("c", "y", ())))),
            ("<a>\xa0nbsp\xa0</a>", ("a", "nbsp", ())),
            ("<a>]]></a>", ("a", "]]>", ())),
            ("<a>></a>", ("a", ">", ())),
        ],
    )
    def test_structure_matches_recorded(self, text, expected):
        assert _shape(parse_xml(text).root) == expected

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("<a b", "expected '='", 4),
            ("<a b='1' c>", "expected '='", 10),
            ("<a b=", "attribute value must be quoted", 5),
            ("<a b='x", "unterminated construct, missing \"'\"", 6),
            ("<a", "expected '>'", 2),
            ("<a/ >", "expected '>'", 2),
            ("<a></a", "expected '>'", 6),
            ("<a></a ", "expected '>'", 7),
            ("<a><b k='v'", "expected '>'", 11),
            ("<a></ a>", "expected a name", 5),
            ("</a>", "expected a name", 1),
            ("<a><</a>", "expected a name", 4),
            ('<a ="1"/>', "expected a name", 3),
            ('<c.did="v"/>', "expected a name", 6),
            ("<!DOCTYPE a><a/>", "expected a name", 1),
            ("<a><!DOCTYPE></a>", "expected a name", 4),
            ("<?xml?>", "expected '<'", 7),
            ("<!-- x", "unterminated construct, missing '-->'", 4),
            ("<a><!-- x</a>", "unterminated construct, missing '-->'", 7),
            ("<a><b/></a><!-- x", "unterminated construct, missing '-->'", 15),
            ("<a><![CDATA[x</a>", "unterminated construct, missing ']]>'", 12),
            ("<a><?pi</a>", "unterminated construct, missing '?>'", 5),
            ("<a>text", "unterminated element 'a'", 7),
            ("<a></a>x", "trailing content after document element", 7),
            ("<a/>  <!-- ok --> <b/>", "trailing content after document element", 18),
            ("<a>&lt</a>", "unterminated entity reference", 3),
            ("<a>& </a>", "unterminated entity reference", 3),
            ("<a>&a&b;</a>", "unknown entity &a&b;", 3),
            ("<a k='&bad;'/>", "unknown entity &bad;", 12),
            ("<a k='&bad;' =>", "unknown entity &bad;", 12),
            ("<a k='&amp'/>", "unterminated entity reference", 11),
            ("<frag:ref id=''/>", "virtual node missing id attribute", 15),
            ("<frag:ref/ >", "virtual node missing id attribute", 9),
            ("<frag:ref id='F1' / >", "virtual nodes must be self-closing", 18),
            ("<frag:ref id='F1'", "virtual nodes must be self-closing", 17),
            ("<a><frag:ref id='F1'></a>", "virtual nodes must be self-closing", 20),
        ],
    )
    def test_error_matches_recorded(self, text, message, position):
        with pytest.raises(XMLParseError) as exc:
            parse_xml(text)
        assert (str(exc.value), exc.value.position) == (
            f"{message} (at offset {position})",
            position,
        )

    @pytest.mark.parametrize("text", ["<a>&#xZZ;</a>", "<a>&#;</a>", "<a>&#1114112;</a>"])
    def test_bad_character_reference_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            parse_xml(text)

    def test_fragment_root_ignores_what_follows(self):
        assert _shape(parse_fragment_root("<!-- x --> <b/>trailing")) == ("b", None, ())
        assert _shape(parse_fragment_root("  <?pi?><b><c/></b><c/>")) == (
            "b", None, (("c", None, ()),)
        )


_LABELS = ("a", "item", "café", "x.y", "n-1", "ns:t", "_u", "日本")
_TEXT_CHARS = "ab 9&<>\"'é"
_MISC = ("<!-- note -->", "<?pi data?>", "<![CDATA[]]>", "<!---->", "\n  ")


def _random_tree(rng: random.Random, depth: int = 0) -> XMLNode:
    node = XMLNode(rng.choice(_LABELS))
    if rng.random() < 0.5:
        text = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(1, 8))).strip()
        node.text = text or None
    for _ in range(rng.randint(0, 3) if depth < 4 else 0):
        if rng.random() < 0.2:
            node.add_child(XMLNode.virtual(f"F{rng.randint(1, 99)}"))
        else:
            node.add_child(_random_tree(rng, depth + 1))
    return node


def _with_misc(text: str, rng: random.Random) -> str:
    """``text`` with comments, PIs, empty CDATA and whitespace between tags."""
    out = []
    for piece in text.split("><"):
        out.append(piece)
        if rng.random() < 0.4:
            out.append(">" + rng.choice(_MISC) + "<")
        else:
            out.append("><")
    return "".join(out[:-1])


def _check_round_trip(seed: int) -> None:
    rng = random.Random(seed)
    tree = XMLTree(_random_tree(rng))
    text = serialize(tree)
    assert parse_xml(text).structurally_equal(tree)
    assert parse_xml(serialize(tree, indent=2)).structurally_equal(tree)
    assert parse_xml(_with_misc(text, rng)).structurally_equal(tree)


class TestRoundTripProperty:
    """``parse(serialize(t))`` is ``t``: virtual leaves, texts holding
    ``&<>"'``, comments / PIs / CDATA between children."""

    @pytest.mark.parametrize("seed", range(40))
    def test_round_trip_seeded(self, seed):
        _check_round_trip(seed)

    if given is not None:

        @settings(max_examples=200, deadline=None)
        @given(st.integers(min_value=0, max_value=2**32 - 1))
        def test_round_trip_any_seed(self, seed):
            _check_round_trip(seed)
