"""Ground-truth tests against the paper's worked examples.

Example 2.1 fixes ``QList(q)`` for q = //stock[code/text() = "yhoo"];
Examples 3.1/3.2 print the exact (V, CV, DV) triplets of four fragments;
Example 3.3 unifies them to the answer ``true``.  This module rebuilds
that exact scenario -- using the paper's own 10-entry QList (built by
hand, since the printed example elides a ``*`` step; see
tests/test_xpath_normalize.py) -- and asserts our ``bottomUp`` and
``evalST`` reproduce every printed formula.

Known typo in the paper: ``CVF1`` and ``DVF1`` print ``0`` in their
first entry although children of F1's root include the virtual node F2,
so they must be ``x1`` / ``dx1`` (exactly as every other entry i of the
same vectors is ``xi`` / ``dxi``).  We assert the algorithmically
consistent values.
"""

import pytest

from repro.boolexpr import FALSE, TRUE, Var, make_or
from repro.core import bottom_up, eval_st
from repro.core.eval_st import solve_every
from repro.fragments import Fragment, FragmentedTree, Placement, SourceTree
from repro.xmltree.builder import element
from repro.xmltree.node import XMLNode
from repro.xpath.qlist import (
    OP_AND,
    OP_CHILD,
    OP_DESC,
    OP_LABEL_IS,
    OP_SELF_QUAL,
    OP_TEXT_IS,
    QEntry,
    QList,
)


def paper_qlist() -> QList:
    """Example 2.1's QList, exactly as printed (1-based in the paper)."""
    return QList(
        [
            QEntry(OP_LABEL_IS, value="code"),  # q1
            QEntry(OP_TEXT_IS, value="yhoo"),  # q2
            QEntry(OP_AND, args=(0, 1)),  # q3 = q1 ∧ q2
            QEntry(OP_SELF_QUAL, args=(2,)),  # q4 = ε[q3]
            QEntry(OP_CHILD, args=(3,)),  # q5 = */ε[q4]
            QEntry(OP_LABEL_IS, value="stock"),  # q6
            QEntry(OP_AND, args=(4, 5)),  # q7 = q5 ∧ q6
            QEntry(OP_SELF_QUAL, args=(6,)),  # q8 = ε[q7]
            QEntry(OP_DESC, args=(7,)),  # q9 = //ε[q8]
            QEntry(OP_SELF_QUAL, args=(8,)),  # q10 = ε[q9]
        ],
        source="paper-example-2.1",
    )


# Variable shorthands matching the paper: xi/dxi for F2, yi/dyi for F1,
# zi/dzi for F3 (1-based index i).
def x(i):
    return Var("F2", "V", i - 1)


def dx(i):
    return Var("F2", "DV", i - 1)


def y(i):
    return Var("F1", "V", i - 1)


def dy(i):
    return Var("F1", "DV", i - 1)


def z(i):
    return Var("F3", "V", i - 1)


def dz(i):
    return Var("F3", "DV", i - 1)


def build_example_fragments() -> FragmentedTree:
    """The fragment contents implied by Examples 3.1/3.2.

    * F0 = portofolio{ @F1, broker{ name(Bache), stock{}, @F3 } }
    * F1 = broker{ name(Merill Lynch), @F2 }
    * F2 = market{ name(NASDAQ), stock{ code(yhoo) } }
    * F3 = market{ stock{ code(ibm) } }

    (The printed vectors pin these shapes down: e.g. ``DVF0[6] = 1``
    requires a stock node inside F0 while ``DVF0[1] = dy1 ∨ dz1``
    requires it to have no code child.)
    """
    f0 = element("portofolio")
    f0.add_child(XMLNode.virtual("F1"))
    f0.add_child(
        element("broker", element("name", text="Bache"), element("stock"))
    )
    f0.children[1].add_child(XMLNode.virtual("F3"))

    f1 = element("broker", element("name", text="Merill Lynch"))
    f1.add_child(XMLNode.virtual("F2"))

    f2 = element(
        "market",
        element("name", text="NASDAQ"),
        element("stock", element("code", text="yhoo")),
    )
    f3 = element("market", element("stock", element("code", text="ibm")))

    return FragmentedTree(
        {
            "F0": Fragment("F0", f0),
            "F1": Fragment("F1", f1),
            "F2": Fragment("F2", f2),
            "F3": Fragment("F3", f3),
        },
        "F0",
    )


@pytest.fixture(scope="module")
def triplets():
    qlist = paper_qlist()
    tree = build_example_fragments()
    return {
        fid: bottom_up(fragment, qlist)[0]
        for fid, fragment in tree.fragments.items()
    }


class TestExample32Vectors:
    """Every formula of Example 3.2, entry by entry."""

    def test_vf0(self, triplets):
        expected = [
            FALSE, FALSE, FALSE, FALSE,
            y(4),
            FALSE, FALSE, FALSE,
            make_or(dy(8), dz(8)),
            make_or(dy(8), dz(8)),
        ]
        assert list(triplets["F0"].v) == expected

    def test_cvf0(self, triplets):
        expected = [
            y(1), y(2), y(3), y(4),
            make_or(y(5), z(4)),
            y(6), y(7), y(8),
            make_or(y(9), dz(8)),
            make_or(y(10), dz(8)),
        ]
        assert list(triplets["F0"].cv) == expected

    def test_dvf0(self, triplets):
        expected = [
            make_or(dy(1), dz(1)),
            make_or(dy(2), dz(2)),
            make_or(dy(3), dz(3)),
            make_or(dy(4), dz(4)),
            make_or(dy(5), dz(5), z(4), y(4)),
            TRUE,
            make_or(dy(7), dz(7)),
            make_or(dy(8), dz(8)),
            make_or(dy(8), dz(8), dy(9), dz(9)),
            make_or(dy(8), dz(8), dy(10), dz(10)),
        ]
        assert list(triplets["F0"].dv) == expected

    def test_vf1(self, triplets):
        expected = [
            FALSE, FALSE, FALSE, FALSE,
            x(4),
            FALSE, FALSE, FALSE,
            dx(8),
            dx(8),
        ]
        assert list(triplets["F1"].v) == expected

    def test_cvf1(self, triplets):
        # Paper prints CVF1[1] = 0; algorithmically it is x1 (typo --
        # every entry i of CVF1 is xi, the V-variables of virtual F2).
        assert list(triplets["F1"].cv) == [x(i) for i in range(1, 11)]

    def test_dvf1(self, triplets):
        # Paper prints DVF1[1] = 0; algorithmically dx1 (same typo).
        expected = [
            dx(1), dx(2), dx(3), dx(4),
            make_or(x(4), dx(5)),
            dx(6), dx(7), dx(8),
            make_or(dx(8), dx(9)),
            make_or(dx(8), dx(10)),
        ]
        assert list(triplets["F1"].dv) == expected

    def test_vf2(self, triplets):
        expected = [FALSE] * 8 + [TRUE, TRUE]
        assert list(triplets["F2"].v) == expected

    def test_cvf2(self, triplets):
        expected = [FALSE] * 4 + [TRUE] * 6
        assert list(triplets["F2"].cv) == expected

    def test_dvf2(self, triplets):
        assert list(triplets["F2"].dv) == [TRUE] * 10

    def test_vf3(self, triplets):
        assert list(triplets["F3"].v) == [FALSE] * 10

    def test_cvf3(self, triplets):
        expected = [FALSE] * 5 + [TRUE] + [FALSE] * 4
        assert list(triplets["F3"].cv) == expected

    def test_dvf3(self, triplets):
        expected = [TRUE] + [FALSE] * 4 + [TRUE] + [FALSE] * 4
        assert list(triplets["F3"].dv) == expected

    def test_leaf_triplets_are_ground(self, triplets):
        # "the vectors of leaf fragments in the source tree contain no
        # variables" -- F2 and F3 are the leaf fragments.
        assert triplets["F2"].is_ground()
        assert triplets["F3"].is_ground()

    def test_variable_ownership(self, triplets):
        assert triplets["F0"].referenced_fragments() == {"F1", "F3"}
        assert triplets["F1"].referenced_fragments() == {"F2"}


class TestExample33Unification:
    """The bottom-up unification dy8 <- dx8 <- 1, dz8 <- 0 => q = true."""

    def test_answer_formula_shape(self, triplets):
        assert triplets["F0"].v[9] == make_or(dy(8), dz(8))

    def test_unification_steps(self, triplets):
        # The bottom-up pass: leaves first, each with its children's
        # values as constants.
        solved = {}
        for fragment_id in ("F2", "F3", "F1"):
            solved[fragment_id] = solve_every(triplets[fragment_id], solved)

        def dv(var):
            return bool(solved[var.owner].value[2] >> var.index & 1)

        assert dv(dx(8)) is True  # DVF2 unifies dx8 to 1
        assert dv(dy(8)) is True  # DVF1 unifies dy8 to dx8
        assert dv(dz(8)) is False  # DVF3 unifies dz8 to 0

    def test_answer_is_true(self, triplets):
        tree = build_example_fragments()
        placement = Placement({"F0": "S0", "F1": "S1", "F2": "S2", "F3": "S2"})
        source_tree = SourceTree.from_fragmented_tree(tree, placement)
        assert eval_st(triplets, source_tree, paper_qlist()) is True


class TestSection1Example:
    """Section 1: Q = [//A ∧ //B] over T = R{X{Z}, Y} (Fig. 1(a)).

    Q(R, X, Y, Z) = (rA ∨ xA ∨ yA ∨ zA) ∧ (rB ∨ xB ∨ yB ∨ zB); with A
    only in Z and B only in Y the answer is true, computed with one
    visit per fragment.
    """

    def _fragments(self):
        z = element("z", element("A"))
        y = element("y", element("B"))
        x = element("x")
        x.add_child(XMLNode.virtual("Z"))
        r = element("r")
        r.add_child(XMLNode.virtual("X"))
        r.add_child(XMLNode.virtual("Y"))
        return FragmentedTree(
            {
                "R": Fragment("R", r),
                "X": Fragment("X", x),
                "Y": Fragment("Y", y),
                "Z": Fragment("Z", z),
            },
            "R",
        )

    def test_answer(self):
        from repro.xpath import compile_query

        qlist = compile_query("[//A and //B]")
        tree = self._fragments()
        triplets = {fid: bottom_up(f, qlist)[0] for fid, f in tree.fragments.items()}
        placement = Placement({fid: f"S{fid}" for fid in tree.fragments})
        source_tree = SourceTree.from_fragmented_tree(tree, placement)
        assert eval_st(triplets, source_tree, qlist) is True

    def test_partial_answers_are_expressions_or_values(self):
        # "some of the returned values are truth values while others are
        # Boolean expressions"
        from repro.xpath import compile_query

        qlist = compile_query("[//A and //B]")
        tree = self._fragments()
        triplets = {fid: bottom_up(f, qlist)[0] for fid, f in tree.fragments.items()}
        assert triplets["Z"].is_ground() and triplets["Y"].is_ground()
        assert not triplets["X"].is_ground()
        assert not triplets["R"].is_ground()
