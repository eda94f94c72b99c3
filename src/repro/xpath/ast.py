"""Surface abstract syntax of XBL queries.

A Boolean expression (:class:`BoolExpr`) combines path-existence tests
with ``and`` / ``or`` / ``not`` and two atomic comparisons.  A *path* is
a sequence of :class:`Segment` values; each segment records the axis by
which it is reached (child ``/``, descendant-or-self ``//``, or ``self``
for the head of an absolute path), a node test (label, ``*`` or ``.``)
and any qualifiers ``[q]``.

Notes on the paper's grammar:

* ``p//p`` is represented by giving the right-hand head segment the
  descendant axis (the paper's ``p1//p2 = p1/ // /p2`` abbreviation);
* absolute paths (``/portofolio/...``) address the root element itself
  XPath-style (an implicit document node above the root), so the head
  segment uses the self axis;
* ``p = "str"`` is accepted as sugar for ``p/text() = "str"``, matching
  the paper's Section 4 example ``[/portofolio/broker/name = "Merill
  Lynch"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Axes by which a segment is reached.
AXIS_CHILD = "child"
AXIS_DESC = "descendant-or-self"
AXIS_SELF = "self"

# Node tests.
TEST_LABEL = "label"
TEST_WILDCARD = "wildcard"
TEST_SELF = "self"


@dataclass(frozen=True)
class Segment:
    """One step of a path: axis, node test and qualifiers."""

    axis: str
    test: str
    label: Optional[str] = None
    qualifiers: tuple["BoolExpr", ...] = ()

    def __post_init__(self) -> None:
        if self.axis not in (AXIS_CHILD, AXIS_DESC, AXIS_SELF):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.test not in (TEST_LABEL, TEST_WILDCARD, TEST_SELF):
            raise ValueError(f"unknown node test {self.test!r}")
        if (self.test == TEST_LABEL) != (self.label is not None):
            raise ValueError("label tests (and only them) carry a label")


@dataclass(frozen=True)
class Path:
    """A (possibly empty) sequence of segments; empty means ``ε`` (self)."""

    segments: tuple[Segment, ...] = ()

    def is_epsilon(self) -> bool:
        """True for the empty path ``ε``."""
        return not self.segments


class BoolExpr:
    """Marker base class for Boolean expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class BPath(BoolExpr):
    """Existence test ``p``: true iff some node is reachable via ``p``."""

    path: Path


@dataclass(frozen=True)
class BTextEq(BoolExpr):
    """``p/text() = 'str'``: some node reached via ``p`` has text ``str``."""

    path: Path
    value: str


@dataclass(frozen=True)
class BLabelEq(BoolExpr):
    """``label() = A``: the context node's label equals ``A``."""

    label: str


@dataclass(frozen=True)
class BNot(BoolExpr):
    """Negation ``not q``."""

    operand: BoolExpr


@dataclass(frozen=True)
class BAnd(BoolExpr):
    """Conjunction ``q1 and q2`` (binary, as in the paper)."""

    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class BOr(BoolExpr):
    """Disjunction ``q1 or q2`` (binary, as in the paper)."""

    left: BoolExpr
    right: BoolExpr


__all__ = [
    "AXIS_CHILD",
    "AXIS_DESC",
    "AXIS_SELF",
    "TEST_LABEL",
    "TEST_WILDCARD",
    "TEST_SELF",
    "Segment",
    "Path",
    "BoolExpr",
    "BPath",
    "BTextEq",
    "BLabelEq",
    "BNot",
    "BAnd",
    "BOr",
]
