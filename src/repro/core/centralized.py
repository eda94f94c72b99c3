"""The optimal centralized evaluator (the paper's [10, 18] stand-in).

A single post-order traversal of a whole (unfragmented) tree computes
the query in ``O(|T| |q|)`` time with plain Booleans -- no formula
machinery.  It serves three roles:

* the computation stage of the NaiveCentralized baseline;
* the correctness *oracle* for every distributed engine in the tests;
* the reference point for the paper's "total computation is comparable
  to the best-known centralized algorithm" claim.

The implementation *is* the frame pass of :mod:`repro.core.bottom_up`:
a whole tree is a fragment with no virtual nodes, so the store-free
bitmask pass applies verbatim -- and one code path keeps the
"comparable total computation" claim honest as the kernel gets faster.
A virtual node anywhere is the only way that pass leaves the bitmasks,
which here is an error: a centralized evaluator has no variables for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.boolexpr.compose import DEFAULT_ALGEBRA
from repro.core.bottom_up import _frame_bottom_up, _ground_program, compile_entries
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from repro.xpath.qlist import QList


@dataclass(frozen=True)
class CentralizedStats:
    """Costs of one centralized evaluation."""

    nodes_visited: int
    qlist_ops: int
    wall_seconds: float


def evaluate_node(root: XMLNode, qlist: QList) -> tuple[bool, CentralizedStats]:
    """Evaluate ``qlist`` at ``root`` over the subtree below it.

    The subtree must be whole: virtual nodes are rejected, because a
    centralized evaluator has no variables to give them.
    """
    answers, stats = evaluate_node_many(root, qlist, [qlist.answer_index])
    return answers[0], stats


def evaluate_node_many(
    root: XMLNode, qlist: QList, answer_indices: Sequence[int]
) -> tuple[list[bool], CentralizedStats]:
    """One traversal, several answers: read ``V_root`` at each index.

    The batched form: ``qlist`` may be a combined batch query, and each
    input query's answer is the root's ``V`` value at that query's
    answer entry.
    """
    entries = compile_entries(qlist)
    n = len(entries)

    started = time.perf_counter()
    root_v = None
    if not root.is_virtual:
        (root_v, _root_cv, _root_dv), nodes_visited = _frame_bottom_up(
            root, _ground_program(qlist, entries), entries, n, DEFAULT_ALGEBRA
        )
    if type(root_v) is not int:  # the pass leaves bitmasks only on virtual nodes
        raise ValueError("centralized evaluation requires an unfragmented tree")
    stats = CentralizedStats(
        nodes_visited=nodes_visited,
        qlist_ops=nodes_visited * n,
        wall_seconds=time.perf_counter() - started,
    )
    return [bool(root_v >> index & 1) for index in answer_indices], stats


def evaluate_tree(tree: XMLTree, qlist: QList) -> tuple[bool, CentralizedStats]:
    """Evaluate a Boolean query at the root of a whole document."""
    return evaluate_node(tree.root, qlist)


def evaluate_tree_many(
    tree: XMLTree, qlist: QList, answer_indices: Sequence[int]
) -> tuple[list[bool], CentralizedStats]:
    """Evaluate a combined batch query over a whole document."""
    return evaluate_node_many(tree.root, qlist, answer_indices)


__all__ = [
    "evaluate_tree",
    "evaluate_tree_many",
    "evaluate_node",
    "evaluate_node_many",
    "CentralizedStats",
]
