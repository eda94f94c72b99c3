"""Property-based tests for incremental maintenance of one standing query.

Random update sequences (inserts, deletes, splits, merges) against a
random tree under a random fragmentation, placement and query: after
every step the incrementally maintained answer must equal a
from-scratch ParBoX evaluation.  (``test_stream_maintainer.py`` and
``test_rebalance_properties.py`` draw their streams over fixed
topologies and fixed books; here the decomposition and the query are
generated inputs too.)
"""

import random
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core import ParBoXEngine
from repro.distsim import Cluster
from repro.stream import (
    DelNode,
    InsNode,
    MergeFragment,
    SplitFragment,
    StreamMaintainer,
    UpdateOp,
)
from repro.xmltree import XMLNode
from repro.xpath import compile_query
from tests.test_properties import (
    build_random_tree,
    random_fragmentation,
    random_placement,
    valid_random_query,
)

LABELS = ("a", "b", "c", "seal")


def _random_split(rng: random.Random, cluster: Cluster) -> Optional[UpdateOp]:
    fragment_id = rng.choice(list(cluster.fragmented_tree.fragments))
    fragment = cluster.fragment(fragment_id)
    candidates = [
        n for n in fragment.root.iter_subtree() if n is not fragment.root and not n.is_virtual
    ]
    if not candidates:
        return None
    return SplitFragment(fragment_id, rng.choice(candidates).node_id)


def _random_merge(rng: random.Random, cluster: Cluster) -> Optional[UpdateOp]:
    fragment_id = rng.choice(list(cluster.fragmented_tree.fragments))
    virtuals = cluster.fragment(fragment_id).virtual_nodes()
    if not virtuals:
        return None
    return MergeFragment(fragment_id, rng.choice(virtuals).fragment_ref)


def _random_update(rng: random.Random, cluster: Cluster) -> Optional[UpdateOp]:
    action = rng.choice(["insert", "insert", "delete", "split", "merge"])
    if action == "split":
        return _random_split(rng, cluster)
    if action == "merge":
        return _random_merge(rng, cluster)
    fragment_id = rng.choice(list(cluster.fragmented_tree.fragments))
    fragment = cluster.fragment(fragment_id)
    if action == "insert":
        parents = [n for n in fragment.root.iter_subtree() if not n.is_virtual]
        return InsNode(
            fragment_id,
            rng.choice(parents).node_id,
            rng.choice(LABELS),
            text=rng.choice([None, "x", "7"]),
        )
    deletable = [
        n
        for n in fragment.root.iter_subtree()
        if n is not fragment.root and not n.is_virtual and not _subtree_has_virtual(n)
    ]
    if not deletable:
        return None
    return DelNode(fragment_id, rng.choice(deletable).node_id)


def _subtree_has_virtual(node: XMLNode) -> bool:
    return any(n.is_virtual for n in node.iter_subtree())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_maintained_answer_equals_scratch(seed):
    rng = random.Random(seed)
    tree = build_random_tree(rng, max_nodes=20)
    cluster = random_placement(rng, random_fragmentation(rng, tree))
    qlist = compile_query(valid_random_query(rng))
    view = StreamMaintainer(cluster)
    assert view.subscribe("view", qlist) == ParBoXEngine(cluster).evaluate(qlist).answer
    for _ in range(rng.randint(1, 6)):
        op = _random_update(rng, cluster)
        if op is not None:
            view.apply([op])
        assert view.answer("view") == ParBoXEngine(cluster).evaluate(qlist).answer


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_structural_updates_never_change_answer(seed):
    rng = random.Random(seed)
    tree = build_random_tree(rng, max_nodes=20)
    cluster = random_placement(rng, random_fragmentation(rng, tree))
    view = StreamMaintainer(cluster)
    initial = view.subscribe("view", "[//a and (//b or not //seal)]")
    for _ in range(4):
        draw = _random_split if rng.random() < 0.5 else _random_merge
        op = draw(rng, cluster)
        if op is not None:
            assert view.apply([op]).changed == ()
        assert view.answer("view") == initial
