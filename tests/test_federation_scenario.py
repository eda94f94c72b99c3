"""A long-running federation scenario exercising the whole stack together.

Models the life of a small data federation: sites join (splits), data
arrives (inserts), subscriptions stand (``watch()``), analysts ask
node-selection questions, and sites consolidate (merges) -- asserting
global consistency invariants after every step.
"""

import pytest

from repro.core import (
    ALL_ENGINES,
    ParBoXEngine,
    QuerySession,
    SelectionEngine,
    evaluate_tree,
    select_centralized,
)
from repro.distsim import Cluster
from repro.fragments import fragment_balanced
from repro.stream import InsNode, MergeFragment, SplitFragment
from repro.workloads.xmark import generate_xmark_site
from repro.xmltree import element
from repro.xpath import compile_query

WATCH_QUERIES = {
    "gold": '[//item[name = "gold-bar"]]',
    "people": "[//person]",
    "empty-regions": "[not(//item)]",
}


@pytest.fixture
def federation():
    tree = generate_xmark_site(2.0, seed=2024, nodes_per_mb=80)
    cluster = Cluster.one_site_per_fragment(fragment_balanced(tree, 3))
    return cluster


def assert_consistent(cluster):
    """All engines agree with the stitched-document oracle."""
    whole = cluster.fragmented_tree.stitch()
    for text in ("[//person]", "[//bidder]", '[//item[name = "gold-bar"]]'):
        qlist = compile_query(text)
        oracle, _ = evaluate_tree(whole, qlist)
        for engine_cls in ALL_ENGINES:
            assert engine_cls(cluster).evaluate(qlist).answer == oracle, engine_cls.name
    select_q = compile_query("[//person/name]")
    assert SelectionEngine(cluster).select(select_q).paths == select_centralized(
        whole, select_q
    )


class TestFederationLifecycle:
    def test_full_story(self, federation):
        cluster = federation
        with QuerySession(cluster) as session:
            book = session.watch(list(WATCH_QUERIES.values()), names=list(WATCH_QUERIES))
            assert book.answer("gold") is False
            assert book.answer("people") is True
            assert_consistent(cluster)

            # --- a new department joins: split a subtree to a fresh site ---
            f0 = cluster.fragment("F0")
            candidate = next(
                n
                for n in f0.root.children
                if not n.is_virtual and n.subtree_size() > 3
            )
            joined = book.apply(
                [SplitFragment("F0", candidate.node_id, "DEPT", target_site="S-NEW")]
            )
            assert "S-NEW" in cluster.source_tree().sites()
            assert_consistent(cluster)
            # The standing book rode the split: nothing to rebuild.
            assert joined.changed == () and book.answer("people") is True

            # --- data arrives at the new department -----------------------
            dept = cluster.fragment("DEPT").root
            book.apply([InsNode("DEPT", dept.node_id, "item")])
            item = dept.children[-1]
            arrived = book.apply([InsNode("DEPT", item.node_id, "name", text="gold-bar")])
            assert "gold" in arrived.changed
            assert arrived.sites_visited == ("S-NEW",)
            assert book.answer("gold") is True
            assert_consistent(cluster)

            # --- analysts select across the federation --------------------
            qlist = compile_query('[//item[name = "gold-bar"]]')
            selection = SelectionEngine(cluster).select(qlist)
            assert len(selection.paths) == 1
            assert selection.result.metrics.max_visits_per_site() <= 2
            # ... and an ad-hoc read through the session sees the same document.
            assert session.evaluate(WATCH_QUERIES["gold"]).answer is True

            # --- consolidation: the department merges back ----------------
            merged = book.apply([MergeFragment("F0", "DEPT")])
            assert "DEPT" not in cluster.fragmented_tree.fragments
            assert_consistent(cluster)
            assert merged.changed == () and book.answer("gold") is True
            assert book.answers() == book.recompute_from_scratch()

    def test_parbox_guarantees_hold_throughout(self, federation):
        cluster = federation
        qlist = compile_query("[//person and //bidder]")
        some_fragment = next(
            fid for fid in cluster.fragmented_tree.fragments if fid != "F0"
        )
        for _ in range(3):
            result = ParBoXEngine(cluster).evaluate(qlist)
            assert result.metrics.max_visits_per_site() == 1
            assert result.metrics.nodes_processed == cluster.total_size()
            # mutate a little between rounds
            cluster.fragment(some_fragment).root.add_child(element("note", text="x"))
