"""End-to-end integration scenarios crossing several subsystems."""

import pytest

from repro.core import (
    ALL_ENGINES,
    ParBoXEngine,
    QuerySession,
    SelectionEngine,
    evaluate_tree,
    select_centralized,
)
from repro.distsim import Cluster, NetworkModel
from repro.fragments import Placement, fragment_at, fragment_balanced
from repro.stream import Relabel
from repro.workloads.portfolio import build_portfolio_cluster, build_portfolio_tree
from repro.workloads.queries import seal_query
from repro.workloads.topologies import chain_ft2
from repro.xmltree import XMLNode, parse_xml, serialize
from repro.xpath import compile_query


class TestPlacementInvariance:
    """Answers must not depend on where fragments live."""

    def test_arbitrary_replacements(self):
        tree = build_portfolio_tree()
        ftree = fragment_balanced(tree, 4)
        queries = [compile_query(q) for q in ("[//stock]", '[//code = "YHOO"]', "[not //zzz]")]
        oracle = [evaluate_tree(tree, q)[0] for q in queries]
        placements = [
            {fid: "S0" for fid in ftree.fragments},  # all co-located
            {fid: f"S{i}" for i, fid in enumerate(ftree.fragments)},  # all apart
            {fid: f"S{i % 2}" for i, fid in enumerate(ftree.fragments)},  # paired
        ]
        for assignment in placements:
            cluster = Cluster(ftree, Placement(dict(assignment)))
            for qlist, expected in zip(queries, oracle):
                assert ParBoXEngine(cluster).evaluate(qlist).answer == expected

    def test_move_fragment_between_queries(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query('[//code = "GOOG"]')
        before = ParBoXEngine(cluster).evaluate(qlist)
        cluster.move_fragment("F2", "S0")
        after = ParBoXEngine(cluster).evaluate(qlist)
        assert before.answer == after.answer is True
        # S2 still holds F3, so the same three sites are visited; the
        # moved fragment's triplet no longer crosses the network.
        assert set(after.metrics.visits) == {"S0", "S1", "S2"}
        assert after.metrics.bytes_total < before.metrics.bytes_total


class TestQueryUpdateRequery:
    """The full lifecycle: evaluate, mutate, maintain, re-evaluate."""

    def test_portfolio_price_watch(self):
        cluster = build_portfolio_cluster()
        watch = compile_query('[//stock[code = "GOOG" and sell = "376"]]')
        with QuerySession(cluster) as session:
            view = session.watch([watch], names=["goog-376"])
            assert view.answer("goog-376") is False

            # NASDAQ raises the F2 GOOG sell price in two steps.
            f2 = cluster.fragment("F2")
            sell = next(n for n in f2.root.iter_subtree() if n.label == "sell")
            assert view.apply([Relabel("F2", sell.node_id, text="375")]).changed == ()
            round_ = view.apply([Relabel("F2", sell.node_id, text="376")])
            assert round_.changed == ("goog-376",)
            assert view.answer("goog-376") is True

        # Fresh evaluations agree, for every engine.
        for engine_cls in ALL_ENGINES:
            assert engine_cls(cluster).evaluate(watch).answer is True

    def test_restructure_then_query(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        baseline = ParBoXEngine(cluster).evaluate(qlist).answer
        # Example 5.1-style: split F0's NYSE market out to a new site.
        market = cluster.fragment("F0").root.find_by_label("market")[0]
        cluster.split_fragment("F0", market, "F4", target_site="S3")
        assert ParBoXEngine(cluster).evaluate(qlist).answer == baseline
        assert "S3" in cluster.source_tree().sites()
        # And merge it back home.
        virtual = next(
            n for n in cluster.fragment("F0").root.iter_subtree() if n.fragment_ref == "F4"
        )
        cluster.merge_fragment("F0", virtual)
        assert ParBoXEngine(cluster).evaluate(qlist).answer == baseline


class TestFileRoundTripPipeline:
    """serialize -> parse -> fragment -> evaluate equals in-memory results."""

    def test_portfolio_through_text(self, tmp_path):
        tree = build_portfolio_tree()
        path = tmp_path / "p.xml"
        path.write_text(serialize(tree, indent=2))
        reloaded = parse_xml(path.read_text())
        assert reloaded.structurally_equal(tree)

        cluster = Cluster.one_site_per_fragment(fragment_balanced(reloaded, 3))
        for text in ("[//stock]", '[//name = "Bache"]', "[//zzz]"):
            qlist = compile_query(text)
            oracle, _ = evaluate_tree(tree, qlist)
            assert ParBoXEngine(cluster).evaluate(qlist).answer == oracle

    def test_fragment_files_reference_integrity(self, tmp_path):
        # Fragments written to disk can be reloaded and re-stitched.
        from repro.fragments import Fragment, FragmentedTree

        tree = build_portfolio_tree()
        ftree = fragment_balanced(tree, 4)
        reloaded = {}
        for fid, fragment in ftree.fragments.items():
            text = serialize(fragment.root)
            reloaded[fid] = Fragment(fid, parse_xml(text).root)
        rebuilt = FragmentedTree(reloaded, ftree.root_fragment_id)
        assert rebuilt.stitch().structurally_equal(tree)


class TestNetworkSensitivity:
    """Slower networks punish shipping, not partial evaluation."""

    def test_bandwidth_sweep(self):
        from repro.core import NaiveCentralizedEngine

        qlist = compile_query("[//person]")
        gaps = []
        for bandwidth in (10_000_000, 100_000):
            cluster = chain_ft2(4, 8.0, seed=70)
            cluster.network = NetworkModel(
                latency_seconds=0.0005, bandwidth_bytes_per_second=bandwidth
            )
            parbox = ParBoXEngine(cluster).evaluate(qlist)
            central = NaiveCentralizedEngine(cluster).evaluate(qlist)
            gaps.append(central.elapsed_seconds / parbox.elapsed_seconds)
        fast, slow = gaps
        assert slow > fast  # shipping hurts more on the slow network


class TestSelectionAfterUpdates:
    def test_selection_tracks_mutations(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        assert len(SelectionEngine(cluster).select(qlist).paths) == 6
        # Add a stock to F3 and re-select.
        f3 = cluster.fragment("F3")
        f3.root.add_child(XMLNode("stock"))
        selection = SelectionEngine(cluster).select(qlist)
        assert len(selection.paths) == 7
        oracle = select_centralized(cluster.fragmented_tree.stitch(), qlist)
        assert selection.paths == oracle


class TestDeepFragmentChains:
    def test_chain_of_twenty(self):
        cluster = chain_ft2(20, 5.0, seed=71)
        qlist = seal_query("F19")
        result = ParBoXEngine(cluster).evaluate(qlist)
        assert result.answer is True
        assert result.metrics.max_visits_per_site() == 1

    def test_nested_cuts_inside_cuts(self):
        # Fragment the portfolio, then fragment a fragment (the paper's
        # "F1 is itself fragmented").
        tree = build_portfolio_tree()
        markets = tree.root.find_by_label("market")
        stocks = markets[0].find_by_label("stock")
        ftree = fragment_at(tree, [markets[0], stocks[0], markets[2]])
        cluster = Cluster.one_site_per_fragment(ftree)
        for text in ("[//stock]", '[//code = "IBM"]', '[//code = "YHOO"]'):
            qlist = compile_query(text)
            oracle, _ = evaluate_tree(tree, qlist)
            assert ParBoXEngine(cluster).evaluate(qlist).answer == oracle
