"""ParBoX-specific guarantees (paper, Section 3.1-3.2)."""

import pytest

from repro.boolexpr import PaperAlgebra
from repro.core import ParBoXEngine
from repro.core.engine import MSG_QUERY, MSG_TRIPLET
from repro.workloads.portfolio import build_portfolio_cluster
from repro.workloads.queries import query_of_size, seal_query
from repro.workloads.topologies import chain_ft2, co_located, star_ft1
from repro.xpath import compile_query


class TestVisitGuarantee:
    def test_each_site_visited_exactly_once(self):
        # Fig. 2's placement stores two fragments on S2: still one visit.
        cluster = build_portfolio_cluster()
        result = ParBoXEngine(cluster).evaluate(compile_query("[//stock]"))
        assert dict(result.metrics.visits) == {"S0": 1, "S1": 1, "S2": 1}

    def test_co_located_fragments_one_visit(self):
        cluster = co_located(8, 2.0, seed=5)
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        assert result.metrics.max_visits_per_site() == 1
        assert result.details["triplets"] == 8


class TestTrafficGuarantee:
    def test_traffic_independent_of_tree_size(self):
        """O(|q| card(F)): growing |T| must not grow ParBoX's traffic."""
        qlist = query_of_size(8)
        small = star_ft1(4, 1.0, seed=6)
        large = star_ft1(4, 8.0, seed=6)
        bytes_small = ParBoXEngine(small).evaluate(qlist).metrics.bytes_total
        bytes_large = ParBoXEngine(large).evaluate(qlist).metrics.bytes_total
        assert large.total_size() > 4 * small.total_size()
        # Identical fragment count and query: traffic stays in the same
        # ballpark (formula sizes depend on card, not |T|).
        assert bytes_large <= bytes_small * 1.5

    def test_traffic_grows_with_query_size(self):
        cluster = star_ft1(4, 2.0, seed=7)
        small = ParBoXEngine(cluster).evaluate(query_of_size(2)).metrics.bytes_total
        large = ParBoXEngine(cluster).evaluate(query_of_size(23)).metrics.bytes_total
        assert large > small

    def test_traffic_grows_with_fragment_count(self):
        qlist = query_of_size(8)
        few = star_ft1(2, 2.0, seed=8)
        many = star_ft1(8, 2.0, seed=8)
        assert (
            ParBoXEngine(many).evaluate(qlist).metrics.bytes_total
            > ParBoXEngine(few).evaluate(qlist).metrics.bytes_total
        )

    def test_message_kinds(self):
        cluster = build_portfolio_cluster()
        result = ParBoXEngine(cluster).evaluate(compile_query("[//stock]"))
        kinds = set(result.metrics.bytes_by_kind)
        assert kinds <= {MSG_QUERY, MSG_TRIPLET}
        # Remote sites S1, S2 each get the query and send triplets back.
        assert result.metrics.bytes_by_kind[MSG_QUERY] > 0
        assert result.metrics.bytes_by_kind[MSG_TRIPLET] > 0

    def test_no_fragment_data_shipped(self):
        cluster = star_ft1(5, 3.0, seed=9)
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        assert "fragment-data" not in result.metrics.bytes_by_kind


class TestComputationAccounting:
    def test_total_computation_covers_whole_tree(self):
        cluster = star_ft1(4, 2.0, seed=10)
        qlist = query_of_size(8)
        result = ParBoXEngine(cluster).evaluate(qlist)
        assert result.metrics.nodes_processed == cluster.total_size()
        assert result.metrics.qlist_ops == cluster.total_size() * len(qlist)

    def test_elapsed_below_total_compute_when_parallel(self):
        # With 6 equal sites, simulated elapsed must be well below the
        # sum of all site compute times.
        cluster = star_ft1(6, 6.0, seed=11)
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        assert result.elapsed_seconds < result.metrics.compute_seconds_total


class TestAlgebraOption:
    def test_paper_algebra_same_answer_more_traffic(self):
        cluster = chain_ft2(6, 3.0, seed=12)
        qlist = seal_query("F5")
        canonical = ParBoXEngine(cluster).evaluate(qlist)
        paper = ParBoXEngine(cluster, algebra=PaperAlgebra()).evaluate(qlist)
        assert canonical.answer == paper.answer is True
        assert paper.metrics.bytes_total >= canonical.metrics.bytes_total
