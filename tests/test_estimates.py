"""The Fig. 4 cost model as predictions, validated against measurements."""

import pytest

from repro.core import (
    LazyParBoXEngine,
    NaiveCentralizedEngine,
    NaiveDistributedEngine,
    ParBoXEngine,
    QuerySession,
)
from repro.core.estimates import (
    estimate_lazy_worst_case,
    estimate_maintenance,
    estimate_naive_centralized,
    estimate_naive_distributed,
    estimate_parbox,
)
from repro.stream import InsNode
from repro.workloads.portfolio import build_portfolio_cluster
from repro.workloads.queries import query_of_size, seal_query
from repro.workloads.topologies import chain_ft2, star_ft1


@pytest.fixture
def star():
    return star_ft1(5, 4.0, seed=60)


@pytest.fixture
def qlist():
    return query_of_size(8)


class TestParBoXPredictions:
    def test_visits_exact(self, star, qlist):
        estimate = estimate_parbox(star, qlist)
        measured = ParBoXEngine(star).evaluate(qlist)
        assert estimate.max_visits_per_site == measured.metrics.max_visits_per_site()
        assert estimate.total_visits == measured.metrics.total_visits()

    def test_total_ops_exact(self, star, qlist):
        estimate = estimate_parbox(star, qlist)
        measured = ParBoXEngine(star).evaluate(qlist)
        assert estimate.total_ops == measured.metrics.qlist_ops

    def test_parallel_ops_bound(self, star, qlist):
        # max-site load x |q| must bound each individual site's work.
        estimate = estimate_parbox(star, qlist)
        assert estimate.parallel_ops <= estimate.total_ops
        assert estimate.parallel_ops >= estimate.total_ops / len(star.sites())

    def test_communication_bounds_formula_terms(self, star, qlist):
        """The 1 + 3 card(F_j) per-entry bound must dominate reality."""
        from repro.core import bottom_up

        estimate = estimate_parbox(star, qlist)
        total_terms = 0
        st = star.source_tree()
        for fid in st.fragment_ids():
            if st.site_of(fid) == st.coordinator_site:
                continue
            triplet, _ = bottom_up(star.fragment(fid), qlist)
            total_terms += triplet.formula_size()
        assert total_terms <= estimate.communication_terms

    def test_co_located_predictions(self, qlist):
        from repro.workloads.topologies import co_located

        cluster = co_located(6, 3.0, seed=61)
        estimate = estimate_parbox(cluster, qlist)
        assert estimate.max_visits_per_site == 1
        assert estimate.total_visits == 1
        assert estimate.communication_terms == 0  # everything coordinator-local
        measured = ParBoXEngine(cluster).evaluate(qlist)
        assert measured.metrics.bytes_total == 0


class TestBaselinePredictions:
    def test_naive_centralized_shipping(self, star, qlist):
        estimate = estimate_naive_centralized(star, qlist)
        measured = NaiveCentralizedEngine(star).evaluate(qlist)
        # Communication estimated in shipped nodes; bytes per node are
        # bounded (label + text); check proportionality.
        assert estimate.communication_terms > 0
        assert measured.details["shipped_bytes"] >= estimate.communication_terms
        assert estimate.total_visits == len(star.sites()) - 1

    def test_naive_distributed_visits(self, qlist):
        cluster = build_portfolio_cluster()
        q = query_of_size(8)
        estimate = estimate_naive_distributed(cluster, q)
        measured = NaiveDistributedEngine(cluster).evaluate(q)
        assert estimate.max_visits_per_site == measured.metrics.max_visits_per_site() == 2
        assert estimate.total_visits == measured.metrics.total_visits() == 4

    def test_sequentiality_encoded(self, star, qlist):
        estimate = estimate_naive_distributed(star, qlist)
        assert estimate.parallel_ops == estimate.total_ops


class TestLazyPredictions:
    def test_worst_case_bounds_measured(self):
        cluster = chain_ft2(6, 3.0, seed=62)
        qlist = seal_query("NOWHERE")  # forces full descent
        estimate = estimate_lazy_worst_case(cluster, qlist)
        measured = LazyParBoXEngine(cluster).evaluate(qlist)
        assert measured.metrics.max_visits_per_site() <= estimate.max_visits_per_site
        assert measured.metrics.qlist_ops <= estimate.total_ops
        assert measured.metrics.total_visits() <= estimate.total_visits

    def test_early_stop_beats_worst_case(self):
        cluster = chain_ft2(6, 3.0, seed=62)
        qlist = seal_query("F0")
        estimate = estimate_lazy_worst_case(cluster, qlist)
        measured = LazyParBoXEngine(cluster).evaluate(qlist)
        assert measured.metrics.qlist_ops < estimate.total_ops


class TestMaintenancePredictions:
    def test_refresh_costs_bounded(self, star, qlist):
        with QuerySession(star) as session:
            view = session.watch([qlist])
            estimate = estimate_maintenance(star, qlist, "F2")
            root = star.fragment("F2").root
            round_ = view.apply([InsNode("F2", root.node_id, "note", text="x")])
        assert len(round_.sites_visited) == estimate.total_visits == 1
        # nodes_recomputed counts the fragment plus the one-node update.
        assert round_.nodes_recomputed * len(qlist) <= estimate.total_ops + len(qlist)
