"""Micro-benchmarks: steady-state per-query cost of each engine.

Unlike the figure regenerations (one timed sweep each), these measure a
single engine evaluation with pytest-benchmark's statistics, on a fixed
mid-size workload (FT2 chain of 6 fragments), plus the front-end
(parse/normalize/compile) and the maintenance path.
"""

import pytest

from repro.core import (
    FullDistParBoXEngine,
    LazyParBoXEngine,
    NaiveCentralizedEngine,
    NaiveDistributedEngine,
    ParBoXEngine,
    QuerySession,
    SelectionEngine,
)
from repro.stream import InsNode
from repro.workloads.queries import query_of_size, seal_query
from repro.workloads.topologies import chain_ft2
from repro.xpath import compile_query


@pytest.fixture(scope="module")
def cluster(config):
    return config.with_network(
        chain_ft2(6, config.total_mb / 2, seed=99, nodes_per_mb=config.nodes_per_mb)
    )


@pytest.fixture(scope="module")
def qlist():
    return query_of_size(8)


def test_engine_parbox(benchmark, cluster, qlist):
    result = benchmark(lambda: ParBoXEngine(cluster).evaluate(qlist))
    assert result.metrics.max_visits_per_site() == 1


def test_engine_parbox_threaded(benchmark, cluster, qlist):
    with ParBoXEngine(cluster, executor="threads") as engine:
        result = benchmark(lambda: engine.evaluate(qlist))
    assert result.metrics.max_visits_per_site() == 1


def test_engine_naive_centralized(benchmark, cluster, qlist):
    benchmark(lambda: NaiveCentralizedEngine(cluster).evaluate(qlist))


def test_engine_naive_distributed(benchmark, cluster, qlist):
    benchmark(lambda: NaiveDistributedEngine(cluster).evaluate(qlist))


def test_engine_fulldist(benchmark, cluster, qlist):
    benchmark(lambda: FullDistParBoXEngine(cluster).evaluate(qlist))


def test_engine_lazy(benchmark, cluster):
    benchmark(lambda: LazyParBoXEngine(cluster).evaluate(seal_query("F3")))


def test_engine_selection(benchmark, cluster):
    qlist = compile_query("[//person/name]")
    result = benchmark(lambda: SelectionEngine(cluster).select(qlist))
    assert result.result.metrics.max_visits_per_site() == 2


def test_query_compilation(benchmark):
    text = '[not(//open_auction[bidder/increase/text() = "7"]) and //profile[education]]'
    qlist = benchmark(lambda: compile_query(text))
    assert len(qlist) == 23


def test_view_maintenance_refresh(benchmark, cluster, qlist):
    with QuerySession(cluster) as session:
        view = session.watch([qlist])
        target = cluster.fragment("F3").root.node_id
        round_ = benchmark(lambda: view.apply([InsNode("F3", target, "note", text="x")]))
    assert round_.is_localized()
