"""The executor subsystem: serial / threads / process site execution.

Covers the acceptance criteria of the executor layer:

* all three strategies produce identical answers (and identical
  simulated ledgers) across the engine lineup on the agreement suite;
* the critical path derived by ``Run.join`` is the max over branches
  and never exceeds the serial sum;
* a 16-site cluster evaluates deadlock-free on the concurrent
  strategies;
* the wire-format process boundary and the registry/resolution API.
"""

import pytest

from repro.core import (
    ALL_ENGINES,
    FullDistParBoXEngine,
    LazyParBoXEngine,
    ParBoXEngine,
    evaluate_tree,
)
from repro.boolexpr.compose import CanonicalAlgebra, PaperAlgebra
from repro.distsim import Cluster, Run
from repro.distsim.executors import (
    EXECUTOR_REGISTRY,
    ProcessSiteExecutor,
    SerialSiteExecutor,
    SiteJob,
    ThreadSiteExecutor,
    execute_site_job,
    resolve_executor,
)
from repro.workloads.portfolio import build_portfolio_cluster, build_portfolio_tree
from repro.workloads.queries import query_of_size, seal_query
from repro.workloads.topologies import chain_ft2, co_located, star_ft1
from repro.xpath import compile_query

EXECUTOR_NAMES = sorted(EXECUTOR_REGISTRY)

AGREEMENT_QUERIES = [
    "[//stock]",
    '[//stock[code = "GOOG" and sell = "376"]]',
    '[//broker[//stock/code/text() = "GOOG" and not(//stock/code/text() = "YHOO")]]',
    "[not //market]",
    "[//zzz]",
]


# ---------------------------------------------------------------------------
# Identical answers across strategies (engine-agreement suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
@pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda c: c.name)
class TestAllEnginesAllExecutors:
    def test_agrees_with_oracle_on_portfolio(self, engine_cls, executor_name):
        cluster = build_portfolio_cluster()
        tree = build_portfolio_tree()
        with resolve_executor(executor_name) as executor:
            engine = engine_cls(cluster, executor=executor)
            for query in AGREEMENT_QUERIES:
                qlist = compile_query(query)
                oracle, _ = evaluate_tree(tree, qlist)
                result = engine.evaluate(qlist)
                assert result.answer == oracle, (engine_cls.name, executor_name, query)
                assert result.details["executor"] == executor_name


@pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda c: c.name)
class TestLedgerExecutorIndependent:
    """The simulated cost ledger must not depend on the strategy."""

    def test_visits_and_traffic_identical(self, engine_cls):
        qlist = seal_query("F2")
        ledgers = {}
        for name in EXECUTOR_NAMES:
            cluster = chain_ft2(4, 2.0, seed=21)
            with resolve_executor(name) as executor:
                result = engine_cls(cluster, executor=executor).evaluate(qlist)
            metrics = result.metrics
            ledgers[name] = (
                result.answer,
                dict(metrics.visits),
                metrics.messages,
                metrics.bytes_total,
                dict(metrics.bytes_by_kind),
                metrics.nodes_processed,
                metrics.qlist_ops,
            )
        assert ledgers["serial"] == ledgers["threads"] == ledgers["process"]


# ---------------------------------------------------------------------------
# The Run.parallel / Run.join primitives
# ---------------------------------------------------------------------------


class TestParallelPrimitive:
    @pytest.fixture
    def cluster(self):
        return star_ft1(4, 1.5, seed=22)

    def _jobs(self, cluster, qlist):
        source_tree = cluster.source_tree()
        return [
            SiteJob(
                site_id,
                tuple(cluster.fragment(fid) for fid in source_tree.fragments_of(site_id)),
                qlist,
                CanonicalAlgebra(),
            )
            for site_id in source_tree.sites()
        ]

    def test_batch_attributes_per_site_seconds(self, cluster):
        run = Run(cluster)
        batch = run.parallel(self._jobs(cluster, query_of_size(8)))
        assert len(batch) == len(cluster.sites())
        assert run.metrics.parallel_batches == 1
        assert run.metrics.wall_seconds > 0
        for site_id, outcome in batch:
            assert outcome.seconds >= 0
            assert run.metrics.site_seconds[site_id] == outcome.seconds
        assert run.metrics.compute_seconds_total == pytest.approx(
            batch.busy_seconds_total()
        )

    def test_join_is_critical_path_not_sum(self, cluster):
        run = Run(cluster)
        batch = run.parallel(self._jobs(cluster, query_of_size(8)))
        finish = {site_id: outcome.seconds for site_id, outcome in batch}
        joined = run.join(finish)
        assert joined == max(finish.values())
        assert joined <= sum(finish.values()) + 1e-12
        assert run.metrics.critical_site == max(finish, key=finish.get)
        assert run.metrics.critical_path_seconds == pytest.approx(joined)

    def test_join_empty_is_zero(self, cluster):
        run = Run(cluster)
        assert run.join({}) == 0.0
        assert run.metrics.critical_site is None

    def test_join_keeps_dominant_critical_site(self, cluster):
        # Multi-join engines (Lazy, Selection): the recorded critical
        # site must be the one that bounded the LONGEST join, not the
        # most recent one.
        run = Run(cluster)
        run.join({"A": 0.9, "B": 0.1})
        run.join({"A": 0.05, "B": 0.2})
        assert run.metrics.critical_site == "A"
        assert run.metrics.critical_path_seconds == pytest.approx(1.1)

    def test_duplicate_site_jobs_rejected(self, cluster):
        run = Run(cluster)
        qlist = query_of_size(2)
        source_tree = cluster.source_tree()
        site_id = source_tree.sites()[0]
        job = SiteJob(
            site_id,
            tuple(cluster.fragment(fid) for fid in source_tree.fragments_of(site_id)),
            qlist,
            CanonicalAlgebra(),
        )
        with pytest.raises(ValueError, match="one job per site"):
            run.parallel([job, job])

    def test_engine_elapsed_below_serial_sum(self):
        # With 6 equally-loaded sites the critical path must sit well
        # below the serial sum of all site busy times.
        cluster = star_ft1(6, 6.0, seed=23)
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        assert result.metrics.critical_path_seconds <= (
            sum(result.metrics.site_seconds.values()) + 1e-12
        )
        assert result.elapsed_seconds < result.metrics.compute_seconds_total

    def test_critical_path_breakdown(self, cluster):
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        breakdown = result.metrics.critical_path_breakdown()
        assert breakdown["critical_site"] in {s.site_id for s in cluster.sites()}
        assert breakdown["critical_path_seconds"] > 0
        assert breakdown["slack_seconds"] >= 0


# ---------------------------------------------------------------------------
# Deadlock freedom at fan-out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor_name", ["threads", "process"])
class TestSixteenSites:
    def test_16_site_cluster_completes(self, executor_name):
        cluster = star_ft1(16, 4.0, seed=24)
        assert len(cluster.sites()) == 16
        qlist = query_of_size(8)
        oracle, _ = evaluate_tree(cluster.fragmented_tree.stitch(), qlist)
        with resolve_executor(executor_name) as executor:
            result = ParBoXEngine(cluster, executor=executor).evaluate(qlist)
        assert result.answer == oracle
        assert result.metrics.max_visits_per_site() == 1
        assert len(result.metrics.site_seconds) == 16

    def test_16_sites_multiple_rounds_share_pool(self, executor_name):
        # Several evaluations through one executor instance must not
        # exhaust or wedge the pool (the process pool is cached).
        cluster = star_ft1(16, 2.0, seed=25)
        with resolve_executor(executor_name) as executor:
            engines = [
                ParBoXEngine(cluster, executor=executor),
                FullDistParBoXEngine(cluster, executor=executor),
                LazyParBoXEngine(cluster, executor=executor),
            ]
            answers = {e.name: e.evaluate(query_of_size(8)).answer for e in engines}
        assert len(set(answers.values())) == 1


# ---------------------------------------------------------------------------
# Strategy-specific behavior
# ---------------------------------------------------------------------------


class TestSerialExecutor:
    def test_runs_in_dispatch_order(self):
        cluster = co_located(3, 1.0, seed=26)
        qlist = query_of_size(2)
        job = SiteJob(
            "S0",
            tuple(cluster.fragment(fid) for fid in cluster.source_tree().fragments_of("S0")),
            qlist,
            PaperAlgebra(),
        )
        outcome = execute_site_job(job)
        assert outcome.site_id == "S0"
        assert len(outcome.fragments) == 3
        assert set(outcome.triplets()) == set(cluster.source_tree().fragments_of("S0"))
        assert outcome.reply_bytes() == sum(
            f.triplet.wire_bytes() for f in outcome.fragments
        )

    def test_empty_batch(self):
        assert SerialSiteExecutor().run_jobs([]) == []
        assert ThreadSiteExecutor().run_jobs([]) == []


class TestProcessExecutor:
    def test_rejects_unnamed_algebra(self):
        class CustomAlgebra(PaperAlgebra):
            name = "custom-not-registered"

        cluster = build_portfolio_cluster()
        engine = ParBoXEngine(cluster, algebra=CustomAlgebra(), executor="process")
        with pytest.raises(ValueError, match="named algebras"):
            engine.evaluate(compile_query("[//stock]"))
        engine.executor.close()

    def test_paper_algebra_crosses_the_boundary(self):
        cluster = chain_ft2(3, 1.5, seed=27)
        qlist = seal_query("F1")
        with ProcessSiteExecutor(max_workers=2) as executor:
            paper = ParBoXEngine(cluster, algebra=PaperAlgebra(), executor=executor)
            result = paper.evaluate(qlist)
        assert result.answer is True

    def test_close_is_idempotent(self):
        executor = ProcessSiteExecutor(max_workers=1)
        executor.close()
        executor.close()


class TestResolution:
    def test_registry_names(self):
        assert set(EXECUTOR_REGISTRY) == {"serial", "threads", "process"}

    def test_resolve_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialSiteExecutor)
        assert isinstance(resolve_executor("serial"), SerialSiteExecutor)

    def test_resolve_passes_instances_through(self):
        executor = ThreadSiteExecutor(max_workers=2)
        assert resolve_executor(executor) is executor

    def test_resolve_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("warp")

    def test_bad_worker_counts(self):
        with pytest.raises(ValueError):
            ThreadSiteExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ProcessSiteExecutor(max_workers=0)

    def test_engines_share_one_instance(self):
        cluster = build_portfolio_cluster()
        executor = ThreadSiteExecutor()
        a = ParBoXEngine(cluster, executor=executor)
        b = FullDistParBoXEngine(cluster, executor=executor)
        assert a.executor is b.executor

    def test_engine_closes_owned_executor_only(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        # Name-resolved: the engine owns the pool and reaps it on exit.
        with ParBoXEngine(cluster, executor="threads") as engine:
            engine.evaluate(qlist)
            assert engine.executor._pool is not None
        assert engine.executor._pool is None
        engine.close()  # idempotent
        # Pre-built: the engine must leave the shared pool alone.
        shared = ThreadSiteExecutor()
        with ParBoXEngine(cluster, executor=shared) as borrower:
            borrower.evaluate(qlist)
        assert shared._pool is not None
        shared.close()


class TestCliExecutorFlag:
    @pytest.fixture
    def portfolio_file(self, tmp_path):
        from repro.xmltree import serialize

        path = tmp_path / "portfolio.xml"
        path.write_text(serialize(build_portfolio_tree(), indent=2))
        return str(path)

    def test_query_with_threads(self, portfolio_file, capsys):
        from repro.cli import main

        assert main(["query", portfolio_file, "[//stock]", "--executor", "threads"]) == 0
        out = capsys.readouterr().out
        assert "executor = threads" in out
        assert "answer=True" in out and "wall=" in out

    def test_bad_executor_rejected(self, portfolio_file):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["query", portfolio_file, "[//stock]", "--executor", "warp"])


class TestWallClockLedger:
    def test_serial_wall_close_to_busy(self):
        cluster = star_ft1(4, 3.0, seed=28)
        result = ParBoXEngine(cluster).evaluate(query_of_size(8))
        metrics = result.metrics
        # Serial execution cannot overlap: the real wall clock of the
        # compute phases tracks the attributed busy total (CPU-time
        # attribution makes busy slightly smaller than wall).
        assert metrics.wall_seconds >= metrics.compute_seconds_total * 0.5
        assert metrics.parallel_speedup() <= 2.0

    def test_threaded_wall_recorded(self):
        cluster = star_ft1(4, 1.0, seed=29)
        with ThreadSiteExecutor() as executor:
            result = ParBoXEngine(cluster, executor=executor).evaluate(query_of_size(8))
        assert result.metrics.wall_seconds > 0
        assert result.metrics.parallel_batches == 1

    def test_thread_pool_cached_across_batches(self):
        executor = ThreadSiteExecutor()
        small = star_ft1(3, 1.0, seed=30)
        big = star_ft1(6, 1.0, seed=31)
        qlist = query_of_size(2)
        with executor:
            ParBoXEngine(small, executor=executor).evaluate(qlist)
            first_pool = executor._pool
            assert first_pool is not None
            ParBoXEngine(small, executor=executor).evaluate(qlist)
            assert executor._pool is first_pool  # reused, not respawned
            ParBoXEngine(big, executor=executor).evaluate(qlist)
            assert executor._pool is first_pool  # wider batch, same pool
        assert executor._pool is None  # context exit reaps the pool

    def test_threads_engine_reuses_pool_and_honors_trace(self):
        from repro.distsim.trace import Trace

        cluster = star_ft1(3, 1.0, seed=32)
        with ParBoXEngine(cluster, executor="threads") as engine:
            first = engine.evaluate(query_of_size(2))
            pool = engine.executor._pool
            assert pool is not None
            second = engine.evaluate(query_of_size(2))
            assert engine.executor._pool is pool  # one pool across calls
            assert first.answer == second.answer
            # A trace attached after the first call must still be honored.
            engine.trace = Trace()
            engine.evaluate(query_of_size(2))
            assert len(engine.trace.events("compute")) > 0
