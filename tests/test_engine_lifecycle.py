"""Engine lifecycle: executor ownership and delegate teardown.

The :meth:`Engine.close` contract: an engine that resolved its executor
from a *name* owns it and must reap it; a pre-built instance belongs to
whoever built it.  HybridParBoX additionally owns two delegate engines
and must close each exactly once, without touching the executor the
three of them share.
"""

import pytest

from repro.core import HybridParBoXEngine, ParBoXEngine
from repro.distsim.executors import (
    SiteExecutor,
    ThreadSiteExecutor,
    execute_site_job,
)
from repro.workloads.portfolio import build_portfolio_cluster
from repro.xpath import compile_query


class RecordingExecutor(SiteExecutor):
    """A serial executor that counts its close() calls."""

    name = "recording"

    def __init__(self):
        self.close_calls = 0

    def run_jobs(self, jobs):
        return [execute_site_job(job) for job in jobs]

    def close(self):
        self.close_calls += 1


@pytest.fixture
def cluster():
    return build_portfolio_cluster()


class TestOwnershipRule:
    def test_name_resolved_executor_is_owned_and_closed(self, cluster):
        engine = ParBoXEngine(cluster, executor="threads")
        engine.evaluate(compile_query("[//stock]"))
        assert engine._owns_executor
        assert isinstance(engine.executor, ThreadSiteExecutor)
        assert engine.executor._pool is not None
        engine.close()
        assert engine.executor._pool is None

    def test_prebuilt_executor_is_shared_not_closed(self, cluster):
        executor = RecordingExecutor()
        engine = ParBoXEngine(cluster, executor=executor)
        engine.evaluate(compile_query("[//stock]"))
        assert not engine._owns_executor
        engine.close()
        assert executor.close_calls == 0  # the builder owns it

    def test_close_twice_is_safe(self, cluster):
        engine = ParBoXEngine(cluster, executor="threads")
        engine.evaluate(compile_query("[//stock]"))
        engine.close()
        engine.close()
        assert engine.executor._pool is None

    def test_context_manager_closes(self, cluster):
        with ParBoXEngine(cluster, executor="threads") as engine:
            engine.evaluate(compile_query("[//stock]"))
            pool = engine.executor._pool
            assert pool is not None
        assert engine.executor._pool is None


class TestHybridDelegates:
    def test_delegates_share_the_hybrid_executor(self, cluster):
        executor = RecordingExecutor()
        hybrid = HybridParBoXEngine(cluster, executor=executor)
        assert hybrid._parbox.executor is executor
        assert hybrid._central.executor is executor
        assert not hybrid._parbox._owns_executor
        assert not hybrid._central._owns_executor

    def test_delegates_closed_exactly_once(self, cluster):
        hybrid = HybridParBoXEngine(cluster, executor="serial")
        calls = {"parbox": 0, "central": 0}
        original_parbox_close = hybrid._parbox.close
        original_central_close = hybrid._central.close

        def parbox_close():
            calls["parbox"] += 1
            original_parbox_close()

        def central_close():
            calls["central"] += 1
            original_central_close()

        hybrid._parbox.close = parbox_close
        hybrid._central.close = central_close
        hybrid.close()
        hybrid.close()  # idempotent: the delegates are not re-closed
        assert calls == {"parbox": 1, "central": 1}

    def test_close_does_not_reap_a_shared_pool(self, cluster):
        executor = RecordingExecutor()
        hybrid = HybridParBoXEngine(cluster, executor=executor)
        hybrid.evaluate(compile_query("[//stock]"))
        hybrid.close()
        # Neither the hybrid (pre-built instance) nor its delegates
        # (shared instance) may close the builder's executor.
        assert executor.close_calls == 0

    def test_close_reaps_owned_executor_once_for_all_three(self, cluster):
        hybrid = HybridParBoXEngine(cluster, executor="threads")
        hybrid.evaluate(compile_query("[//stock]"))
        assert hybrid._owns_executor
        assert hybrid.executor._pool is not None
        hybrid.close()
        assert hybrid.executor._pool is None

    def test_close_reaps_a_delegate_owned_pool(self, cluster):
        # A delegate that owns its executor (name-resolved, not the
        # hybrid's shared instance) is the delegate-owned resource the
        # old close() leaked.
        hybrid = HybridParBoXEngine(cluster, executor="serial")
        hybrid._parbox = ParBoXEngine(cluster, executor="threads")
        hybrid._parbox.evaluate(compile_query("[//stock]"))
        owned = hybrid._parbox.executor
        assert owned._pool is not None
        hybrid.close()
        assert owned._pool is None

    def test_batch_goes_through_chosen_delegate(self, cluster):
        hybrid = HybridParBoXEngine(cluster)
        queries = [compile_query("[//stock]"), compile_query("[//zzz]")]
        batch = hybrid.evaluate_many(queries)
        assert batch.engine == "HybridParBoX"
        assert batch.details["strategy"] in ("parbox", "centralized")
        assert list(batch.answers) == [True, False]
