"""Lifecycle tests: serving components and engines under teardown abuse.

The teardown paths a long-running serving tier actually hits: a body
that raises mid-``with``, a close that runs twice (once from the
``with``, once from a ``finally`` further out), a component used after
close.  Every engine and every serving component must survive all
three -- Hybrid's delegate fan-out included, which is where the
double-close bug class historically lives.
"""

import random

import pytest

from netfixtures import hard_deadline
from repro.core import ENGINE_REGISTRY, HybridParBoXEngine, ParBoXEngine
from repro.core.session import QuerySession
from repro.distsim import Cluster
from repro.fragments import Placement, fragment_at
from repro.serving import GatewayClient, NetEngine, ServingCluster
from repro.workloads.portfolio import build_portfolio_cluster
from repro.xpath import compile_query
from test_properties import build_random_tree


@pytest.fixture
def cluster():
    return build_portfolio_cluster()


def tiny_cluster(seed: int = 3) -> Cluster:
    tree = build_random_tree(random.Random(seed), max_nodes=8)
    ftree = fragment_at(tree, [])
    return Cluster(ftree, Placement({fid: "S0" for fid in ftree.iter_depth_first()}))


# ---------------------------------------------------------------------------
# Engines: with-block + mid-body exception, then double close
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["parbox", "hybrid", "fulldist", "lazy", "central", "distributed"]
)
def test_every_engine_closes_after_mid_body_exception(cluster, name):
    engine_cls = ENGINE_REGISTRY[name]
    with pytest.raises(RuntimeError, match="mid-body"):
        with engine_cls(cluster, executor="threads") as engine:
            engine.evaluate(compile_query("[//stock]"))
            raise RuntimeError("mid-body failure")
    # __exit__ already closed it; closing again must be a no-op.
    assert engine.executor._pool is None
    engine.close()
    assert engine.executor._pool is None


def test_hybrid_double_close_after_exception_closes_delegates_once(cluster):
    calls = {"parbox": 0, "central": 0}
    with pytest.raises(RuntimeError, match="mid-body"):
        with HybridParBoXEngine(cluster, executor="serial") as hybrid:
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
            hybrid.evaluate(compile_query("[//stock]"))
            raise RuntimeError("mid-body failure")
    hybrid.close()  # the outer finally-style close
    hybrid.close()
    assert calls == {"parbox": 1, "central": 1}


def test_engine_close_after_failed_evaluate(cluster):
    engine = ParBoXEngine(cluster, executor="threads")
    with pytest.raises(Exception):
        engine.evaluate("not a qlist")  # type: ignore[arg-type]
    engine.close()
    engine.close()
    assert engine.executor._pool is None


# ---------------------------------------------------------------------------
# Serving components
# ---------------------------------------------------------------------------


def test_serving_cluster_double_close_and_close_after_exception():
    with hard_deadline(60):
        serving = ServingCluster(tiny_cluster())
        with pytest.raises(RuntimeError, match="mid-body"):
            with serving:
                with serving.session() as session:
                    session.evaluate("[//a]")
                raise RuntimeError("mid-body failure")
        assert serving.leaked_tasks == []
        serving.close()  # idempotent after __exit__ already ran
        serving.close()


def test_serving_cluster_close_unstarted_is_safe():
    serving = ServingCluster(tiny_cluster())
    serving.close()
    serving.close()


def test_evaluation_pool_is_sized_by_max_inflight():
    with hard_deadline(60), ServingCluster(tiny_cluster(), max_inflight=3) as serving:
        assert serving.gateway.max_inflight == 3
        assert serving.gateway._pool._max_workers == 3
        with serving.session(engine="parbox") as session:
            assert len(session.evaluate_batch(["[//a]", "[not //a]"]).answers) == 2


def test_one_coordinator_serves_and_no_reply_names_it():
    with hard_deadline(60), ServingCluster(tiny_cluster()) as serving:
        with serving.client() as client:
            for _ in range(2):
                reply = client.query(("[//a]", "[not //a]"), "parbox")
                assert reply.details["engine"] == "ParBoX"
                assert "coordinator" not in reply.details
            stats = client.server_stats()
    assert not hasattr(serving.gateway, "coordinators")
    assert stats["gateway_replies_total{status=ok}"] == 2.0
    # Only the aggregate gateway series: none is split per coordinator.
    families = {key.split("{")[0] for key in stats if key.startswith("gateway_")}
    assert families == {"gateway_inflight", "gateway_replies_total", "gateway_requests_total"}
    # The one coordinator's series keep their ``c0`` label.
    assert stats["coordinator_plan_cache_total{coordinator=c0,result=miss}"] == 1.0
    assert stats["coordinator_plan_cache_total{coordinator=c0,result=hit}"] == 1.0


def test_gateway_client_lifecycle():
    with hard_deadline(60), ServingCluster(tiny_cluster()) as serving:
        client = serving.client()
        assert client.ping()
        client.close()
        client.close()  # double close
        assert client.closed
        with pytest.raises(ConnectionError):
            client.query(("[//a]",))
        # with-block + exception still closes.
        with pytest.raises(RuntimeError, match="mid-body"):
            with serving.client() as other:
                other.ping()
                raise RuntimeError("mid-body failure")
        assert other.closed


def test_net_engine_lifecycle():
    with hard_deadline(60), ServingCluster(tiny_cluster()) as serving:
        host, port = serving.gateway.host, serving.gateway.port
        engine = NetEngine(host, port)
        assert engine.ping()
        engine.close()
        engine.close()  # double close
        with pytest.raises(RuntimeError):
            engine.ping()  # use-after-close is typed, not a reconnect
        with pytest.raises(RuntimeError, match="mid-body"):
            with NetEngine(host, port) as scoped:
                scoped.ping()
                raise RuntimeError("mid-body failure")
        with pytest.raises(RuntimeError):
            scoped.ping()


def test_net_session_owns_and_closes_its_engine():
    with hard_deadline(60), ServingCluster(tiny_cluster()) as serving:
        with pytest.raises(RuntimeError, match="mid-body"):
            with serving.session() as session:
                session.evaluate("[//a]")
                raise RuntimeError("mid-body failure")
        assert session._owns_engine
        assert session.engine._closed
        session.close()  # double close via the session surface
        with pytest.raises(RuntimeError):
            session.evaluate("[//a]")


# ---------------------------------------------------------------------------
# Session-layer guards around net: engines
# ---------------------------------------------------------------------------


def test_net_session_rejects_local_only_operations():
    with hard_deadline(60), ServingCluster(tiny_cluster()) as serving:
        with serving.session() as session:
            with pytest.raises(RuntimeError, match="local"):
                session.watch(["[//a]"])
            with pytest.raises(RuntimeError, match="local"):
                session.rebalance(queries=["[//a]"])


def test_net_session_rejects_local_engine_knobs():
    for knob in ({"executor": "serial"}, {"algebra": object()}, {"trace": object()}):
        with pytest.raises(ValueError, match="net: engine"):
            QuerySession(None, engine="net:127.0.0.1:1", **knob)


def test_local_engine_requires_a_cluster():
    with pytest.raises(ValueError, match="needs a cluster"):
        QuerySession(None, engine="parbox")
