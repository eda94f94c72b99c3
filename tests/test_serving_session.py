"""QuerySession-over-the-network coverage: timeouts, retries, leaks.

The retry contract, verified against a *single-site* topology so the
dispatch counters are exact: a slow site hits the per-attempt deadline,
is retried exactly once, and a second failure surfaces as the typed
:class:`~repro.serving.protocol.SiteUnavailable` -- never a hang.  The
tier must then recover without a restart once the site heals, and the
whole exercise must leak neither sockets nor asyncio tasks.
"""

import random

import pytest

from netfixtures import hard_deadline, leak_check, open_fds
from repro.core.session import QuerySession
from repro.distsim import Cluster
from repro.fragments import fragment_at
from repro.serving import ServingCluster, SiteUnavailable, parse_net_spec
from test_properties import build_random_tree, valid_random_query


def single_site_topology(seed: int):
    """A one-site cluster: every batch is exactly one site job."""
    rng = random.Random(seed)
    tree = build_random_tree(rng)
    ftree = fragment_at(tree, [])  # no cuts: one fragment
    from repro.fragments import Placement

    assignment = {fid: "S0" for fid in ftree.iter_depth_first()}
    cluster = Cluster(ftree, Placement(assignment))
    queries = [valid_random_query(rng) for _ in range(3)]
    return cluster, queries


def the_site(serving) -> object:
    (servers,) = serving.sites.values()
    return servers[0]


# ---------------------------------------------------------------------------
# Deadline -> retry exactly once -> typed SiteUnavailable
# ---------------------------------------------------------------------------


def test_slow_site_retried_exactly_once_then_site_unavailable():
    cluster, queries = single_site_topology(101)
    with hard_deadline(60), ServingCluster(cluster, site_timeout=0.3) as serving:
        # Healthy warm-up so fragment pushes are out of the picture.
        with serving.session() as session:
            baseline_answers = session.evaluate_batch(queries).answers
        the_site(serving).delay_seconds = 2.0  # far beyond the deadline
        before = dict(serving.gateway.coordinator.stats)
        with serving.session() as session:
            with pytest.raises(SiteUnavailable):
                session.evaluate_batch(queries)
        stats = serving.gateway.coordinator.stats
        assert stats["attempts"] - before.get("attempts", 0) == 2
        assert stats["retries"] - before.get("retries", 0) == 1
        assert stats["failures"] - before.get("failures", 0) == 1
        # Heal the site: the same tier answers again, identically.
        the_site(serving).delay_seconds = 0.0
        with serving.session() as session:
            assert session.evaluate_batch(queries).answers == baseline_answers


def test_slow_site_within_deadline_is_not_retried():
    cluster, queries = single_site_topology(103)
    with hard_deadline(60), ServingCluster(cluster, site_timeout=5.0) as serving:
        the_site(serving).delay_seconds = 0.05
        with serving.session() as session:
            session.evaluate_batch(queries)
        assert serving.gateway.coordinator.stats["retries"] == 0
        assert serving.gateway.coordinator.stats["failures"] == 0


def test_dead_site_is_typed_failure_not_hang():
    """A site that is *gone* (connection refused) fails both attempts
    quickly and typed -- the no-hang half of the retry contract."""
    cluster, queries = single_site_topology(107)
    with hard_deadline(60), ServingCluster(cluster, site_timeout=1.0) as serving:
        with serving.session() as session:
            session.evaluate_batch(queries)
        serving.kill_site("S0")
        with serving.session() as session:
            with pytest.raises(SiteUnavailable):
                session.evaluate_batch(queries)


# ---------------------------------------------------------------------------
# Session transport behaviour
# ---------------------------------------------------------------------------


def test_session_reconnects_after_transport_drop():
    cluster, queries = single_site_topology(109)
    with hard_deadline(60), ServingCluster(cluster) as serving:
        with serving.session() as session:
            first = session.evaluate_batch(queries).answers
            # Sever the client's transport behind the engine's back; the
            # next call must reconnect, not fail on a stale socket.
            session.engine._client.close()
            assert session.evaluate_batch(queries).answers == first


def test_one_session_many_batches_one_connection():
    cluster, queries = single_site_topology(113)
    with hard_deadline(60), ServingCluster(cluster) as serving:
        with serving.session() as session:
            for _ in range(5):
                session.evaluate_batch(queries)
            client = session.engine._client
            assert client is not None and not client.closed
        served = the_site(serving).registry.snapshot()["site_requests_total"]["values"]
        assert served[""] >= 5


def test_parse_net_spec_forms():
    assert parse_net_spec("net:127.0.0.1:9000") == ("127.0.0.1", 9000, "")
    assert parse_net_spec("net:gateway.local:81/lazy") == ("gateway.local", 81, "lazy")
    assert parse_net_spec("127.0.0.1:9000/hybrid") == ("127.0.0.1", 9000, "hybrid")
    for bad in ("net:9000", "net:host:notaport", "net::"):
        with pytest.raises(ValueError):
            parse_net_spec(bad)


# ---------------------------------------------------------------------------
# No leaked sockets, no orphan tasks
# ---------------------------------------------------------------------------


def test_failed_and_healed_runs_leak_nothing():
    cluster, queries = single_site_topology(127)
    with hard_deadline(120), leak_check() as tracked:
        serving = ServingCluster(cluster, site_timeout=0.3)
        with serving:
            tracked.append(serving)
            with serving.session() as session:
                session.evaluate_batch(queries)
            the_site(serving).delay_seconds = 2.0
            with serving.session() as session:
                with pytest.raises(SiteUnavailable):
                    session.evaluate_batch(queries)
            the_site(serving).delay_seconds = 0.0
            with serving.session() as session:
                session.evaluate_batch(queries)


def test_abandoned_client_connections_do_not_leak():
    """Clients that vanish without closing must not pin gateway FDs."""
    cluster, queries = single_site_topology(131)
    with hard_deadline(120), ServingCluster(cluster) as serving:
        # Warm up first: the initial query opens the *persistent*
        # coordinator->site link, which is steady state, not a leak.
        with serving.client() as warmup:
            warmup.query(tuple(queries))
        baseline = open_fds()
        for _ in range(5):
            client = serving.client()
            client.query(tuple(queries))
            client._sock.close()  # rude disconnect: no shutdown handshake
            client._sock = None
        import gc
        import time

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            gc.collect()
            if len(open_fds()) <= len(baseline):
                break
            time.sleep(0.05)
        assert len(open_fds()) <= len(baseline)
