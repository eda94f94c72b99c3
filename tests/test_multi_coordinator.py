"""Scale-out serving: coordinator pool, consistent-hash routing, plan cache.

The scale-out layer must be invisible in the answers: whichever
coordinator a request routes to, the reply -- answers AND the
deterministic simulated ledger -- must be bitwise identical to the
in-process oracle, under every routing policy and while sites die and
fail over mid-run.  What routing *is* allowed to change is locality:
a resent batch must land on the same coordinator (warm compiled plan,
warm site links), which the stickiness and plan-cache tests pin down.
"""

import random

import pytest

from netfixtures import hard_deadline, leak_check
from repro.serving import ServingCluster
from repro.serving.coordinator import PLAN_CACHE_SIZE, Coordinator
from repro.serving.gateway import ROUTING_POLICIES
from repro.serving.routing import DEFAULT_VNODES, HashRing, plan_fingerprint
from repro.workloads.pubsub import subscription_texts
from repro.workloads.topologies import star_ft1
from test_serving_differential import (
    assert_matches_oracle,
    deterministic_ledger,
    random_batch,
    random_topology,
)

# ---------------------------------------------------------------------------
# Routing units: fingerprints and the hash ring
# ---------------------------------------------------------------------------


class TestPlanFingerprint:
    def test_stable_and_distinct(self):
        batch = ("[//a]", "[not //b]")
        assert plan_fingerprint(batch) == plan_fingerprint(tuple(batch))
        assert plan_fingerprint(batch) != plan_fingerprint(("[//a]",))
        # Order matters: a different wire program is a different key.
        assert plan_fingerprint(batch) != plan_fingerprint(batch[::-1])
        # No concatenation aliasing across entry boundaries.
        assert plan_fingerprint(("ab", "c")) != plan_fingerprint(("a", "bc"))

    def test_qlist_wire_forms_fingerprint_by_content(self):
        entries = (("down", "a", 0), ("exists", "b", 1))
        wire = ("qlist", entries)
        assert plan_fingerprint((wire,)) == plan_fingerprint((("qlist", list(entries)),))
        assert plan_fingerprint((wire,)) != plan_fingerprint(("[//a]",))

    def test_unroutable_batches_return_none(self):
        # Empty and malformed batches fall back to least-inflight routing
        # instead of pre-empting the coordinator's typed bad-request error.
        assert plan_fingerprint(()) is None
        assert plan_fingerprint((123,)) is None
        assert plan_fingerprint((("qlist", 5, "extra"),)) is None


class TestHashRing:
    def test_routing_is_deterministic_and_total(self):
        ring = HashRing(["c0", "c1", "c2"])
        keys = [plan_fingerprint((text,)) for text in subscription_texts(32, seed=3)]
        first = [ring.route(key) for key in keys]
        second = [HashRing(["c0", "c1", "c2"]).route(key) for key in keys]
        assert first == second
        assert set(first) <= {"c0", "c1", "c2"}
        # Virtual nodes spread a real key set across the whole pool.
        assert len(set(first)) == 3

    def test_adding_a_node_remaps_a_minority_of_keys(self):
        keys = [plan_fingerprint((f"[//q{i}]",)) for i in range(400)]
        two = HashRing(["c0", "c1"])
        three = HashRing(["c0", "c1", "c2"])
        moved = sum(1 for key in keys if two.route(key) != three.route(key))
        # Consistent hashing: ~1/3 of keys move to the new node, and no
        # key moves between the two surviving nodes' arcs beyond noise.
        assert moved < len(keys) * 0.55
        assert all(
            three.route(key) == "c2" or three.route(key) == two.route(key)
            for key in keys
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["c0", "c0"])
        with pytest.raises(ValueError):
            HashRing(["c0"], vnodes=0)
        assert len(HashRing(["c0"], vnodes=DEFAULT_VNODES)) == 1


# ---------------------------------------------------------------------------
# Differential: every routing policy, bitwise vs the in-process oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("routing", ROUTING_POLICIES)
def test_two_coordinators_match_oracle_under_every_policy(routing):
    rng = random.Random(97)
    cluster = random_topology(rng)
    batches = [random_batch(rng, rng.randint(1, 4)) for _ in range(3)]
    with hard_deadline(120), leak_check() as clusters:
        with ServingCluster(cluster, coordinators=2, routing=routing) as serving:
            clusters.append(serving)
            for queries in batches:
                assert_matches_oracle(cluster, serving, "parbox", queries)


def test_failover_with_two_coordinators_live():
    """Kill a site's primary replica with both coordinators serving:
    whichever pool member handles the next batches must fail over to the
    replica with answers and ledger unchanged."""
    rng = random.Random(5)
    cluster = None
    while cluster is None or len(cluster.source_tree().sites()) < 2:
        cluster = random_topology(rng)
    batches = [random_batch(rng, 3) for _ in range(4)]
    victim = sorted(cluster.source_tree().sites())[-1]
    with hard_deadline(180):
        with ServingCluster(
            cluster, coordinators=2, replicas=2, site_timeout=5.0
        ) as serving:
            for queries in batches:
                assert_matches_oracle(cluster, serving, "parbox", queries)
            serving.kill_site(victim, replica=0)
            for queries in batches:
                assert_matches_oracle(cluster, serving, "parbox", queries)
            # The failover is visible in the pool-wide retry counter.
            assert serving.gateway.coordinator.stats["retries"] >= 1


def test_kill_and_restart_between_batches_with_two_coordinators():
    rng = random.Random(23)
    cluster = None
    while cluster is None or len(cluster.source_tree().sites()) < 2:
        cluster = random_topology(rng)
    queries = random_batch(rng, 4)
    victim = sorted(cluster.source_tree().sites())[-1]
    with hard_deadline(180):
        with ServingCluster(cluster, coordinators=2, site_timeout=5.0) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)
            serving.kill_site(victim)
            serving.restart_site(victim)
            assert_matches_oracle(cluster, serving, "parbox", queries)


# ---------------------------------------------------------------------------
# Stickiness, balance, per-coordinator accounting
# ---------------------------------------------------------------------------


def _text_cluster():
    return star_ft1(3, 0.05, seed=7, nodes_per_mb=24)


def test_hash_routing_is_sticky_and_matches_the_ring():
    """Raw-text batches route exactly where the public fingerprint+ring
    says they should, and resends always land on the same coordinator."""
    cluster = _text_cluster()
    texts = subscription_texts(12, seed=11)
    ring = HashRing(["c0", "c1"])
    with hard_deadline(120):
        with ServingCluster(cluster, coordinators=2) as serving:
            with serving.client() as client:
                seen = set()
                for text in texts:
                    batch = (text, "[//never]")
                    expected = ring.route(plan_fingerprint(batch))
                    for _ in range(2):  # the resend must not move
                        reply = client.query(batch, "parbox")
                        assert reply.details["coordinator"] == expected
                    seen.add(expected)
    # The subscription pool is wide enough to exercise both arcs.
    assert seen == {"c0", "c1"}


def test_net_engine_reports_the_serving_coordinator():
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster, coordinators=2) as serving:
            with serving.session(engine="parbox") as session:
                names = set()
                for _ in range(3):
                    session.evaluate_batch(["[//a]", "[not //b]"])
                    names.add(session.engine.last_coordinator)
    assert len(names) == 1 and names <= {"c0", "c1"}


def test_skew_policy_pins_every_batch_to_c0():
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster, coordinators=2, routing="skew") as serving:
            with serving.client() as client:
                for text in subscription_texts(6, seed=13):
                    reply = client.query((text,), "parbox")
                    assert reply.details["coordinator"] == "c0"
                stats = client.server_stats()
    assert stats.get("gateway_routed_total{coordinator=c0,policy=skew}") == 6.0
    assert "gateway_routed_total{coordinator=c1,policy=skew}" not in stats


def test_per_coordinator_series_ride_alongside_aggregates():
    """New per-coordinator series appear; the pre-scale-out aggregate
    series keep their exact label shape (other suites pin them)."""
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster, coordinators=2) as serving:
            with serving.session(engine="parbox") as session:
                session.evaluate_batch(["[//a]"])
                session.evaluate_batch(["[not //b]"])
            with serving.client() as client:
                stats = client.server_stats()
    assert stats["gateway_replies_total{status=ok}"] == 2.0
    per_coordinator = [
        key for key in stats if key.startswith("gateway_coordinator_replies_total{")
    ]
    assert per_coordinator
    assert sum(stats[key] for key in per_coordinator) == 2.0
    assert all("coordinator=c" in key and "status=ok" in key for key in per_coordinator)
    inflight = [
        key for key in stats if key.startswith("gateway_coordinator_inflight{")
    ]
    assert {stats[key] for key in inflight} == {0.0}


# ---------------------------------------------------------------------------
# The compiled-plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_hits_on_resends_and_reports_through_obs():
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster, coordinators=2) as serving:
            with serving.client() as client:
                batch = ("[//a]", "[not //b]")
                for _ in range(5):
                    client.query(batch, "parbox")
                stats = client.server_stats()
            pool = serving.gateway.coordinators
            cache = [coordinator.plan_cache_stats() for coordinator in pool]
    # Sticky routing sends all five sends to one coordinator: one miss
    # compiles, four hits skip planning and re-validation.
    assert sum(entry["misses"] for entry in cache) == 1
    assert sum(entry["hits"] for entry in cache) == 4
    assert sum(entry["entries"] for entry in cache) == 1
    # The same counts surface through the metrics registry.
    hits = [
        value
        for key, value in stats.items()
        if key.startswith("coordinator_plan_cache_total{") and "result=hit" in key
    ]
    assert sum(hits) == 4.0


def test_plan_cache_is_bounded_lru(monkeypatch):
    cluster = _text_cluster()
    endpoints = {site: ("127.0.0.1", 1) for site in cluster.source_tree().sites()}
    assert PLAN_CACHE_SIZE >= 2
    monkeypatch.setattr("repro.serving.coordinator.PLAN_CACHE_SIZE", 2)
    coordinator = Coordinator(cluster, endpoints)
    for text in ("[//a]", "[//b]", "[//c]"):
        coordinator._plan_for((text,))
    assert coordinator.plan_cache_stats()["entries"] == 2
    # "[//a]" was evicted; "[//c]" and "[//b]" survive ("[//b]" refreshed).
    coordinator._plan_for(("[//b]",))
    assert coordinator.plan_cache_stats()["hits"] == 1
    coordinator._plan_for(("[//a]",))
    assert coordinator.plan_cache_stats()["entries"] == 2
    assert coordinator.plan_cache_stats()["misses"] == 4


def test_plan_cache_returns_identical_plans_and_answers():
    """A cache hit must evaluate exactly like the first compile did."""
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster) as serving:
            with serving.session(engine="parbox") as session:
                first = session.evaluate_batch(["[//a]", "[not //b]"])
                second = session.evaluate_batch(["[//a]", "[not //b]"])
    assert first.answers == second.answers
    assert deterministic_ledger(first.metrics) == deterministic_ledger(second.metrics)


# ---------------------------------------------------------------------------
# Gateway knobs
# ---------------------------------------------------------------------------


def test_max_workers_defaults_to_max_inflight_and_decouples():
    cluster = _text_cluster()
    with hard_deadline(120):
        with ServingCluster(cluster, max_inflight=3) as serving:
            assert serving.gateway.max_workers == 3
        with ServingCluster(cluster, max_inflight=3, max_workers=7) as serving:
            assert serving.gateway.max_workers == 7
            assert serving.gateway.max_inflight == 3
            with serving.session(engine="parbox") as session:
                assert session.evaluate_batch(["[//a]"]).answers
