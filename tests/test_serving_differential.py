"""Differential tests: networked serving tier vs the simulated-ledger oracle.

The serving tier must be *transparent*: running any servable engine
through real sockets and real processes may change timing, but never
answers and never the deterministic cost ledger the paper's experiments
are built on.  So for random topologies x engines x query batches we
assert the networked result is **bitwise identical** to the same engine
run in-process -- answers, per-site visit counters, message counts,
byte counters, node/qlist/segment work -- including while sites are
being killed and restarted under the batch.

Timing fields (``elapsed_seconds``, ``wall_seconds``,
``compute_seconds_total``, ``site_seconds``) fold in *measured* CPU
time and are inherently non-reproducible; they are deliberately not
part of the comparison.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from netfixtures import hard_deadline, leak_check
from repro.core.session import QuerySession
from repro.serving import SERVABLE_ENGINES, ServingCluster
from test_properties import (
    build_random_tree,
    random_fragmentation,
    random_placement,
    valid_random_query,
)

#: Engines the differential property runs against (hybrid is covered by
#: the fixed-topology test; it composes the other three).
DIFF_ENGINES = ("parbox", "fulldist", "lazy")

#: The ledger fields that must be bit-identical across transports.
DETERMINISTIC_FIELDS = (
    "visits",
    "messages",
    "bytes_total",
    "bytes_by_kind",
    "nodes_processed",
    "qlist_ops",
    "segment_ops",
)


def deterministic_ledger(metrics) -> dict:
    return {name: getattr(metrics, name) for name in DETERMINISTIC_FIELDS}


def random_topology(rng: random.Random):
    tree = build_random_tree(rng)
    return random_placement(rng, random_fragmentation(rng, tree))


def random_batch(rng: random.Random, size: int) -> list[str]:
    return [valid_random_query(rng) for _ in range(size)]


def assert_matches_oracle(cluster, serving, engine: str, queries) -> None:
    local = QuerySession(cluster, engine=engine)
    with serving.session(engine=engine) as remote:
        try:
            expected = local.evaluate_batch(queries)
            actual = remote.evaluate_batch(queries)
        finally:
            local.close()
    assert actual.answers == expected.answers
    assert deterministic_ledger(actual.metrics) == deterministic_ledger(
        expected.metrics
    )
    assert actual.details.get("transport") == "net"
    # The gateway reports which engine actually answered.
    assert actual.engine == expected.engine


# ---------------------------------------------------------------------------
# The core differential property
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_networked_engines_match_oracle_on_random_topologies(seed):
    rng = random.Random(seed)
    cluster = random_topology(rng)
    queries = random_batch(rng, rng.randint(1, 5))
    with hard_deadline(120):
        with ServingCluster(cluster) as serving:
            for engine in DIFF_ENGINES:
                assert_matches_oracle(cluster, serving, engine, queries)


def test_all_servable_engines_match_oracle_fixed_topology():
    """Every SERVABLE_ENGINES entry (including hybrid) on one topology."""
    rng = random.Random(7)
    cluster = random_topology(rng)
    queries = random_batch(rng, 6)
    with hard_deadline(120), leak_check() as clusters:
        with ServingCluster(cluster) as serving:
            clusters.append(serving)
            for engine in SERVABLE_ENGINES:
                assert_matches_oracle(cluster, serving, engine, queries)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batches_match_under_duplicate_and_mixed_queries(seed):
    """Batches with repeated queries dedup identically on both paths."""
    rng = random.Random(seed)
    cluster = random_topology(rng)
    base = random_batch(rng, 3)
    queries = base + [base[0], base[-1]]
    with hard_deadline(120):
        with ServingCluster(cluster) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)


# ---------------------------------------------------------------------------
# Faulted topologies: kill / restart / replica failover
# ---------------------------------------------------------------------------


def _non_root_site(cluster) -> str:
    sites = sorted(cluster.source_tree().sites())
    return sites[-1] if len(sites) > 1 else sites[0]


def test_kill_and_restart_mid_run_still_matches_oracle():
    """One site dies and comes back *empty* between batches; answers and
    ledger stay bit-identical (reconnect + fragment re-push heal it)."""
    rng = random.Random(23)
    cluster = None
    while cluster is None or len(cluster.source_tree().sites()) < 2:
        cluster = random_topology(rng)
    queries = random_batch(rng, 4)
    victim = _non_root_site(cluster)
    with hard_deadline(120):
        with ServingCluster(cluster, site_timeout=5.0) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)
            serving.kill_site(victim)
            serving.restart_site(victim)
            for engine in DIFF_ENGINES:
                assert_matches_oracle(cluster, serving, engine, queries)
            assert serving.gateway.coordinator.stats["failures"] == 0


def test_replica_failover_when_primary_dies():
    """With replicas=2, killing the primary mid-session redirects work to
    the replica; the deterministic ledger is unchanged."""
    rng = random.Random(5)
    cluster = None
    while cluster is None or len(cluster.source_tree().sites()) < 2:
        cluster = random_topology(rng)
    queries = random_batch(rng, 4)
    victim = _non_root_site(cluster)
    with hard_deadline(120):
        with ServingCluster(cluster, replicas=2, site_timeout=5.0) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)
            serving.kill_site(victim, replica=0)
            assert_matches_oracle(cluster, serving, "parbox", queries)
            stats = serving.gateway.coordinator.stats
            assert stats["retries"] >= 1, "failover should be visible as a retry"


def test_unknown_fragment_triggers_in_band_repush():
    """A site that forgot its fragments *without* dropping the connection
    (e.g. an operator flushed its cache) answers ``unknown-fragment``;
    the coordinator re-pushes on the same link and the query succeeds."""
    rng = random.Random(11)
    cluster = random_topology(rng)
    queries = random_batch(rng, 3)
    with hard_deadline(120):
        with ServingCluster(cluster) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)
            # Flush every live server's resident fragments in place; TCP
            # connections stay up, so reconnect-repush cannot mask this.
            for servers in serving.sites.values():
                for server in servers:
                    server.state.retire(list(server.state.fragments))
            before = serving.gateway.coordinator.stats["repushes"]
            assert_matches_oracle(cluster, serving, "parbox", queries)
            after = serving.gateway.coordinator.stats["repushes"]
            assert after > before, "expected the in-band repush path to fire"


def test_stale_epoch_triggers_in_band_repush():
    """A site holding copies whose epochs predate an update (it missed
    an invalidation) answers ``stale-fragment``; the coordinator
    re-pushes the current copies on the same link and the query
    succeeds."""
    rng = random.Random(17)
    cluster = random_topology(rng)
    queries = random_batch(rng, 3)
    with hard_deadline(120):
        with ServingCluster(cluster) as serving:
            assert_matches_oracle(cluster, serving, "parbox", queries)
            # Bump every fragment's epoch without touching content --
            # exactly what the sites see when they miss an update's
            # invalidation: resident data present but content-addressed
            # to a dead epoch.
            for fragment_id in cluster.fragmented_tree.fragments:
                cluster.fragment(fragment_id).bump_epoch()
            before = serving.gateway.coordinator.stats["repushes"]
            assert_matches_oracle(cluster, serving, "parbox", queries)
            after = serving.gateway.coordinator.stats["repushes"]
            assert after > before, "expected the stale-fragment repush to fire"


# ---------------------------------------------------------------------------
# Process mode
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_smoke_boot_two_sites_as_processes():
    """Boot-two-sites smoke: real child processes, one differential pass."""
    rng = random.Random(3)
    cluster = None
    while cluster is None or len(cluster.source_tree().sites()) != 2:
        cluster = random_topology(rng)
    queries = random_batch(rng, 3)
    with hard_deadline(180):
        with ServingCluster(cluster, site_mode="process") as serving:
            assert len(serving.sites) == 2
            for servers in serving.sites.values():
                assert all(site.running for site in servers)
            assert_matches_oracle(cluster, serving, "parbox", queries)
