"""The resident process-executor stack: residency, epochs, zero-copy.

Covers the acceptance criteria of the resident-worker redesign:

* random topologies x engines x update streams (including a mid-run
  rebalance) agree bitwise with the serial executor -- answers and the
  full simulated ledger;
* each epoch of a fragment reaches its worker exactly once -- as a
  full push or, after a journalled content edit, as a patch --
  witnessed from both sides (the dispatcher's ship log and the
  workers' receive counters);
* a worker that missed an invalidation replies typed-stale and the
  dispatcher re-pushes and retries; a dead worker is respawned; both
  self-heals are invisible in the answers;
* retired fragments (merge, migration) are reclaimed from worker
  memory -- the leak check;
* the shared :class:`ResidentSiteState`, the site-vectorized
  :func:`site_bottom_up` pass and the protocol-5 transport each agree
  bitwise with their scalar/in-band counterparts.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.boolexpr.compose import CanonicalAlgebra, PaperAlgebra
from repro.core import (
    ENGINE_REGISTRY,
    ParBoXEngine,
    evaluate_tree,
)
from repro.core.bottom_up import bottom_up, linearize, linearize_ground, site_bottom_up
from repro.core.vectors import VectorTriplet, compact_with_buffers
from repro.distsim.executors import (
    ProcessSiteExecutor,
    SerialSiteExecutor,
    SiteJob,
    _resident_worker_main,
    resident_fragment_wire,
)
from repro.distsim.resident import (
    ResidentSiteState,
    StaleResidentError,
    fragment_digest,
    qlist_fingerprint,
)
from repro.distsim import transport
from repro.distsim.transport import recv_payload, send_payload
from repro.stream import MergeFragment, MoveFragment, Relabel, SplitFragment
from repro.stream.maintainer import StreamMaintainer
from repro.stream.updates import apply_updates
from repro.workloads.portfolio import build_portfolio_cluster
from repro.workloads.topologies import chain_ft2, star_ft1
from repro.workloads.updates import update_stream
from repro.xpath import compile_query

DIFFERENTIAL_ENGINES = ("parbox", "fulldist", "lazy", "hybrid")

QUERIES = [
    "[//stock]",
    '[//stock[code = "GOOG" and sell = "376"]]',
    "[not //market]",
]


def _oracle(cluster, query_text):
    answer, _ = evaluate_tree(
        cluster.fragmented_tree.stitch(), compile_query(query_text)
    )
    return answer


def _first_leaf(cluster, fragment_id):
    return cluster.fragment(fragment_id).root.find_first(
        lambda n: not n.is_virtual and not n.children
    )


# ---------------------------------------------------------------------------
# Differential: streams x engines, bitwise against the serial executor
# ---------------------------------------------------------------------------


class TestDifferentialAgainstSerial:
    @pytest.mark.parametrize("engine_name", DIFFERENTIAL_ENGINES)
    def test_ledger_bitwise_after_update_stream(self, engine_name):
        # Mutate one cluster through a skewed stream (with structural
        # ops), then demand answer AND ledger equality between the
        # serial executor and the resident process pool on the final
        # state -- the ledger is simulated, so any divergence means the
        # resident path changed semantics, not speed.
        cluster = star_ft1(4, 0.4, seed=41, nodes_per_mb=24)
        for batch in update_stream(
            cluster, rounds=4, ops_per_round=3, seed=41, structural_every=2
        ):
            apply_updates(cluster, batch)
        qlist = compile_query("[//bidder or //probe]")
        engine_cls = ENGINE_REGISTRY[engine_name]
        ledgers = {}
        for executor in (SerialSiteExecutor(), ProcessSiteExecutor()):
            with executor:
                result = engine_cls(cluster, executor=executor).evaluate(qlist)
            metrics = result.metrics
            ledgers[executor.name] = (
                result.answer,
                dict(metrics.visits),
                metrics.messages,
                metrics.bytes_total,
                dict(metrics.bytes_by_kind),
                metrics.nodes_processed,
                metrics.qlist_ops,
            )
        assert ledgers["serial"] == ledgers["process"]

    @pytest.mark.parametrize("topology_seed", [51, 52])
    def test_maintained_stream_with_midrun_rebalance(self, topology_seed):
        # A maintainer driving the resident pool through a live stream,
        # with an explicit MoveFragment rebalance halfway: every round's
        # standing answers must match a fresh evaluation of the stitched
        # document, and no (worker, fragment, epoch) may ship twice.
        cluster = star_ft1(3, 0.4, seed=topology_seed, nodes_per_mb=24)
        executor = ProcessSiteExecutor(max_workers=2)
        with executor:
            maintainer = StreamMaintainer(cluster, executor=executor)
            queries = {"q0": "[//bidder]", "q1": '[//probe = "on"]', "q2": "[not(//note)]"}
            for name, text in queries.items():
                maintainer.subscribe(name, text)
            # The stream draws targets from live cluster state: consume
            # it lazily, one apply per draw.
            stream = update_stream(
                cluster, rounds=6, ops_per_round=2, seed=7, structural_every=3
            )
            for index, batch in enumerate(stream):
                if index == 3:
                    # Rebalance mid-run: re-home a fragment to another
                    # site.  Content is untouched, answers must hold.
                    source_tree = cluster.source_tree()
                    fragment_id = source_tree.fragments_of(source_tree.sites()[0])[0]
                    target = source_tree.sites()[-1]
                    maintainer.apply([MoveFragment(fragment_id, target)])
                maintainer.apply(batch)
                live = maintainer.answers()
                assert live == {
                    name: _oracle(cluster, text) for name, text in queries.items()
                }, f"diverged at round {index}"
            assert len(set(executor.ship_log)) == len(executor.ship_log)
            # The stream's content edits travelled as patches, its
            # structural ops and the rebalance as full pushes.
            assert executor.stats["patches"] > 0
            assert executor.stats["ships"] + executor.stats["patches"] == len(
                executor.ship_log
            )
            # Holder-side witness: every (fragment, epoch) the dispatcher
            # delivered arrived exactly once, by push or by patch, and
            # nothing else did.
            received = []
            for stats in executor.worker_stats():
                assert all(count == 1 for count in stats["receive_counts"].values())
                received += [(stats["worker"], *key) for key in stats["receive_counts"]]
                # ...and what the worker holds is the live document.
                for fragment_id, digest in stats["digests"].items():
                    assert digest == fragment_digest(cluster.fragment(fragment_id))
            assert sorted(received) == sorted(executor.ship_log)


# ---------------------------------------------------------------------------
# Ship-once, warm start
# ---------------------------------------------------------------------------


class TestShipOncePerEpoch:
    def test_steady_state_ships_nothing(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        with ProcessSiteExecutor() as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            engine.evaluate(qlist)
            ships_after_first = executor.stats["ships"]
            assert ships_after_first == len(cluster.fragmented_tree.fragments)
            for _ in range(3):
                engine.evaluate(qlist)
            assert executor.stats["ships"] == ships_after_first
            assert len(set(executor.ship_log)) == len(executor.ship_log)

    def test_epoch_bump_patches_only_the_dirty_fragment(self):
        # A content edit travels as the edit: no fragment is re-shipped,
        # one patch goes out, and it names only the edited fragment.
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        with ProcessSiteExecutor() as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            engine.evaluate(qlist)
            baseline = executor.stats["ships"]
            delivered = len(executor.ship_log)
            leaf = _first_leaf(cluster, "F2")
            apply_updates(cluster, [Relabel("F2", leaf.node_id, text="377")])
            result = engine.evaluate(qlist)
            assert executor.stats["ships"] == baseline
            assert executor.stats["patches"] == 1
            assert [entry[1:] for entry in executor.ship_log[delivered:]] == [
                ("F2", cluster.fragment("F2").epoch)
            ]
            # Holder side: each epoch arrived once, the new one by patch.
            counts = {}
            for stats in executor.worker_stats():
                counts.update(stats["receive_counts"])
            assert counts[("F2", cluster.fragment("F2").epoch)] == 1
            assert all(count == 1 for count in counts.values())
            assert len(counts) == len(executor.ship_log)
        assert result.answer is _oracle(cluster, "[//stock]")

    def test_warm_start_prepays_every_ship(self):
        cluster = build_portfolio_cluster()
        with ProcessSiteExecutor(warm=cluster) as executor:
            prepaid = executor.stats["ships"]
            assert prepaid == len(cluster.fragmented_tree.fragments)
            result = ParBoXEngine(cluster, executor=executor).evaluate(
                compile_query("[//stock]")
            )
            assert executor.stats["ships"] == prepaid  # nothing left to ship
        assert result.answer is _oracle(cluster, "[//stock]")

    def test_worker_refuses_the_removed_full_payload_message(self):
        # Hand-driven worker: the pre-residency ("rawjob", payload)
        # message is now just an unknown kind -- answered typed, and the
        # worker keeps serving.
        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_resident_worker_main, args=(child,), daemon=True
        )
        process.start()
        child.close()
        try:
            send_payload(parent, ("rawjob", ("S0", (), (), "canonical", ())))
            assert recv_payload(parent) == (
                "error",
                "ValueError",
                "unknown message 'rawjob'",
            )
            send_payload(parent, ("stats",))
            reply = recv_payload(parent)
            assert reply[0] == "ok" and reply[1]["resident"] == {}
        finally:
            send_payload(parent, ("stop",))
            process.join(timeout=10)
            parent.close()
        assert not process.is_alive()


# ---------------------------------------------------------------------------
# Self-heal: stale residents, dead workers
# ---------------------------------------------------------------------------


class TestSelfHeal:
    def test_missed_invalidation_heals_via_typed_stale(self):
        # Forge the hazard the epoch check exists for: the dispatcher
        # believes the worker holds the new epoch, the worker does not
        # (as if it missed a migration/split invalidation).  The worker
        # must answer typed-stale, the dispatcher re-push and retry.
        cluster = build_portfolio_cluster()
        qlist = compile_query('[//stock[code = "GOOG" and sell = "376"]]')
        with ProcessSiteExecutor(max_workers=1) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            engine.evaluate(qlist)
            leaf = _first_leaf(cluster, "F2")
            apply_updates(cluster, [Relabel("F2", leaf.node_id, text="376")])
            worker = executor._workers[executor._site_affinity[cluster.site_of("F2")]]
            worker.resident["F2"] = cluster.fragment("F2").epoch  # forged model
            result = engine.evaluate(qlist)
            assert executor.stats["stale_retries"] == 1
            assert result.answer is _oracle(
                cluster, '[//stock[code = "GOOG" and sell = "376"]]'
            )

    def test_dead_worker_respawns_and_recovers_the_batch(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        with ProcessSiteExecutor(max_workers=1) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            engine.evaluate(qlist)
            worker = next(w for w in executor._workers if w is not None)
            worker.process.terminate()
            worker.process.join(timeout=5)
            result = engine.evaluate(qlist)
            assert executor.stats["respawns"] >= 1
            assert result.answer is _oracle(cluster, "[//stock]")


def _dying_flush(monkeypatch, executor, when, index=None, times=None):
    """Wrap the parent-side ``submission.flush``: the worker dies mid-exchange.

    ``when="before"`` kills the worker before its frame is written (the
    write raises ``BrokenPipeError``); ``when="after"`` stops it, writes
    the frame and then kills it, so the frame is never answered and the
    reply read gets EOF.  Only the worker at ``index`` (any, if
    ``None``) dies, at most ``times`` times (unbounded if ``None``).
    Returns the list of indices killed, in order.
    """
    honest = transport.SubmissionQueue.flush
    deaths = []

    def kill(worker):
        worker.process.kill()
        worker.process.join(timeout=10)

    def flush(queue):
        worker = next(w for w in executor._workers if w is not None and w.submission is queue)
        if (index is not None and worker.index != index) or (
            times is not None and len(deaths) >= times
        ):
            return honest(queue)
        deaths.append(worker.index)
        if when == "before":
            kill(worker)
            return honest(queue)
        os.kill(worker.process.pid, signal.SIGSTOP)  # it cannot answer this frame
        try:
            return honest(queue)
        finally:
            kill(worker)

    monkeypatch.setattr(transport.SubmissionQueue, "flush", flush)
    return deaths


class TestMidExchangeDeath:
    """A worker that dies between the dispatcher's pipe write and its
    reply read -- not between batches, where ``_worker_for``'s liveness
    check catches it before any send."""

    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_the_batch_is_re_dispatched_and_exact(self, monkeypatch, when, warm):
        cluster = build_portfolio_cluster()
        query = QUERIES[1]
        with ProcessSiteExecutor(max_workers=2) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            if warm:
                engine.evaluate(compile_query(QUERIES[0]))
            deaths = _dying_flush(monkeypatch, executor, when, times=1)
            result = engine.evaluate(compile_query(query))
            assert len(deaths) == 1
            assert executor.stats["respawns"] == 1
            assert result.answer is _oracle(cluster, query)
            monkeypatch.undo()
            # The fresh worker is a full citizen: the next batch needs
            # no further healing and is exact too.
            again = engine.evaluate(compile_query(QUERIES[2]))
            assert executor.stats["respawns"] == 1
            assert again.answer is _oracle(cluster, QUERIES[2])

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_the_attempt_limit_fails_loudly_and_leaves_the_pool_usable(
        self, monkeypatch, when
    ):
        from repro.distsim.executors import _MAX_JOB_ATTEMPTS

        cluster = build_portfolio_cluster()
        with ProcessSiteExecutor(max_workers=2) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            # Worker 0 is kicked first, so its frame is still in flight
            # when worker 1's last death aborts the batch.
            deaths = _dying_flush(monkeypatch, executor, when, index=1)
            with pytest.raises(RuntimeError, match="died repeatedly"):
                engine.evaluate(compile_query(QUERIES[0]))
            assert deaths == [1] * _MAX_JOB_ATTEMPTS
            monkeypatch.undo()
            # No reply of the aborted batch may answer a later frame.
            for query in (QUERIES[2], QUERIES[1]):
                assert engine.evaluate(compile_query(query)).answer is _oracle(cluster, query)


# ---------------------------------------------------------------------------
# Leak check: retired fragments leave worker memory
# ---------------------------------------------------------------------------


class TestRetirementReclaimsWorkerMemory:
    def test_merge_and_move_evict_resident_copies(self):
        cluster = build_portfolio_cluster()
        with ProcessSiteExecutor(max_workers=2) as executor:
            maintainer = StreamMaintainer(cluster, executor=executor)
            maintainer.subscribe("q", "[//stock]")
            stock = cluster.fragment("F1").root.find_first(
                lambda n: not n.is_virtual and n.label == "stock"
            )
            split_round = maintainer.apply([SplitFragment("F1", stock.node_id)])
            new_id = split_round.dirty_fragments[-1]
            assert any(
                new_id in stats["resident"] for stats in executor.worker_stats()
            )
            maintainer.apply([MergeFragment("F1", new_id)])
            assert all(
                new_id not in stats["resident"] for stats in executor.worker_stats()
            )
            # A migration retires the copy from the origin worker too.
            origin_site = cluster.site_of("F2")
            target = next(
                s.site_id for s in cluster.sites() if s.site_id != origin_site
            )
            origin_worker = executor._site_affinity[origin_site]
            maintainer.apply([MoveFragment("F2", target)])
            for stats in executor.worker_stats():
                if stats["worker"] == origin_worker:
                    assert "F2" not in stats["resident"]
            assert executor.stats["retired"] >= 2


# ---------------------------------------------------------------------------
# ResidentSiteState (the shared worker/server protocol object)
# ---------------------------------------------------------------------------


class TestResidentSiteState:
    @pytest.fixture
    def cluster(self):
        return build_portfolio_cluster()

    def test_store_run_matches_per_fragment_path(self, cluster):
        state = ResidentSiteState()
        fragments = [cluster.fragment(fid) for fid in ("F2", "F3")]
        state.store([resident_fragment_wire(f) for f in fragments])
        qlist = compile_query("[//stock]")
        refs = [(f.fragment_id, f.epoch) for f in fragments]
        results, seconds = state.run("S2", refs, qlist, CanonicalAlgebra())
        assert seconds >= 0
        for fragment, (compact, nodes, ops, segment_ops) in zip(fragments, results):
            triplet, stats = bottom_up(fragment, qlist, CanonicalAlgebra())
            assert VectorTriplet.from_compact(compact) == triplet
            assert nodes == stats.nodes_visited
            assert ops == stats.nodes_visited * len(qlist)
            assert segment_ops == ()

    def test_epoch_mismatch_raises_typed_stale(self, cluster):
        state = ResidentSiteState()
        fragment = cluster.fragment("F2")
        state.store([resident_fragment_wire(fragment)])
        stale_epoch = fragment.epoch
        fragment.bump_epoch()
        with pytest.raises(StaleResidentError) as info:
            state.run(
                "S2",
                [("F2", fragment.epoch)],
                compile_query("[//stock]"),
                CanonicalAlgebra(),
            )
        assert info.value.missing == ("F2",)
        assert "S2" in str(info.value)
        # The stale copy still answers exact-old refs, and only those.
        state.run("S2", [("F2", stale_epoch)], compile_query("[//stock]"), CanonicalAlgebra())

    def test_receive_counts_witness_each_push(self, cluster):
        state = ResidentSiteState()
        fragment = cluster.fragment("F1")
        wire = resident_fragment_wire(fragment)
        state.store([wire])
        state.store([wire])  # a re-push after a forged desync
        assert state.receive_counts[("F1", fragment.epoch)] == 2
        fragment.bump_epoch()
        state.store([resident_fragment_wire(fragment)])
        assert state.receive_counts[("F1", fragment.epoch)] == 1

    def test_retire_and_epoch_view(self, cluster):
        state = ResidentSiteState()
        state.store([resident_fragment_wire(cluster.fragment("F1"))])
        assert state.resident_epochs() == {"F1": cluster.fragment("F1").epoch}
        assert state.retire(["F1", "F9"]) == 1
        assert state.resident_epochs() == {}
        with pytest.raises(StaleResidentError) as info:
            state.lookup(
                "S1",
                [("F1", cluster.fragment("F1").epoch)],
                compile_query("[//stock]"),
                CanonicalAlgebra(),
            )
        assert info.value.missing == ("F1",)

    def test_query_cache_is_fingerprint_keyed(self):
        state = ResidentSiteState()
        qlist = compile_query("[//stock]")
        fingerprint = qlist_fingerprint(qlist)
        with pytest.raises(KeyError):
            state.ensure_query(fingerprint)
        resident = state.ensure_query(fingerprint, qlist.to_obj())
        assert state.ensure_query(fingerprint) is resident
        # A distinct object with identical entries shares the residency.
        twin = compile_query("[//stock]")
        assert qlist_fingerprint(twin) == fingerprint


# ---------------------------------------------------------------------------
# Site-vectorized ground kernel
# ---------------------------------------------------------------------------


class TestSiteBottomUp:
    @pytest.mark.parametrize("algebra_cls", [CanonicalAlgebra, PaperAlgebra])
    def test_matches_scalar_bottom_up_bitwise(self, algebra_cls):
        cluster = chain_ft2(4, 0.4, seed=43, nodes_per_mb=24)
        fragments = [
            cluster.fragment(fid) for fid in sorted(cluster.fragmented_tree.fragments)
        ]
        # A chain: every fragment but the last is interior, its open
        # spine completed over formulas from the lane pass's masks.
        residents = [(f, linearize(f)) for f in fragments]
        assert sum(1 for _, linear in residents if linear.open) == len(fragments) - 1
        for query in QUERIES + ["[//seal]", '[//probe = "on" or not //item]']:
            qlist = compile_query(query)
            vectorized = site_bottom_up(residents, qlist, algebra_cls())
            for fragment, (triplet, nodes) in zip(fragments, vectorized):
                expected, stats = bottom_up(fragment, qlist, algebra_cls(), kernel="formula")
                assert triplet == expected, (query, fragment.fragment_id)
                assert nodes == stats.nodes_visited

    def test_ground_fragments_have_linearizations(self):
        # In a fragmented cluster the interior fragments hold virtual
        # nodes (`linearize_ground` declines them); pure leaves do not.
        cluster = build_portfolio_cluster()
        kinds = {
            fid: linearize_ground(cluster.fragment(fid)) is not None
            for fid in cluster.fragmented_tree.fragments
        }
        assert any(kinds.values()) and not all(kinds.values())


# ---------------------------------------------------------------------------
# Zero-copy transport
# ---------------------------------------------------------------------------


class TestTransport:
    def _roundtrip(self, payload, **kwargs):
        parent, child = multiprocessing.Pipe()
        try:
            sender = threading.Thread(
                target=send_payload, args=(parent, payload), kwargs=kwargs
            )
            sender.start()
            received = recv_payload(child)
            sender.join(timeout=10)
            assert not sender.is_alive()
            return received
        finally:
            parent.close()
            child.close()

    def test_plain_payload_roundtrips(self):
        payload = ("job", "S1", (("F1", 7),), {"answer": True})
        assert self._roundtrip(payload) == payload

    def test_out_of_band_blob_roundtrips_bitwise(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        triplet, _ = bottom_up(cluster.fragment("F2"), qlist, CanonicalAlgebra())
        wire = compact_with_buffers(triplet.to_blob(), threshold=1)
        received = self._roundtrip(("ok", (wire,)))
        assert VectorTriplet.from_compact(received[1][0]) == triplet

    def test_shared_memory_path_roundtrips_bitwise(self):
        cluster = build_portfolio_cluster()
        qlist = compile_query("[//stock]")
        triplet, _ = bottom_up(cluster.fragment("F2"), qlist, CanonicalAlgebra())
        wire = compact_with_buffers(triplet.to_blob(), threshold=1)
        received = self._roundtrip(("ok", (wire,)), shm_threshold=1)
        assert VectorTriplet.from_compact(received[1][0]) == triplet


# ---------------------------------------------------------------------------
# Batched pipe submission
# ---------------------------------------------------------------------------


class TestBatchedSubmission:
    """All jobs bound for one worker coalesce into a single framed write;
    semantics (answers AND the simulated ledger) must not move."""

    def test_batch_envelope_round_trips(self):
        from repro.distsim import transport

        # Single payloads skip the envelope entirely (wire compatible
        # with the pre-batching protocol).
        assert transport.wrap_batch((("job", 1),)) == ("job", 1)
        wrapped = transport.wrap_batch((("a",), ("b",)))
        assert wrapped == (transport.BATCH, (("a",), ("b",)))
        assert transport.unwrap_batch(wrapped) == (("a",), ("b",))
        assert transport.unwrap_batch(("job", 1)) == (("job", 1),)

    def test_submission_queue_coalesces_writes(self):
        from repro.distsim import transport

        sent = []
        queue = transport.SubmissionQueue(sent.append)
        assert queue.flush() == 0  # idempotent on empty
        queue.submit(("a",))
        queue.submit(("b",))
        assert len(queue) == 2
        assert queue.flush() == 2
        queue.submit(("c",))
        assert queue.flush() == 1
        assert sent == [(transport.BATCH, (("a",), ("b",))), ("c",)]
        assert queue.writes == 2 and queue.submitted == 3

    def test_one_framed_write_per_worker_with_work(self):
        cluster = star_ft1(8, 0.4, seed=13, nodes_per_mb=24)
        qlists = [compile_query(text) for text in QUERIES]
        expected = [_oracle(cluster, text) for text in QUERIES]

        def ledger(executor, after_each=lambda: None):
            engine = ParBoXEngine(cluster, executor=executor)
            rows = []
            for qlist, want in zip(qlists, expected):
                result = engine.evaluate(qlist)
                assert result.answer == want
                metrics = result.metrics
                rows.append(
                    (
                        result.answer,
                        dict(metrics.visits),
                        metrics.messages,
                        metrics.bytes_total,
                        dict(metrics.bytes_by_kind),
                        metrics.nodes_processed,
                        metrics.qlist_ops,
                    )
                )
                after_each()
            return rows

        with SerialSiteExecutor() as serial:
            serial_rows = ledger(serial)
        with ProcessSiteExecutor(max_workers=2) as executor:
            submits = []
            process_rows = ledger(
                executor, lambda: submits.append(executor.stats["submits"])
            )
            # ParBoX dispatches every site in one run_jobs call; the
            # sites spread over both workers, so each call -- the first,
            # which also carries the pushes, included -- costs exactly
            # one framed write per worker.
            assert set(executor._site_affinity.values()) == {0, 1}
            assert submits == [2 * (call + 1) for call in range(len(qlists))]
            # A call whose jobs all bind to one worker writes one frame.
            site = cluster.site_of("F1")
            fragments = tuple(cluster.site(site).iter_fragments())
            executor.run_jobs(
                [SiteJob(site, fragments, qlists[0], CanonicalAlgebra())] * 3
            )
            assert executor.stats["submits"] == submits[-1] + 1
        assert serial_rows == process_rows

    def test_worker_death_mid_run_heals_under_batching(self):
        cluster = star_ft1(6, 0.3, seed=19, nodes_per_mb=24)
        qlist = compile_query(QUERIES[0])
        with ProcessSiteExecutor(max_workers=1) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            first = engine.evaluate(qlist).answer
            worker = next(w for w in executor._workers if w is not None)
            worker.process.terminate()
            worker.process.join(timeout=10)
            second = engine.evaluate(qlist).answer
            assert executor.stats["respawns"] >= 1
        assert first == second == _oracle(cluster, QUERIES[0])
