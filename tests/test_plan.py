"""The batch planner: compilation cache, dedup, slicing, attribution."""

import random
import sys
import threading
import time

import pytest

from netfixtures import hard_deadline
from repro.core import plan as plan_module
from repro.core.plan import (
    PLAN_CAP,
    QUERY_CACHE_SIZE,
    BatchPlan,
    QueryCache,
    attribute_costs,
    coerce_plan,
    plan_batch,
)
from repro.core.session import QuerySession
from repro.distsim.metrics import Metrics
from repro.serving import RemoteQueryError, ServingCluster
from repro.serving.coordinator import Coordinator, SiteEndpoint
from repro.xpath import compile_query
from repro.xpath.qlist import QList, build_qlist
from repro.workloads.queries import query_of_size
from repro.workloads.topologies import star_ft1
from test_serving_differential import deterministic_ledger


class TestQueryCache:
    def test_compile_produces_pipeline_stages(self):
        cache = QueryCache()
        compiled = cache.compile('[//stock[code = "GOOG"]]')
        assert compiled.text == '[//stock[code = "GOOG"]]'
        assert compiled.qlist.source == compiled.text
        assert len(compiled.qlist) > 0
        assert compiled.ast is not None and compiled.normalized is not None

    def test_repeat_text_hits_cache(self):
        cache = QueryCache()
        first = cache.compile("[//stock]")
        second = cache.compile("[//stock]")
        assert first is second  # not recompiled, the same object
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats()["hit_rate"] == 0.5
        assert "[//stock]" in cache and len(cache) == 1

    def test_qlist_coercion_passes_through_compiled(self):
        cache = QueryCache()
        qlist = compile_query("[//stock]")
        assert cache.qlist(qlist) is qlist
        assert cache.hits == 0 and cache.misses == 0  # no text involved

    def test_distinct_texts_do_not_collide(self):
        cache = QueryCache()
        a = cache.compile("[//stock]")
        b = cache.compile("[//broker]")
        assert a.qlist.entries != b.qlist.entries
        assert cache.misses == 2

    def test_bounded_lru(self):
        cap = QUERY_CACHE_SIZE
        assert cap >= 1024  # a standing book's texts never evict each other
        cache = QueryCache()
        texts = [f"[//t{index}]" for index in range(cap + 1)]
        first = cache.compile(texts[0])
        for text in texts[1:cap]:
            cache.compile(text)
        assert cache.compile(texts[0]) is first  # a hit, and now the most recent
        cache.compile(texts[cap])  # one over: evicts the least recent, texts[1]
        assert len(cache) == cap
        assert texts[1] not in cache and texts[0] in cache
        assert (cache.hits, cache.misses) == (1, cap + 1)
        # An evicted text simply compiles again, to an equal QList.
        again = cache.compile(texts[1])
        assert again.qlist.entries == compile_query(texts[1]).entries
        assert (cache.hits, cache.misses) == (1, cap + 2)
        assert len(cache) == cap

    def test_concurrent_compiles_keep_bound_and_counts(self, monkeypatch):
        # A coordinator's worker threads share one cache.
        cap, workers, rounds = 8, 8, 300
        monkeypatch.setattr("repro.core.plan.QUERY_CACHE_SIZE", cap)
        cache = QueryCache()
        texts = [f"[//t{index}]" for index in range(4 * cap)]
        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(rounds):
                text = rng.choice(texts)
                if cache.compile(text).text != text:
                    wrong.append(text)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(cache) == cap
        assert cache.hits + cache.misses == workers * rounds  # no lost update

    def test_racing_misses_on_one_text_share_one_qlist(self, monkeypatch):
        # Threads that miss on the same text together must still get one
        # object back: plans are keyed by QList identity.
        workers = 8
        barrier = threading.Barrier(workers)
        real_build = plan_module.build_qlist

        def slow_build(*args, **kwargs):
            time.sleep(0.05)  # every thread is past its miss by now
            return real_build(*args, **kwargs)

        monkeypatch.setattr(plan_module, "build_qlist", slow_build)
        cache = QueryCache()
        got = []

        def worker():
            barrier.wait()
            got.append(cache.qlist("[//stock]"))

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(got) == workers
        assert len({id(qlist) for qlist in got}) == 1
        assert got[0] is cache.qlist("[//stock]")
        # Every racer missed; the counters stay exact.
        assert (cache.hits, cache.misses) == (1, workers)

    def test_precompiled_wire_form_interns_by_entries(self):
        cache = QueryCache()
        compiled = compile_query("[//stock or //broker]")
        as_lists = ("qlist", tuple(tuple(entry) for entry in compiled.to_obj()))
        as_tuples = ("qlist", compiled.wire_obj())
        first = cache.qlist(as_lists)
        assert first.entries == compiled.entries
        assert cache.qlist(as_tuples) is first  # same entries, same object
        assert cache.hits == 0 and cache.misses == 0  # no text involved
        with pytest.raises(ValueError):
            cache.qlist(("other", compiled.wire_obj()))
        with pytest.raises(ValueError):
            cache.qlist(("qlist", (("no-such-op", None, ()),)))

    def test_racing_wire_forms_intern_one_qlist(self, monkeypatch):
        workers = 8
        barrier = threading.Barrier(workers)
        real_from_obj = QList.from_obj.__func__

        def slow_from_obj(cls, *args, **kwargs):
            time.sleep(0.05)  # every thread is past its lookup by now
            return real_from_obj(cls, *args, **kwargs)

        monkeypatch.setattr(QList, "from_obj", classmethod(slow_from_obj))
        cache = QueryCache()
        wire = ("qlist", compile_query("[//stock or //broker]").wire_obj())
        got = []

        def worker():
            barrier.wait()
            got.append(cache.qlist(wire))

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(got) == workers
        assert len({id(qlist) for qlist in got}) == 1
        assert cache.qlist(wire) is got[0]


class TestPlanBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            plan_batch([])

    def test_single_query_reuses_qlist(self):
        qlist = compile_query("[//stock]")
        plan = plan_batch([qlist])
        assert plan.combined is qlist  # the batch-of-one fast path
        assert plan.answer_indices == (qlist.answer_index,)
        assert plan.segments == ((0, len(qlist)),)
        assert plan.unique_count == 1 and len(plan) == 1

    def test_offsets_and_topology(self):
        first = compile_query("[//a]")
        second = compile_query("[//b and c]")
        plan = plan_batch([first, second])
        assert len(plan.combined) == len(first) + len(second)
        assert plan.segments == ((0, len(first)), (len(first), len(second)))
        assert plan.answer_indices == (
            first.answer_index,
            len(first) + second.answer_index,
        )
        for index, entry in enumerate(plan.combined):
            assert all(arg < index for arg in entry.args)

    def test_combined_evaluation_matches_individuals(self):
        from repro.core import bottom_up, evaluate_tree
        from repro.fragments import Fragment
        from repro.workloads.portfolio import build_portfolio_tree

        tree = build_portfolio_tree()
        queries = [compile_query(q) for q in ("[//stock]", '[//code = "YHOO"]', "[//zzz]")]
        plan = plan_batch(queries)
        # Evaluate the combination once; read each query's answer entry.
        triplet, _ = bottom_up(Fragment("W", tree.root), plan.combined)
        for qlist, answer_index in zip(queries, plan.answer_indices):
            expected, _ = evaluate_tree(tree, qlist)
            assert triplet.v[answer_index].evaluate({}) == expected

    def test_combined_is_topologically_valid(self):
        plan = plan_batch([query_of_size(8), query_of_size(23), query_of_size(2)])
        for index, entry in enumerate(plan.combined):
            assert all(arg < index for arg in entry.args)

    def test_answer_indices_point_at_each_query_answer(self):
        qlists = [query_of_size(2), query_of_size(8)]
        plan = plan_batch(qlists)
        for qlist, answer_index, (offset, length) in zip(
            qlists, plan.answer_indices, plan.segments
        ):
            assert answer_index == offset + qlist.answer_index
            assert offset + length <= len(plan.combined)

    def test_duplicates_collapse_to_one_segment(self):
        stock = compile_query("[//stock]")
        stock_again = compile_query("[//stock]")  # distinct object, same entries
        other = compile_query("[//broker]")
        plan = plan_batch([stock, other, stock_again])
        assert len(plan) == 3
        assert plan.unique_count == 2
        assert plan.duplicate_count() == 1
        assert plan.segment_of == (0, 1, 0)
        # Both copies answer at the same combined entry.
        assert plan.answer_indices[0] == plan.answer_indices[2]
        assert plan.entries_saved() == len(stock)
        assert len(plan.combined) == len(stock) + len(other)
        assert plan.queries_in_segment(0) == [0, 2]

    def test_dedup_needs_identical_entries_not_text(self):
        # Logically equal but differently-compiled queries stay separate.
        a = compile_query("[//stock]")
        b = compile_query("[.//stock]")
        plan = plan_batch([a, b])
        assert plan.unique_count == (1 if a.entries == b.entries else 2)

    def test_coerce_plan_accepts_texts_and_plan_objects(self):
        plan = coerce_plan(["[//stock]", compile_query("[//broker]")])
        assert len(plan) == 2
        assert coerce_plan(plan) is plan


class TestAttribution:
    def _metrics(self):
        metrics = Metrics()
        metrics.visits.update({"S0": 1, "S1": 1})
        metrics.messages = 4
        metrics.bytes_total = 1000
        metrics.elapsed_seconds = 2.0
        return metrics

    def test_exact_ops_and_amortized_shares(self):
        plan = plan_batch([query_of_size(2), query_of_size(8)])
        metrics = self._metrics()
        metrics.segment_ops[0] = 20
        metrics.segment_ops[1] = 80
        costs = attribute_costs(plan, [True, False], metrics)
        assert [c.answer for c in costs] == [True, False]
        assert costs[0].qlist_ops == 20 and costs[1].qlist_ops == 80
        # bytes weighted by query size (2 vs 8 entries).
        assert costs[0].bytes_sent == pytest.approx(1000 * 2 / 10)
        assert costs[1].bytes_sent == pytest.approx(1000 * 8 / 10)
        # batch-level costs amortized evenly.
        for cost in costs:
            assert cost.visits == pytest.approx(1.0)
            assert cost.messages == pytest.approx(2.0)
            assert cost.elapsed_seconds == pytest.approx(1.0)

    def test_duplicates_split_their_shared_segment(self):
        stock = compile_query("[//stock]")
        plan = plan_batch([stock, compile_query("[//stock]")])
        metrics = self._metrics()
        metrics.segment_ops[0] = 100
        costs = attribute_costs(plan, [True, True], metrics)
        assert costs[0].shared_with == 1 and costs[1].shared_with == 1
        assert costs[0].qlist_ops == pytest.approx(50.0)
        assert costs[1].qlist_ops == pytest.approx(50.0)

    def test_batch_of_one_gets_the_whole_ledger(self):
        qlist = query_of_size(8)
        plan = plan_batch([qlist])
        metrics = self._metrics()
        metrics.segment_ops[0] = 64
        (cost,) = attribute_costs(plan, [True], metrics)
        assert cost.visits == 2.0
        assert cost.messages == 4.0
        assert cost.bytes_sent == pytest.approx(1000.0)
        assert cost.qlist_ops == 64


class TestPlanIsEvaluatable:
    """The combined QList is a plain QList: every consumer just works."""

    def test_wire_roundtrip(self):
        from repro.xpath.qlist import QList

        plan = plan_batch([query_of_size(8), query_of_size(15)])
        rebuilt = QList.from_obj(plan.combined.to_obj())
        assert rebuilt.entries == plan.combined.entries

    def test_segments_cover_combined_exactly(self):
        texts = ["[//stock]", "[//broker]", "[//stock]", "[//market or //zzz]"]
        plan = coerce_plan(texts)
        covered = sorted(
            index
            for offset, length in plan.segments
            for index in range(offset, offset + length)
        )
        assert covered == list(range(len(plan.combined)))


class TestPlanCache:
    """The one batch -> plan LRU, on the cache every caller shares."""

    @staticmethod
    def _cluster():
        return star_ft1(3, 0.05, seed=7, nodes_per_mb=24)

    @staticmethod
    def _coordinator(cluster):
        # Never dispatches: planning needs no live site.
        endpoints = {
            site: (SiteEndpoint("127.0.0.1", 1),) for site in cluster.source_tree().sites()
        }
        return Coordinator(cluster, endpoints)

    @staticmethod
    def _plan_counts(coordinator):
        values = coordinator.registry.snapshot()["coordinator_plan_cache_total"]["values"]
        return (
            values.get("coordinator=c0,result=hit", 0.0),
            values.get("coordinator=c0,result=miss", 0.0),
        )

    def test_bounded_lru(self, monkeypatch):
        assert PLAN_CAP >= 2
        monkeypatch.setattr("repro.core.plan.PLAN_CAP", 2)
        cache = QueryCache()
        plans = {text: cache.lookup_plan([text]) for text in ("[//a]", "[//b]", "[//c]")}
        assert all(hit is False for _, hit in plans.values())
        assert cache.stats()["plans"] == 2
        # "[//a]" was evicted; "[//b]" survives and is refreshed.
        assert cache.lookup_plan(["[//b]"]) == (plans["[//b]"][0], True)
        again, hit = cache.lookup_plan(["[//a]"])
        assert not hit and again is not plans["[//a]"][0]
        assert again.combined.entries == plans["[//a]"][0].combined.entries
        assert cache.stats()["plans"] == 2
        # "[//c]" was the least recent: it went, "[//b]" stayed.
        assert cache.lookup_plan(["[//b]"])[1] is True
        assert cache.lookup_plan(["[//c]"])[1] is False

    def test_a_text_and_its_qlist_key_one_plan(self):
        cache = QueryCache()
        plan, hit = cache.lookup_plan(["[//a]", "[not //b]"])
        assert not hit
        assert cache.lookup_plan([cache.qlist("[//a]"), "[not //b]"]) == (plan, True)
        # Order is part of the batch: answers come back in request order.
        swapped, hit = cache.lookup_plan(["[not //b]", "[//a]"])
        assert not hit and swapped is not plan
        assert list(swapped.queries) == list(reversed(plan.queries))
        assert cache.stats()["plans"] == 2

    def test_racing_lookups_share_one_plan(self, monkeypatch):
        workers = 8
        barrier = threading.Barrier(workers)
        real_plan_batch = plan_module.plan_batch

        def slow_plan_batch(*args, **kwargs):
            time.sleep(0.05)  # every thread is past its lookup by now
            return real_plan_batch(*args, **kwargs)

        monkeypatch.setattr(plan_module, "plan_batch", slow_plan_batch)
        cache = QueryCache()
        cache.qlist("[//a]")  # compiled up front: the race is on the plan
        got = []

        def worker():
            barrier.wait()
            got.append(cache.lookup_plan(["[//a]", "[not //b]"]))

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(got) == workers
        assert len({id(plan) for plan, _ in got}) == 1
        assert cache.stats()["plans"] == 1
        assert cache.lookup_plan(["[//a]", "[not //b]"]) == (got[0][0], True)

    def test_session_coordinator_and_maintainer_share_one_plan(self):
        cluster = self._cluster()
        texts = ["[//a]", "[not //b]", "[//a]"]
        cache = QueryCache()
        coordinator = self._coordinator(cluster)
        coordinator.cache = cache
        with QuerySession(cluster, engine="parbox", cache=cache) as session:
            maintainer = session.watch(texts)
            try:
                plan = session.plan(texts)
                assert coordinator._plan_for(tuple(texts)) is plan
                # The maintainer compiled its subscriptions through the
                # same cache: its QLists key the very same plan.
                standing = [maintainer._queries[name] for name in maintainer.names()]
                assert list(plan.queries) == standing
                assert cache.lookup_plan(standing) == (plan, True)
            finally:
                maintainer.close()
        assert self._plan_counts(coordinator) == (1.0, 0.0)

    def test_precompiled_resend_hits(self):
        coordinator = self._coordinator(self._cluster())
        # The wire form a net: session ships: argument lists included.
        batch = tuple(
            ("qlist", tuple(tuple(entry) for entry in compile_query(text).to_obj()))
            for text in ("[//a]", "[not //b]")
        )
        first = coordinator._plan_for(batch)
        assert coordinator._plan_for(batch) is first
        assert self._plan_counts(coordinator) == (1.0, 1.0)

    def test_client_input_is_checked_before_planning(self):
        coordinator = self._coordinator(self._cluster())
        bad_batches = [
            ("[//a]", "[//a[["),
            ("[//a]", ("qlist", (("no-such-op", None, ()),))),
            (("qlist", 5),),
            (("qlist", ((["unhashable"], None, ()),)),),
        ]
        for batch in bad_batches:
            with pytest.raises(RemoteQueryError):
                coordinator._plan_for(batch)
        # Rejections count neither a hit nor a miss.
        assert self._plan_counts(coordinator) == (0.0, 0.0)

    def test_served_hit_and_miss_counts_are_exact(self):
        cluster = self._cluster()
        batch = ("[//a]", "[not //b]")
        with hard_deadline(120):
            with ServingCluster(cluster) as serving:
                with serving.client() as client:
                    for _ in range(5):
                        client.query(batch, "parbox")
                    with pytest.raises(RemoteQueryError):
                        client.query(("[//a[[",), "parbox")
                    with serving.session(engine="parbox") as session:
                        first = session.evaluate_batch(list(batch))
                        second = session.evaluate_batch(list(batch))
                    stats = client.server_stats()
        # One miss per new batch (texts, then their precompiled form);
        # every resend hits; the bad request counts nothing.
        assert stats["coordinator_plan_cache_total{coordinator=c0,result=miss}"] == 2.0
        assert stats["coordinator_plan_cache_total{coordinator=c0,result=hit}"] == 5.0
        # A served hit evaluates exactly like the miss that planned it.
        assert first.answers == second.answers
        assert deterministic_ledger(first.metrics) == deterministic_ledger(second.metrics)
