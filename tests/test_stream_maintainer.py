"""Tests for the continuous-query maintenance runtime (stream/)."""

import ast
import pathlib

import pytest

import repro
from repro.core import ENGINE_REGISTRY, ParBoXEngine, QuerySession
from repro.core.engine import CONTROL_BYTES
from repro.distsim.executors import ThreadSiteExecutor
from repro.stream import (
    Changefeed,
    ChangeEvent,
    DelNode,
    DirtyIndex,
    InsNode,
    MergeFragment,
    Relabel,
    SplitFragment,
    StreamMaintainer,
    UpdateError,
)
from repro.workloads.portfolio import build_portfolio_cluster
from repro.workloads.queries import query_of_size, seal_query
from repro.workloads.topologies import chain_ft2, star_ft1
from repro.workloads.updates import update_stream
from repro.xpath import compile_query


@pytest.fixture
def cluster():
    return build_portfolio_cluster()


@pytest.fixture
def maintainer(cluster):
    maintainer = StreamMaintainer(cluster)
    maintainer.subscribe("has-stock", "[//stock]")
    maintainer.subscribe("goog-376", '[//stock[code = "GOOG" and sell = "376"]]')
    maintainer.subscribe("no-tsla", '[not(//code = "TSLA")]')
    return maintainer


def _sell_node(cluster):
    return next(
        n for n in cluster.fragment("F2").root.iter_subtree() if n.label == "sell"
    )


def _watch_one(cluster, query):
    """A one-subscription book: the paper's single materialized view."""
    maintainer = StreamMaintainer(cluster)
    maintainer.subscribe("view", query)
    return maintainer


def _scratch(cluster, query):
    """The expensive alternative: a fresh ParBoX evaluation."""
    return ParBoXEngine(cluster).evaluate(compile_query(query)).answer


class TestDirtyIndex:
    def test_duplicate_joins_segment_without_growth(self):
        index = DirtyIndex()
        q = compile_query("[//a]")
        _, first_new = index.subscribe("x", q)
        combined_before = index.combined()
        _, second_new = index.subscribe("y", compile_query("[//a]"))
        assert first_new and not second_new
        assert index.combined() is combined_before  # not even re-derived
        assert index.duplicate_count() == 1

    def test_new_segment_appends_after_existing(self):
        index = DirtyIndex()
        a = compile_query("[//a]")
        b = compile_query("[//b and c]")
        index.subscribe("x", a)
        index.subscribe("y", b)
        assert index.spans() == ((0, len(a)), (len(a), len(b)))

    def test_unsubscribe_reoffsets_successors(self):
        index = DirtyIndex()
        a, b, c = (compile_query(q) for q in ("[//a]", "[//b]", "[//c]"))
        for name, q in (("x", a), ("y", b), ("z", c)):
            index.subscribe(name, q)
        index.unsubscribe("y")
        assert index.spans() == ((0, len(a)), (len(a), len(c)))
        assert [s.qlist for s in index.segments()] == [a, c]

    def test_plan_matches_fresh_plan_semantics(self, cluster):
        index = DirtyIndex()
        queries = {"x": "[//stock]", "y": "[//sell]", "z": "[//stock]"}
        for name, text in queries.items():
            index.subscribe(name, compile_query(text))
        plan = index.plan(["x", "y", "z"])
        assert plan.answer_indices[0] == plan.answer_indices[2]
        answers = ParBoXEngine(cluster).evaluate_many(plan).answers
        assert answers == (True, True, True)

    def test_slices_round_trip_standalone_evaluation(self, cluster):
        from repro.core import bottom_up

        index = DirtyIndex()
        queries = [compile_query(q) for q in ("[//stock]", '[not(//code = "TSLA")]')]
        for i, q in enumerate(queries):
            index.subscribe(f"q{i}", q)
        fragment = cluster.fragment("F1")
        combined_triplet, _ = bottom_up(fragment, index.combined())
        for segment, sliced in index.slices_of(combined_triplet):
            standalone, _ = bottom_up(fragment, segment.qlist)
            assert sliced == standalone


class TestSubscribeUnsubscribe:
    def test_initial_answers(self, maintainer):
        assert maintainer.answers() == {
            "has-stock": True,
            "goog-376": False,
            "no-tsla": True,
        }

    def test_duplicate_subscription_costs_nothing(self, cluster, maintainer):
        # A twin of a standing query must not touch any site.
        visits_probe = []

        class CountingExecutor(ThreadSiteExecutor):
            def run_jobs(self, jobs):
                visits_probe.extend(jobs)
                return super().run_jobs(jobs)

        m = StreamMaintainer(cluster, executor=CountingExecutor())
        m.subscribe("a", "[//stock]")
        jobs_after_first = len(visits_probe)
        assert m.subscribe("b", "[//stock]") is True  # answer served from cache
        assert len(visits_probe) == jobs_after_first  # no new site work
        assert m.duplicate_subscriptions() == 1

    def test_new_segment_evaluates_only_itself(self, cluster):
        jobs_log = []

        class CountingExecutor(ThreadSiteExecutor):
            def run_jobs(self, jobs):
                jobs_log.extend(jobs)
                return super().run_jobs(jobs)

        m = StreamMaintainer(cluster, executor=CountingExecutor())
        m.subscribe("a", "[//stock]")
        first_len = len(compile_query("[//stock]"))
        second_len = len(compile_query("[//sell]"))
        jobs_log.clear()
        m.subscribe("b", "[//sell]")
        # The subscribe jobs carry the new segment's QList only, not
        # the combined standing query.
        assert jobs_log and all(len(job.qlist) == second_len for job in jobs_log)
        assert m.combined_size() == first_len + second_len

    def test_unsubscribe_duplicate_keeps_answers(self, maintainer):
        maintainer.subscribe("has-stock-2", "[//stock]")
        maintainer.unsubscribe("has-stock-2")
        assert maintainer.answers() == {
            "has-stock": True,
            "goog-376": False,
            "no-tsla": True,
        }

    def test_unsubscribe_unique_segment_drops_cache_only(self, maintainer):
        maintainer.unsubscribe("goog-376")
        assert maintainer.names() == ["has-stock", "no-tsla"]
        assert maintainer.answers() == {"has-stock": True, "no-tsla": True}

    def test_parse_error_leaves_state_untouched(self, maintainer):
        from repro.xpath import QueryParseError

        with pytest.raises(QueryParseError):
            maintainer.subscribe("bad", "[[nope")
        assert maintainer.names() == ["has-stock", "goog-376", "no-tsla"]
        assert maintainer.subscribe("bad", "[//zzz]") is False

    def test_duplicate_name_rejected(self, maintainer):
        with pytest.raises(ValueError):
            maintainer.subscribe("has-stock", "[//a]")

    def test_unsubscribe_all_leaves_an_empty_book(self, cluster):
        maintainer = _watch_one(cluster, "[//a]")
        maintainer.unsubscribe("view")
        assert len(maintainer) == 0
        assert maintainer.plan() is None and maintainer.combined_size() == 0
        # Nothing stands, so a refresh has no site to visit -- but the
        # epoch still moves: other holders of F0 must not go stale.
        epoch = cluster.fragment("F0").epoch
        round_ = maintainer.refresh(["F0"])
        assert round_.sites_visited == () and round_.traffic_bytes == 0
        assert cluster.fragment("F0").epoch != epoch

    def test_repeated_text_hits_compile_cache(self, cluster):
        maintainer = _watch_one(cluster, "[//stock]")
        maintainer.subscribe("twin", "[//stock]")
        assert maintainer.cache.hits == 1 and maintainer.cache.misses == 1

    def test_plan_exposes_segments(self, maintainer):
        plan = maintainer.plan()
        assert len(plan) == 3 and plan.unique_count == 3
        assert len(plan.combined) == maintainer.combined_size()


class TestRefresh:
    def test_update_flips_exactly_the_affected(self, cluster, maintainer):
        sell = _sell_node(cluster)
        round_ = maintainer.apply([Relabel("F2", sell.node_id, text="376")])
        assert round_.changed == ("goog-376",)
        assert round_.dirty_fragments == ("F2",)
        assert round_.sites_visited == ("S2",)
        assert round_.metrics.dirty_site_visits == 1
        assert maintainer.answer("goog-376") is True

    def test_only_changed_slices_ship(self, cluster, maintainer):
        sell = _sell_node(cluster)
        round_ = maintainer.apply([Relabel("F2", sell.node_id, text="376")])
        # Only goog-376's segment changed in F2: one slice on the wire.
        assert round_.slices_shipped == 1
        assert round_.segments_resolved == 1

    def test_unchanged_refresh_ships_control_ack_only(self, cluster, maintainer):
        round_ = maintainer.refresh(["F2"])
        assert not round_.triplet_changed
        assert round_.changed == ()
        assert round_.traffic_bytes == CONTROL_BYTES

    def test_changefeed_accumulates_and_drains(self, cluster, maintainer):
        sell = _sell_node(cluster)
        maintainer.apply([Relabel("F2", sell.node_id, text="376")])
        maintainer.apply([Relabel("F2", sell.node_id, text="377")])
        events = maintainer.changefeed.drain()
        assert [e.name for e in events] == ["goog-376", "goog-376"]
        assert (events[0].old_answer, events[0].new_answer) == (False, True)
        assert (events[1].old_answer, events[1].new_answer) == (True, False)
        assert maintainer.changefeed.drain() == []  # cursor advanced
        assert len(maintainer.changefeed) == 2  # history retained

    def test_multi_fragment_batch_visits_each_dirty_site_once(self, cluster, maintainer):
        f1 = cluster.fragment("F1").root
        f2 = cluster.fragment("F2").root
        f3 = cluster.fragment("F3").root
        round_ = maintainer.apply(
            [
                InsNode("F1", f1.node_id, "note"),
                InsNode("F2", f2.node_id, "note"),
                InsNode("F3", f3.node_id, "note"),
            ]
        )
        # F2 and F3 share S2: one visit, one combined job for both.
        assert sorted(round_.sites_visited) == ["S1", "S2"]
        assert round_.metrics.total_visits() == 2
        assert round_.metrics.dirty_site_visits == 2

    def test_split_and_merge_preserve_answers(self, cluster, maintainer):
        before = maintainer.answers()
        stock = cluster.fragment("F1").root.find_first(
            lambda n: not n.is_virtual and n.label == "stock"
        )
        split_round = maintainer.apply([SplitFragment("F1", stock.node_id)])
        assert split_round.structural
        assert split_round.changed == ()
        assert maintainer.answers() == before
        new_id = split_round.dirty_fragments[-1]
        merge_round = maintainer.apply([MergeFragment("F1", new_id)])
        assert merge_round.changed == ()
        assert maintainer.answers() == before

    def test_empty_batch_is_a_cheap_noop(self, maintainer):
        round_ = maintainer.apply([])
        assert round_.dirty_fragments == ()
        assert round_.traffic_bytes == 0
        assert round_.metrics.total_visits() == 0

    def test_refresh_rounds_counted(self, cluster, maintainer):
        round_ = maintainer.refresh(["F1"])
        assert round_.metrics.refresh_rounds == 1
        assert "refresh_rounds" in round_.metrics.summary()

    def test_refresh_unknown_fragment_raises(self, maintainer):
        # A typo'd id must not silently no-op into stale answers.
        with pytest.raises(KeyError):
            maintainer.refresh(["F99"])

    def test_partial_batch_failure_still_refreshes_applied_ops(
        self, cluster, maintainer
    ):
        sell = _sell_node(cluster)
        good = Relabel("F2", sell.node_id, text="376")
        bad = DelNode("F2", 10**9)
        with pytest.raises(UpdateError):
            maintainer.apply([good, bad])
        # The relabel applied before the failure; the answers must
        # already reflect it (no silent divergence from the document).
        assert maintainer.answer("goog-376") is True
        scratch = ParBoXEngine(cluster).evaluate_many(maintainer.plan()).answers
        assert tuple(maintainer.answers().values()) == scratch


class TestSectionFive:
    """The paper's Section 5 cases, one standing query at a time."""

    def test_insert_flips_answer(self, cluster):
        view = _watch_one(cluster, '[//code = "TSLA"]')
        assert view.answer("view") is False
        market = cluster.fragment("F3").root
        view.apply([InsNode("F3", market.node_id, "stock")])
        assert view.answer("view") is False
        stock = market.children[-1]
        round_ = view.apply([InsNode("F3", stock.node_id, "code", text="TSLA")])
        assert round_.changed == ("view",) and round_.triplet_changed
        assert view.answer("view") is True

    def test_delete_flips_answer(self, cluster):
        view = _watch_one(cluster, '[//code = "IBM"]')
        assert view.answer("view") is True
        ibm_stock = next(
            n
            for n in cluster.fragment("F0").root.iter_subtree()
            if n.label == "code" and n.text == "IBM"
        ).parent
        round_ = view.apply([DelNode("F0", ibm_stock.node_id)])
        assert round_.changed == ("view",)
        assert view.answer("view") is False

    def test_irrelevant_update_short_circuits(self, cluster):
        view = _watch_one(cluster, '[//code = "GOOG"]')
        root = cluster.fragment("F0").root
        round_ = view.apply([InsNode("F0", root.node_id, "note", text="hi")])
        assert not round_.triplet_changed and round_.changed == ()
        assert round_.segments_resolved == 0  # evalST never re-ran

    def test_insert_then_delete_round_trip(self, cluster, maintainer):
        before = maintainer.answers()
        root = cluster.fragment("F1").root
        maintainer.apply([InsNode("F1", root.node_id, "stock")])
        round_ = maintainer.apply([DelNode("F1", root.children[-1].node_id)])
        assert maintainer.answers() == before
        assert round_.changed == ()

    def test_answer_always_matches_scratch(self, cluster):
        query = '[//stock[code = "GOOG" and sell = "373"]]'
        view = _watch_one(cluster, query)
        assert view.answer("view") is _scratch(cluster, query) is True
        f3 = cluster.fragment("F3")
        goog_sell = next(
            n for n in f3.root.iter_subtree() if n.label == "sell" and n.text == "373"
        )
        stock = goog_sell.parent
        view.apply([DelNode("F3", goog_sell.node_id)])
        assert view.answer("view") is _scratch(cluster, query) is False
        view.apply([InsNode("F3", stock.node_id, "sell", text="373")])
        assert view.answer("view") is _scratch(cluster, query) is True

    def test_duplicates_flip_together(self, cluster):
        maintainer = _watch_one(cluster, '[//code = "TSLA"]')
        maintainer.subscribe("twin", '[//code = "TSLA"]')
        stock = cluster.fragment("F2").root
        round_ = maintainer.apply([InsNode("F2", stock.node_id, "code", text="TSLA")])
        assert set(round_.changed) == {"view", "twin"}
        assert round_.segments_resolved == 1  # one shared segment, one solve
        assert maintainer.answers() == {"view": True, "twin": True}

    def test_dirty_fragment_is_traversed_once_however_many_stand(self, cluster):
        queries = ["[//stock]", "[//sell]", "[//buy]"]
        separate = 0
        for query in queries:
            round_ = _watch_one(cluster, query).refresh(["F3"])
            separate += round_.nodes_recomputed
        shared = StreamMaintainer(cluster)
        for index, query in enumerate(queries):
            shared.subscribe(f"s{index}", query)
        round_ = shared.refresh(["F3"])
        # One pass over F3 only, whatever the subscription count.
        assert round_.nodes_recomputed == cluster.fragment("F3").size()
        assert round_.nodes_recomputed * len(queries) == separate
        assert round_.sites_visited == ("S2",) and round_.is_localized()

    def test_traffic_independent_of_data_size(self):
        """Maintenance traffic must not grow with |T| (paper claim (b))."""
        rounds = []
        for scale in (1.0, 8.0):
            cluster = star_ft1(4, scale, seed=50)
            view = _watch_one(cluster, query_of_size(8))
            root = cluster.fragment("F2").root
            rounds.append(view.apply([InsNode("F2", root.node_id, "note", text="x")]))
        small, large = rounds
        assert large.nodes_recomputed > small.nodes_recomputed
        assert large.traffic_bytes <= small.traffic_bytes * 1.5

    def test_traffic_independent_of_update_size(self):
        cluster = star_ft1(4, 2.0, seed=51)
        view = _watch_one(cluster, query_of_size(8))
        insert = InsNode("F2", cluster.fragment("F2").root.node_id, "note", text="x")
        single = view.apply([insert])
        bulk = view.apply([insert] * 200)
        assert len(bulk.ops) == 200
        assert bulk.traffic_bytes <= single.traffic_bytes * 1.5

    def test_recomputation_localized_to_fragment(self):
        cluster = star_ft1(4, 2.0, seed=52)
        view = _watch_one(cluster, query_of_size(8))
        round_ = view.refresh(["F3"])
        assert round_.nodes_recomputed == cluster.fragment("F3").size()
        assert round_.nodes_recomputed < cluster.total_size() / 2

    def test_example_51_sequence(self, cluster):
        """Example 5.1: insert a stock subtree, then split at the market."""
        query = '[//stock[code = "HPQ2"]]'
        view = _watch_one(cluster, query)
        assert view.answer("view") is False
        market = cluster.fragment("F0").root.children[0].find_by_label("market")[0]
        view.apply([InsNode("F0", market.node_id, "stock")])
        stock = market.children[-1]
        view.apply([InsNode("F0", stock.node_id, "code", text="HPQ2")])
        assert view.answer("view") is True
        round_ = view.apply(
            [SplitFragment("F0", market.node_id, "F4", target_site="S3")]
        )
        assert round_.structural and round_.changed == ()
        assert round_.dirty_fragments == ("F0", "F4")
        assert cluster.site_of("F4") == "S3"
        # The carved-out market physically left S0 for the fresh site.
        assert [(m.fragment_id, m.origin, m.target) for m in round_.migrations] == [
            ("F4", "S0", "S3")
        ]
        assert view.answer("view") is _scratch(cluster, query) is True

    def test_split_then_update_then_merge(self):
        cluster = chain_ft2(3, 1.0, seed=53)
        view = StreamMaintainer(cluster)
        assert view.subscribe("view", seal_query("F2")) is True
        # Split a subtree out of F1, update inside it, merge back.
        candidate = next(
            n
            for n in cluster.fragment("F1").root.children
            if not n.is_virtual and n.children
        )
        view.apply([SplitFragment("F1", candidate.node_id, "FX")])
        fx_root = cluster.fragment("FX").root
        view.apply([InsNode("FX", fx_root.node_id, "note", text="x")])
        round_ = view.apply([MergeFragment("F1", "FX")])
        assert "FX" not in cluster.fragmented_tree.fragments
        assert round_.dirty_fragments == ("F1",)
        oracle = ParBoXEngine(cluster).evaluate(seal_query("F2")).answer
        assert view.answer("view") is oracle is True

    def test_merge_of_a_non_sub_fragment_changes_nothing(self, cluster, maintainer):
        # The paper's mergeFragments(v) on a non-virtual v is a no-op; the
        # typed op names the child fragment, so "not a virtual node of
        # F0" is an error that leaves document, epochs and book alone.
        def epochs():
            fragments = cluster.fragmented_tree.fragments
            return {fid: fragment.epoch for fid, fragment in fragments.items()}

        before, epochs_before = maintainer.answers(), epochs()
        real = cluster.fragment("F0").root.children[0]
        assert cluster.merge_fragment("F0", real) is None
        with pytest.raises(UpdateError):
            maintainer.apply([MergeFragment("F0", "F2")])  # F2 hangs under F1
        assert maintainer.answers() == before
        assert len(maintainer.changefeed) == 0
        assert epochs() == epochs_before


class TestEpochContract:
    """Every change to a fragment moves its epoch, so an answer never
    depends on the execution strategy that happens to hold a copy."""

    EXECUTORS = ["serial", "threads", "process"]

    @pytest.mark.parametrize("executor_name", EXECUTORS)
    def test_typed_insert_reaches_resident_session(self, executor_name):
        cluster = star_ft1(3, 0.5, seed=7, nodes_per_mb=24)
        fragment = cluster.fragment("F1")
        with QuerySession(cluster, executor=executor_name) as session:
            # The session has answered: its executor holds F1 resident
            # (and, under "process", a results memo for this query).
            assert session.evaluate("[//zzz]").answer is False
            handle = session.watch(["[//zzz]"], names=["zzz"])
            epoch = fragment.epoch
            round_ = handle.apply([InsNode("F1", fragment.root.node_id, "zzz")])
            assert fragment.epoch != epoch
            assert round_.changed == ("zzz",) and handle.answer("zzz") is True
            assert session.evaluate("[//zzz]").answer is True

    @pytest.mark.parametrize("executor_name", EXECUTORS)
    def test_refresh_after_direct_edit_reaches_resident_session(self, executor_name):
        cluster = star_ft1(3, 0.5, seed=7, nodes_per_mb=24)
        fragment = cluster.fragment("F1")
        query = '[//seal = "moved"]'
        with QuerySession(cluster, executor=executor_name) as session:
            assert session.evaluate(query).answer is False
            handle = session.watch([query], names=["seal"])
            epoch = fragment.epoch
            fragment.root.find_first(lambda n: n.label == "seal").text = "moved"
            round_ = handle.refresh(["F1"])
            assert fragment.epoch != epoch
            assert round_.changed == ("seal",) and handle.answer("seal") is True
            assert session.evaluate(query).answer is True

    def test_only_document_code_edits_trees(self):
        """Nothing in the library attaches or detaches a node except the
        tree/fragment layers themselves (``Fragment.apply_edit``, split,
        merge -- each paired with an epoch bump by its caller), the
        workload generators and the bench's document builder."""
        root = pathlib.Path(repro.__file__).parent
        builders = {("bench/experiments.py", "_deep_virtual_chain")}
        offenders = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if relative.split("/")[0] in ("xmltree", "fragments", "workloads"):
                continue
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("add_child", "detach")
                        and (relative, function.name) not in builders
                    ):
                        offenders.append(f"{relative}:{node.lineno} in {function.name}()")
        assert not offenders, offenders


class TestWatchAPI:
    def test_watch_shares_cache_and_executor(self, cluster):
        with QuerySession(cluster, engine="parbox", executor="threads") as session:
            handle = session.watch(["[//stock]", "[//sell]"])
            assert handle.cache is session.cache
            assert handle.executor is session.engine.executor
            # Closing the handle must not tear down the shared executor.
            handle.close()
            assert session.evaluate("[//stock]").answer is True

    def test_watch_default_names_disambiguate_duplicates(self, cluster):
        with QuerySession(cluster) as session:
            handle = session.watch(["[//stock]", "[//stock]"])
            assert handle.names() == ["[//stock]", "[//stock]#2"]
            assert handle.duplicate_subscriptions() == 1
            handle.close()

    def test_watch_rejects_mismatched_names(self, cluster):
        with QuerySession(cluster) as session:
            with pytest.raises(ValueError):
                session.watch(["[//a]"], names=["x", "y"])
            with pytest.raises(ValueError):
                session.watch([])


class _RecordingExecutor(ThreadSiteExecutor):
    """A thread executor that logs every job it runs."""

    def __init__(self):
        super().__init__()
        self.jobs = []

    def run_jobs(self, jobs):
        self.jobs.extend(jobs)
        return super().run_jobs(jobs)


WATCH_BOOK = [
    "[//bidder]",
    '[//probe = "on"]',
    "[//seal]",
    "[not(//note)]",
    "[//bidder]",  # a duplicate rides the first segment
    '[//item[text() = "3"]]',
]


def _watch_cluster():
    return star_ft1(4, 0.6, seed=17, nodes_per_mb=24)


def _caches(maintainer):
    """Every segment's per-fragment triplets, in wire form."""
    return {
        segment.qlist.source: {
            fragment_id: triplet.to_obj()
            for fragment_id, triplet in maintainer._triplets[segment.key].items()
        }
        for segment in maintainer.index.segments()
    }


class TestOneVisitWatch:
    """``watch`` registers the whole book in one call: one visit per site."""

    def test_watch_sends_one_job_per_site_with_the_joint_qlist(self):
        cluster = _watch_cluster()
        executor = _RecordingExecutor()
        with QuerySession(cluster, executor=executor) as session:
            handle = session.watch(WATCH_BOOK)
            sites = cluster.source_tree().sites()
            assert sorted(job.site_id for job in executor.jobs) == sorted(sites)
            combined = handle.index.combined()
            assert all(job.qlist is combined for job in executor.jobs)
            assert all(job.segments == handle.index.spans() for job in executor.jobs)
            assert handle.index.segment_count == len(set(WATCH_BOOK)) == 5
            handle.close()
        executor.close()

    def test_fresh_segments_of_a_later_call_ship_their_joint_qlist_only(self):
        cluster = _watch_cluster()
        executor = _RecordingExecutor()
        with StreamMaintainer(cluster, executor=executor) as maintainer:
            maintainer.subscribe("first", WATCH_BOOK[0])
            executor.jobs.clear()
            answers = maintainer.subscribe_many(
                [("again", WATCH_BOOK[0]), ("b", WATCH_BOOK[1]), ("c", WATCH_BOOK[2])]
            )
            fresh = [compile_query(text) for text in WATCH_BOOK[1:3]]
            assert len(executor.jobs) == len(cluster.source_tree().sites())
            for job in executor.jobs:
                assert len(job.qlist) == sum(len(q) for q in fresh)
                assert job.segments == ((0, len(fresh[0])), (len(fresh[0]), len(fresh[1])))
            assert answers == [maintainer.answer(name) for name in ("again", "b", "c")]
        executor.close()

    @pytest.mark.parametrize("executor_name", ["serial", "process"])
    def test_watch_equals_one_at_a_time_subscribe(self, executor_name):
        names = [f"q{index}" for index in range(len(WATCH_BOOK))]
        one_call, one_each = _watch_cluster(), _watch_cluster()
        with QuerySession(one_call, executor=executor_name) as session, StreamMaintainer(
            one_each, executor=executor_name
        ) as single:
            watched = session.watch(WATCH_BOOK, names=names)
            for name, text in zip(names, WATCH_BOOK):
                single.subscribe(name, text)
            assert watched.answers() == single.answers()
            assert _caches(watched) == _caches(single)
            # The first refresh rounds after either ship the same slices.
            streams = [
                update_stream(cluster, rounds=4, ops_per_round=3, seed=31, structural_every=2)
                for cluster in (one_call, one_each)
            ]
            for ops_a, ops_b in zip(*streams):
                round_a, round_b = watched.apply(ops_a), single.apply(ops_b)
                assert (round_a.slices_shipped, round_a.traffic_bytes, round_a.changed) == (
                    round_b.slices_shipped,
                    round_b.traffic_bytes,
                    round_b.changed,
                )
                assert _caches(watched) == _caches(single)
            watched.close()

    @pytest.mark.parametrize(
        "book",
        [
            [("a", "[//bidder]"), ("b", "[[nope"), ("c", "[//seal]")],
            [("a", "[//bidder]"), ("b", "[//seal]"), ("a", "[//note]")],
            [("a", "[//bidder]"), ("standing", "[//note]")],
        ],
        ids=["bad-query", "repeated-name", "name-already-standing"],
    )
    def test_a_bad_book_changes_nothing(self, book):
        from repro.xpath import QueryParseError

        cluster = _watch_cluster()
        executor = _RecordingExecutor()
        with StreamMaintainer(cluster, executor=executor) as maintainer:
            maintainer.subscribe("standing", "[//item]")
            before = (maintainer.answers(), _caches(maintainer), maintainer.combined_size())
            executor.jobs.clear()
            with pytest.raises((QueryParseError, ValueError)):
                maintainer.subscribe_many(book)
            assert executor.jobs == []
            assert (maintainer.answers(), _caches(maintainer), maintainer.combined_size()) == before
            assert maintainer.names() == ["standing"]
        executor.close()


class TestOracleAgreement:
    """Satellite: incremental maintenance == from-scratch, always."""

    ENGINES = ["parbox", "fulldist", "lazy"]
    EXECUTORS = ["serial", "threads", "process"]

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("executor_name", EXECUTORS)
    def test_random_stream_agrees_bitwise(self, engine_name, executor_name):
        cluster = star_ft1(4, 0.6, seed=17, nodes_per_mb=24)
        queries = [
            "[//bidder]",
            '[//probe = "on"]',
            "[//seal]",
            "[not(//note)]",
            "[//bidder]",  # duplicate: rides the first segment
        ]
        engine_cls = ENGINE_REGISTRY[engine_name]
        with engine_cls(cluster, executor=executor_name) as oracle:
            maintainer = StreamMaintainer(cluster, executor=oracle.executor)
            for index, text in enumerate(queries):
                maintainer.subscribe(f"q{index}", text)
            stream = update_stream(
                cluster,
                rounds=6,
                ops_per_round=3,
                seed=23,
                structural_every=2,
            )
            saw_structural = False
            for batch in stream:
                round_ = maintainer.apply(batch)
                saw_structural = saw_structural or round_.structural
                live = tuple(maintainer.answers().values())
                scratch = oracle.evaluate_many(maintainer.plan()).answers
                assert live == scratch, f"diverged at round {round_.seq}"
            assert saw_structural  # the stream really exercised split/merge

    def test_long_stream_with_naive_oracle(self):
        # One long run against the centralized oracle, serial executor.
        cluster = star_ft1(3, 0.5, seed=5, nodes_per_mb=24)
        maintainer = StreamMaintainer(cluster)
        for index, text in enumerate(
            ["[//item]", '[//seal = "seal-F1"]', "[not(//probe)]"]
        ):
            maintainer.subscribe(f"q{index}", text)
        oracle = ENGINE_REGISTRY["central"](cluster)
        for batch in update_stream(
            cluster, rounds=12, ops_per_round=2, seed=9, structural_every=4
        ):
            maintainer.apply(batch)
            assert (
                tuple(maintainer.answers().values())
                == oracle.evaluate_many(maintainer.plan()).answers
            )


class TestUpdateStreamGenerator:
    def test_oversized_batch_terminates(self):
        # More ops per round than targetable nodes: the batch must come
        # up short, not spin forever.
        cluster = build_portfolio_cluster()
        total_nodes = cluster.total_size()
        batches = list(
            update_stream(cluster, rounds=1, ops_per_round=3 * total_nodes, seed=1)
        )
        assert len(batches) == 1
        assert 0 < len(batches[0]) <= 3 * total_nodes

    def test_scheduled_merges_really_happen(self):
        from repro.stream import MergeFragment, SplitFragment, apply_updates

        cluster = star_ft1(3, 0.5, seed=2, nodes_per_mb=24)
        splits = merges = 0
        for batch in update_stream(
            cluster, rounds=10, ops_per_round=2, seed=6, structural_every=2
        ):
            splits += sum(isinstance(op, SplitFragment) for op in batch)
            merges += sum(isinstance(op, MergeFragment) for op in batch)
            apply_updates(cluster, batch)
        # The generator alternates split -> merge; pinning the split id
        # guarantees the scheduled merge actually fires.
        assert splits >= 2 and merges >= 2


class TestChangefeedPlumbing:
    def test_events_are_value_objects(self):
        feed = Changefeed()
        event = ChangeEvent(1, "q", "[//a]", False, True)
        feed.append(event)
        assert list(feed) == [event]
        assert feed.drain() == [event]
