"""The observability layer: metrics registry, span trees, event logs.

Three tiers of coverage:

* **units** -- the :mod:`repro.obs` leaf modules in isolation
  (counter/gauge/histogram semantics, Prometheus exposition, percentile
  estimation, span wire round-trips, the tree renderer, JSON event-log
  rotation);
* **integration** -- one networked batch through a real
  :class:`~repro.serving.cluster.ServingCluster` must produce a single
  *connected* cross-process span tree (gateway -> coordinator -> every
  visited site) and a metrics exposition whose counters match observed
  behavior; the resident process executor's workers must likewise
  attach to the ambient session span;
* **CLI** -- ``repro trace`` renders exported span files; ``repro serve
  --check --obs-dir`` writes the scrape/span artifacts the CI smoke
  uploads.
"""

import json
import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from netfixtures import hard_deadline
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import EventLog, JsonLineHandler, install_event_log, uninstall_event_log
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_percentiles,
    render_snapshot_text,
)
from repro.obs.trace import (
    Span,
    SpanStore,
    SpanTimer,
    TraceContext,
    load_spans,
    render_spans,
)


# ---------------------------------------------------------------------------
# Metrics units
# ---------------------------------------------------------------------------


class TestCounters:
    def test_counter_accumulates_and_snapshots(self):
        registry = MetricsRegistry("t")
        counter = registry.counter("events_total", "things that happened")
        counter.inc()
        counter.inc(2.5)
        assert registry.snapshot()["events_total"]["values"][""] == 3.5

    def test_labeled_counter_tracks_each_series(self):
        registry = MetricsRegistry("t")
        counter = registry.counter("hits_total", labelnames=("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc(4)
        counter.labels(kind="a").inc()
        values = registry.snapshot()["hits_total"]["values"]
        assert values == {"kind=a": 2.0, "kind=b": 4.0}

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("k",))


class TestGaugesAndHistograms:
    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc(1)
        assert gauge._bare()._snapshot() == 4.0

    def test_histogram_buckets_are_cumulative_le(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("s", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 100.0):
            histogram.observe(value)
        snap = registry.snapshot()["s"]["values"][""]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(100.65)
        # le semantics: 0.1 falls in the 0.1 bucket, 100 beyond the last edge.
        assert dict(snap["buckets"]) == {0.1: 2, 1.0: 3, 10.0: 3}

    def test_percentile_estimation_interpolates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("s", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 0.9):
            histogram.observe(value)
        snap = registry.snapshot()["s"]["values"][""]
        quantiles = histogram_percentiles(snap, (0.5, 0.99))
        assert 0.01 < quantiles[0.5] <= 0.1
        assert 0.1 < quantiles[0.99] <= 1.0

    def test_percentiles_of_empty_histogram_are_none(self):
        registry = MetricsRegistry()
        registry.histogram("s", buckets=(1.0,))
        snap = registry.snapshot()["s"]["values"]
        assert snap == {} or all(
            histogram_percentiles(v, (0.5,))[0.5] is None for v in snap.values()
        )


#: Bucket edges for the percentile property (uneven widths on purpose).
_PROP_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 10.0)


class TestPercentileProperties:
    """The estimator contract the load harness and ``repro top`` rely on.

    For any sample set within the bucket range and any quantiles in
    (0, 1], the histogram estimate must be (a) monotone in q, (b) inside
    [0, last bucket edge], and (c) within one bucket width of the exact
    empirical quantile -- fixed buckets lose *resolution*, never *order*.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        qs=st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
    )
    def test_estimates_are_monotone_bounded_and_bucket_accurate(self, samples, qs):
        registry = MetricsRegistry()
        histogram = registry.histogram("s", buckets=_PROP_BUCKETS)
        for value in samples:
            histogram.observe(value)
        snap = registry.snapshot()["s"]["values"][""]
        estimates = histogram_percentiles(snap, sorted(qs))

        ordered = [estimates[q] for q in sorted(qs)]
        assert all(value is not None for value in ordered)
        # (a) monotone in q.
        assert all(b >= a for a, b in zip(ordered, ordered[1:]))
        # (b) bounded by the bucket range.
        assert all(0.0 <= value <= _PROP_BUCKETS[-1] for value in ordered)
        # (c) within one bucket width of the exact empirical quantile:
        # both the estimate and the ceil(q*n)-th smallest sample live in
        # the crossing bucket, so they differ by at most its width.
        ranked = sorted(samples)
        for q in sorted(qs):
            rank = q * len(ranked)
            exact = ranked[max(0, math.ceil(rank) - 1)]
            edges = (0.0,) + _PROP_BUCKETS
            width = max(
                hi - lo
                for lo, hi in zip(edges, edges[1:])
                if lo <= exact <= hi or lo <= estimates[q] <= hi
            )
            assert abs(estimates[q] - exact) <= width + 1e-9, (
                f"q={q}: estimate {estimates[q]} vs exact {exact} "
                f"differ by more than a bucket width"
            )


class TestExposition:
    def test_prometheus_text_has_help_type_and_series(self):
        registry = MetricsRegistry("gw")
        registry.counter("requests_total", "Requests admitted").inc(3)
        registry.histogram("seconds", "Latency", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        assert "# HELP requests_total Requests admitted" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3.0" in text
        assert "# TYPE seconds histogram" in text
        assert 'seconds_bucket{le="0.1"} 1' in text
        assert 'seconds_bucket{le="+Inf"} 1' in text
        assert "seconds_count 1" in text

    def test_snapshot_survives_json_and_rerenders(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("k",)).labels(k="x").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        wire = json.loads(json.dumps(registry.snapshot()))
        assert render_snapshot_text(wire) == registry.render_text()

    def test_global_install_is_reversible(self):
        assert obs_metrics.installed() is None
        registry = obs_metrics.install()
        try:
            assert obs_metrics.installed() is registry
        finally:
            obs_metrics.uninstall()
        assert obs_metrics.installed() is None


# ---------------------------------------------------------------------------
# Trace units
# ---------------------------------------------------------------------------


class TestSpanWire:
    def test_span_wire_round_trip(self):
        span = Span(
            trace_id="t" * 32,
            span_id="s" * 16,
            parent_id=None,
            name="gateway.request",
            component="gateway",
            start=1700000000.0,
            duration=0.012,
            attrs={"queries": 2},
        )
        assert Span.from_wire(span.to_wire()) == span
        assert Span.from_obj(json.loads(json.dumps(span.to_obj()))) == span

    def test_context_wire_tolerates_short_tuples(self):
        assert TraceContext.from_wire(()) is None
        only_trace = TraceContext.from_wire(("t" * 32,))
        assert only_trace.trace_id == "t" * 32 and only_trace.span_id == ""
        full = TraceContext.from_wire(("t" * 32, "p" * 16))
        assert full.span_id == "p" * 16

    def test_timer_produces_child_context_and_duration(self):
        timer = SpanTimer("t" * 32, None, "work", "test", k="v")
        child = SpanTimer(timer.trace_id, timer.context().span_id, "inner", "test")
        span = child.finish(extra="x")
        assert span.parent_id == timer.context().span_id
        assert span.duration >= 0
        assert span.attrs == {"extra": "x"}
        parent = timer.finish()
        assert parent.attrs == {"k": "v"}


class TestSpanStoreAndRenderer:
    def test_store_is_bounded(self):
        store = SpanStore(capacity=3)
        for index in range(5):
            store.record(
                Span("t" * 32, f"{index:016d}", None, "s", "c", float(index), 0.0, {})
            )
        assert len(store) == 3
        assert [s.span_id for s in store.spans()] == [
            "0000000000000002",
            "0000000000000003",
            "0000000000000004",
        ]

    def test_export_then_load_then_render_tree(self):
        store = SpanStore()
        root = SpanTimer("t" * 32, None, "gateway.request", "gateway")
        child = SpanTimer("t" * 32, root.context().span_id, "site.execute", "site:S0")
        store.record(child.finish())
        store.record(root.finish())
        spans = load_spans(json.loads(store.export_json()))
        text = render_spans(spans)
        lines = text.splitlines()
        assert lines[0].startswith("trace " + "t" * 32)
        assert "(2 spans)" in lines[0]
        assert lines[1].startswith("  gateway.request")
        assert lines[2].startswith("    site.execute")

    def test_render_orphans_promoted_and_empty_case(self):
        assert render_spans([]) == "(no spans)"
        orphan = Span("t" * 32, "a" * 16, "missing-parent", "lost", "c", 0.0, 0.0, {})
        text = render_spans([orphan])
        assert "lost" in text

    def test_ambient_span_contextmanager_nests(self):
        store = obs_trace.install_spans()
        try:
            with obs_trace.span("outer", "test") as outer:
                with obs_trace.span("inner", "test"):
                    pass
        finally:
            obs_trace.uninstall_spans()
        spans = {s.name: s for s in store.spans()}
        assert spans["inner"].parent_id == outer.context().span_id
        assert spans["outer"].parent_id is None

    def test_span_is_noop_without_collector(self):
        assert obs_trace.installed_spans() is None
        with obs_trace.span("outer", "test") as timer:
            assert timer is None
        assert obs_trace.active_context() is None


# ---------------------------------------------------------------------------
# Event-log units
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_one_json_line_per_event_per_component(self, tmp_path):
        log = EventLog(tmp_path)
        log.emit("gateway", "shed", request_id=7)
        log.emit("gateway", "request", request_id=8, status="ok")
        log.emit("site-S0", "boot", pid=123)
        log.close()
        gateway_lines = [
            json.loads(line)
            for line in (tmp_path / "gateway.jsonl").read_text().splitlines()
        ]
        assert [entry["event"] for entry in gateway_lines] == ["shed", "request"]
        assert gateway_lines[0]["request_id"] == 7
        assert all("ts" in entry for entry in gateway_lines)
        site_entry = json.loads((tmp_path / "site-S0.jsonl").read_text())
        assert site_entry["pid"] == 123

    def test_rotation_keeps_one_predecessor(self, tmp_path):
        log = EventLog(tmp_path, max_bytes=200)
        for index in range(50):
            log.emit("c", "tick", n=index)
        log.close()
        assert (tmp_path / "c.jsonl").exists()
        assert (tmp_path / "c.jsonl.1").exists()
        # Every surviving line is intact JSON (rotation never tears a line).
        for name in ("c.jsonl", "c.jsonl.1"):
            for line in (tmp_path / name).read_text().splitlines():
                json.loads(line)

    def test_logging_handler_bridges_stdlib_records(self, tmp_path):
        log = install_event_log(tmp_path)
        handler = JsonLineHandler(log)
        logger = logging.getLogger("repro.serving.testobs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            logger.info("hello %s", "world")
        finally:
            logger.removeHandler(handler)
            uninstall_event_log()
        entry = json.loads((tmp_path / "testobs.jsonl").read_text())
        assert entry["event"] == "log"
        assert entry["message"] == "hello world"
        assert entry["level"].lower() == "info"


# ---------------------------------------------------------------------------
# Integration: one networked batch -> one connected span tree
# ---------------------------------------------------------------------------


def small_cluster():
    from repro.distsim.cluster import Cluster
    from repro.fragments import fragment_balanced
    from repro.xmltree import parse_xml

    tree = parse_xml("<a>" + "<b><c/></b>" * 12 + "</a>")
    return Cluster.one_site_per_fragment(fragment_balanced(tree, 4))


class TestServingSpanTree:
    def test_traced_batch_yields_connected_tree(self):
        from repro.serving import ServingCluster

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            with serving.client() as client:
                reply = client.query(("[//c]", "[not //zzz]"), trace=True)
            spans = [Span.from_wire(wire) for wire in reply.spans]

        assert spans, "traced batch returned no spans"
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1, "one batch must be one trace"
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["gateway.request"]
        # Connected: every non-root's parent is present in the same tree.
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, f"orphan span {span.name}"
        # All three layers appear, and every site the ledger visited
        # contributed an execute span.
        components = {span.component for span in spans}
        assert "gateway" in components
        assert "coordinator" in components
        site_components = {c for c in components if c.startswith("site:")}
        assert site_components == {f"site:S{i}" for i in range(4)}
        # Parent/child durations nest plausibly.
        for span in spans:
            if span.parent_id:
                assert span.duration <= by_id[span.parent_id].duration * 50 + 1.0

    def test_gateway_keeps_the_tree_in_its_span_store(self):
        from repro.serving import ServingCluster

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            with serving.client() as client:
                client.query(("[//c]",), trace=True)
            store = serving.gateway.spans
            trace_ids = store.trace_ids()
            assert len(trace_ids) == 1
            tree = store.spans(trace_ids[0])
            assert {span.component for span in tree} >= {"gateway", "coordinator"}
            rendered = render_spans(tree)
            assert "gateway.request" in rendered

    def test_untraced_batch_records_nothing(self):
        from repro.serving import ServingCluster

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            with serving.client() as client:
                reply = client.query(("[//c]",))
            assert reply.spans == ()
            assert len(serving.gateway.spans) == 0

    def test_metrics_exposition_matches_observed_requests(self):
        from repro.serving import ServingCluster

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            with serving.client() as client:
                for _ in range(3):
                    client.query(("[//c]",))
                reply = client.metrics()
                stats = client.server_stats()

        assert stats["gateway_requests_total"] == 3.0
        assert stats["gateway_replies_total{status=ok}"] == 3.0
        assert stats.get("gateway_shed_total", 0.0) == 0.0
        # Every query dispatched to all 4 sites, no retries on loopback.
        assert stats["coordinator_events_total{event=attempts}"] == 12.0
        assert "coordinator_events_total{event=retries}" not in stats
        # The exposition text carries the histogram with 3 samples.
        assert "gateway_request_seconds" in reply.text
        assert "gateway_request_seconds_count 3" in reply.text
        histogram = reply.snapshot["gateway_request_seconds"]["values"][""]
        assert histogram["count"] == 3
        quantiles = histogram_percentiles(histogram, (0.5, 0.99))
        assert quantiles[0.5] is not None and quantiles[0.5] > 0

    def test_site_servers_answer_metrics_requests(self):
        import socket

        from repro.serving import ServingCluster
        from repro.serving.protocol import Framer, MetricsRequest, encode_message

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            with serving.client() as client:
                client.query(("[//c]",))
            server = next(iter(serving.sites.values()))[0]
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(encode_message(MetricsRequest(request_id=1)))
                framer = Framer()
                replies = []
                while not replies:
                    replies = framer.feed(sock.recv(65536))
        (reply,) = replies
        values = reply.snapshot["site_requests_total"]["values"]
        assert values[""] >= 1.0
        assert "site_execute_seconds" in reply.snapshot
        assert reply.snapshot["site_fragments_resident"]["values"][""] >= 1.0


class TestProcessExecutorTrace:
    def test_worker_spans_attach_to_session_root(self):
        from repro.core import QuerySession

        store = obs_trace.install_spans()
        try:
            with QuerySession(small_cluster(), engine="parbox", executor="process") as session:
                session.evaluate_batch(["[//c]", "[not //zzz]"])
        finally:
            obs_trace.uninstall_spans()

        spans = store.spans()
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["session.batch"]
        workers = [span for span in spans if span.name == "worker.execute"]
        assert workers, "resident workers recorded no spans"
        by_id = {span.span_id: span for span in spans}
        for worker in workers:
            assert worker.component.startswith("worker:")
            assert worker.trace_id == roots[0].trace_id
            assert worker.parent_id in by_id
        # The ledger-visited sites all appear as worker span attrs.
        assert {worker.attrs["site"] for worker in workers} == {
            f"S{i}" for i in range(4)
        }

    def test_queued_callers_keep_their_own_trace_context(self):
        # Two run_jobs callers blocked on the dispatch lock: the traced
        # batch must ship its own context and the untraced one none,
        # whichever of them reached the lock last.
        import threading
        import time

        from repro.boolexpr.compose import CanonicalAlgebra
        from repro.distsim.executors import ProcessSiteExecutor, SiteJob
        from repro.xpath import compile_query

        cluster = small_cluster()
        qlist = compile_query("[//c]")
        jobs = [
            SiteJob(site.site_id, tuple(site.iter_fragments()), qlist, CanonicalAlgebra())
            for site in cluster.sites()
        ]
        traced_ids = []
        entered = [threading.Event(), threading.Event()]

        def traced():
            with obs_trace.span("caller.traced", "test") as timer:
                traced_ids.append((timer.trace_id, timer.span_id))
                entered[0].set()
                executor.run_jobs(jobs)

        def untraced():
            entered[1].set()
            executor.run_jobs(jobs)

        store = obs_trace.install_spans()
        try:
            with ProcessSiteExecutor(max_workers=1, warm=cluster) as executor:
                threads = [threading.Thread(target=traced), threading.Thread(target=untraced)]
                with executor._lock:
                    for thread, event in zip(threads, entered):
                        thread.start()
                        assert event.wait(timeout=10)
                    time.sleep(0.2)  # both now block on the lock
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            obs_trace.uninstall_spans()

        ((trace_id, span_id),) = traced_ids
        workers = [span for span in store.spans() if span.name == "worker.execute"]
        assert len(workers) == len(jobs)  # the untraced batch recorded none
        assert {(w.trace_id, w.parent_id) for w in workers} == {(trace_id, span_id)}
        assert sorted(w.attrs["site"] for w in workers) == sorted(j.site_id for j in jobs)

    def test_no_collector_no_spans_no_trace_in_pipe(self):
        from repro.core import QuerySession

        with QuerySession(small_cluster(), engine="parbox", executor="process") as session:
            result = session.evaluate_batch(["[//c]"])
        assert result.answers == (True,)
        assert obs_trace.installed_spans() is None


class TestExecutorMetricsMirror:
    def test_resident_stats_mirrored_when_registry_installed(self):
        from repro.core import QuerySession

        registry = obs_metrics.install()
        try:
            with QuerySession(small_cluster(), engine="parbox", executor="process") as session:
                session.evaluate_batch(["[//c]"])
            snapshot = registry.snapshot()
        finally:
            obs_metrics.uninstall()
        events = snapshot["executor_events_total"]["values"]
        assert events["event=ships"] >= 4.0
        assert events["event=jobs"] >= 4.0
        # Session-level counters ride the same registry.
        assert snapshot["session_batches_total"]["values"][""] == 1.0
        assert snapshot["session_queries_total"]["values"][""] == 1.0


class TestMaintainerMetrics:
    def test_refresh_rounds_counted_when_registry_installed(self):
        from repro.stream.maintainer import StreamMaintainer
        from repro.stream.updates import InsNode

        cluster = small_cluster()
        registry = obs_metrics.install()
        try:
            maintainer = StreamMaintainer(cluster)
            maintainer.subscribe("q0", "[//c]")
            fragment_id = sorted(cluster.fragmented_tree.fragments)[1]
            parent = cluster.fragment(fragment_id).root
            maintainer.apply([InsNode(fragment_id, parent.node_id, "zzz")])
            snapshot = registry.snapshot()
        finally:
            obs_metrics.uninstall()
        assert snapshot["stream_rounds_total"]["values"][""] == 1.0
        work = snapshot["stream_round_work_total"]["values"]
        assert work["kind=dirty_fragments"] >= 1.0
        assert "kind=traffic_bytes" in work


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliObs:
    def test_serve_check_obs_dir_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        doc = tmp_path / "doc.xml"
        doc.write_text("<a>" + "<b><c/></b>" * 8 + "</a>")
        obs_dir = tmp_path / "obs"
        code = main(
            [
                "serve",
                str(doc),
                "--fragments",
                "3",
                "--check",
                "--obs-dir",
                str(obs_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "self-check" in out
        assert (obs_dir / "metrics.txt").read_text().startswith("# HELP")
        snapshot = json.loads((obs_dir / "metrics.json").read_text())
        assert snapshot["gateway_requests_total"]["values"][""] >= 1.0
        spans_doc = json.loads((obs_dir / "spans.json").read_text())
        assert spans_doc["spans"], "check batch must be traced"

    def test_trace_command_renders_exported_file(self, tmp_path, capsys):
        from repro.cli import main

        store = SpanStore()
        root = SpanTimer("t" * 32, None, "gateway.request", "gateway")
        store.record(
            SpanTimer(
                "t" * 32, root.context().span_id, "site.execute", "site:S0"
            ).finish()
        )
        store.record(root.finish())
        path = tmp_path / "spans.json"
        path.write_text(store.export_json())
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gateway.request" in out
        assert "site.execute" in out
        assert out.index("gateway.request") < out.index("site.execute")

    def test_trace_command_filters_by_trace_id(self, tmp_path, capsys):
        from repro.cli import main

        store = SpanStore()
        store.record(Span("a" * 32, "1" * 16, None, "first", "c", 0.0, 0.0, {}))
        store.record(Span("b" * 32, "2" * 16, None, "second", "c", 0.0, 0.0, {}))
        path = tmp_path / "spans.json"
        path.write_text(store.export_json())
        assert main(["trace", str(path), "--trace-id", "b" * 32]) == 0
        out = capsys.readouterr().out
        assert "second" in out and "first" not in out

    def test_connect_trace_renders_tree_against_live_gateway(self, capsys):
        from repro.cli import main
        from repro.serving import ServingCluster

        cluster = small_cluster()
        with hard_deadline(60), ServingCluster(cluster) as serving:
            code = main(
                ["connect", serving.address, "[//c]", "--trace"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "gateway.request" in out
        assert "site.execute" in out
