"""Command-line interface.

The subcommands::

    repro explain '<query>'
        Show the surface AST, the β-normal form and the compiled QList.

    repro query <file.xml> '<query>' ['<query>' ...] [--fragments N]
                 [--engine NAME] [--sites N] [--batch-size B]
                 [--executor serial|threads|process]
                 [--trace] [--all-engines]
        Fragment the document, place the fragments on simulated sites
        and evaluate the Boolean query; prints the answer and the cost
        ledger (visits / messages / bytes / simulated elapsed / real
        wall clock).  ``--executor`` chooses how site-local work really
        executes: serially (deterministic baseline), on a thread pool
        (one worker per site) or on a process pool (CPU-bound formula
        evaluation).  Several queries evaluate as one *batch* through a
        QuerySession -- one broadcast per ``--batch-size`` chunk
        (default: all in one batch), duplicate queries deduplicated --
        and the report shows per-query answers plus the amortized
        per-query costs.

    repro stream <file.xml> '<query>' ['<query>' ...] [--fragments N]
                 [--rounds R] [--ops K] [--hot H] [--structural-every M]
                 [--executor serial|threads|process] [--seed S]
        Keep the queries standing and maintain them over a generated
        skewed update stream: each round applies one batch of typed
        updates (insNode / delNode / relabel, optionally split/merge),
        re-evaluates **only the dirty fragments' sites** and prints the
        answers that flipped plus the maintenance cost ledger
        (dirty sites / delta traffic / nodes recomputed per round).

    repro rebalance <file.xml> '<query>' ['<query>' ...] [--fragments N]
                 [--sites N] [--capacity NODES] [--max-sites M]
                 [--profile-rounds R] [--moves-only] [--seed S]
        Optimize the fragment->site placement for the given query
        workload (update rates are profiled from a generated stream):
        prints the chosen split/merge/move plan, enacts it under a
        live ``watch()`` of the same queries -- standing answers are
        preserved bitwise while the data migrates -- and reports the
        predicted and *measured* cost before/after plus the metered
        migration traffic.

    repro serve <file.xml> [--fragments N] [--sites N] [--port P]
                 [--site-mode inline|process] [--replicas R]
                 [--engine NAME] [--check] [--obs-dir DIR]
        Boot the *networked* serving tier for the document: one site
        server per simulated site (in-process asyncio servers, or real
        child processes with ``--site-mode process``), a coordinator
        that pushes each site its fragments once, and a front-door
        gateway on ``--port``.  ``--check`` runs a self-query through a
        loopback client after boot and exits (the CI smoke); otherwise
        the command serves until interrupted.  ``--obs-dir DIR`` makes
        the self-check traced and writes the observability artifacts
        (``metrics.txt``, ``metrics.json``, ``spans.json``) to DIR.

    repro connect HOST:PORT '<query>' ['<query>' ...] [--engine NAME]
                 [--trace]
        Evaluate queries against a running gateway: the same batched
        session surface as ``repro query``, but over TCP -- answers and
        the cost ledger come back from the serving tier.  ``--trace``
        additionally asks the gateway for the batch's cross-process
        span tree and renders it.

    repro trace <spans.json> [--trace-id ID]
        Render an exported span file (``repro.obs.trace`` JSON form,
        e.g. ``serve --check --obs-dir``'s ``spans.json``) as an
        indented per-trace timeline.

    repro top HOST:PORT [--interval S] [--iterations N]
        Poll a running gateway's metrics registry and print live
        throughput, shed/retry counts, in-flight depth, the share of
        fragment results the sites served from their memo, and latency
        percentiles -- a tiny ``top(1)`` for the serving tier.

    repro loadtest [--quick] [--out DIR] [--baseline [PATH]]
                 [--analyze-only] [--trace-every N]
        Drive the factorial load experiment over the serving tier: for
        every run in the declared table (topology family x fragment
        count x engine x executor x batch size x arrival rate) boot a
        ``ServingCluster``, fire an *open-loop* request schedule at its
        gateway, and write per-run raw artifacts plus the aggregate
        ``run_table.csv`` to ``--out``.  A separate analysis step then
        prints per-factor deltas and, with ``--baseline``, enforces the
        regression gate against the committed ``BENCH_loadtest.json``.
        ``--analyze-only`` skips collection and re-analyzes an existing
        ``--out`` directory.

    repro select <file.xml> '<path-query>' [--fragments N] [--limit K]
        The Section 8 extension: print the selected nodes.

    repro fragment <file.xml> --fragments N [--out DIR]
        Cut a document and write each fragment (with virtual-node
        placeholders) as XML, plus a source-tree summary.

    repro bench [...]
        Forward to the benchmark harness (``python -m repro.bench``).

Invoke as ``python -m repro`` or via small wrappers around
:func:`main`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.core import ENGINE_REGISTRY, SelectionEngine
from repro.distsim import Cluster
from repro.distsim.executors import EXECUTOR_REGISTRY, resolve_executor
from repro.distsim.trace import Trace
from repro.fragments import Placement, fragment_balanced
from repro.xmltree import parse_xml, serialize
from repro.xpath import build_qlist, normalize, parse_query
from repro.xpath.unparse import unparse_bool, unparse_normalized


def _load_tree(path: str):
    text = Path(path).read_text()
    return parse_xml(text)


def _build_cluster(tree, fragments: int, sites: Optional[int]) -> Cluster:
    decomposition = fragment_balanced(tree, fragments)
    if sites is None or sites >= decomposition.card():
        return Cluster.one_site_per_fragment(decomposition)
    assignment = {}
    for index, fragment_id in enumerate(decomposition.iter_depth_first()):
        assignment[fragment_id] = f"S{index % sites}"
    return Cluster(decomposition, Placement(assignment))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    expr = parse_query(args.query)
    normalized = normalize(expr)
    qlist = build_qlist(normalized, source=args.query)
    print("surface     :", unparse_bool(expr))
    print("normal form :", unparse_normalized(normalized))
    print(f"QList (|q| = {len(qlist)}):")
    print(qlist.pretty())
    print(f"broadcast size: {qlist.wire_bytes()} bytes")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.batch_size is not None and args.batch_size < 1:
        # Validate uniformly, whether or not the flag ends up chunking
        # anything (a single query never does).
        print("error: batch_size must be >= 1", file=sys.stderr)
        return 2
    tree = _load_tree(args.file)
    cluster = _build_cluster(tree, args.fragments, args.sites)
    if len(args.query) > 1:
        return _run_query_batch(args, cluster)
    query_text = args.query[0]
    qlist = build_qlist(normalize(parse_query(query_text)), source=query_text)
    engine_names = list(ENGINE_REGISTRY) if args.all_engines else [args.engine]
    # Deduplicate aliases while keeping order.
    seen_classes = []
    for name in engine_names:
        engine_cls = ENGINE_REGISTRY.get(name.lower())
        if engine_cls is None:
            print(f"unknown engine {name!r}; choose from {sorted(set(ENGINE_REGISTRY))}")
            return 2
        if engine_cls not in seen_classes:
            seen_classes.append(engine_cls)

    print(
        f"document: {cluster.total_size()} nodes, {cluster.card()} fragments, "
        f"{len(cluster.sites())} sites; |QList| = {len(qlist)}; "
        f"executor = {args.executor}"
    )
    # One executor instance shared across engines, so a process pool
    # forks its workers once for the whole comparison.
    executor = resolve_executor(args.executor)
    with executor:
        for engine_cls in seen_classes:
            trace = Trace() if args.trace else None
            engine = engine_cls(cluster, trace=trace, executor=executor)
            result = engine.evaluate(qlist)
            summary = result.metrics.summary()
            print(
                f"{engine_cls.name:18s} answer={result.answer}  "
                f"visits(max)={summary['max_visits_per_site']}  "
                f"msgs={summary['messages']}  bytes={summary['bytes_total']}  "
                f"elapsed={summary['elapsed_seconds'] * 1000:.2f}ms  "
                f"wall={summary['wall_seconds'] * 1000:.2f}ms"
            )
            if trace is not None:
                print(trace.render())
    return 0


def _run_query_batch(args: argparse.Namespace, cluster: Cluster) -> int:
    """Evaluate several queries as batches through a QuerySession."""
    from repro.core import QuerySession

    if args.all_engines:
        print(
            "--all-engines applies to single queries; pick one engine for a batch",
            file=sys.stderr,
        )
        return 2
    # Engine-name and batch-size validation live in QuerySession; its
    # ValueError is reported by main() like every other CLI error
    # (stderr, exit 2).
    trace = Trace() if args.trace else None
    with QuerySession(
        cluster,
        engine=args.engine,
        trace=trace,
        executor=args.executor,
        batch_size=args.batch_size,
    ) as session:
        outcome = session.evaluate_many(args.query)
        stats = session.cache_stats()
    print(
        f"document: {cluster.total_size()} nodes, {cluster.card()} fragments, "
        f"{len(cluster.sites())} sites; {len(args.query)} queries in "
        f"{len(outcome.batches)} batch(es); executor = {args.executor}"
    )
    for text, answer, cost in zip(args.query, outcome.answers, outcome.per_query):
        shared = f"  (shared x{cost.shared_with + 1})" if cost.shared_with else ""
        print(f"  answer={str(answer):5s}  |q|={cost.qlist_len:<3d} {text}{shared}")
    print(
        f"per query (amortized): visits={outcome.visits_per_query:.2f}  "
        f"msgs={outcome.messages_per_query:.2f}  "
        f"bytes={outcome.bytes_per_query:.0f}  "
        f"[totals: visits={outcome.visits_total} msgs={outcome.messages_total} "
        f"bytes={outcome.bytes_total}]"
    )
    print(
        f"compiled {stats['misses']} unique queries "
        f"({stats['hits']} cache hits)"
    )
    if trace is not None:
        print(trace.render())
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Maintain standing queries over a generated update stream."""
    from repro.core import QuerySession
    from repro.workloads.updates import update_stream

    tree = _load_tree(args.file)
    cluster = _build_cluster(tree, args.fragments, args.sites)
    total_sites = len(cluster.sites())
    print(
        f"document: {cluster.total_size()} nodes, {cluster.card()} fragments, "
        f"{total_sites} sites; {len(args.query)} standing queries; "
        f"executor = {args.executor}"
    )
    with QuerySession(cluster, engine="parbox", executor=args.executor) as session:
        maintainer = session.watch(args.query)
        print(
            f"subscribed: combined |QList| = {maintainer.combined_size()} "
            f"({maintainer.duplicate_subscriptions()} duplicates collapsed)"
        )
        for name, answer in maintainer.answers().items():
            print(f"  {str(answer):5s} {name}")

        total_bytes = 0
        total_nodes = 0
        stream = update_stream(
            cluster,
            rounds=args.rounds,
            ops_per_round=args.ops,
            seed=args.seed,
            hot_fragments=args.hot,
            structural_every=args.structural_every,
        )
        for batch in stream:
            round_ = maintainer.apply(batch)
            total_bytes += round_.traffic_bytes
            total_nodes += round_.nodes_recomputed
            flips = (
                "; flipped: " + ", ".join(round_.changed) if round_.changed else ""
            )
            print(
                f"round {round_.seq}: {len(round_.ops)} ops, dirty="
                f"{list(round_.dirty_fragments)}, sites={list(round_.sites_visited)}"
                f"/{total_sites}, {round_.traffic_bytes} bytes, "
                f"{round_.nodes_recomputed} nodes{flips}"
            )
        events = list(maintainer.changefeed)
        print(
            f"\n{args.rounds} update rounds: {total_bytes} bytes total "
            f"({total_bytes / max(1, args.rounds):.0f}/round), "
            f"{total_nodes} nodes recomputed, {len(events)} changefeed event(s)"
        )
        for event in events:
            print(
                f"  round {event.round_seq}: {event.name} "
                f"{event.old_answer} -> {event.new_answer}"
            )
        maintainer.close()
    return 0


def cmd_rebalance(args: argparse.Namespace) -> int:
    """Optimize placement for a query workload and enact it live."""
    from repro.core import QuerySession
    from repro.placement import Constraints, Workload, profile_update_stream

    tree = _load_tree(args.file)
    cluster = _build_cluster(tree, args.fragments, args.sites)
    rates = profile_update_stream(
        cluster, rounds=args.profile_rounds, seed=args.seed
    )
    print(
        f"document: {cluster.total_size()} nodes, {cluster.card()} fragments, "
        f"{len(cluster.sites())} sites; workload: {len(args.query)} queries, "
        f"update profile {dict(sorted(rates.items()))}"
    )
    capacity = args.capacity
    if capacity is None and args.max_sites is None:
        # Unconstrained, the optimum degenerates to "co-locate everything
        # with the coordinator"; default to 150% of the mean site load so
        # the default invocation shows a real trade-off.
        capacity = int(cluster.total_size() / max(1, len(cluster.sites())) * 1.5)
        print(f"(no constraints given: defaulting to --capacity {capacity})")
    constraints = Constraints(
        site_capacity=capacity,
        max_sites=args.max_sites,
        allow_splits=not args.moves_only,
        allow_merges=not args.moves_only,
    )
    with QuerySession(cluster, engine="parbox") as session:
        workload = Workload.from_queries(
            args.query, cache=session.cache, update_rates=rates
        )
        before = session.evaluate_many(args.query)
        watch = session.watch(args.query)
        outcome = session.rebalance(
            workload=workload, maintainer=watch, constraints=constraints
        )
        live_answers = tuple(watch.answers().values())
        watch.close()
        after = session.evaluate_many(args.query)
    plan = outcome.plan
    print(plan.describe())
    if not plan.is_noop():
        print(
            f"enacted live: {len(outcome.migrations)} migration(s), "
            f"{outcome.migration_bytes} bytes shipped"
        )
    agree = live_answers == after.answers == before.answers
    print(
        f"answers preserved through rebalance: {agree} "
        f"({sum(after.answers)}/{len(after.answers)} true)"
    )
    print(
        f"measured workload traffic: {before.bytes_total} -> {after.bytes_total} "
        f"bytes/epoch ({before.bytes_total - after.bytes_total:+d})"
    )
    return 0 if agree else 1


def _write_obs_artifacts(obs_dir: str, client, spans) -> None:
    """Scrape the gateway and write metrics + span artifacts to a dir."""
    from repro.obs.trace import SpanStore

    out = Path(obs_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_reply = client.metrics()
    (out / "metrics.txt").write_text(metrics_reply.text)
    (out / "metrics.json").write_text(json.dumps(metrics_reply.snapshot, indent=2))
    store = SpanStore()
    store.ingest_wire(spans)
    (out / "spans.json").write_text(store.export_json(indent=2))
    print(f"observability artifacts written to {out}/")


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the networked serving tier and serve until interrupted."""
    from repro.serving import SERVABLE_ENGINES, ServingCluster

    if args.engine.lower() not in SERVABLE_ENGINES:
        print(
            f"error: engine {args.engine!r} is not servable; "
            f"choose from {list(SERVABLE_ENGINES)}",
            file=sys.stderr,
        )
        return 2
    tree = _load_tree(args.file)
    cluster = _build_cluster(tree, args.fragments, args.sites)
    serving = ServingCluster(
        cluster,
        replicas=args.replicas,
        site_mode=args.site_mode,
        site_timeout=args.site_timeout,
        default_engine=args.engine,
        gateway_port=args.port,
    )
    serving.start()
    try:
        print(
            f"serving {cluster.total_size()} nodes / {cluster.card()} fragments "
            f"across {len(serving.sites)} {args.site_mode} site(s) "
            f"x{args.replicas} replica(s)"
        )
        for site_id, servers in sorted(serving.sites.items()):
            ports = ", ".join(str(server.port) for server in servers)
            print(f"  site {site_id}: port(s) {ports}")
        print(f"gateway: {serving.address}  (engine: {args.engine})")
        if args.check:
            with serving.client() as client:
                client.ping()
                reply = client.query(
                    ("[//a]", "[not //b]"), args.engine, trace=bool(args.obs_dir)
                )
                if args.obs_dir:
                    _write_obs_artifacts(args.obs_dir, client, reply.spans)
            print(
                f"self-check: answers={list(reply.answers)} "
                f"engine={reply.details.get('engine')} ok"
            )
            return 0
        print("serving; Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nstopping")
        return 0
    finally:
        serving.close()


def cmd_connect(args: argparse.Namespace) -> int:
    """Evaluate queries against a running gateway."""
    from repro.core import QuerySession

    spec = f"net:{args.address}" + (f"/{args.engine}" if args.engine else "")
    with QuerySession(None, engine=spec) as session:
        if args.trace:
            session.engine.trace_batches = True
        outcome = session.evaluate_many(args.query)
        spans = session.engine.last_spans if args.trace else ()
    batch = outcome.batches[0]
    print(
        f"gateway {args.address}: {len(args.query)} queries via "
        f"{batch.engine} in {len(outcome.batches)} batch(es)"
    )
    for text, answer, cost in zip(args.query, outcome.answers, outcome.per_query):
        shared = f"  (shared x{cost.shared_with + 1})" if cost.shared_with else ""
        print(f"  answer={str(answer):5s}  |q|={cost.qlist_len:<3d} {text}{shared}")
    print(
        f"per query (amortized): visits={outcome.visits_per_query:.2f}  "
        f"msgs={outcome.messages_per_query:.2f}  "
        f"bytes={outcome.bytes_per_query:.0f}  "
        f"[totals: visits={outcome.visits_total} msgs={outcome.messages_total} "
        f"bytes={outcome.bytes_total}]"
    )
    if args.trace:
        from repro.obs.trace import Span, render_spans

        print(render_spans([Span.from_wire(wire) for wire in spans]))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render an exported span file as an indented timeline."""
    from repro.obs.trace import load_spans, render_spans

    obj = json.loads(Path(args.file).read_text())
    spans = load_spans(obj)
    print(render_spans(spans, trace_id=args.trace_id))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Poll a gateway's metrics registry; print live serving vitals."""
    from repro.obs.metrics import histogram_percentiles
    from repro.serving import GatewayClient

    host, _, port_text = args.address.rpartition(":")
    if not host:
        print(f"error: expected HOST:PORT, got {args.address!r}", file=sys.stderr)
        return 2
    client = GatewayClient(host, int(port_text))
    try:
        previous: Optional[dict] = None
        for iteration in range(args.iterations):
            if iteration:
                time.sleep(args.interval)
            snapshot = client.metrics().snapshot

            def total(name: str, snap=None) -> float:
                entry = (snap if snap is not None else snapshot).get(name, {})
                return sum(entry.get("values", {}).values())

            requests = total("gateway_requests_total")
            rate = (
                (requests - total("gateway_requests_total", previous)) / args.interval
                if previous is not None
                else 0.0
            )
            latency = snapshot.get("gateway_request_seconds", {}).get("values", {})
            pct = histogram_percentiles(
                next(iter(latency.values()), {"buckets": [], "sum": 0.0, "count": 0}),
                (0.5, 0.95, 0.99),
            )
            inflight = snapshot.get("gateway_inflight", {}).get("values", {})
            events = snapshot.get("coordinator_events_total", {}).get("values", {})
            results = snapshot.get("resident_results_total", {}).get("values", {})
            hits = results.get("result=hit", 0)
            served = hits + results.get("result=miss", 0)

            def fmt(value: Optional[float]) -> str:
                return f"{value * 1000:.1f}ms" if value is not None else "-"

            print(
                f"requests={requests:.0f} ({rate:.1f}/s)  "
                f"shed={total('gateway_shed_total'):.0f}  "
                f"retries={events.get('event=retries', 0):.0f}  "
                f"repushes={events.get('event=repushes', 0):.0f}  "
                f"inflight={next(iter(inflight.values()), 0):.0f}  "
                f"memo={f'{hits / served:.0%}' if served else '-'}  "
                f"p50={fmt(pct[0.5])} p95={fmt(pct[0.95])} p99={fmt(pct[0.99])}"
            )
            previous = snapshot
    finally:
        client.close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Run (or re-analyze) the factorial load experiment."""
    from repro.loadgen import analyze, execute_table, render_deltas, table_for_scale

    scale = "quick" if args.quick else "default"
    out_dir = Path(args.out)
    run_table_path = out_dir / "run_table.csv"
    if args.analyze_only:
        if not run_table_path.exists():
            print(f"error: {run_table_path} not found; run without --analyze-only first",
                  file=sys.stderr)
            return 2
        # Scale is read from the CSV itself in analyze-only mode.
        scale = None
    else:
        table = table_for_scale(scale)
        print(table.describe())
        execute_table(
            table, out_dir, progress=print, trace_every=args.trace_every
        )
        print(f"artifacts written to {out_dir}/ (aggregate: {run_table_path})")
    result = analyze(
        run_table_path,
        baseline_path=Path(args.baseline) if args.baseline else None,
        scale=scale,
    )
    print(render_deltas(result["deltas"]))
    failures = result["failures"]
    if failures is None:
        if args.baseline:
            print(
                f"(no baseline entry for scale {result['scale']!r} in "
                f"{args.baseline}; gate skipped)"
            )
        return 0
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[PASS] regression gate vs {args.baseline} @ {result['scale']} scale")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    cluster = _build_cluster(tree, args.fragments, args.sites)
    qlist = build_qlist(normalize(parse_query(args.query)), source=args.query)
    selection = SelectionEngine(cluster).select(qlist)
    print(
        f"{len(selection.paths)} node(s) selected; "
        f"max visits/site = {selection.result.metrics.max_visits_per_site()}"
    )
    limit = args.limit if args.limit > 0 else len(selection.paths)
    root = tree.root
    for path in selection.paths[:limit]:
        node = root
        for index in path:
            node = node.children[index]
        text = f" {node.text!r}" if node.text else ""
        print(f"  /{'/'.join(map(str, path)) or '.'} -> <{node.label}>{text}")
    if limit < len(selection.paths):
        print(f"  ... {len(selection.paths) - limit} more")
    return 0


def cmd_fragment(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    decomposition = fragment_balanced(tree, args.fragments)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "root_fragment": decomposition.root_fragment_id,
        "fragments": {},
    }
    for fragment_id, fragment in decomposition.fragments.items():
        path = out_dir / f"{fragment_id}.xml"
        path.write_text(serialize(fragment.root, indent=2))
        manifest["fragments"][fragment_id] = {
            "file": path.name,
            "size": fragment.size(),
            "sub_fragments": fragment.sub_fragment_ids(),
        }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(
        f"wrote {decomposition.card()} fragments "
        f"({decomposition.total_size()} nodes) to {out_dir}/"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ParBoX: distributed Boolean XPath via partial evaluation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser("explain", help="show normal form and QList of a query")
    explain.add_argument("query")
    explain.set_defaults(func=cmd_explain)

    query = sub.add_parser("query", help="evaluate Boolean queries over an XML file")
    query.add_argument("file")
    query.add_argument("query", nargs="+", help="one or more queries (several = one batch)")
    query.add_argument("--fragments", type=int, default=4)
    query.add_argument("--sites", type=int, default=None)
    query.add_argument("--engine", default="parbox")
    query.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="with several queries: chunk them to B per broadcast (default: one batch)",
    )
    query.add_argument(
        "--executor",
        default="serial",
        choices=sorted(EXECUTOR_REGISTRY),
        help="site-execution strategy (default: serial)",
    )
    query.add_argument("--all-engines", action="store_true")
    query.add_argument("--trace", action="store_true")
    query.set_defaults(func=cmd_query)

    stream = sub.add_parser(
        "stream", help="maintain standing queries over a fragment-update stream"
    )
    stream.add_argument("file")
    stream.add_argument("query", nargs="+", help="standing queries to keep live")
    stream.add_argument("--fragments", type=int, default=4)
    stream.add_argument("--sites", type=int, default=None)
    stream.add_argument("--rounds", type=int, default=8, help="update batches to apply")
    stream.add_argument("--ops", type=int, default=4, help="updates per batch")
    stream.add_argument("--hot", type=int, default=1, help="hot fragments absorbing most updates")
    stream.add_argument(
        "--structural-every",
        type=int,
        default=0,
        help="every M-th batch leads with a split/merge (0 = never)",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--executor",
        default="serial",
        choices=sorted(EXECUTOR_REGISTRY),
        help="site-execution strategy for dirty-site refreshes",
    )
    stream.set_defaults(func=cmd_stream)

    rebalance = sub.add_parser(
        "rebalance", help="optimize fragment placement for a query workload"
    )
    rebalance.add_argument("file")
    rebalance.add_argument("query", nargs="+", help="the query workload to optimize for")
    rebalance.add_argument("--fragments", type=int, default=4)
    rebalance.add_argument("--sites", type=int, default=None)
    rebalance.add_argument(
        "--capacity", type=int, default=None, help="max nodes one site may store"
    )
    rebalance.add_argument(
        "--max-sites", type=int, default=None, help="max sites the plan may use"
    )
    rebalance.add_argument(
        "--profile-rounds",
        type=int,
        default=8,
        help="update-stream rounds to profile rates from",
    )
    rebalance.add_argument(
        "--moves-only",
        action="store_true",
        help="restrict the plan to moves (no split/merge)",
    )
    rebalance.add_argument("--seed", type=int, default=0)
    rebalance.set_defaults(func=cmd_rebalance)

    serve = sub.add_parser(
        "serve", help="boot the networked serving tier (gateway + site servers)"
    )
    serve.add_argument("file")
    serve.add_argument("--fragments", type=int, default=4)
    serve.add_argument("--sites", type=int, default=None)
    serve.add_argument("--port", type=int, default=0, help="gateway port (0 = OS-assigned)")
    serve.add_argument(
        "--site-mode",
        default="inline",
        choices=("inline", "process"),
        help="sites as in-process servers or real child processes",
    )
    serve.add_argument("--replicas", type=int, default=1, help="site servers per site")
    serve.add_argument("--engine", default="parbox", help="default engine for queries")
    serve.add_argument(
        "--site-timeout", type=float, default=10.0, help="per-site request deadline (s)"
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="boot, run a loopback self-query, then exit (smoke mode)",
    )
    serve.add_argument(
        "--obs-dir",
        default="",
        help="with --check: write metrics.txt/metrics.json/spans.json here",
    )
    serve.set_defaults(func=cmd_serve)

    connect = sub.add_parser("connect", help="evaluate queries against a running gateway")
    connect.add_argument("address", help="gateway HOST:PORT")
    connect.add_argument("query", nargs="+", help="one or more queries (one batch)")
    connect.add_argument(
        "--engine", default="", help="engine on the gateway (default: its configured one)"
    )
    connect.add_argument(
        "--trace", action="store_true", help="render the batch's cross-process span tree"
    )
    connect.set_defaults(func=cmd_connect)

    trace = sub.add_parser("trace", help="render an exported span file as a timeline")
    trace.add_argument("file", help="span JSON file (e.g. serve --obs-dir's spans.json)")
    trace.add_argument("--trace-id", default=None, help="render only this trace")
    trace.set_defaults(func=cmd_trace)

    top = sub.add_parser("top", help="poll a gateway's live serving metrics")
    top.add_argument("address", help="gateway HOST:PORT")
    top.add_argument("--interval", type=float, default=1.0, help="seconds between polls")
    top.add_argument("--iterations", type=int, default=5, help="polls before exiting")
    top.set_defaults(func=cmd_top)

    # "repro bench [...]" forwards verbatim to the harness in main()
    # (argparse.REMAINDER cannot pass through leading options); this
    # stub only makes the subcommand show up in --help.
    sub.add_parser(
        "bench",
        help="run the benchmark harness (forwards to python -m repro.bench)",
        add_help=False,
    )

    loadtest = sub.add_parser(
        "loadtest", help="open-loop factorial load experiment over the serving tier"
    )
    loadtest.add_argument(
        "--quick", action="store_true", help="the small CI-budget run table"
    )
    loadtest.add_argument(
        "--out", default="loadtest_out", help="artifact directory (default: loadtest_out)"
    )
    loadtest.add_argument(
        "--baseline",
        nargs="?",
        const="BENCH_loadtest.json",
        default=None,
        help="gate against a committed baseline (default path: BENCH_loadtest.json)",
    )
    loadtest.add_argument(
        "--analyze-only",
        action="store_true",
        help="skip collection; re-analyze --out's existing run_table.csv",
    )
    loadtest.add_argument(
        "--trace-every",
        type=int,
        default=5,
        help="trace every N-th request into the span sample (0 = never)",
    )
    loadtest.set_defaults(func=cmd_loadtest)

    select = sub.add_parser("select", help="select matching nodes (Section 8 extension)")
    select.add_argument("file")
    select.add_argument("query")
    select.add_argument("--fragments", type=int, default=4)
    select.add_argument("--sites", type=int, default=None)
    select.add_argument("--limit", type=int, default=20)
    select.set_defaults(func=cmd_select)

    fragment = sub.add_parser("fragment", help="cut a document into fragment files")
    fragment.add_argument("file")
    fragment.add_argument("--fragments", type=int, default=4)
    fragment.add_argument("--out", default="fragments_out")
    fragment.set_defaults(func=cmd_fragment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "bench":
        # Forward verbatim so harness options (--quick, --profile, ...)
        # reach the benchmark parser untouched.
        from repro.bench.__main__ import main as bench_main

        return bench_main(arguments[1:])
    argv = arguments
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
