"""Per-layer numbers: stage-by-stage replay and span arithmetic.

The served path hides most layers behind one socket round trip, so the
traced run *replays* a sample of the workload's own batches through each
layer's public functions, in process, and times every call from here.
Nothing inside ``src/`` is instrumented; spans the program already
returns (``gateway.request``, ``dispatch:S``, ``site.execute``,
``session.batch``, ``worker.execute``) are only read.
"""

from __future__ import annotations

import multiprocessing
import pickle
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence

from repro.boolexpr.compose import DEFAULT_ALGEBRA
from repro.core.bottom_up import linearize_ground, site_bottom_up
from repro.core.eval_st import eval_st_many
from repro.core.plan import QueryCache, plan_batch
from repro.core.session import QuerySession
from repro.core.vectors import VectorTriplet, compact_with_buffers
from repro.distsim import transport
from repro.distsim.executors import (
    ProcessSiteExecutor,
    SiteJob,
    execute_site_job,
    resident_fragment_wire,
)
from repro.distsim.resident import ResidentSiteState, qlist_fingerprint
from repro.obs.trace import Span, SpanStore, new_span_id, new_trace_id
from repro.serving.protocol import (
    ExecuteReply,
    ExecuteRequest,
    Framer,
    QueryReply,
    QueryRequest,
    encode_message,
    metrics_to_wire,
)
from repro.serving.routing import HashRing, plan_fingerprint
from repro.xpath.qlist import QList

#: Timed calls per stage and batch.  A stage that has used up its time
#: cap stops after three calls, so pooled over the five sampled batches
#: every reported median still rests on at least fifteen samples.
CALLS = 15
STAGE_CAP_S = 0.1


# ---------------------------------------------------------------------------
# Span arithmetic over the program's own spans
# ---------------------------------------------------------------------------


def self_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append(span)
    result = {}
    for span in spans:
        end = span.start + span.duration
        covered, cursor = 0.0, span.start
        for child in sorted(children[span.span_id], key=lambda s: s.start):
            lo = max(cursor, child.start)
            hi = min(end, child.start + child.duration)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def served_span_metrics(traces: Iterable[Sequence[Span]]) -> dict[str, float]:
    """Medians (ms) over traced served batches, one span list per batch.

    Each list holds the harness's ``client.query`` span plus the
    program's ``gateway.request -> dispatch:S -> site.execute`` tree.
    A batch waits for its slowest site, so dispatch is taken as the
    max over sites; site execution is given as max and as sum (the sum
    adds spans that overlap while inline sites take turns on one
    interpreter lock, so it measures waiting as well as work).
    """
    rows = defaultdict(list)
    for spans in traces:
        own = self_seconds(spans)
        by_name = defaultdict(list)
        for span in spans:
            by_name[span.name.split(":")[0]].append(span)
        if not (by_name["client.query"] and by_name["gateway.request"]):
            continue
        client, gateway = by_name["client.query"][0], by_name["gateway.request"][0]
        rows["serving.client.outside_gateway_ms"].append(client.duration - gateway.duration)
        rows["serving.gateway.request_ms"].append(gateway.duration)
        rows["serving.gateway.self_ms"].append(own[gateway.span_id])
        if by_name["dispatch"]:
            slowest = max(by_name["dispatch"], key=lambda s: s.duration)
            rows["serving.coordinator.dispatch_ms"].append(slowest.duration)
            rows["serving.coordinator.dispatch_self_ms"].append(own[slowest.span_id])
        if by_name["site.execute"]:
            executes = [span.duration for span in by_name["site.execute"]]
            rows["serving.site_server.execute_max_ms"].append(max(executes))
            rows["serving.site_server.execute_sum_ms"].append(sum(executes))
    return {name: statistics.median(values) * 1e3 for name, values in rows.items()}


# ---------------------------------------------------------------------------
# Stage replay
# ---------------------------------------------------------------------------


class Stages:
    """Times calls into layer functions; one span per (batch, stage)."""

    def __init__(self, store: SpanStore, calls: int) -> None:
        self.store = store
        self.calls = calls
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.trace_id = ""
        self.root_id = ""

    def begin_batch(self, index: int) -> None:
        self.trace_id, self.root_id = new_trace_id(), new_span_id()
        self._batch_started = (time.time(), time.perf_counter(), index)

    def end_batch(self) -> None:
        epoch, started, index = self._batch_started
        self.store.record(
            Span(self.trace_id, self.root_id, None, "replay.batch", "bench",
                 epoch, time.perf_counter() - started, {"batch": index})
        )

    def time(self, name: str, fn: Callable[[], object], calls: int = 0):
        """Call ``fn`` up to ``calls`` times; returns the last result."""
        calls = calls or self.calls
        epoch = time.time()
        durations: list[float] = []
        while len(durations) < calls and (
            len(durations) < 3 or sum(durations) < STAGE_CAP_S
        ):
            started = time.perf_counter()
            result = fn()
            durations.append(time.perf_counter() - started)
        self.samples[name].extend(durations)
        self.store.record(
            Span(self.trace_id, new_span_id(), self.root_id, name, "replay", epoch,
                 statistics.median(durations), {"calls": len(durations), "stat": "median"})
        )
        return result

    def median(self, name: str) -> float:
        """Median seconds of a stage over every sampled batch (0 if unused)."""
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


class _Echo:
    """A thread echoing transport frames back over a ``multiprocessing.Pipe``."""

    def __init__(self) -> None:
        self.near, self._far = multiprocessing.Pipe()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            payload = transport.recv_payload(self._far)
            if payload is None:
                return
            transport.send_payload(self._far, payload)

    def roundtrip(self, payload) -> object:
        transport.send_payload(self.near, payload)
        return transport.recv_payload(self.near)

    def close(self) -> None:
        transport.send_payload(self.near, None)
        self._thread.join(timeout=5)
        self.near.close()
        self._far.close()


MESSAGE_KINDS = ("QueryRequest", "QueryReply", "ExecuteRequest", "ExecuteReply")

#: Reported metric -> (replayed stage, seconds-to-unit factor).
TIMED = {
    "xpath.compile_us": ("xpath.compile", 1e6),
    "core.plan.plan_batch_us": ("core.plan.plan_batch", 1e6),
    "serving.routing.route_us": ("serving.routing.route", 1e6),
    "distsim.resident.store_ms_per_fragment": ("distsim.resident.store", 1e3),
    "distsim.resident.run_ms": ("distsim.resident.run", 1e3),
    "core.bottom_up.linearize_ms_per_fragment": ("core.bottom_up.linearize", 1e3),
    "core.bottom_up.first_pass_ms": ("core.bottom_up.first_pass", 1e3),
    "core.bottom_up.steady_pass_ms": ("core.bottom_up.steady_pass", 1e3),
    "core.vectors.encode_us": ("core.vectors.encode", 1e6),
    "core.vectors.decode_us": ("core.vectors.decode", 1e6),
    "core.vectors.wire_bytes_us": ("core.vectors.wire_bytes", 1e6),
    "core.eval_st.solve_us": ("core.eval_st.solve", 1e6),
    "distsim.transport.roundtrip_us": ("distsim.transport.roundtrip", 1e6),
    "core.session.local_batch_ms": ("core.session.local_batch", 1e3),
}
#: Reported count -> key it is collected under (mean over the batches).
COUNTED = {
    "xpath.qlist_entries": "xpath.qlist_entries",
    "core.plan.unique_share": "core.plan.unique_share",
    "core.plan.combined_entries": "core.plan.combined_entries",
    "serving.protocol.request_bytes": "QueryRequest_bytes",
    "serving.protocol.reply_bytes": "QueryReply_bytes",
    "core.bottom_up.ground_share": "core.bottom_up.ground_share",
    "core.vectors.compact_bytes": "core.vectors.compact_bytes",
    "core.vectors.formula_nodes": "core.vectors.formula_nodes",
    "core.eval_st.variables": "core.eval_st.variables",
}


def _site_jobs(cluster, plan) -> list[SiteJob]:
    source_tree = cluster.source_tree()
    return [
        SiteJob(
            site_id,
            tuple(cluster.fragment(fid) for fid in source_tree.fragments_of(site_id)),
            plan.combined,
            DEFAULT_ALGEBRA,
            segments=plan.segments,
        )
        for site_id in source_tree.sites()
    ]


def replay(
    cluster,
    batches: Sequence[tuple],
    store: SpanStore,
    with_executor: bool,
    calls: int = CALLS,
) -> dict:
    """Replay ``batches`` layer by layer; returns per-layer metrics.

    Times are medians pooled over the batches; counts are means over
    the batches (they repeat exactly for a seed).  Keys ending in
    ``_s`` under ``"budget"`` are per-batch seconds the caller combines
    into the reconciliation.
    """
    source_tree = cluster.source_tree()
    root_site = source_tree.coordinator_site
    stages = Stages(store, calls)
    counts: dict[str, list[float]] = defaultdict(list)
    ring = HashRing(["c0", "c1"])
    echo = _Echo()
    serial = QuerySession(cluster, engine="parbox")
    executor = ProcessSiteExecutor(warm=cluster) if with_executor else None
    fragments = [cluster.fragment(fid) for fid in source_tree.fragment_ids()]
    calls_per_fragment = max(3, calls // len(fragments) + 1)

    try:
        # Residency work is per fragment, not per batch: time it once.
        stages.begin_batch(-1)
        for fragment in fragments:
            wire = resident_fragment_wire(fragment)
            stages.time(
                "distsim.resident.store",
                lambda: ResidentSiteState().store((wire,)),
                calls_per_fragment,
            )
            linear = stages.time(
                "core.bottom_up.linearize",
                lambda: linearize_ground(fragment),
                calls_per_fragment,
            )
            counts["core.bottom_up.ground_share"].append(1.0 if linear is not None else 0.0)
        stages.end_batch()

        states = {}
        for site_id in source_tree.sites():
            state = states[site_id] = ResidentSiteState()
            state.store(
                tuple(
                    resident_fragment_wire(cluster.fragment(fid))
                    for fid in source_tree.fragments_of(site_id)
                )
            )

        for index, queries in enumerate(batches):
            stages.begin_batch(index)
            texts = list(dict.fromkeys(queries))
            for text in texts:
                compiled = stages.time(
                    "xpath.compile", lambda: QueryCache().compile(text), calls=3
                )
                counts["xpath.qlist_entries"].append(len(compiled.qlist))
            cache = QueryCache()
            qlists = [cache.qlist(text) for text in queries]
            plan = stages.time("core.plan.plan_batch", lambda: plan_batch(qlists))
            counts["core.plan.unique_share"].append(plan.unique_count / len(queries))
            counts["core.plan.combined_entries"].append(len(plan.combined))
            stages.time(
                "serving.routing.route",
                lambda: ring.route(plan_fingerprint(queries)),
            )

            jobs = _site_jobs(cluster, plan)
            combined_obj = plan.combined.to_obj()
            fingerprint = qlist_fingerprint(plan.combined)
            # One QList object per site that nobody evaluated yet: the
            # first pass pays the kernel code generation a never-seen
            # query pays on every site.
            passes = [
                (
                    [
                        states[job.site_id].fragments[f.fragment_id][1:]
                        for f in job.fragments
                    ],
                    QList.from_obj(combined_obj),
                )
                for job in jobs
            ]

            def bottom_up_pass() -> None:
                for residents, qlist in passes:
                    site_bottom_up(residents, qlist, DEFAULT_ALGEBRA)

            stages.time("core.bottom_up.first_pass", bottom_up_pass, calls=1)
            stages.time("core.bottom_up.steady_pass", bottom_up_pass)
            runs = [
                (
                    job.site_id,
                    tuple((f.fragment_id, f.epoch) for f in job.fragments),
                    states[job.site_id].ensure_query(fingerprint, combined_obj),
                )
                for job in jobs
            ]
            results_by_site = stages.time(
                "distsim.resident.run",
                lambda: {
                    site_id: states[site_id].run(
                        site_id, refs, qlist, DEFAULT_ALGEBRA, plan.segments
                    )[0]
                    for site_id, refs, qlist in runs
                },
            )
            nodes_total = sum(
                result[1] for results in results_by_site.values() for result in results
            )
            counts["entry_ops"].append(nodes_total * len(plan.combined))

            compacts = [
                result[0] for results in results_by_site.values() for result in results
            ]
            triplets = stages.time(
                "core.vectors.decode",
                lambda: [VectorTriplet.from_compact(compact) for compact in compacts],
            )
            stages.time(
                "core.vectors.encode", lambda: [t.to_compact() for t in triplets]
            )
            stages.time(
                "core.vectors.wire_bytes", lambda: [t.wire_bytes() for t in triplets]
            )
            counts["core.vectors.compact_bytes"].append(
                sum(len(pickle.dumps(compact, protocol=5)) for compact in compacts)
            )
            counts["core.vectors.formula_nodes"].append(
                sum(t.formula_size() for t in triplets)
            )
            by_fragment = {t.fragment_id: t for t in triplets}
            answers = stages.time(
                "core.eval_st.solve",
                lambda: eval_st_many(by_fragment, source_tree, plan.answer_indices),
            )
            counts["core.eval_st.variables"].append(
                sum(len(t.variables()) for t in triplets)
            )

            local = stages.time(
                "core.session.local_batch", lambda: serial.evaluate_batch(list(queries))
            )
            if tuple(local.answers) != tuple(answers):
                raise RuntimeError("replayed stages disagree with the serial engine")
            stages.time(
                "core.session.site_jobs",
                lambda: [execute_site_job(job) for job in jobs],
            )

            root_job = next(job for job in jobs if job.site_id == root_site)
            messages = {
                "QueryRequest": QueryRequest(1, tuple(queries), ""),
                "QueryReply": QueryReply(
                    1,
                    tuple(bool(a) for a in answers),
                    metrics_to_wire(local.metrics),
                    {"engine": local.engine, "coordinator": "c0"},
                ),
                "ExecuteRequest": ExecuteRequest(
                    1,
                    root_site,
                    tuple(f.fragment_id for f in root_job.fragments),
                    tuple(tuple(entry) for entry in combined_obj),
                    DEFAULT_ALGEBRA.name,
                    plan.segments,
                    root_job.label,
                    tuple(f.epoch for f in root_job.fragments),
                ),
                "ExecuteReply": ExecuteReply(1, results_by_site[root_site], 0.001),
            }
            for kind, message in messages.items():
                frame = stages.time(
                    f"serving.protocol.encode.{kind}", lambda: encode_message(message)
                )
                stages.time(
                    f"serving.protocol.decode.{kind}", lambda: Framer().feed(frame)
                )
                counts[f"{kind}_bytes"].append(len(frame))

            reply_payload = (
                "ok",
                root_site,
                tuple(
                    (compact_with_buffers(compact), nodes, ops, segment_ops)
                    for compact, nodes, ops, segment_ops in results_by_site[root_site]
                ),
                0.001,
            )
            stages.time(
                "distsim.transport.roundtrip", lambda: echo.roundtrip(reply_payload)
            )

            if executor is not None:
                executor.run_jobs(jobs)  # the combined QList becomes resident
                worker_of = {fid: worker for worker, fid, _epoch in executor.ship_log}

                def run_jobs() -> float:
                    started = time.perf_counter()
                    outcomes = executor.run_jobs(jobs)
                    wall = time.perf_counter() - started
                    busy: dict[int, float] = defaultdict(float)
                    for job, outcome in zip(jobs, outcomes):
                        busy[worker_of[job.fragments[0].fragment_id]] += outcome.seconds
                    return wall - max(busy.values())

                for _ in range(3):
                    stages.samples["distsim.executors.overhead"].append(
                        stages.time("distsim.executors.run_jobs", run_jobs, calls=1)
                    )
            stages.end_batch()
    finally:
        echo.close()
        serial.close()
        if executor is not None:
            executor.close()

    def mean(name: str) -> float:
        return statistics.fmean(counts[name]) if counts[name] else 0.0

    median = stages.median
    metrics = {name: median(stage) * scale for name, (stage, scale) in TIMED.items()}
    metrics.update({name: mean(key) for name, key in COUNTED.items()})
    codec = {
        (direction, kind): median(f"serving.protocol.{direction}.{kind}")
        for direction in ("encode", "decode")
        for kind in MESSAGE_KINDS
    }
    for direction in ("encode", "decode"):
        metrics[f"serving.protocol.{direction}_us"] = 1e6 * sum(
            codec[direction, kind] for kind in MESSAGE_KINDS
        )
    run_s = median("distsim.resident.run")
    metrics["distsim.resident.ns_per_entry_op"] = run_s * 1e9 / mean("entry_ops")
    metrics["core.session.unattributed_ms"] = 1e3 * (
        median("core.session.local_batch")
        - median("core.plan.plan_batch")
        - median("core.session.site_jobs")
        - median("core.vectors.wire_bytes")
        - median("core.eval_st.solve")
    )
    if executor is not None:
        metrics["distsim.executors.run_jobs_ms"] = median("distsim.executors.run_jobs") * 1e3
        metrics["distsim.executors.overhead_ms"] = median("distsim.executors.overhead") * 1e3
    budget = {
        "compile_and_plan_s": median("core.plan.plan_batch")
        + median("xpath.compile") * len(batches[0]),
        "plan_s": median("core.plan.plan_batch"),
        "route_s": median("serving.routing.route"),
        "client_codec_s": codec["encode", "QueryRequest"] + codec["decode", "QueryReply"],
        "server_codec_s": codec["decode", "QueryRequest"]
        + codec["encode", "QueryReply"]
        + len(source_tree.sites())
        * sum(
            codec[direction, kind]
            for direction in ("encode", "decode")
            for kind in ("ExecuteRequest", "ExecuteReply")
        ),
        "site_kernel_s": run_s,
        "triplet_decode_s": median("core.vectors.decode"),
        "ledger_s": median("core.vectors.wire_bytes"),
        "solve_s": median("core.eval_st.solve"),
        "run_jobs_s": median("distsim.executors.run_jobs"),
    }
    return {"metrics": metrics, "budget": budget}
