"""The drivers: boot the program, load it, check every reply, measure.

Three kinds of workload share one closed-loop caller (`run_caller`):

* ``serve``  -- a ``ServingCluster`` in a subprocess, driven through
  ``GatewayClient`` by one caller (phase A) and then ``nproc`` callers
  (phase B);
* ``local``  -- ``QuerySession(engine="parbox", executor=<process>)`` in
  this process, one caller;
* ``stream`` -- ``session.watch(book)`` plus ``StreamMaintainer.apply``
  rounds with an ad-hoc read after every n-th round, one caller.

Load is closed loop by design: the real client is a caller that waits
for its reply, and with at most ``nproc`` connections an open-loop
schedule measures a queue in the generator, not in the gateway.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from repro.core.session import QuerySession
from repro.distsim.executors import ProcessSiteExecutor
from repro.obs import trace as obs_trace
from repro.obs.trace import Span, SpanStore, new_span_id
from repro.serving.client import GatewayClient
from repro.serving.protocol import metrics_from_wire
from repro.workloads.updates import update_stream

import layers
from gen import MIX_SEED, Inputs, Op, OpStream, build_cluster
from procs import Reference, cpu_seconds, peak_rss_mb, percentile

HERE = Path(__file__).resolve().parent
NPROC = os.cpu_count() or 1
#: Every n-th request of the traced pass carries ``trace=True``.
TRACE_EVERY = 5
#: Batches replayed layer by layer in the traced run (full scale, smoke).
REPLAY_BATCHES = {False: 5, True: 2}
#: ``setup_s`` is the median of at least BOOTS boots; a program that boots
#: in a fraction of a second is booted until BOOT_SECONDS are spent (at
#: most MAX_BOOTS times), because a short boot is the noisiest number here.
BOOTS, BOOT_SECONDS, MAX_BOOTS = 5, 2.5, 12
#: ``stream-mixed``: shape of the update stream (see ``update_stream``).
STREAM_SHAPE = dict(ops_per_round=4, hot_fragments=2, structural_every=16)
#: ``stream-mixed``: answers() is compared with recompute_from_scratch()
#: after every this-many rounds, and at the end.
RECOMPUTE_EVERY = 50


#: Phase B runs in segments this long, the reference probe timed between them.
SEGMENT_S = 0.1


class Series:
    """Durations in order, each with the reference probe's time next to it.

    ``cycle`` is the period with which the operations repeat (see
    `Reference.at_nominal_speed`).
    """

    def __init__(self, cycle: int = 1) -> None:
        self.seconds: list = []
        self.near: list = []
        self.cycle = cycle

    def add(self, seconds: float, near: float) -> None:
        self.seconds.append(seconds)
        self.near.append(near)

    def __len__(self) -> int:
        return len(self.seconds)

    def p50_ms(self) -> float:
        """Median duration, at nominal speed."""
        return Reference.at_nominal_speed(
            self.seconds, self.near, statistics.median, cycle=self.cycle
        ) * 1e3

    def mean_ms(self) -> float:
        """Mean duration, at nominal speed."""
        return Reference.at_nominal_speed(
            self.seconds, self.near, statistics.fmean, cycle=self.cycle
        ) * 1e3

    def ops_per_s(self) -> float:
        """Operations per second of operation time, at nominal speed."""
        return Reference.at_nominal_speed(
            self.seconds, self.near, lambda block: len(block) / sum(block),
            rate=True, cycle=self.cycle,
        )

    def each_median_s(self) -> float:
        """Median of the durations, each corrected on its own (the boots)."""
        return statistics.median(
            seconds / Reference.slowdown(near) for seconds, near in zip(self.seconds, self.near)
        )


class Phase(NamedTuple):
    timed: Series  # one latency per successful operation
    failed: int
    ledger_bytes: list  # per successful operation, in order

    @property
    def latencies(self) -> list:
        return self.timed.seconds

    @property
    def attempted(self) -> int:
        return len(self.timed) + self.failed


def boot_again(boots: list, once: bool) -> bool:
    """Whether the program should be booted (again), given the boot times so far."""
    if once:
        return not boots
    return len(boots) < BOOTS or (sum(boots) < BOOT_SECONDS and len(boots) < MAX_BOOTS)


def _report_failure(what: str) -> None:
    print(f"# FAILED operation: {what}", file=sys.stderr)


def reply_is_correct(answers, metrics, op: Op, sites: int) -> bool:
    """Oracle answers, one visit per site, serial-engine traffic."""
    if tuple(answers) != op.expected.answers:
        _report_failure(f"answers differ from the oracle for {op.queries!r}")
    elif len(metrics.visits) != sites or set(metrics.visits.values()) != {1}:
        _report_failure(f"site visits {dict(metrics.visits)!r} break one-visit-per-site")
    elif metrics.bytes_total != op.expected.ledger_bytes:
        _report_failure(
            f"ledger bytes {metrics.bytes_total} != serial engine's "
            f"{op.expected.ledger_bytes}"
        )
    else:
        return True
    return False


def run_caller(
    call: Callable[[Op, bool], object],
    unpack: Callable[[object], tuple],
    stream: OpStream,
    sites: int,
    probe: Optional[Reference],
    *,
    budget_s: float = 0.0,
    min_ops: int = 0,
    deadline: Optional[float] = None,
    trace_every: int = 0,
    on_traced: Optional[Callable] = None,
) -> Phase:
    """One closed-loop caller.

    Without ``deadline`` the phase ends once ``budget_s`` seconds of
    operation and probe time have been spent (and ``min_ops`` operations
    made); with it, at that wall-clock instant.  ``probe`` is timed after
    an operation; callers that run side by side get none and leave it to
    whoever started them.  Checking a reply and generating the next
    operation happen outside the timed call.
    """
    timed, ledger, failed, spent = Series(stream.inputs.spec.cycle), [], 0, 0.0
    while True:
        if deadline is not None:
            if time.perf_counter() >= deadline:
                break
        elif spent >= budget_s and len(timed) + failed >= min_ops:
            break
        op = stream.next()
        count = len(timed) + failed
        traced = bool(trace_every) and count % trace_every == 0
        epoch, t0 = time.time(), time.perf_counter()
        try:
            raw = call(op, traced)
        except Exception as error:  # noqa: BLE001 - the run goes on; the operation failed
            spent += time.perf_counter() - t0
            failed += 1
            _report_failure(f"{type(error).__name__}: {error}")
            continue
        elapsed = time.perf_counter() - t0
        reference_s = probe.near() if probe is not None else 0.0
        spent = spent + time.perf_counter() - t0
        answers, metrics, spans = unpack(raw)
        if not reply_is_correct(answers, metrics, op, sites):
            failed += 1
            continue
        timed.add(elapsed, reference_s)
        ledger.append(metrics.bytes_total)
        if traced and on_traced is not None:
            on_traced(epoch, elapsed, spans)
    return Phase(timed, failed, ledger)


def merge(phases) -> Phase:
    """Phases end to end (the ledger bytes are those of the first)."""
    timed = Series(phases[0].timed.cycle)
    for phase in phases:
        timed.seconds += phase.timed.seconds
        timed.near += phase.timed.near
    return Phase(timed, sum(phase.failed for phase in phases), phases[0].ledger_bytes)


def prefix_then_budget(
    call, unpack, stream: OpStream, sites: int, probe: Reference, *, budget_s: float,
    prefix_ops: int,
    at_prefix: Callable[[], None],
) -> Phase:
    """The workload's fixed leading operations, then whatever fits the budget.

    ``bytes_per_op`` and every count are taken over the prefix only (the
    returned ``ledger_bytes``; ``at_prefix`` snapshots the program's
    counters), so they repeat exactly for a seed however fast the host is.
    """
    head = run_caller(call, unpack, stream, sites, probe, min_ops=prefix_ops)
    at_prefix()
    rest = run_caller(
        call, unpack, stream, sites, probe, budget_s=budget_s - sum(head.latencies)
    )
    return merge([head, rest])


def traced_call(fn: Callable[[], object], name: str, store: Optional[SpanStore]):
    """``fn()`` under a harness span; the program's spans nest below it."""
    if store is None:
        return fn()
    obs_trace.install_spans(store)
    try:
        with obs_trace.span(name, "bench"):
            return fn()
    finally:
        obs_trace.uninstall_spans()


# ---------------------------------------------------------------------------
# serve-light, serve-heavy
# ---------------------------------------------------------------------------


class Server:
    """Handle on one ``server_main.py`` subprocess (same process group)."""

    def __init__(self, inputs: Inputs, smoke: bool, boot_timeout: float = 60.0) -> None:
        command = [
            sys.executable, str(HERE / "server_main.py"),
            "--workload", inputs.spec.name, "--seed", str(inputs.seed),
        ] + (["--smoke"] if smoke else [])
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], boot_timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server printed no READY line (got {line!r})")
        info = json.loads(line[len("READY "):])
        #: Spawn to listening, minus the server's own document generation.
        self.boot_s = time.perf_counter() - started - info["generate_s"]
        self.host, self.port, self.site_ports = info["host"], info["port"], info["sites"]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self) -> GatewayClient:
        return GatewayClient(self.host, self.port, timeout=30.0)

    def site_requests_total(self) -> float:
        total = 0.0
        for port in self.site_ports.values():
            with GatewayClient(self.host, port, timeout=10.0) as site:
                total += site.server_stats().get("site_requests_total", 0.0)
        return total

    def stop(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServeCaller:
    """One gateway connection; reconnects after a transport failure."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.client = server.client()

    def call(self, op: Op, traced: bool):
        try:
            return self.client.query(op.queries, trace=traced)
        except OSError:
            self.client.close()
            self.client = self.server.client()
            raise

    @staticmethod
    def unpack(reply) -> tuple:
        return reply.answers, metrics_from_wire(reply.metrics_obj), reply.spans

    def close(self) -> None:
        self.client.close()


def _boot_serve(inputs: Inputs, smoke: bool) -> tuple:
    """Program boot -> first oracle-verified reply."""
    server = Server(inputs, smoke)
    try:
        caller = ServeCaller(server)
        op = inputs.standing[0]
        started = time.perf_counter()
        first = caller.unpack(caller.call(op, False))
        first_s = time.perf_counter() - started
        ok = reply_is_correct(first[0], first[1], op, inputs.sites)
    except BaseException:
        server.stop()
        raise
    return server, caller, server.boot_s + first_s, ok


def _parallel_phase(
    server: Server, inputs: Inputs, probe: Reference, seconds: float, rate_hint: float
) -> tuple:
    """Phase B: ``NPROC`` callers side by side, in segments of SEGMENT_S.

    The reference probe cannot be timed while callers run, so it is timed
    between segments, and the segments are short because the host's speed
    changes within a second.  Program and callers share one CPU, which
    stays busy until the last caller of a segment has its reply, so
    cutting the phase into segments costs no throughput.  The returned
    `Series` spreads each segment's wall time evenly over its operations,
    beside the probe's time just before and just after the segment.
    """
    callers = [ServeCaller(server) for _ in range(NPROC)]
    streams = [OpStream(inputs, caller=index + 1) for index in range(NPROC)]
    for stream in streams:
        # Operations (and their oracle answers) exist before the clock
        # starts; a stream that still runs dry refills itself.
        stream.generate(int(rate_hint * seconds * 1.5) + 16)
    phases, paced, wall_s = [], Series(inputs.spec.cycle), 0.0

    def work(index: int, results: list, deadline: float) -> None:
        results[index] = run_caller(
            callers[index].call, callers[index].unpack, streams[index], inputs.sites,
            None, deadline=deadline,
        )

    cpu_before = (cpu_seconds(server.pid), time.process_time())
    end = time.perf_counter() + seconds
    before = probe.burst(3)
    while time.perf_counter() < end:
        results: list = [None] * NPROC
        started = time.perf_counter()
        threads = [
            threading.Thread(target=work, args=(index, results, started + SEGMENT_S))
            for index in range(NPROC)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = probe.burst(3)
        phases += results
        wall_s += wall
        done = sum(len(result.timed) for result in results)
        for _ in range(done):
            paced.add(wall / done, (before + after) / 2)
        before = after
    cpu = (cpu_seconds(server.pid) - cpu_before[0], time.process_time() - cpu_before[1])
    for caller in callers:
        caller.close()
    return merge(phases), paced, wall_s, cpu


def run_serve(
    inputs: Inputs, probe: Reference, seconds: float, trace: bool, smoke: bool, store: SpanStore
):
    spec = inputs.spec
    boots, failed, attempted = Series(), 0, 0
    server = caller = None
    try:
        while boot_again(boots.seconds, once=trace or smoke):
            before = probe.burst()
            if server is not None:
                caller.close()
                server.stop()
            server, caller, setup_s, ok = _boot_serve(inputs, smoke)
            boots.add(setup_s, (before + probe.burst()) / 2)
            attempted += 1
            failed += not ok
        # Let the plan cache, the compiled kernels and the site links fill.
        for op in inputs.standing[1:]:
            reply = caller.unpack(caller.call(op, False))
            attempted += 1
            failed += not reply_is_correct(reply[0], reply[1], op, inputs.sites)
        gc.collect()
        gc.freeze()

        stream = OpStream(inputs, caller=0)
        share = 0.2 if trace else 0.5
        counters = {"before": caller.client.server_stats()}

        def at_prefix() -> None:
            counters["rss_mb"] = peak_rss_mb(server.pid)
            if trace:
                counters["prefix"] = caller.client.server_stats()
                counters["site_requests"] = server.site_requests_total()

        phase_a = prefix_then_budget(
            caller.call, caller.unpack, stream, inputs.sites, probe,
            budget_s=seconds * share, prefix_ops=spec.prefix_ops, at_prefix=at_prefix,
        )
        phases = [phase_a]
        traces: list = []
        if trace:

            def keep(epoch: float, elapsed: float, wires) -> None:
                spans = [Span.from_wire(wire) for wire in wires]
                spans.append(
                    Span(spans[0].trace_id, new_span_id(), None, "client.query",
                         "bench", epoch, elapsed, {"workload": spec.name})
                )
                traces.append(spans)
                for span in spans:
                    store.record(span)

            traced_a = run_caller(
                caller.call, caller.unpack, stream, inputs.sites, probe,
                budget_s=seconds * share, trace_every=TRACE_EVERY, on_traced=keep,
            )
            phases.append(traced_a)
        rate = len(phase_a.latencies) / max(sum(phase_a.latencies), 1e-9)
        phase_b, paced_b, wall_b, (server_cpu, client_cpu) = _parallel_phase(
            server, inputs, probe, seconds * share, rate
        )
        phases.append(phase_b)
        counters["end"] = caller.client.server_stats()
    finally:
        if caller is not None:
            caller.close()
        if server is not None:
            server.stop()

    attempted += sum(phase.attempted for phase in phases)
    failed += sum(phase.failed for phase in phases)
    ops_b = len(phase_b.latencies)
    e2e = {
        "setup_s": boots.each_median_s(),
        "batch_latency_p50_ms": phase_a.timed.p50_ms(),
        # No update operation exists on a read-only workload; the driver
        # wants every end-to-end name on every workload, so the batch
        # latency stands in (README, "Metrics that do not apply").
        "update_latency_p50_ms": phase_a.timed.p50_ms(),
        "throughput_ops_s": paced_b.ops_per_s(),
        "bytes_per_op": statistics.fmean(phase_a.ledger_bytes),
        "peak_rss_mb": counters["rss_mb"],
    }
    if not trace:
        return e2e, {}, [], attempted, failed

    def in_prefix(key: str) -> float:
        return counters["prefix"].get(key, 0.0) - counters["before"].get(key, 0.0)

    hits = in_prefix("coordinator_plan_cache_total{coordinator=c0,result=hit}")
    misses = in_prefix("coordinator_plan_cache_total{coordinator=c0,result=miss}")
    hit_share = hits / (hits + misses)
    replayed = layers.replay(
        inputs.cluster, [op.queries for op in inputs.standing[:REPLAY_BATCHES[smoke]]],
        store, with_executor=False, calls=3 if smoke else layers.CALLS,
    )
    rtts = phase_a.latencies
    rtt_p50 = statistics.median(rtts)
    end = counters["end"]
    layer = {
        **replayed["metrics"],
        **layers.served_span_metrics(traces),
        "serving.client.rtt_p50_ms": rtt_p50 * 1e3,
        "serving.client.rtt_p95_ms": percentile(rtts, 0.95) * 1e3,
        "serving.client.rtt_p99_ms": percentile(rtts, 0.99) * 1e3,
        "serving.client.rtt_samples": len(rtts),
        "serving.gateway.shed_total": end.get("gateway_shed_total", 0.0),
        "serving.coordinator.plan_cache_hit_share": hit_share,
        "serving.coordinator.retries_total": end.get(
            "coordinator_events_total{event=retries}", 0.0),
        "serving.coordinator.repushes_total": end.get(
            "coordinator_events_total{event=repushes}", 0.0),
        "serving.site_server.requests_total": counters["site_requests"],
        "core.session.serving_tax_ratio": rtt_p50 * 1e3
        / replayed["metrics"]["core.session.local_batch_ms"],
        "proc.server_cpu_s_per_op": server_cpu / ops_b,
        "proc.client_cpu_s_per_op": client_cpu / ops_b,
        "proc.server_cpu_util": server_cpu / wall_b,
        "obs.trace_overhead_ratio": traced_a.timed.p50_ms() / phase_a.timed.p50_ms(),
    }
    parts = replayed["budget"]
    budget = [
        ("serving.protocol (client codec)", parts["client_codec_s"]),
        ("serving.protocol (gateway + site codec)", parts["server_codec_s"]),
        ("serving.routing", parts["route_s"]),
        ("xpath + core.plan (plan-cache misses)", (1 - hit_share) * parts["compile_and_plan_s"]),
        ("distsim.resident (site kernel, all sites)", parts["site_kernel_s"]),
        ("core.vectors (triplet decode + ledger)", parts["triplet_decode_s"] + parts["ledger_s"]),
        ("core.eval_st (solve)", parts["solve_s"]),
    ]
    budget.append(("unexplained (socket, event loop, thread hops, admission)",
                   rtt_p50 - sum(cost for _, cost in budget)))
    return e2e, layer, budget, attempted, failed


# ---------------------------------------------------------------------------
# local-chain, stream-mixed: the program runs in this process
# ---------------------------------------------------------------------------


class ProcessTree:
    """CPU and memory of this process and the executor's site workers."""

    def __init__(self) -> None:
        self.driver_cpu = time.process_time()
        self.worker_cpu = {pid: cpu_seconds(pid) for pid in self._workers()}

    @staticmethod
    def _workers() -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def used(self) -> tuple:
        """(driver CPU s, Σ worker CPU s) since construction, Σ peak RSS MB."""
        workers = self._workers()
        return (
            time.process_time() - self.driver_cpu,
            sum(cpu_seconds(pid) - self.worker_cpu.get(pid, 0.0) for pid in workers),
            peak_rss_mb(os.getpid()) + sum(peak_rss_mb(pid) for pid in workers),
        )


class LocalCaller:
    """A ``QuerySession`` over the process executor, one caller."""

    def __init__(self, inputs: Inputs, store: SpanStore) -> None:
        self.store = store
        self.executor = ProcessSiteExecutor(warm=inputs.cluster)
        self.session = QuerySession(inputs.cluster, engine="parbox", executor=self.executor)

    def call(self, op: Op, traced: bool):
        return traced_call(
            lambda: self.session.evaluate_batch(list(op.queries)),
            "bench.evaluate_batch", self.store if traced else None,
        )

    @staticmethod
    def unpack(result) -> tuple:
        return result.answers, result.metrics, ()

    def close(self) -> None:
        self.session.close()
        self.executor.close()


def _executor_metrics(stats: dict) -> dict:
    return {
        f"distsim.executors.{event}_total": stats.get(event, 0)
        for event in ("ships", "submits", "stale_retries", "respawns")
    }


def _local_budget(parts: dict, p50_s: float) -> list:
    budget = [
        ("core.plan", parts["plan_s"]),
        ("distsim.executors (dispatch, pipes, worker kernel, codec)", parts["run_jobs_s"]),
        ("core.vectors (ledger wire_bytes)", parts["ledger_s"]),
        ("core.eval_st (solve)", parts["solve_s"]),
    ]
    budget.append(("unexplained (session, run ledger)",
                   p50_s - sum(cost for _, cost in budget)))
    return budget


def run_local(
    inputs: Inputs, probe: Reference, seconds: float, trace: bool, smoke: bool, store: SpanStore
):
    spec = inputs.spec
    boots, failed, attempted = Series(), 0, 0
    caller = None
    try:
        while boot_again(boots.seconds, once=trace or smoke):
            before = probe.burst()
            if caller is not None:
                caller.close()
            started = time.perf_counter()
            caller = LocalCaller(inputs, store)
            op = inputs.standing[0]
            first = caller.unpack(caller.call(op, False))
            boots.add(time.perf_counter() - started, (before + probe.burst()) / 2)
            attempted += 1
            failed += not reply_is_correct(first[0], first[1], op, inputs.sites)
        for op in inputs.standing[1:]:
            reply = caller.unpack(caller.call(op, False))
            attempted += 1
            failed += not reply_is_correct(reply[0], reply[1], op, inputs.sites)
        gc.collect()
        gc.freeze()

        stream = OpStream(inputs, caller=0)
        share = 0.4 if trace else 1.0
        tree = ProcessTree()
        at_prefix: dict = {}
        phase = prefix_then_budget(
            caller.call, caller.unpack, stream, inputs.sites, probe,
            budget_s=seconds * share, prefix_ops=spec.prefix_ops,
            at_prefix=lambda: at_prefix.update(
                executor_stats=dict(caller.executor.stats), rss_mb=tree.used()[2]
            ),
        )
        driver_cpu, worker_cpu, _ = tree.used()
        phases = [phase]
        if trace:
            traced = run_caller(
                caller.call, caller.unpack, stream, inputs.sites, probe,
                budget_s=seconds * share, trace_every=TRACE_EVERY,
            )
            phases.append(traced)
    finally:
        if caller is not None:
            caller.close()

    attempted += sum(p.attempted for p in phases)
    failed += sum(p.failed for p in phases)
    ops = len(phase.latencies)
    e2e = {
        "setup_s": boots.each_median_s(),
        "batch_latency_p50_ms": phase.timed.p50_ms(),
        "update_latency_p50_ms": phase.timed.p50_ms(),  # stands in; see run_serve
        "throughput_ops_s": phase.timed.ops_per_s(),
        "bytes_per_op": statistics.fmean(phase.ledger_bytes),
        "peak_rss_mb": at_prefix["rss_mb"],
    }
    if not trace:
        return e2e, {}, [], attempted, failed
    replayed = layers.replay(
        inputs.cluster, [op.queries for op in inputs.standing[:REPLAY_BATCHES[smoke]]],
        store, with_executor=True, calls=3 if smoke else layers.CALLS,
    )
    p50 = statistics.median(phase.latencies)
    layer = {
        **replayed["metrics"],
        **_executor_metrics(at_prefix["executor_stats"]),
        "core.session.serving_tax_ratio": p50 * 1e3
        / replayed["metrics"]["core.session.local_batch_ms"],
        "proc.client_cpu_s_per_op": driver_cpu / ops,
        "proc.worker_cpu_s_per_op": worker_cpu / ops,
        "obs.trace_overhead_ratio": traced.timed.p50_ms() / phase.timed.p50_ms(),
    }
    return e2e, layer, _local_budget(replayed["budget"], p50), attempted, failed


def _standing_answers_hold(maintainer) -> bool:
    held = maintainer.answers()
    if held == maintainer.recompute_from_scratch():
        return True
    _report_failure("standing answers differ from recompute_from_scratch()")
    return False


def run_stream(
    inputs: Inputs, probe: Reference, seconds: float, trace: bool, smoke: bool, store: SpanStore
):
    spec = inputs.spec
    cluster, oracle = inputs.cluster, inputs.oracle
    boots, failed, attempted = Series(), 0, 0
    session = maintainer = None
    try:
        names = [f"subscription-{index}" for index in range(len(inputs.book))]
        expected_book = dict(zip(names, oracle.answers(inputs.book)))
        while boot_again(boots.seconds, once=trace or smoke):
            before = probe.burst()
            if session is not None:
                maintainer.close()
                session.close()
            started = time.perf_counter()
            session = QuerySession(cluster, engine="parbox", executor="process")
            maintainer = session.watch(inputs.book, names=names)
            standing = maintainer.answers()
            boots.add(time.perf_counter() - started, (before + probe.burst()) / 2)
            attempted += 1
            if standing != expected_book:
                failed += 1
                _report_failure("watch() answers differ from the oracle")
        gc.collect()
        gc.freeze()

        # Structural rounds recur every `structural_every` rounds, the read
        # batches every `standing` reads, one read per `read_every` rounds.
        rounds_per_cycle = STREAM_SHAPE["structural_every"]
        updates, reads = Series(rounds_per_cycle), Series(spec.standing)
        timed = Series(spec.standing * (spec.read_every + 1))
        rounds, read_bytes = [], []
        executor_stats: dict = {}
        tree = ProcessTree()
        budget_s = seconds * (0.5 if trace else 1.0)
        spent = 0.0
        ops_stream = update_stream(cluster, 10**9, seed=MIX_SEED, **STREAM_SHAPE)
        while spent < budget_s or len(rounds) < spec.prefix_ops:
            ops = next(ops_stream)  # drawn from the live document, untimed
            # The second half of a traced run records the program's spans.
            traced = trace and spent >= budget_s / 2 and len(rounds) % TRACE_EVERY == 0
            attempted += 1
            t0 = time.perf_counter()
            try:
                round_ = traced_call(
                    lambda: maintainer.apply(ops), "bench.apply", store if traced else None
                )
            except Exception as error:  # noqa: BLE001 - the run goes on; the operation failed
                failed += 1
                _report_failure(f"apply: {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - t0
            near = probe.near()
            updates.add(elapsed, near)
            timed.add(elapsed, near)
            spent += time.perf_counter() - t0
            rounds.append(round_)
            if len(rounds) % spec.read_every == 0:
                queries = inputs.standing[(len(rounds) // spec.read_every) % spec.standing].queries
                oracle.refresh()
                op = Op(queries, oracle.expect(queries))
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = traced_call(
                        lambda: session.evaluate_batch(list(queries)),
                        "bench.evaluate_batch", store if traced else None,
                    )
                except Exception as error:  # noqa: BLE001
                    failed += 1
                    _report_failure(f"read: {type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - t0
                near = probe.near()
                spent += time.perf_counter() - t0
                sites = len(cluster.source_tree().sites())
                if reply_is_correct(result.answers, result.metrics, op, sites):
                    reads.add(elapsed, near)
                    timed.add(elapsed, near)
                    if len(rounds) <= spec.prefix_ops:
                        read_bytes.append(result.metrics.bytes_total)
                else:
                    failed += 1
            if len(rounds) == spec.prefix_ops:
                executor_stats.update(session.engine.executor.stats)
                rss_mb = tree.used()[2]
            if len(rounds) % RECOMPUTE_EVERY == 0:
                failed += not _standing_answers_hold(maintainer)
        failed += not _standing_answers_hold(maintainer)
        driver_cpu, worker_cpu, _ = tree.used()
    finally:
        if maintainer is not None:
            maintainer.close()
        if session is not None:
            session.close()

    prefix_rounds = rounds[: spec.prefix_ops]
    ops = len(updates) + len(reads)
    e2e = {
        "setup_s": boots.each_median_s(),
        "batch_latency_p50_ms": reads.p50_ms(),
        # An update round costs 40, 75, 115 or 160 ms as it dirties 1, 2, 3
        # or 4 fragments, and the median round sits where two of these
        # modes meet (it read 39 or 53 ms as the blocks fell); the mean
        # over whole periods of the update stream does not.
        "update_latency_p50_ms": updates.mean_ms(),
        "throughput_ops_s": timed.ops_per_s(),
        "bytes_per_op": (sum(r.traffic_bytes for r in prefix_rounds) + sum(read_bytes))
        / (len(prefix_rounds) + len(read_bytes)),
        "peak_rss_mb": rss_mb,
    }
    if not trace:
        return e2e, {}, [], attempted, failed
    # The live document now depends on how many rounds fit the clock;
    # the same seed regenerates the untouched one, so counts repeat.
    pristine = build_cluster(spec, inputs.seed)
    replayed = layers.replay(
        pristine, [op.queries for op in inputs.standing[:REPLAY_BATCHES[smoke]]],
        store, with_executor=True, calls=3 if smoke else layers.CALLS,
    )
    half = len(updates) // 2
    read_p50 = statistics.median(reads.seconds)
    layer = {
        **replayed["metrics"],
        **_executor_metrics(executor_stats),
        **_stream_metrics(pristine, inputs, prefix_rounds),
        "core.session.serving_tax_ratio": read_p50 * 1e3
        / replayed["metrics"]["core.session.local_batch_ms"],
        "proc.client_cpu_s_per_op": driver_cpu / ops,
        "proc.worker_cpu_s_per_op": worker_cpu / ops,
        "obs.trace_overhead_ratio": statistics.median(updates.seconds[half:])
        / statistics.median(updates.seconds[:half]),
    }
    return e2e, layer, _local_budget(replayed["budget"], read_p50), attempted, failed


def _stream_metrics(copy, inputs: Inputs, rounds) -> dict:
    """Serial-executor replay of the same rounds + the live rounds' counts."""
    plain, structural = [], []
    with QuerySession(copy, engine="parbox") as session:
        maintainer = session.watch(inputs.book)
        for ops in update_stream(copy, len(rounds), seed=MIX_SEED, **STREAM_SHAPE):
            started = time.perf_counter()
            round_ = maintainer.apply(ops)
            elapsed = time.perf_counter() - started
            (structural if round_.structural else plain).append(elapsed)
        maintainer.close()

    def per_round(count: Callable) -> float:
        return statistics.fmean(count(round_) for round_ in rounds)

    return {
        "stream.apply_ms_serial": statistics.median(plain) * 1e3,
        "stream.structural_round_ms": statistics.median(structural) * 1e3 if structural else 0.0,
        "stream.dirty_sites_per_round": per_round(lambda r: len(r.sites_visited)),
        "stream.nodes_recomputed_per_round": per_round(lambda r: r.nodes_recomputed),
        "stream.slices_shipped_per_round": per_round(lambda r: r.slices_shipped),
        "stream.segments_resolved_per_round": per_round(lambda r: r.segments_resolved),
    }


RUNNERS = {"serve": run_serve, "local": run_local, "stream": run_stream}
