"""The experiments of Section 6, one function per paper artifact.

Every function takes a :class:`BenchConfig` controlling scale.  The
``default()`` configuration reproduces the paper's sweeps at a reduced
data scale (documents are sized in scaled MB -- see
:mod:`repro.workloads.xmark`); ``quick()`` shrinks them further for the
test suite.  The network model's bandwidth is calibrated so that the
compute/communication balance of the 2006 testbed is preserved at the
reduced data scale (see EXPERIMENTS.md "Calibration").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.bench.reporting import ExperimentResult
from repro.boolexpr.compose import PaperAlgebra
from repro.core import (
    FullDistParBoXEngine,
    HybridParBoXEngine,
    LazyParBoXEngine,
    NaiveCentralizedEngine,
    NaiveDistributedEngine,
    ParBoXEngine,
)
from repro.distsim import Cluster, NetworkModel
from repro.distsim.network import KERNEL_SPEEDUP
from repro.fragments import fragment_balanced, fragment_per_node
from repro.stream import InsNode, Relabel, StreamMaintainer
from repro.workloads.queries import QUERY_SIZES, query_of_size, seal_query
from repro.workloads.topologies import bushy_ft3, chain_ft2, co_located, star_ft1
from repro.workloads.xmark import generate_xmark_site
from repro.xmltree import XMLNode


@dataclass(frozen=True)
class BenchConfig:
    """Scale knobs shared by all experiments."""

    #: Nodes per scaled MB (the document scale).
    nodes_per_mb: int = 160
    #: The "50 MB" constant of Experiments 1, 2 and 4.
    total_mb: float = 50.0
    #: Iterations of the fragment-count sweeps (paper: 10).
    iterations: int = 10
    #: Network: bandwidth reduced in proportion to the document scale so
    #: shipping costs keep their 2006 weight relative to computation,
    #: then scaled by the bitset kernel's measured compute speedup
    #: (``KERNEL_SPEEDUP``, the same single constant the distsim
    #: defaults use) so the compute/communication balance of the 2006
    #: testbed is preserved; the deterministic ledgers (visits / ops /
    #: bytes) are unaffected by either scaling.
    network: NetworkModel = NetworkModel(
        latency_seconds=0.0005 / KERNEL_SPEEDUP,
        bandwidth_bytes_per_second=4_000_000 * KERNEL_SPEEDUP,
    )
    #: Runs per data point; the best run is reported ("averaged over
    #: multiple runs" in the paper; min is the standard noise filter).
    repeats: int = 3
    seed: int = 2006

    @classmethod
    def default(cls) -> "BenchConfig":
        """The EXPERIMENTS.md scale."""
        return cls()

    @classmethod
    def quick(cls) -> "BenchConfig":
        """A miniature scale for CI and the test suite."""
        return cls(nodes_per_mb=24, total_mb=10.0, iterations=4)

    def with_network(self, cluster: Cluster) -> Cluster:
        """Swap the cluster's network model for the configured one."""
        cluster.network = self.network
        return cluster

    def timed(self, engine, qlist, key=None):
        """Evaluate ``repeats`` times; return the best result.

        "Best" defaults to smallest simulated elapsed time (the
        standard noise filter); pass ``key`` to minimize another
        measure, e.g. ``lambda r: r.wall_seconds`` for the executor
        comparison.
        """
        key = key or (lambda result: result.elapsed_seconds)
        best = None
        for _ in range(max(1, self.repeats)):
            candidate = engine.evaluate(qlist)
            if best is None or key(candidate) < key(best):
                best = candidate
        return best


# ---------------------------------------------------------------------------
# Experiment 1 -- Figures 7 and 8 (FT1 star, constant data, 1..N sites)
# ---------------------------------------------------------------------------


def fig7_parbox_vs_central(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 7: ParBoX vs NaiveCentralized, |QList| = 8."""
    config = config or BenchConfig.default()
    qlist = query_of_size(8)
    result = ExperimentResult(
        "fig7",
        "ParBoX vs NaiveCentralized (FT1, constant data, |QList|=8)",
        "machines",
        ["parbox_s", "central_s", "central_shipped_bytes", "parbox_bytes"],
    )
    for iteration in range(1, config.iterations + 1):
        cluster = config.with_network(
            star_ft1(iteration, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        parbox = config.timed(ParBoXEngine(cluster), qlist)
        central = config.timed(NaiveCentralizedEngine(cluster), qlist)
        result.add_row(
            iteration,
            parbox_s=parbox.elapsed_seconds,
            central_s=central.elapsed_seconds,
            central_shipped_bytes=central.details["shipped_bytes"],
            parbox_bytes=parbox.metrics.bytes_total,
        )
    return result


def fig8_query_size(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 8: ParBoX runtime for |QList| in {2, 8, 15, 23}."""
    config = config or BenchConfig.default()
    result = ExperimentResult(
        "fig8",
        "ParBoX scalability in query size (FT1, constant data)",
        "machines",
        [f"qlist_{size}_s" for size in QUERY_SIZES],
    )
    for iteration in range(1, config.iterations + 1):
        cluster = config.with_network(
            star_ft1(iteration, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        values = {}
        for size in QUERY_SIZES:
            run = config.timed(ParBoXEngine(cluster), query_of_size(size))
            values[f"qlist_{size}_s"] = run.elapsed_seconds
        result.add_row(iteration, **values)
    return result


# ---------------------------------------------------------------------------
# Experiment 2 -- Figures 9, 10, 11 (FT2 chain, targeted queries)
# ---------------------------------------------------------------------------


def _exp2(config: BenchConfig, target_of: Callable[[int], str], result: ExperimentResult):
    for iteration in range(1, config.iterations + 1):
        cluster = config.with_network(
            chain_ft2(iteration, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        qlist = seal_query(target_of(iteration))
        parbox = config.timed(ParBoXEngine(cluster), qlist)
        fulldist = config.timed(FullDistParBoXEngine(cluster), qlist)
        lazy = config.timed(LazyParBoXEngine(cluster), qlist)
        result.add_row(
            iteration,
            parbox_s=parbox.elapsed_seconds,
            fdparbox_s=fulldist.elapsed_seconds,
            lzparbox_s=lazy.elapsed_seconds,
            lazy_fragments=lazy.details["fragments_evaluated"],
            lazy_ops=lazy.metrics.qlist_ops,
            parbox_ops=parbox.metrics.qlist_ops,
        )
    return result


def fig9_qf0(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 9: query satisfied at the root fragment F0."""
    config = config or BenchConfig.default()
    result = ExperimentResult(
        "fig9",
        "qF0 on FT2 chain: ParBoX vs FullDist vs Lazy",
        "machines",
        ["parbox_s", "fdparbox_s", "lzparbox_s", "lazy_fragments", "lazy_ops", "parbox_ops"],
    )
    return _exp2(config, lambda n: "F0", result)


def fig10_qfn(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 10: query satisfied at the deepest fragment Fn."""
    config = config or BenchConfig.default()
    result = ExperimentResult(
        "fig10",
        "qFn on FT2 chain: ParBoX vs FullDist vs Lazy",
        "machines",
        ["parbox_s", "fdparbox_s", "lzparbox_s", "lazy_fragments", "lazy_ops", "parbox_ops"],
    )
    return _exp2(config, lambda n: f"F{n - 1}", result)


def fig11_qfmid(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 11: query satisfied mid-chain (F ceil(n/2))."""
    config = config or BenchConfig.default()
    result = ExperimentResult(
        "fig11",
        "qF(n/2) on FT2 chain: ParBoX vs FullDist vs Lazy",
        "machines",
        ["parbox_s", "fdparbox_s", "lzparbox_s", "lazy_fragments", "lazy_ops", "parbox_ops"],
    )
    return _exp2(config, lambda n: f"F{(n + 1) // 2 if n > 1 else 0}", result)


# ---------------------------------------------------------------------------
# Experiment 3 -- Figure 12 (FT3 bushy, growing data)
# ---------------------------------------------------------------------------


def fig12_data_scale(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 12: ParBoX runtime vs total data size, 4 query sizes."""
    config = config or BenchConfig.default()
    result = ExperimentResult(
        "fig12",
        "ParBoX scalability in data size (FT3)",
        "total_scaled_mb",
        ["tree_nodes"] + [f"qlist_{size}_s" for size in QUERY_SIZES],
    )
    steps = min(config.iterations, 10)
    for iteration in range(steps):
        ft3_iteration = round(iteration * 9 / max(steps - 1, 1))
        cluster = config.with_network(
            bushy_ft3(ft3_iteration, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        values: dict = {"tree_nodes": cluster.total_size()}
        for size in QUERY_SIZES:
            run = config.timed(ParBoXEngine(cluster), query_of_size(size))
            values[f"qlist_{size}_s"] = run.elapsed_seconds
        result.add_row(round(45 + 115 * ft3_iteration / 9.0, 1), **values)
    return result


# ---------------------------------------------------------------------------
# Experiment 4 -- Figure 13 (fragments per site)
# ---------------------------------------------------------------------------


def fig13_frags_per_site(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 13: one site, constant data, 1..N co-located fragments."""
    config = config or BenchConfig.default()
    qlist = query_of_size(8)
    result = ExperimentResult(
        "fig13",
        "ParBoX with varying fragments per site (constant cumulative data)",
        "fragments",
        ["parbox_s", "visits", "nodes"],
    )
    for iteration in range(1, config.iterations + 1):
        cluster = config.with_network(
            co_located(iteration, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        run = config.timed(ParBoXEngine(cluster), qlist)
        result.add_row(
            iteration,
            parbox_s=run.elapsed_seconds,
            visits=run.metrics.max_visits_per_site(),
            nodes=run.metrics.nodes_processed,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 4 -- measured validation of the complexity summary table
# ---------------------------------------------------------------------------


def fig4_validation(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 4 (measured): visits / computation / communication per algorithm.

    Workload: the FT2 chain with two fragments co-located per site, so
    the per-fragment vs per-site visit distinction shows.
    """
    config = config or BenchConfig.default()
    cluster = config.with_network(
        chain_ft2(6, config.total_mb / 2, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
    )
    # Co-locate pairs: F1 with F2, F3 with F4 (S2 and S4 then hold 2 each).
    cluster.move_fragment("F2", cluster.site_of("F1"))
    cluster.move_fragment("F4", cluster.site_of("F3"))
    qlist = query_of_size(8)

    result = ExperimentResult(
        "fig4",
        "Measured algorithm summary (FT2 chain, 2 fragments/site on 2 sites)",
        "algorithm",
        ["max_visits_per_site", "qlist_ops", "bytes_total", "elapsed_s"],
    )
    engines = [
        NaiveCentralizedEngine(cluster),
        NaiveDistributedEngine(cluster),
        ParBoXEngine(cluster),
        HybridParBoXEngine(cluster),
        FullDistParBoXEngine(cluster),
        LazyParBoXEngine(cluster),
    ]
    for engine in engines:
        run = engine.evaluate(qlist)
        result.add_row(
            engine.name,
            max_visits_per_site=run.metrics.max_visits_per_site(),
            qlist_ops=run.metrics.qlist_ops,
            bytes_total=run.metrics.bytes_total,
            elapsed_s=run.elapsed_seconds,
        )
    return result


# ---------------------------------------------------------------------------
# Section 4 -- Hybrid ParBoX crossover (added experiment)
# ---------------------------------------------------------------------------


def sec4_hybrid_crossover(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Communication of ParBoX vs NaiveCentralized vs Hybrid as card(F) grows.

    Sweeps fragmentation granularity over one fixed document up to the
    pathological one-fragment-per-node decomposition; Hybrid must track
    the cheaper of the two around the |T|/|q| tipping point.
    """
    config = config or BenchConfig.default()
    tree = generate_xmark_site(
        config.total_mb / 10, seed=config.seed, nodes_per_mb=config.nodes_per_mb
    )
    qlist = query_of_size(8)
    size = tree.size()
    counts = sorted({2, 4, size // 16, size // 8, size // 4, size // 2, size} - {0, 1})
    result = ExperimentResult(
        "sec4-hybrid",
        f"Hybrid crossover (|T|={size}, |QList|=8, tipping at card(F)={size // 8})",
        "card_F",
        ["parbox_bytes", "central_bytes", "hybrid_bytes", "hybrid_strategy"],
    )
    for count in counts:
        if count == size:
            ftree = fragment_per_node(tree)
        else:
            ftree = fragment_balanced(tree, count)
        cluster = config.with_network(Cluster.one_site_per_fragment(ftree))
        parbox = ParBoXEngine(cluster).evaluate(qlist)
        central = NaiveCentralizedEngine(cluster).evaluate(qlist)
        hybrid = HybridParBoXEngine(cluster).evaluate(qlist)
        result.add_row(
            ftree.card(),
            parbox_bytes=parbox.metrics.bytes_total,
            central_bytes=central.metrics.bytes_total,
            hybrid_bytes=hybrid.metrics.bytes_total,
            hybrid_strategy=hybrid.details["strategy"],
        )
    return result


# ---------------------------------------------------------------------------
# Section 5 -- incremental maintenance bounds (added experiment)
# ---------------------------------------------------------------------------


def sec5_incremental(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Maintenance cost vs re-evaluation as the data grows.

    The paper claims maintenance traffic depends on neither |T| nor the
    update size; re-evaluation (ParBoX) computation costs |T|
    (``tree_nodes``, counted after the insert).
    """
    config = config or BenchConfig.default()
    qlist = query_of_size(8)
    result = ExperimentResult(
        "sec5-incremental",
        "Incremental maintenance vs ParBoX re-evaluation",
        "total_scaled_mb",
        [
            "maint_bytes",
            "maint_nodes",
            "scratch_nodes",
            "tree_nodes",
            "maint_sites",
            "scratch_sites",
        ],
    )
    steps = min(config.iterations, 5)
    for step in range(steps):
        scale = config.total_mb * (1 + step) / steps
        cluster = config.with_network(
            star_ft1(5, scale, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        with StreamMaintainer(cluster) as maintainer:
            maintainer.subscribe("view", qlist)
            target = cluster.fragment("F3").root
            report = maintainer.apply(
                [InsNode("F3", target.node_id, "note", text="update")]
            )
        scratch = ParBoXEngine(cluster).evaluate(qlist)
        result.add_row(
            round(scale, 1),
            maint_bytes=report.traffic_bytes,
            maint_nodes=report.nodes_recomputed,
            scratch_nodes=scratch.metrics.nodes_processed,
            tree_nodes=cluster.total_size(),
            maint_sites=len(report.sites_visited),
            scratch_sites=len(scratch.metrics.visits),
        )
    return result


# ---------------------------------------------------------------------------
# Executor backends -- simulated vs real-parallel elapsed (added experiment)
# ---------------------------------------------------------------------------


def executors_realtime(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Site-execution strategies side by side on one ParBoX workload.

    The simulated cost ledger (visits, traffic, critical-path elapsed)
    is executor-independent by construction; what changes is how long
    the site computations *really* take end to end.  ``sim_elapsed_s``
    is the simulated critical path, ``wall_s`` the measured wall clock
    of the computation phases, ``busy_s`` the serial-equivalent sum of
    per-site busy time and ``speedup_x = busy_s / wall_s`` the realized
    concurrency (1x for serial; bounded by the GIL for threads on this
    pure-Python workload; true parallelism for processes, which pay a
    per-batch wire-serialization toll instead).
    """
    from repro.distsim.executors import EXECUTOR_REGISTRY, resolve_executor

    config = config or BenchConfig.default()
    qlist = query_of_size(8)
    sites = max(4, min(config.iterations, 8))
    cluster = config.with_network(
        star_ft1(sites, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
    )
    result = ExperimentResult(
        "executors",
        f"Simulated vs real-parallel elapsed per executor (ParBoX, FT1, {sites} sites)",
        "executor",
        ["answer", "sim_elapsed_s", "wall_s", "busy_s", "speedup_x", "critical_site"],
    )
    for name in sorted(EXECUTOR_REGISTRY):
        with resolve_executor(name) as executor:
            engine = ParBoXEngine(cluster, executor=executor)
            best = config.timed(engine, qlist, key=lambda r: r.wall_seconds)
        metrics = best.metrics
        result.add_row(
            name,
            answer=best.answer,
            sim_elapsed_s=best.elapsed_seconds,
            wall_s=metrics.wall_seconds,
            busy_s=metrics.compute_seconds_total,
            speedup_x=round(metrics.parallel_speedup(), 2),
            critical_site=metrics.critical_site or "",
        )
    return result


# ---------------------------------------------------------------------------
# Batching -- traffic-per-query amortization (added experiment)
# ---------------------------------------------------------------------------


def batching_amortization(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Traffic per query vs batch size: the multi-query amortization curve.

    A fixed stream of 32 pub/sub subscriptions (drawn from a 12-query
    pool, so popular subscriptions recur) is evaluated through a
    :class:`~repro.core.session.QuerySession` at increasing batch
    sizes.  Costs are deterministic, so the curve is exact: per-query
    bytes fall as batches grow because (a) each batch costs one
    broadcast and one reply per site instead of N, and (b) the planner
    deduplicates repeated subscriptions within a batch -- the larger
    the batch, the more of the stream collapses.  ``answers_true`` must
    not move: batching changes costs, never answers.
    """
    from repro.core import QuerySession
    from repro.workloads.pubsub import subscription_texts

    config = config or BenchConfig.default()
    sites = max(4, min(config.iterations, 6))
    cluster = config.with_network(
        star_ft1(sites, config.total_mb, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
    )
    texts = subscription_texts(32, seed=config.seed)
    result = ExperimentResult(
        "batching",
        f"Per-query cost amortization vs batch size (ParBoX, FT1, {sites} sites, "
        f"32 subscriptions)",
        "batch_size",
        [
            "bytes_per_query",
            "visits_per_query",
            "messages_per_query",
            "combined_entries",
            "duplicates_collapsed",
            "answers_true",
        ],
    )
    for batch_size in (1, 2, 4, 8, 16, 32):
        with QuerySession(cluster, engine="parbox", batch_size=batch_size) as session:
            outcome = session.evaluate_many(texts)
        result.add_row(
            batch_size,
            bytes_per_query=outcome.bytes_per_query,
            visits_per_query=outcome.visits_per_query,
            messages_per_query=outcome.messages_per_query,
            # Read from the evaluated batches themselves, not a re-plan.
            combined_entries=sum(
                batch.details["combined_entries"] for batch in outcome.batches
            ),
            duplicates_collapsed=sum(
                batch.details["duplicates_collapsed"] for batch in outcome.batches
            ),
            answers_true=sum(outcome.answers),
        )
    return result


# ---------------------------------------------------------------------------
# Stream -- continuous-query maintenance bounds (added experiment)
# ---------------------------------------------------------------------------


def stream_maintenance(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Per-update maintenance cost of a standing query book as |T| grows.

    A fixed book of subscriptions (pub/sub pool + one probe query per
    updatable fragment) stands on a 6-fragment FT1 star whose document
    size sweeps upward.  Each sweep point applies three update batches
    dirtying 1, 2 and 4 fragments (each batch toggles a ``<seal>``
    probe, so every dirty fragment genuinely ships a changed slice) and
    records the per-batch maintenance traffic.

    Section 5's bound, extended to the whole book: traffic depends on
    the *number of dirty fragments* and the query sizes -- never on
    ``|T|`` -- and only dirty fragments' sites are contacted.  The
    ``agree`` column checks the incremental answers bitwise against a
    from-scratch ParBoX batch evaluation of the same plan.
    """
    from repro.workloads.pubsub import subscription_texts

    config = config or BenchConfig.default()
    sites = 6
    probe_fragments = ["F1", "F2", "F3", "F4"]
    result = ExperimentResult(
        "stream",
        f"Continuous-query maintenance vs document size (FT1, {sites} sites)",
        "tree_nodes",
        [
            "bytes_1frag",
            "bytes_2frag",
            "bytes_4frag",
            "dirty_sites_4frag",
            "total_sites",
            "nodes_recomputed_1frag",
            "agree",
        ],
    )
    steps = min(config.iterations, 5)
    for step in range(steps):
        scale = config.total_mb * (1 + step) / steps
        cluster = config.with_network(
            star_ft1(sites, scale, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )
        maintainer = StreamMaintainer(cluster)
        for index, text in enumerate(subscription_texts(12, seed=config.seed)):
            maintainer.subscribe(f"sub-{index}", text)
        for fragment_id in probe_fragments:
            maintainer.subscribe(
                f"probe-{fragment_id}", f'[//seal = "seal-{fragment_id}-hot"]'
            )
        seals = {
            fragment_id: cluster.fragment(fragment_id).root.find_first(
                lambda node: node.label == "seal"
            )
            for fragment_id in probe_fragments
        }
        hot = {fragment_id: False for fragment_id in probe_fragments}

        rounds = {}
        for count in (1, 2, 4):
            batch = []
            for fragment_id in probe_fragments[:count]:
                hot[fragment_id] = not hot[fragment_id]
                suffix = "-hot" if hot[fragment_id] else ""
                batch.append(
                    Relabel(
                        fragment_id,
                        seals[fragment_id].node_id,
                        text=f"seal-{fragment_id}{suffix}",
                    )
                )
            rounds[count] = maintainer.apply(batch)

        scratch = ParBoXEngine(cluster).evaluate_many(maintainer.plan()).answers
        result.add_row(
            cluster.total_size(),
            bytes_1frag=rounds[1].traffic_bytes,
            bytes_2frag=rounds[2].traffic_bytes,
            bytes_4frag=rounds[4].traffic_bytes,
            dirty_sites_4frag=len(rounds[4].sites_visited),
            total_sites=sites,
            nodes_recomputed_1frag=rounds[1].nodes_recomputed,
            agree=tuple(maintainer.answers().values()) == scratch,
        )
    return result


# ---------------------------------------------------------------------------
# Placement -- workload-aware optimizer vs balanced-random (added experiment)
# ---------------------------------------------------------------------------


def placement_optimizer(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Optimizer-chosen placement vs workload-blind baselines.

    One FT3 bushy document (8 uneven fragments) is placed four ways on
    capacity-bounded sites: fully ``spread`` (one site per fragment),
    two ``balanced-random`` assignments (node-balanced but blind to the
    workload), and ``optimized`` -- the placement the
    :mod:`repro.placement` optimizer chooses for the actual workload
    (a pub/sub subscription book plus an update profile hot on F4/F5),
    restricted to moves so the same assignment transfers onto every
    fresh document.

    Per candidate the *same* deterministic workload epoch is measured:
    one batched evaluation of the book plus four update rounds through
    a standing :class:`~repro.stream.maintainer.StreamMaintainer` (seal
    toggles on the hot fragments, so changed slices genuinely ship).
    The ``optimized`` row is special: its placement is enacted **live**
    -- the cluster starts at ``random-1``, the book stands via
    ``watch()``, and ``QuerySession.rebalance`` migrates the data under
    it -- so its ``agree`` column additionally certifies bitwise answer
    stability *through* the migration, and ``migration_bytes`` meters
    what the move really shipped.  All costs are deterministic; the
    shape check asserts the optimizer strictly beats balanced-random on
    predicted and measured cost and that predicted cost *ranks*
    candidates the way measured cost does.
    """
    from repro.core import ParBoXEngine as Oracle, QuerySession
    from repro.core.estimates import Catalog, estimate_workload
    from repro.distsim import Cluster
    from repro.fragments import Placement
    from repro.placement import Constraints, Workload, balanced_random_placement
    from repro.workloads.pubsub import subscription_texts

    config = config or BenchConfig.default()
    site_ids = [f"S{i}" for i in range(4)]
    update_rounds = 4
    #: updates per epoch: F4 toggled every round, F5 every second round.
    hot_schedule = {"F4": 1, "F5": 2}  # fragment -> toggle every n-th round
    rates = {
        fragment_id: update_rounds / every for fragment_id, every in hot_schedule.items()
    }

    def build() -> Cluster:
        return config.with_network(
            bushy_ft3(0, seed=config.seed, nodes_per_mb=config.nodes_per_mb)
        )

    base = build()
    fragment_ids = sorted(base.fragmented_tree.fragments)
    # Headroom for workload-aware co-location: enough that the
    # coordinator site can absorb the hot fragments, not enough to
    # collapse the cluster onto one site.
    capacity = int(base.total_size() / len(site_ids) * 1.9)
    texts = subscription_texts(12, seed=config.seed) + [
        f'[//seal = "seal-{fragment_id}-hot"]' for fragment_id in hot_schedule
    ]
    workload = Workload.from_queries(texts, update_rates=rates)
    constraints = Constraints(
        site_capacity=capacity,
        max_sites=len(site_ids),
        allow_splits=False,
        allow_merges=False,
    )

    # The "optimized" candidate has no precomputed assignment: its
    # cluster starts at random-1 and session.rebalance() runs the one
    # and only optimizer search live, under the standing book.
    candidates: dict[str, Optional[dict[str, str]]] = {
        "spread": {fid: f"T{i}" for i, fid in enumerate(fragment_ids)},
        "random-1": dict(
            balanced_random_placement(base.fragmented_tree, site_ids, seed=1).items()
        ),
        "random-2": dict(
            balanced_random_placement(base.fragmented_tree, site_ids, seed=2).items()
        ),
        "optimized": None,
    }

    def toggle_batch(cluster: Cluster, seals: dict, hot: dict, round_index: int):
        batch = []
        for fragment_id, every in hot_schedule.items():
            if round_index % every:
                continue
            hot[fragment_id] = not hot[fragment_id]
            suffix = "-hot" if hot[fragment_id] else ""
            batch.append(
                Relabel(
                    fragment_id,
                    seals[fragment_id].node_id,
                    text=f"seal-{fragment_id}{suffix}",
                )
            )
        return batch

    def measure_epoch(session: QuerySession, maintainer) -> tuple[int, int, bool]:
        """One workload epoch: (query bytes, update bytes, bitwise agreement)."""
        cluster = session.cluster
        query_bytes = session.evaluate_batch(texts).metrics.bytes_total
        seals = {
            fragment_id: cluster.fragment(fragment_id).root.find_first(
                lambda node: node.label == "seal"
            )
            for fragment_id in hot_schedule
        }
        hot = {fragment_id: False for fragment_id in hot_schedule}
        update_bytes = 0
        agree = True
        with Oracle(cluster) as oracle:
            for round_index in range(update_rounds):
                round_ = maintainer.apply(toggle_batch(cluster, seals, hot, round_index))
                update_bytes += round_.traffic_bytes
                live = tuple(maintainer.answers().values())
                agree = agree and live == oracle.evaluate_many(maintainer.plan()).answers
        return query_bytes, update_bytes, agree

    result = ExperimentResult(
        "placement",
        f"Workload-aware placement vs balanced-random (FT3, |T|={base.total_size()}, "
        f"{len(site_ids)} sites, capacity {capacity})",
        "candidate",
        [
            "predicted_terms",
            "measured_bytes",
            "query_bytes",
            "update_bytes",
            "max_site_load",
            "capacity_ok",
            "agree",
            "migration_bytes",
        ],
    )

    reference_answers = None
    enacted_plan = None
    for name, assignment in candidates.items():
        live_rebalance = assignment is None
        initial = candidates["random-1"] if live_rebalance else assignment
        cluster = config.with_network(
            Cluster(build().fragmented_tree, Placement(initial))
        )
        migration_bytes = 0
        agree = True
        with QuerySession(cluster, engine="parbox") as session:
            maintainer = session.watch(texts)
            if live_rebalance:
                # Enact the optimizer's plan under the standing book:
                # answers must not move while the data does.
                answers_before = tuple(maintainer.answers().values())
                outcome = session.rebalance(
                    workload=workload, maintainer=maintainer, constraints=constraints
                )
                enacted_plan = outcome.plan
                migration_bytes = outcome.migration_bytes
                agree = tuple(maintainer.answers().values()) == answers_before
            query_bytes, update_bytes, rounds_agree = measure_epoch(session, maintainer)
            agree = agree and rounds_agree
            answers = tuple(maintainer.answers().values())
            maintainer.close()
        if reference_answers is None:
            reference_answers = answers
        agree = agree and answers == reference_answers  # placement never moves answers
        estimate = estimate_workload(
            Catalog.from_cluster(cluster), workload.query_mix(), rates
        )
        result.add_row(
            name,
            predicted_terms=round(estimate.total(), 1),
            measured_bytes=query_bytes + update_bytes,
            query_bytes=query_bytes,
            update_bytes=update_bytes,
            max_site_load=estimate.max_site_load,
            capacity_ok=estimate.max_site_load <= capacity,
            agree=agree,
            migration_bytes=migration_bytes,
        )
    if enacted_plan is not None:
        result.note(
            f"plan: {len(enacted_plan)} move(s), predicted "
            f"{enacted_plan.before.total():.0f} -> "
            f"{enacted_plan.after.total():.0f} terms/epoch"
        )
    return result


# ---------------------------------------------------------------------------
# Ablation -- formula canonicalization (DESIGN.md Section 5)
# ---------------------------------------------------------------------------


def _deep_virtual_chain(fragments: int, depth: int) -> Cluster:
    """A chain of fragments whose virtual leaf sits ``depth`` levels deep.

    When the virtual node is buried, its variables are re-composed once
    per ancestor level (the DV update of Fig. 3(b) line 17), so a
    non-canonicalizing composition duplicates sub-formulas at every
    level -- the workload where canonicalization earns the paper's
    ``O(card(F_j))`` entry-size bound.
    """
    from repro.fragments import Fragment, FragmentedTree, Placement

    store: dict[str, Fragment] = {}
    for index in range(fragments):
        root = XMLNode("wrap")
        node = root
        for _ in range(depth - 1):
            node = node.add_child(XMLNode("wrap"))
        if index + 1 < fragments:
            # Intermediate fragments carry no local match: their values
            # stay residual formulas, which is what the two algebras
            # treat differently.
            node.add_child(XMLNode.virtual(f"F{index + 1}"))
        else:
            node.add_child(XMLNode("b", text="leaf"))
        store[f"F{index}"] = Fragment(f"F{index}", root)
    tree = FragmentedTree(store, "F0")
    placement = Placement({fid: f"S{i}" for i, fid in enumerate(store)})
    return Cluster(tree, placement)


def ablation_algebra(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Reply traffic: canonicalizing vs paper-literal composition.

    Uses deep-buried virtual nodes and a nested-descendant query, the
    regime where the literal ``compFm`` duplicates sub-formulas at each
    level above a virtual node.  (On the FT1/FT2 topologies, whose
    virtual nodes sit directly under fragment roots, the two algebras
    coincide -- noted in EXPERIMENTS.md.)
    """
    config = config or BenchConfig.default()
    from repro.xpath import compile_query

    qlist = compile_query("[//wrap[//b and //wrap[//b]]]")
    result = ExperimentResult(
        "ablation-algebra",
        "Formula canonicalization ablation (deep virtual nodes)",
        "virtual_depth",
        ["canonical_bytes", "paper_bytes", "blowup_x", "canonical_s", "paper_s"],
    )
    for depth in (2, 4, 8, 16, 24):
        cluster = config.with_network(_deep_virtual_chain(4, depth))
        canonical = ParBoXEngine(cluster).evaluate(qlist)
        paper = ParBoXEngine(cluster, algebra=PaperAlgebra()).evaluate(qlist)
        assert canonical.answer == paper.answer
        result.add_row(
            depth,
            canonical_bytes=canonical.metrics.bytes_total,
            paper_bytes=paper.metrics.bytes_total,
            blowup_x=round(paper.metrics.bytes_total / canonical.metrics.bytes_total, 2),
            canonical_s=canonical.elapsed_seconds,
            paper_s=paper.elapsed_seconds,
        )
    return result


#: (id, function) pairs in presentation order.
ALL_EXPERIMENTS: list[tuple[str, Callable[[Optional[BenchConfig]], ExperimentResult]]] = [
    ("fig4", fig4_validation),
    ("fig7", fig7_parbox_vs_central),
    ("fig8", fig8_query_size),
    ("fig9", fig9_qf0),
    ("fig10", fig10_qfn),
    ("fig11", fig11_qfmid),
    ("fig12", fig12_data_scale),
    ("fig13", fig13_frags_per_site),
    ("sec4-hybrid", sec4_hybrid_crossover),
    ("sec5-incremental", sec5_incremental),
    ("ablation-algebra", ablation_algebra),
    ("executors", executors_realtime),
    ("batching", batching_amortization),
    ("stream", stream_maintenance),
    ("placement", placement_optimizer),
]

__all__ = [
    "BenchConfig",
    "fig4_validation",
    "fig7_parbox_vs_central",
    "fig8_query_size",
    "fig9_qf0",
    "fig10_qfn",
    "fig11_qfmid",
    "fig12_data_scale",
    "fig13_frags_per_site",
    "sec4_hybrid_crossover",
    "sec5_incremental",
    "ablation_algebra",
    "executors_realtime",
    "batching_amortization",
    "stream_maintenance",
    "placement_optimizer",
    "ALL_EXPERIMENTS",
]
