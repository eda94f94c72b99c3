"""Machine-checkable versions of each figure's qualitative claims.

Absolute runtimes cannot match a 2006 testbed; what must reproduce is
the *shape* of every figure -- who wins, what is monotone, where
behaviour changes.  Each function takes the corresponding
:class:`~repro.bench.reporting.ExperimentResult` and returns a mapping
``claim -> bool``; EXPERIMENTS.md tabulates them, and the benchmark
suite asserts them.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult


def _mostly_decreasing(values, tolerance=1.35) -> bool:
    """Downward trend: adjacent noise tolerated, endpoint clearly lower."""
    return (
        all(b <= a * tolerance for a, b in zip(values, values[1:]))
        and values[-1] < values[0] * 0.75
    )


def _mostly_increasing(values, tolerance=0.87) -> bool:
    return all(b >= a * tolerance for a, b in zip(values, values[1:])) and values[-1] > values[0]


def _roughly_flat(values, band=0.5) -> bool:
    low, high = min(values), max(values)
    return high <= low * (1 + band)


def check_fig7(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 7: ParBoX beats NaiveCentralized; parallelism helps; gains flatten."""
    parbox = result.column("parbox_s")
    central = result.column("central_s")
    half = len(parbox) // 2
    return {
        "parbox_below_central_beyond_1_machine": all(
            p < c for p, c in zip(parbox[1:], central[1:])
        ),
        "single_machine_comparable": 0.4 <= parbox[0] / central[0] <= 2.5,
        "parbox_decreases_with_parallelism": _mostly_decreasing(parbox),
        "parbox_gains_flatten_late": (
            (parbox[0] - parbox[half]) > (parbox[half] - parbox[-1])
        ),
        "central_never_improves_with_machines": central[-1] >= central[0] * 0.9,
    }


def check_fig8(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 8: runtime ordered by |QList|; parallel gains at every size."""
    columns = [c for c in result.columns if c.startswith("qlist_")]
    ordered_sizes = sorted(columns, key=lambda c: int(c.split("_")[1]))
    by_size = {c: result.column(c) for c in columns}
    ordering = all(
        all(a <= b * 1.25 for a, b in zip(by_size[small], by_size[big]))
        for small, big in zip(ordered_sizes, ordered_sizes[1:])
    )
    last = by_size[ordered_sizes[-1]]
    first = by_size[ordered_sizes[0]]
    return {
        "runtime_ordered_by_query_size": ordering,
        "largest_query_costs_more_than_smallest": last[0] > first[0],
        "parallel_gains_at_every_size": all(
            _mostly_decreasing(by_size[c]) for c in ordered_sizes
        ),
    }


def check_fig9(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 9: the three lines coincide; Lazy touches only 2 fragments."""
    parbox = result.column("parbox_s")
    fulldist = result.column("fdparbox_s")
    lazy = result.column("lzparbox_s")
    # Band note: at the reduced data scale the fixed per-hop latency of
    # FullDist's stage 3 is amplified relative to site compute, so
    # "coincide" is checked within a 3.5x band (see EXPERIMENTS.md).
    return {
        "three_lines_close": all(
            max(p, f, l) <= 3.5 * min(p, f, l)
            for p, f, l in zip(parbox[1:], fulldist[1:], lazy[1:])
        ),
        "lazy_evaluates_at_most_2_fragments": all(
            n <= 2 for n in result.column("lazy_fragments")
        ),
        "lazy_total_computation_lower": all(
            lo <= po for lo, po in zip(result.column("lazy_ops")[2:], result.column("parbox_ops")[2:])
        ),
    }


def check_fig10(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 10: Lazy degrades with depth; ParBoX ~ FullDist."""
    parbox = result.column("parbox_s")
    fulldist = result.column("fdparbox_s")
    lazy = result.column("lzparbox_s")
    return {
        "parbox_and_fulldist_close": all(
            max(p, f) <= 3.5 * min(p, f) for p, f in zip(parbox[1:], fulldist[1:])
        ),
        "lazy_slower_than_parbox_at_depth": all(
            l > p for l, p in zip(lazy[3:], parbox[3:])
        ),
        "lazy_evaluates_everything": all(
            n == machines
            for machines, n in zip(result.xs(), result.column("lazy_fragments"))
        ),
    }


def check_fig11(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 11: Lazy converges to a few x ParBoX; saves ~half the work."""
    parbox = result.column("parbox_s")
    lazy = result.column("lzparbox_s")
    lazy_ops = result.column("lazy_ops")
    parbox_ops = result.column("parbox_ops")
    tail = slice(max(0, len(parbox) - 3), None)
    ratios = [l / p for l, p in zip(lazy[tail], parbox[tail])]
    op_fractions = [lo / po for lo, po in zip(lazy_ops[tail], parbox_ops[tail])]
    return {
        "lazy_converges_to_small_multiple_of_parbox": all(1.0 <= r <= 6.0 for r in ratios),
        "lazy_saves_total_computation": all(f <= 0.85 for f in op_fractions),
    }


def check_fig12(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 12: runtime linear in data size, ordered by query size."""
    nodes = result.column("tree_nodes")
    claims = {}
    for column in result.columns:
        if not column.startswith("qlist_"):
            continue
        values = result.column(column)
        # Linearity: runtime per node stays within a band.
        per_node = [v / n for v, n in zip(values, nodes)]
        claims[f"{column}_linear_in_data"] = max(per_node) <= 2.0 * min(per_node)
        claims[f"{column}_grows_with_data"] = values[-1] > values[0]
    return claims


def check_fig13(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 13: flat runtime, single visit, constant work."""
    return {
        "runtime_flat_in_fragment_count": _roughly_flat(result.column("parbox_s"), band=0.6),
        "always_one_visit": all(v == 1 for v in result.column("visits")),
        "constant_total_nodes": _roughly_flat(
            [float(n) for n in result.column("nodes")], band=0.25
        ),
    }


def check_fig4(result: ExperimentResult) -> dict[str, bool]:
    """Fig. 4 (measured): the visit/communication patterns of the table."""
    rows = {x: values for x, values in result.rows}
    parbox = rows["ParBoX"]
    central = rows["NaiveCentralized"]
    naive_dist = rows["NaiveDistributed"]
    lazy = rows["LazyParBoX"]
    fulldist = rows["FullDistParBoX"]
    return {
        "parbox_one_visit_per_site": parbox["max_visits_per_site"] == 1,
        "naive_distributed_visits_per_fragment": naive_dist["max_visits_per_site"] == 2,
        "parbox_traffic_below_central": parbox["bytes_total"] < central["bytes_total"],
        "fulldist_traffic_at_most_parbox": fulldist["bytes_total"]
        <= parbox["bytes_total"] * 1.6,
        "lazy_computation_at_most_parbox": lazy["qlist_ops"] <= parbox["qlist_ops"],
        "total_computation_comparable_to_central": (
            parbox["qlist_ops"] <= central["qlist_ops"] * 1.05
        ),
    }


def check_sec4_hybrid(result: ExperimentResult) -> dict[str, bool]:
    """Hybrid tracks the cheaper strategy around the tipping point."""
    rows = list(result.rows)
    strategies = result.column("hybrid_strategy")
    hybrid_never_far_off = all(
        values["hybrid_bytes"]
        <= 1.25 * min(values["parbox_bytes"], values["central_bytes"]) + 2048
        for _, values in rows
    )
    return {
        "parbox_wins_at_coarse_fragmentation": rows[0][1]["parbox_bytes"]
        < rows[0][1]["central_bytes"],
        "central_wins_at_pathological_fragmentation": rows[-1][1]["central_bytes"]
        < rows[-1][1]["parbox_bytes"],
        "hybrid_switches_strategy": len(set(strategies)) == 2,
        "hybrid_tracks_minimum": hybrid_never_far_off,
    }


def check_sec5_incremental(result: ExperimentResult) -> dict[str, bool]:
    """Maintenance localized and size-independent; re-evaluation is not."""
    maint_bytes = result.column("maint_bytes")
    maint_nodes = result.column("maint_nodes")
    scratch_nodes = result.column("scratch_nodes")
    return {
        "maintenance_traffic_independent_of_data": max(maint_bytes)
        <= min(maint_bytes) * 1.5 + 64,
        "maintenance_visits_one_site": all(s == 1 for s in result.column("maint_sites")),
        "reevaluation_visits_all_sites": all(s > 1 for s in result.column("scratch_sites")),
        "reevaluation_costs_tree_size": scratch_nodes == result.column("tree_nodes"),
        "maintenance_localized_to_fragment": all(
            m < s / 2 for m, s in zip(maint_nodes, scratch_nodes)
        ),
    }


def check_ablation_algebra(result: ExperimentResult) -> dict[str, bool]:
    """Canonicalization keeps traffic bounded; the literal algebra doesn't."""
    canonical = result.column("canonical_bytes")
    paper = result.column("paper_bytes")
    return {
        "canonical_traffic_at_most_paper": all(c <= p for c, p in zip(canonical, paper)),
        "canonical_flat_in_virtual_depth": max(canonical) <= 1.5 * min(canonical),
        "paper_traffic_blows_up_with_depth": paper[-1] > 5 * paper[0],
    }


def check_executors(result: ExperimentResult) -> dict[str, bool]:
    """All strategies agree on the answer; ledgers stay consistent."""
    answers = result.column("answer")
    walls = result.column("wall_s")
    busies = result.column("busy_s")
    rows = {x: values for x, values in result.rows}
    return {
        "all_executors_same_answer": len(set(answers)) == 1,
        "wall_and_busy_positive": all(w > 0 for w in walls) and all(b > 0 for b in busies),
        # Serial runs on one thread: its wall time can never sit far
        # below its CPU-time busy total (the converse -- wall above
        # busy -- is legitimate scheduler preemption on a loaded host,
        # so it is deliberately not bounded here).
        "serial_wall_tracks_busy": (
            rows["serial"]["wall_s"] >= rows["serial"]["busy_s"] * 0.5 - 1e-4
        ),
        "critical_site_identified": all(
            values["critical_site"] for values in rows.values()
        ),
    }


def check_batching(result: ExperimentResult) -> dict[str, bool]:
    """Batching amortizes every per-query cost without moving answers.

    The headline claim: traffic per query falls *strictly* at every
    doubling of the batch size (one broadcast+reply per site per batch,
    plus in-batch deduplication of popular subscriptions).  All costs
    here are deterministic, so strict inequalities are safe.
    """
    bytes_per_query = result.column("bytes_per_query")
    visits = result.column("visits_per_query")
    messages = result.column("messages_per_query")
    entries = result.column("combined_entries")
    duplicates = result.column("duplicates_collapsed")
    answers = result.column("answers_true")
    return {
        "traffic_per_query_strictly_decreasing": all(
            b < a for a, b in zip(bytes_per_query, bytes_per_query[1:])
        ),
        "visits_per_query_strictly_decreasing": all(
            b < a for a, b in zip(visits, visits[1:])
        ),
        "messages_per_query_strictly_decreasing": all(
            b < a for a, b in zip(messages, messages[1:])
        ),
        "dedup_grows_with_batch_size": all(
            b >= a for a, b in zip(duplicates, duplicates[1:])
        )
        and duplicates[-1] > duplicates[0],
        "combined_entries_shrink_with_dedup": all(
            b <= a for a, b in zip(entries, entries[1:])
        )
        and entries[-1] < entries[0],
        "answers_independent_of_batch_size": len(set(answers)) == 1,
    }


def check_stream(result: ExperimentResult) -> dict[str, bool]:
    """Section 5 at batch scale: maintenance cost is local and flat.

    Per-update traffic must not grow with the document (the update
    batch is fixed while |T| sweeps ~5x), must scale with the number of
    dirty fragments (each dirty fragment ships its own changed slice),
    and only dirty fragments' sites may be contacted.  The compute side
    *does* grow with |T| (the dirty fragment itself grows) -- that
    contrast is the point, so it is asserted too.  All costs here are
    deterministic; the incremental answers must match from-scratch
    evaluation bitwise at every sweep point.
    """
    bytes_1 = result.column("bytes_1frag")
    bytes_2 = result.column("bytes_2frag")
    bytes_4 = result.column("bytes_4frag")
    dirty_sites = result.column("dirty_sites_4frag")
    total_sites = result.column("total_sites")
    nodes = result.column("nodes_recomputed_1frag")
    return {
        "traffic_flat_in_document_size": _roughly_flat(bytes_1, band=0.5)
        and _roughly_flat(bytes_4, band=0.5),
        "traffic_proportional_to_dirty_fragments": all(
            1.6 * one <= two <= 2.4 * one and 3.2 * one <= four <= 4.8 * one
            for one, two, four in zip(bytes_1, bytes_2, bytes_4)
        ),
        "only_dirty_sites_visited": all(
            dirty == 4 and dirty < total
            for dirty, total in zip(dirty_sites, total_sites)
        ),
        # At quick scale the generator's minimum document clamps the
        # sweep's low end, so only endpoint growth is asserted.
        "recomputation_grows_with_fragment_size": nodes[-1] > nodes[0],
        "incremental_matches_scratch": all(result.column("agree")),
    }


def check_placement(result: ExperimentResult) -> dict[str, bool]:
    """The optimizer earns its keep, and its predictions rank truthfully.

    All costs here are deterministic, so strict inequalities are safe:
    the workload-aware placement must beat every balanced-random
    baseline on *measured* total traffic (and on the predicted
    objective it optimized), the predicted cost must order candidates
    the way measured cost does wherever the prediction separates them
    (>2% apart), live rebalancing under a standing ``watch()`` must
    leave every answer bitwise intact, and the chosen placement must
    respect the capacity constraint while actually shipping (metered)
    migration traffic to get there.
    """
    rows = {x: values for x, values in result.rows}
    optimized = rows["optimized"]
    randoms = [rows["random-1"], rows["random-2"]]
    by_candidate = [(values["predicted_terms"], values["measured_bytes"]) for values in rows.values()]
    ranks_consistent = all(
        # A measured tie is not an inversion: only a strictly *opposed*
        # ordering refutes the prediction.
        (measured_a <= measured_b) == (predicted_a < predicted_b)
        or measured_a == measured_b
        for i, (predicted_a, measured_a) in enumerate(by_candidate)
        for predicted_b, measured_b in by_candidate[i + 1 :]
        if abs(predicted_a - predicted_b) > 0.02 * max(predicted_a, predicted_b)
    )
    return {
        "optimizer_beats_balanced_random_measured": all(
            optimized["measured_bytes"] < r["measured_bytes"] for r in randoms
        ),
        "optimizer_beats_balanced_random_predicted": all(
            optimized["predicted_terms"] < r["predicted_terms"] for r in randoms
        ),
        "predicted_ranks_match_measured": ranks_consistent,
        "rebalance_preserves_answers_bitwise": all(
            values["agree"] for values in rows.values()
        ),
        "optimized_respects_capacity": optimized["capacity_ok"],
        "migration_traffic_metered": optimized["migration_bytes"] > 0
        and all(r["migration_bytes"] == 0 for r in randoms),
    }


#: experiment id -> shape checker.
CHECKS = {
    "fig4": check_fig4,
    "fig7": check_fig7,
    "fig8": check_fig8,
    "fig9": check_fig9,
    "fig10": check_fig10,
    "fig11": check_fig11,
    "fig12": check_fig12,
    "fig13": check_fig13,
    "sec4-hybrid": check_sec4_hybrid,
    "sec5-incremental": check_sec5_incremental,
    "ablation-algebra": check_ablation_algebra,
    "executors": check_executors,
    "batching": check_batching,
    "stream": check_stream,
    "placement": check_placement,
}

__all__ = ["CHECKS"] + [name for name in dir() if name.startswith("check_")]
