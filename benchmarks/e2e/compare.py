"""Compare two sets of benchmark results (parent vs change, or A vs A).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--same-commit]

Each directory holds the ``--out`` directories of several runs of
``run.py`` (any nesting; every ``result-trace0.json`` below it is one
run of one workload, ``result-trace1.json`` its traced twin).  Take the
runs alternately -- parent, change, change, parent, ... -- so drift of
the host lands on both sides; the i-th run of one side is paired with
the i-th run of the other (sorted by path).

Per workload and end-to-end metric this prints each side's median and
quartiles and one verdict, by the rules of the ``choosing-metrics``
guide (section 8):

* ``unresolved``  -- a side's quartile distance exceeds the metric's
  bound, so the runs cannot show "no change" (unless every run of the
  change reads better than every run of the parent);
* ``REGRESSION``  -- the change's median is worse than the parent's by
  more than the bound in ``BENCHMARK.json``;
* ``gain``        -- at least ten pairs, the change wins nine tenths of
  them (ties count for neither), and the medians lie further apart than
  the parent's own quartile distance;
* ``no regression`` otherwise.

Counts that must repeat exactly for a seed (``bytes_per_op`` and the
``EXACT_PER_LAYER`` names) are compared run by run on equal seeds.

Exit status is non-zero when any run failed an operation or -- for two
sets of the same commit (detected from the recorded commit, or forced
with ``--same-commit``) -- an exact count differs or the medians of a
metric disagree by more than its bound.  Between different commits a
moved count is printed (``COUNT CHANGED``), not judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

#: Per-layer metrics that are pure functions of the seed.
EXACT_PER_LAYER = (
    "xpath.qlist_entries",
    "core.plan.unique_share",
    "core.plan.combined_entries",
    "serving.protocol.request_bytes",
    "serving.protocol.reply_bytes",
    "serving.coordinator.plan_cache_hit_share",
    "serving.site_server.requests_total",
    "core.bottom_up.ground_share",
    "core.vectors.formula_nodes",
    "core.eval_st.variables",
    "distsim.executors.ships_total",
    "distsim.executors.submits_total",
    "stream.dirty_sites_per_round",
    "stream.nodes_recomputed_per_round",
    "stream.slices_shipped_per_round",
    "stream.segments_resolved_per_round",
)
EXACT_END_TO_END = ("bytes_per_op",)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str, trace: int) -> dict:
    """``workload -> [result, ...]`` in path order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).rglob(f"result-trace{trace}.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        runs[result["workload"]].append(result)
    return runs


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(verdict, relative worsening of the change's median)."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = max(sign * value for value in change) < min(sign * value for value in parent)
    if spread > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "REGRESSION", worse_by
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "gain", worse_by
    return "no regression", worse_by


def exact_mismatches(parent: dict, change: dict, names) -> list:
    """Exact counts that differ between runs of one workload and seed."""
    problems = []
    for workload, runs in parent.items():
        by_seed = {run["seed"]: run for run in change.get(workload, [])}
        for run in runs:
            twin = by_seed.get(run["seed"])
            if twin is None:
                continue
            for name in names:
                ours = run["metrics"].get(name, {}).get("value")
                theirs = twin["metrics"].get(name, {}).get("value")
                if ours != theirs:
                    problems.append(
                        f"{workload} seed {run['seed']}: {name} {ours!r} != {theirs!r}"
                    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--same-commit", action="store_true",
                        help="both sets come from one commit: medians must agree within bounds")
    args = parser.parse_args(argv)
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)

    parent, change = load(args.parent, 0), load(args.change, 0)
    if not parent or not change:
        print("no result-trace0.json found on one side", file=sys.stderr)
        return 2
    commits = {
        run["commit"] for runs in (*parent.values(), *change.values()) for run in runs
    }
    same_commit = args.same_commit or (len(commits) == 1 and "unknown" not in commits)
    problems = []

    for side, runs_by_workload in (("parent", parent), ("change", change)):
        for workload, runs in runs_by_workload.items():
            for run in runs:
                if run["failed"]:
                    problems.append(
                        f"{side} {workload} seed {run['seed']}: "
                        f"{run['failed']} of {run['attempted']} operations failed"
                    )
                if run["noisy"]:
                    print(f"# noisy run (load average {run['loadavg_start']:.2f} at start): "
                          f"{side} {workload} seed {run['seed']}")

    print(f"# {'same commit' if same_commit else 'parent vs change'}; "
          "runs are paired in path order")
    header = (f"{'workload':13} {'metric':23} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'worse by':>9} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            ours = [run["metrics"][name]["value"] for run in parent[workload]]
            theirs = [run["metrics"][name]["value"] for run in change[workload]]
            word, worse_by = verdict(ours, theirs, metric["better"], metric["bound"])
            if same_commit and abs(worse_by) > metric["bound"]:
                word = "DISAGREE"
                problems.append(f"{workload} {name}: same-commit medians differ by "
                                f"{abs(worse_by):.1%} (bound {metric['bound']:.0%})")
            cells = [
                "/".join(f"{value:.4g}" for value in quartiles(values))
                for values in (ours, theirs)
            ]
            print(f"{workload:13} {name:23} {cells[0]:>32} {cells[1]:>32} "
                  f"{worse_by:>+9.1%} {metric['bound']:>6.0%}  {word}"
                  f" ({len(ours)}+{len(theirs)} runs)")

    moved = exact_mismatches(parent, change, EXACT_END_TO_END)
    moved += exact_mismatches(load(args.parent, 1), load(args.change, 1), EXACT_PER_LAYER)
    if same_commit:
        problems += moved
    else:
        for change_of_count in moved:
            print(f"COUNT CHANGED: {change_of_count}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
