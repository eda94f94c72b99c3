"""Hot-path microbenchmark: the partial-evaluation inner loop, kernel vs kernel.

Measures exactly the work the paper's complexity claims are about --
one ``bottomUp`` pass over a ground fragment, ``O(|F| * |qL|)`` entry
operations -- with the classic formula-algebra kernel against the
bitset ground-path kernel, across the paper's query sizes
``|QList| in {2, 8, 15, 23}``.  Both kernels must return
bitwise-identical triplets (asserted per measurement); what differs is
the wall clock.  Two supporting measurements ride along:

* **end-to-end**: one ParBoX batch evaluation of all four queries on
  the FT1 star (site work dominated by ground fragments), formula vs
  auto kernel;
* **compact wire**: pickled size of the process executor's triplet
  reply in the old ``to_obj`` form vs the compact
  bitmask-plus-residue-table codec.

The process executor's dispatch layer is not measured here: the
end-to-end benchmark (``benchmarks/e2e``, workloads ``local-chain`` and
``stream-mixed``) reports it as the ``distsim.executors.*`` layer rows.

Usage::

    python benchmarks/bench_hotpath.py                 # default scale
    python benchmarks/bench_hotpath.py --quick
    python benchmarks/bench_hotpath.py --json BENCH_hotpath.json \
        --baseline BENCH_hotpath.json                  # CI regression gate

``--json`` merge-writes this scale's results into the trajectory file
(one entry per scale).  ``--baseline`` reads the *committed* trajectory
before writing and exits non-zero when the measured median speedup
regressed more than 20% against the same-scale baseline entry.  The
absolute floor -- median speedup >= 3x at default scale (>= 2x at the
miniature quick scale) -- is always enforced: it is the acceptance
criterion that justifies the kernel's existence.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import bottom_up  # noqa: E402
from repro.core.session import QuerySession  # noqa: E402
from repro.fragments import Fragment  # noqa: E402
from repro.workloads.queries import QUERY_SIZES, query_of_size  # noqa: E402
from repro.workloads.topologies import star_ft1  # noqa: E402
from repro.workloads.xmark import generate_xmark_site  # noqa: E402

#: Required median speedup per scale (the PR's acceptance criterion at
#: "default"; quick fragments are smaller, fixed overheads weigh more).
SPEEDUP_FLOOR = {"default": 3.0, "quick": 2.0}
#: Allowed regression against the committed baseline (20%).
REGRESSION_TOLERANCE = 0.8


def _scale_params(quick: bool) -> dict:
    """Mirror of BenchConfig.default()/.quick() for one site's fragment."""
    if quick:
        # Tiny fragments make single runs noisy; a wide median keeps
        # the CI regression gate off the noise floor.
        return {"scale": "quick", "site_mb": 10.0 / 4, "nodes_per_mb": 24, "repeats": 31}
    return {"scale": "default", "site_mb": 50.0 / 4, "nodes_per_mb": 160, "repeats": 11}


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_hotpath(quick: bool = False, seed: int = 2006) -> dict:
    """Run all measurements; returns the JSON-able result document."""
    params = _scale_params(quick)
    repeats = params["repeats"]
    tree = generate_xmark_site(
        params["site_mb"], seed=seed, nodes_per_mb=params["nodes_per_mb"]
    )
    fragment = Fragment("F0", tree.root)

    rows = []
    for size in QUERY_SIZES:
        qlist = query_of_size(size)
        formula_triplet, _ = bottom_up(fragment, qlist, kernel="formula")
        bitset_triplet, _ = bottom_up(fragment, qlist, kernel="auto")
        assert formula_triplet == bitset_triplet, (
            f"kernel disagreement at |QList|={size}"
        )
        formula_s = _median_seconds(
            lambda: bottom_up(fragment, qlist, kernel="formula"), repeats
        )
        bitset_s = _median_seconds(
            lambda: bottom_up(fragment, qlist, kernel="auto"), repeats
        )
        rows.append(
            {
                "qlist": size,
                "formula_ms": round(formula_s * 1000, 4),
                "bitset_ms": round(bitset_s * 1000, 4),
                "speedup": round(formula_s / bitset_s, 2),
            }
        )

    # End-to-end: one ParBoX batch of all four queries on the FT1 star.
    # (import_module, not attribute access: the package re-exports the
    # bottom_up *function* under the same name as the module.)
    import importlib

    bu = importlib.import_module("repro.core.bottom_up")

    cluster = star_ft1(
        4, params["site_mb"] * 4, seed=seed, nodes_per_mb=params["nodes_per_mb"]
    )
    texts = [query_of_size(size) for size in QUERY_SIZES]

    def evaluate_batch() -> tuple:
        with QuerySession(cluster, engine="parbox") as session:
            return session.evaluate_many(texts).answers

    saved_kernel = bu.DEFAULT_KERNEL
    try:
        bu.DEFAULT_KERNEL = "formula"
        e2e_answers_formula = evaluate_batch()
        e2e_formula_s = _median_seconds(evaluate_batch, max(3, repeats // 3))
        bu.DEFAULT_KERNEL = "auto"
        e2e_answers_auto = evaluate_batch()
        e2e_auto_s = _median_seconds(evaluate_batch, max(3, repeats // 3))
    finally:
        bu.DEFAULT_KERNEL = saved_kernel
    assert e2e_answers_formula == e2e_answers_auto

    # Compact wire codec: the process executor's reply payload.
    qlist = query_of_size(QUERY_SIZES[-1])
    triplet, _ = bottom_up(fragment, qlist)
    obj_bytes = len(pickle.dumps(triplet.to_obj()))
    compact_bytes = len(pickle.dumps(triplet.to_compact()))

    speedups = [row["speedup"] for row in rows]
    return {
        "scale": params["scale"],
        "fragment_nodes": fragment.size(),
        "repeats": repeats,
        "rows": rows,
        "median_speedup": round(statistics.median(speedups), 2),
        "min_speedup": min(speedups),
        "e2e": {
            "formula_ms": round(e2e_formula_s * 1000, 2),
            "auto_ms": round(e2e_auto_s * 1000, 2),
            "speedup": round(e2e_formula_s / e2e_auto_s, 2),
        },
        "compact_wire": {
            "to_obj_pickle_bytes": obj_bytes,
            "compact_pickle_bytes": compact_bytes,
            "ratio": round(obj_bytes / compact_bytes, 2),
        },
    }


def render(result: dict) -> str:
    lines = [
        f"hotpath @ {result['scale']} scale "
        f"(ground fragment, {result['fragment_nodes']} nodes, "
        f"median of {result['repeats']} runs)",
        f"  {'|QList|':>8} {'formula':>10} {'bitset':>10} {'speedup':>8}",
    ]
    for row in result["rows"]:
        lines.append(
            f"  {row['qlist']:>8} {row['formula_ms']:>8.2f}ms "
            f"{row['bitset_ms']:>8.3f}ms {row['speedup']:>7.2f}x"
        )
    lines.append(f"  median ground-bottomUp speedup: {result['median_speedup']}x")
    e2e = result["e2e"]
    lines.append(
        f"  end-to-end ParBoX batch: {e2e['formula_ms']}ms -> {e2e['auto_ms']}ms "
        f"({e2e['speedup']}x)"
    )
    wire = result["compact_wire"]
    lines.append(
        f"  reply payload (pickled): {wire['to_obj_pickle_bytes']}B to_obj -> "
        f"{wire['compact_pickle_bytes']}B compact ({wire['ratio']}x smaller)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="miniature scale")
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="merge-write results per scale"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="committed trajectory to gate regressions against (>20%% fails)",
    )
    args = parser.parse_args(argv)

    baseline: dict = {}
    if args.baseline and Path(args.baseline).exists():
        baseline = json.loads(Path(args.baseline).read_text())

    result = run_hotpath(quick=args.quick)
    print(render(result))

    if args.json:
        path = Path(args.json)
        trajectory = (
            json.loads(path.read_text()) if path.exists() else {}
        )
        trajectory[result["scale"]] = result
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"wrote {args.json}")

    failures = []
    floor = SPEEDUP_FLOOR[result["scale"]]
    if result["median_speedup"] < floor:
        failures.append(
            f"median speedup {result['median_speedup']}x below the {floor}x floor"
        )
    reference = baseline.get(result["scale"])
    if reference:
        threshold = reference["median_speedup"] * REGRESSION_TOLERANCE
        verdict = "PASS" if result["median_speedup"] >= threshold else "FAIL"
        print(
            f"  [{verdict}] vs committed baseline: {result['median_speedup']}x "
            f">= {threshold:.2f}x (= {reference['median_speedup']}x - 20%)"
        )
        if verdict == "FAIL":
            failures.append(
                f"speedup regressed >20% vs baseline ({reference['median_speedup']}x)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
