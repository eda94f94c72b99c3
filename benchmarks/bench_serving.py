"""Serving-tier overhead: the same batch in-process vs over the gateway.

Two micro-benchmarks on one topology: ``QuerySession`` straight onto a
local ParBoX engine, and the identical session pointed at a
:class:`~repro.serving.cluster.ServingCluster` gateway (real sockets,
inline site servers).  The delta is the serving tax -- framing,
loopback round-trips and the coordinator's thread hop -- paid for
running sites as real network peers.  A correctness cross-check keeps
the comparison honest: both paths must return identical answers and
identical deterministic ledgers.

``REPRO_BENCH_QUICK=1`` shrinks the topology and batch.

Standalone (the CI regression gate)::

    python benchmarks/bench_serving.py --quick \
        --json BENCH_serving.json --baseline BENCH_serving.json

``--json`` merge-writes this scale's results into the trajectory file;
``--baseline`` fails the run when the measured serving-tax ratio
worsened more than 25% against the committed same-scale entry.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from conftest import QUICK

from repro.core import QuerySession
from repro.serving import ServingCluster
from repro.workloads.pubsub import subscription_texts
from repro.workloads.topologies import star_ft1

#: Allowed worsening of the serving-tax ratio vs the committed baseline.
REGRESSION_TOLERANCE = 1.25

SITES = 3 if QUICK else 6
BATCH = 4 if QUICK else 16
MB = 0.05 if QUICK else 0.5


@pytest.fixture(scope="module")
def cluster(config):
    return config.with_network(
        star_ft1(SITES, MB, seed=7, nodes_per_mb=config.nodes_per_mb)
    )


@pytest.fixture(scope="module")
def texts():
    return subscription_texts(BATCH, seed=7)


@pytest.fixture(scope="module")
def serving(cluster):
    with ServingCluster(cluster) as tier:
        yield tier


def test_serving_in_process_baseline(benchmark, cluster, texts):
    with QuerySession(cluster, engine="parbox") as session:
        session.evaluate_batch(texts)  # warm the compile cache
        result = benchmark(lambda: session.evaluate_batch(texts))
    assert len(result.answers) == len(texts)


def test_serving_over_gateway(benchmark, cluster, serving, texts):
    with serving.session(engine="parbox") as session:
        session.evaluate_batch(texts)  # warm caches and site links
        result = benchmark(lambda: session.evaluate_batch(texts))
    assert len(result.answers) == len(texts)
    # The serving tier must be transparent: same answers, same ledger.
    with QuerySession(cluster, engine="parbox") as local:
        expected = local.evaluate_batch(texts)
    assert result.answers == expected.answers
    assert result.metrics.bytes_total == expected.metrics.bytes_total
    assert result.metrics.visits == expected.metrics.visits


def test_serving_gateway_throughput_sequential_sessions(benchmark, serving, texts):
    """Connection setup included: one fresh session per round, the cost a
    short-lived client actually pays."""

    def round_trip():
        with serving.session(engine="parbox") as session:
            return session.evaluate_batch(texts)

    result = benchmark(round_trip)
    assert len(result.answers) == len(texts)


# ---------------------------------------------------------------------------
# Standalone mode: the CI regression gate over the serving tax
# ---------------------------------------------------------------------------


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_serving(quick: bool = False, seed: int = 7) -> dict:
    """One local-vs-gateway comparison; returns the JSON-able document."""
    from repro.bench.experiments import BenchConfig

    config = BenchConfig.quick() if quick else BenchConfig.default()
    sites = 3 if quick else 6
    batch = 4 if quick else 16
    mb = 0.05 if quick else 0.5
    repeats = 9 if quick else 5
    cluster = config.with_network(
        star_ft1(sites, mb, seed=seed, nodes_per_mb=config.nodes_per_mb)
    )
    texts = subscription_texts(batch, seed=seed)

    with QuerySession(cluster, engine="parbox") as session:
        local = session.evaluate_batch(texts)  # warm compile caches
        local_s = _median_seconds(lambda: session.evaluate_batch(texts), repeats)

    with ServingCluster(cluster) as tier:
        with tier.session(engine="parbox") as session:
            gateway = session.evaluate_batch(texts)  # warm links and pushes
            gateway_s = _median_seconds(
                lambda: session.evaluate_batch(texts), repeats
            )
        latency_ms = _gateway_latency_ms(tier)

    # The tier must be transparent before its cost means anything.
    assert gateway.answers == local.answers, "serving tier changed answers"
    assert gateway.metrics.bytes_total == local.metrics.bytes_total
    assert gateway.metrics.visits == local.metrics.visits

    return {
        "scale": "quick" if quick else "default",
        "sites": sites,
        "batch": batch,
        "repeats": repeats,
        "local_ms": round(local_s * 1000, 2),
        "gateway_ms": round(gateway_s * 1000, 2),
        "tax_ratio": round(gateway_s / local_s, 2),
        "latency_ms": latency_ms,
    }


def _gateway_latency_ms(tier) -> dict:
    """Request-latency percentiles from the gateway's own histogram.

    Server-side observations (``gateway_request_seconds``) cover every
    request the tier handled during this run -- warmup included -- so
    they complement, not replace, the client-side medians above.
    """
    from repro.obs.metrics import histogram_percentiles

    with tier.client() as client:
        snapshot = client.metrics().snapshot
    values = snapshot.get("gateway_request_seconds", {}).get("values", {})
    if not values:
        return {}
    histogram = next(iter(values.values()))
    quantiles = histogram_percentiles(histogram, (0.5, 0.95, 0.99))
    return {
        f"p{int(q * 100)}": round(seconds * 1000, 2)
        for q, seconds in quantiles.items()
        if seconds is not None
    }


def render(result: dict) -> str:
    return "\n".join(
        [
            f"serving @ {result['scale']} scale "
            f"({result['sites']} sites, batch of {result['batch']}, "
            f"median of {result['repeats']} runs)",
            f"  in-process session: {result['local_ms']}ms",
            f"  over the gateway:   {result['gateway_ms']}ms",
            f"  serving-tax ratio:  {result['tax_ratio']}x",
        ]
        + (
            [
                "  gateway latency:    "
                + "  ".join(
                    f"{name}={ms}ms"
                    for name, ms in sorted(result["latency_ms"].items())
                )
            ]
            if result.get("latency_ms")
            else []
        )
    )


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="miniature scale")
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="merge-write results per scale"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="committed trajectory to gate regressions against (>25%% fails)",
    )
    args = parser.parse_args(argv)

    baseline: dict = {}
    if args.baseline and Path(args.baseline).exists():
        baseline = json.loads(Path(args.baseline).read_text())

    result = run_serving(quick=args.quick)
    print(render(result))

    if args.json:
        path = Path(args.json)
        trajectory = json.loads(path.read_text()) if path.exists() else {}
        trajectory[result["scale"]] = result
        path.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"wrote {args.json}")

    failures = []
    reference = baseline.get(result["scale"])
    if reference:
        threshold = reference["tax_ratio"] * REGRESSION_TOLERANCE
        verdict = "PASS" if result["tax_ratio"] <= threshold else "FAIL"
        print(
            f"  [{verdict}] vs committed baseline: {result['tax_ratio']}x "
            f"<= {threshold:.2f}x (= {reference['tax_ratio']}x + 25%)"
        )
        if verdict == "FAIL":
            failures.append(
                f"serving tax worsened >25% vs baseline ({reference['tax_ratio']}x)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
