"""Execute a run table and collect its artifacts.

Per run (``OUT/<run_id>/``):

* ``requests.jsonl`` -- one JSON line per request: schedule vs actual
  send time, latency, typed outcome, answers, ledger bytes.
* ``metrics_before.json`` / ``metrics_after.json`` -- the gateway's
  metrics-registry snapshots scraped over the wire immediately before
  and after the load (their delta is the server's own account of the
  run: requests, sheds, latency histogram).
* ``spans.json`` -- a span-tree sample (every ``trace_every``-th
  request is traced through gateway -> coordinator -> sites).

Aggregate (``OUT/run_table.csv``): one row per run with the factor
levels plus throughput, p50/p95/p99 latency, shed rate and
bytes-on-wire.  Latency percentiles are computed by feeding the served
requests' latencies through a :mod:`repro.obs.metrics` histogram and
reading :func:`~repro.obs.metrics.histogram_percentiles` -- the same
estimator the serving tier itself reports, so client-side and
server-side numbers are comparable by construction.  ``bytes_on_wire``
is the deterministic simulated ledger's ``bytes_total`` summed over
served requests: the paper's data-shipped measure, exactly reproducible
for a given run id (the analysis step gates on it bitwise).

Shed/unavailable/error requests are **excluded** from latency
percentiles and throughput -- a rejection in microseconds must not be
allowed to "improve" the latency columns.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, histogram_percentiles
from repro.obs.trace import SpanStore
from repro.serving.cluster import ServingCluster

from repro.loadgen.client import OpenLoopClient, RequestRecord, SERVED, plan_for_spec
from repro.loadgen.runtable import RunSpec, RunTable, build_cluster

#: The aggregate CSV's columns, in order (the format the analysis step
#: and the baseline gate both key on).
RUN_TABLE_COLUMNS = (
    "run_id",
    "scale",
    "topology",
    "fragments",
    "engine",
    "executor",
    "batch_size",
    "arrival_rate",
    "arrival",
    "repetition",
    "seed",
    "total_mb",
    "nodes_per_mb",
    "requests",
    "ok",
    "retried",
    "shed",
    "unavailable",
    "errors",
    "duration_s",
    "throughput_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_rate",
    "bytes_on_wire",
    "max_lag_s",
)

#: Latency buckets for the percentile estimate: finer than the serving
#: default at the microsecond end because loopback quick runs live there.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def latency_percentiles_ms(
    latencies_s: Sequence[float], quantiles: Sequence[float] = (0.5, 0.95, 0.99)
) -> Dict[float, Optional[float]]:
    """Histogram-estimated percentiles (ms) of served-request latencies.

    Deliberately routed through ``repro.obs``'s fixed-bucket histogram
    rather than ``statistics.quantiles`` so the load harness reports
    latency with exactly the estimator the gateway's own
    ``gateway_request_seconds`` scrape uses.
    """
    if not latencies_s:
        return {q: None for q in quantiles}
    registry = MetricsRegistry("loadgen")
    histogram = registry.histogram(
        "loadgen_request_seconds", "Open-loop client latency", buckets=LATENCY_BUCKETS
    )
    for latency in latencies_s:
        histogram.observe(latency)
    snapshot_value = registry.snapshot()["loadgen_request_seconds"]["values"][""]
    estimates = histogram_percentiles(snapshot_value, quantiles)
    return {
        q: (None if seconds is None else round(seconds * 1000, 3))
        for q, seconds in estimates.items()
    }


def summarize_run(spec: RunSpec, records: Sequence[RequestRecord]) -> Dict[str, object]:
    """One ``run_table.csv`` row from a run's request records."""
    served = [record for record in records if record.status in SERVED]
    sheds = sum(1 for record in records if record.status == "shed")
    unavailable = sum(1 for record in records if record.status == "unavailable")
    errors = sum(1 for record in records if record.status == "error")
    if records:
        duration = max(record.done_s for record in records) - min(
            record.sent_s for record in records
        )
    else:
        duration = 0.0
    duration = max(duration, 1e-9)
    percentiles = latency_percentiles_ms([record.latency_s for record in served])
    return {
        "run_id": spec.run_id,
        "scale": spec.scale,
        **spec.factor_levels(),
        "repetition": spec.repetition,
        "seed": spec.seed,
        "total_mb": spec.total_mb,
        "nodes_per_mb": spec.nodes_per_mb,
        "requests": len(records),
        "ok": sum(1 for record in records if record.status == "ok"),
        "retried": sum(1 for record in records if record.status == "retried"),
        "shed": sheds,
        "unavailable": unavailable,
        "errors": errors,
        "duration_s": round(duration, 6),
        "throughput_rps": round(len(served) / duration, 3) if served else 0.0,
        "p50_ms": percentiles[0.5],
        "p95_ms": percentiles[0.95],
        "p99_ms": percentiles[0.99],
        "shed_rate": round(sheds / len(records), 4) if records else 0.0,
        "bytes_on_wire": sum(record.ledger_bytes for record in served),
        "max_lag_s": round(max((record.lag_s for record in records), default=0.0), 6),
    }


def _scrape(tier: ServingCluster) -> Dict[str, object]:
    with tier.client(timeout=10.0) as client:
        return client.metrics().snapshot


def _write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def execute_run(
    spec: RunSpec,
    out_dir: Path,
    *,
    max_inflight: int = 8,
    max_queue: int = 16,
    trace_every: int = 5,
    site_delay: float = 0.0,
) -> Dict[str, object]:
    """Boot the spec's serving tier, run the load, write the artifacts.

    ``site_delay`` is the harness hook for overload studies: every
    inline site server sleeps that long per request, so arrival rates
    beyond the admission limit deterministically shed.
    """
    run_dir = Path(out_dir) / spec.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    schedule, batches = plan_for_spec(spec)
    cluster = build_cluster(spec)
    site_mode = "process" if spec.executor == "process" else "inline"
    tier = ServingCluster(
        cluster,
        site_mode=site_mode,
        default_engine=spec.engine,
        max_inflight=max_inflight,
        max_queue=max_queue,
    )
    with tier:
        if site_delay:
            tier.set_site_delay(site_delay)
        metrics_before = _scrape(tier)
        _write_json(run_dir / "metrics_before.json", metrics_before)
        with OpenLoopClient(
            tier.gateway.host,
            tier.gateway.port,
            engine=spec.engine,
            trace_every=trace_every,
        ) as load:
            records = load.run(schedule, batches)
            spans = list(load.spans)
        metrics_after = _scrape(tier)
        _write_json(run_dir / "metrics_after.json", metrics_after)
    with (run_dir / "requests.jsonl").open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_obj(), sort_keys=True) + "\n")
    store = SpanStore()
    store.ingest_wire(spans)
    (run_dir / "spans.json").write_text(store.export_json(indent=2))
    return summarize_run(spec, records)


def write_run_table(rows: Sequence[Dict[str, object]], path: Path) -> Path:
    """The aggregate CSV, with the stable column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RUN_TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({column: row.get(column, "") for column in RUN_TABLE_COLUMNS})
    return path


def execute_table(
    table: RunTable,
    out_dir: Path,
    *,
    progress: Optional[Callable[[str], None]] = None,
    trace_every: int = 5,
) -> List[Dict[str, object]]:
    """Run every spec in the table; write per-run artifacts + the CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, object]] = []
    for index, spec in enumerate(table.specs()):
        started = time.perf_counter()
        row = execute_run(
            spec,
            out_dir,
            max_inflight=table.max_inflight,
            max_queue=table.max_queue,
            trace_every=trace_every,
        )
        rows.append(row)
        if progress is not None:
            progress(
                f"[{index + 1}/{len(table)}] {spec.run_id}: "
                f"{row['throughput_rps']} req/s, p95={row['p95_ms']}ms, "
                f"shed={row['shed']}/{row['requests']} "
                f"({time.perf_counter() - started:.1f}s)"
            )
    write_run_table(rows, out_dir / "run_table.csv")
    return rows


__all__ = [
    "LATENCY_BUCKETS",
    "RUN_TABLE_COLUMNS",
    "execute_run",
    "execute_table",
    "latency_percentiles_ms",
    "summarize_run",
    "write_run_table",
]
