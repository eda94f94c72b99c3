"""The open-loop load harness: determinism, open-loop property, typed
outcomes, differential agreement with the in-process oracle, collector
artifacts and the analysis gate.

The timing-sensitive tests (open-loop, shed) use deliberately coarse
margins: site delays of hundreds of milliseconds against schedule spans
of tens, so a pass/fail flip requires the scheduler to be off by an
order of magnitude, not a noisy CI beat.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from netfixtures import hard_deadline, leak_check

from repro.core.session import QuerySession
from repro.loadgen import (
    OUTCOMES,
    RUN_TABLE_COLUMNS,
    OpenLoopClient,
    build_baseline_entry,
    build_cluster,
    check_baseline_format,
    derive_seed,
    execute_run,
    execute_table,
    factor_deltas,
    gate_against_baseline,
    latency_percentiles_ms,
    load_run_table,
    plan_arrivals,
    plan_batches,
    plan_for_spec,
    quick_table,
    summarize_run,
)
from repro.loadgen.runtable import RunTable, default_table, spec_from_row
from repro.serving.cluster import ServingCluster


def tiny_table(**overrides) -> RunTable:
    """A one-run table small enough for unit tests that drive real load."""
    params = dict(requests=5, arrival_rates=(80.0,), topologies=("star",))
    params.update(overrides)
    return quick_table(**params)


# ---------------------------------------------------------------------------
# Run table: factorial structure, stable ids, deterministic seeds
# ---------------------------------------------------------------------------


def test_run_table_is_the_declared_factorial():
    table = quick_table()
    specs = list(table.specs())
    assert len(specs) == len(table) == 2 * 1 * 1 * 1 * 1 * 2 * 1
    assert len({spec.run_id for spec in specs}) == len(specs)
    # Ids encode every factor level.
    assert "star-f3-parbox-inline-b2-r30-poisson-rep0" in {s.run_id for s in specs}
    assert "chain-f3-parbox-inline-b2-r60-poisson-rep0" in {s.run_id for s in specs}
    # Default scale covers every axis of the ROADMAP factorial.
    default = default_table()
    assert len(default) == 2 * 2 * 2 * 2 * 2 * 1 * 1
    assert {spec.executor for spec in default.specs()} == {"inline", "process"}


def test_run_table_rejects_unknown_levels():
    with pytest.raises(ValueError):
        quick_table(topologies=("moebius",))
    with pytest.raises(ValueError):
        quick_table(executors=("serial",))  # in-process executors don't apply
    with pytest.raises(ValueError):
        quick_table(arrival="closed-loop")
    with pytest.raises(ValueError):
        quick_table(arrival_rates=(0.0,))


def test_same_run_id_plans_identical_schedules_and_query_mix():
    """The determinism satellite: seeds thread from the run table, so two
    executions of one run id plan byte-identical request sequences."""
    first = {spec.run_id: spec for spec in quick_table().specs()}
    second = {spec.run_id: spec for spec in quick_table().specs()}
    assert first.keys() == second.keys()
    for run_id, spec in first.items():
        twin = second[run_id]
        assert spec.seed == twin.seed == derive_seed(run_id, 7)
        schedule_a, batches_a = plan_for_spec(spec)
        schedule_b, batches_b = plan_for_spec(twin)
        assert schedule_a == schedule_b  # arrival schedule equality
        assert batches_a == batches_b  # query-mix equality
    # Different run ids get different seeds (CRC32 spreads them).
    seeds = {spec.seed for spec in first.values()}
    assert len(seeds) == len(first)


def test_arrival_plans_shapes():
    fixed = plan_arrivals(8, 40.0, "fixed", seed=3)
    assert len(fixed) == 8 and fixed[0] == 0.0
    assert all(b - a == pytest.approx(1 / 40.0) for a, b in zip(fixed, fixed[1:]))
    poisson = plan_arrivals(200, 40.0, "poisson", seed=3)
    assert len(poisson) == 200 and poisson[0] == 0.0
    assert all(b >= a for a, b in zip(poisson, poisson[1:]))
    # Mean gap converges on 1/rate (deterministic draw, generous margin).
    mean_gap = poisson[-1] / (len(poisson) - 1)
    assert 0.5 / 40.0 < mean_gap < 2.0 / 40.0
    with pytest.raises(ValueError):
        plan_arrivals(5, 10.0, "uniform")


def test_batches_draw_from_the_subscription_pool():
    batches = plan_batches(6, 3, seed=11)
    assert len(batches) == 6 and all(len(batch) == 3 for batch in batches)
    assert batches == plan_batches(6, 3, seed=11)
    assert batches != plan_batches(6, 3, seed=12)


def test_spec_row_round_trip():
    spec = next(iter(quick_table().specs()))
    row = summarize_run(spec, [])
    # summarize_run counts observed records in "requests"; restore the
    # planned count before rebuilding the spec.
    row["requests"] = spec.requests
    assert spec_from_row(row) == spec


# ---------------------------------------------------------------------------
# The open-loop property: arrivals are schedule-driven
# ---------------------------------------------------------------------------


def test_arrivals_are_schedule_driven_not_response_driven():
    """Slow responses must not slow the arrival sequence.

    Six requests arrive 50ms apart while every site takes 400ms to
    answer: a closed-loop client would need >= 2.4s to *send* them all;
    the open-loop client must dispatch the whole schedule in ~0.25s
    while the first response is still in flight.
    """
    spec = next(
        iter(tiny_table(requests=6, arrival_rates=(20.0,), arrival="fixed").specs())
    )
    schedule, batches = plan_for_spec(spec)
    with hard_deadline(60), leak_check() as clusters:
        with ServingCluster(build_cluster(spec), max_inflight=8, max_queue=8) as tier:
            clusters.append(tier)
            tier.set_site_delay(0.4)
            with OpenLoopClient(tier.gateway.host, tier.gateway.port) as load:
                records = load.run(schedule, batches)
    assert [record.status for record in records] == ["ok"] * 6
    # Every response was slow...
    assert all(record.latency_s >= 0.35 for record in records)
    # ...yet every dispatch stayed on its scheduled time: the last send
    # happens before the *first* response can have arrived.
    assert all(record.lag_s < 0.3 for record in records)
    last_send = max(record.sent_s for record in records)
    assert last_send < 0.35, (
        f"arrival sequence stretched to {last_send:.2f}s; "
        "a closed-loop client would need >2.4s"
    )


# ---------------------------------------------------------------------------
# Shed sanity: typed outcomes under overload, never exceptions or hangs
# ---------------------------------------------------------------------------


def test_overload_sheds_are_typed_and_excluded_from_percentiles():
    """Drive arrivals past max_inflight+max_queue: the harness must
    record typed shed outcomes (no exceptions, no hang) and keep shed
    requests out of the latency percentiles."""
    spec = next(iter(tiny_table(requests=10, arrival_rates=(200.0,)).specs()))
    schedule, batches = plan_for_spec(spec)
    with hard_deadline(120):
        with ServingCluster(build_cluster(spec), max_inflight=1, max_queue=0) as tier:
            tier.set_site_delay(0.5)
            with OpenLoopClient(
                tier.gateway.host, tier.gateway.port, timeout=30.0
            ) as load:
                records = load.run(schedule, batches)
    assert len(records) == 10
    assert all(record.status in OUTCOMES for record in records)
    statuses = {record.status for record in records}
    assert "shed" in statuses, f"no sheds at 200 req/s over a 2/s server: {statuses}"
    assert "error" not in statuses and "unavailable" not in statuses
    served = [record for record in records if record.served]
    sheds = [record for record in records if record.status == "shed"]
    assert served and sheds
    # Sheds return in microseconds; served requests took >= the site
    # delay.  If sheds leaked into the percentile estimate, p50 would
    # collapse below the service floor (sub-millisecond).
    row = summarize_run(spec, records)
    assert row["shed"] == len(sheds) and row["shed_rate"] == pytest.approx(
        len(sheds) / 10, abs=1e-3
    )
    assert row["p50_ms"] is not None and row["p50_ms"] >= 200.0
    assert row["bytes_on_wire"] == sum(record.ledger_bytes for record in served)
    # All-shed runs report no percentiles rather than garbage.
    all_shed = summarize_run(spec, sheds)
    assert all_shed["p50_ms"] is None and all_shed["throughput_rps"] == 0.0


# ---------------------------------------------------------------------------
# Differential: the harness's answers vs the in-process oracle
# ---------------------------------------------------------------------------


def test_quick_table_answers_match_in_process_oracle():
    """Every request the networked harness served must answer bitwise
    like the same batch evaluated in process on the same cluster."""
    table = quick_table(requests=4)
    with hard_deadline(300), leak_check() as clusters:
        for spec in table.specs():
            schedule, batches = plan_for_spec(spec)
            cluster = build_cluster(spec)
            with ServingCluster(cluster, default_engine=spec.engine) as tier:
                clusters.append(tier)
                with OpenLoopClient(
                    tier.gateway.host, tier.gateway.port, engine=spec.engine
                ) as load:
                    records = load.run(schedule, batches)
            assert [record.status for record in records] == ["ok"] * spec.requests
            with QuerySession(cluster, engine=spec.engine) as session:
                for record, batch in zip(records, batches):
                    expected = session.evaluate_batch(list(batch))
                    assert record.answers == tuple(expected.answers), (
                        f"{spec.run_id} request {record.index} diverged from oracle"
                    )
                    assert record.ledger_bytes == expected.metrics.bytes_total


# ---------------------------------------------------------------------------
# Collector: artifacts + aggregate CSV
# ---------------------------------------------------------------------------


def test_execute_run_writes_raw_artifacts(tmp_path):
    spec = next(iter(tiny_table().specs()))
    with hard_deadline(120):
        row = execute_run(spec, tmp_path, trace_every=2)
    run_dir = tmp_path / spec.run_id
    lines = (run_dir / "requests.jsonl").read_text().splitlines()
    assert len(lines) == spec.requests
    parsed = [json.loads(line) for line in lines]
    assert [record["index"] for record in parsed] == list(range(spec.requests))
    assert all(
        {"scheduled_s", "sent_s", "latency_s", "status", "lag_s"} <= record.keys()
        for record in parsed
    )
    before = json.loads((run_dir / "metrics_before.json").read_text())
    after = json.loads((run_dir / "metrics_after.json").read_text())
    served = lambda snap: sum(  # noqa: E731 - tiny local accessor
        snap["gateway_requests_total"]["values"].values()
    )
    assert served(after) - served(before) == spec.requests
    spans = json.loads((run_dir / "spans.json").read_text())
    assert spans["spans"], "trace_every=2 must sample span trees"
    assert row["requests"] == spec.requests


def test_execute_table_writes_aggregate_csv(tmp_path):
    table = tiny_table(requests=3)
    with hard_deadline(120):
        rows = execute_table(table, tmp_path, trace_every=0)
    path = tmp_path / "run_table.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == ",".join(RUN_TABLE_COLUMNS)
    loaded = load_run_table(path)
    assert [row["run_id"] for row in loaded] == [row["run_id"] for row in rows]
    for row in loaded:
        assert row["requests"] == 3
        assert isinstance(row["bytes_on_wire"], int)
        assert row["throughput_rps"] > 0


def test_latency_percentiles_use_obs_histogram():
    estimates = latency_percentiles_ms([0.004] * 50 + [0.2] * 50)
    # Interpolated within the obs histogram's buckets: p50 near the
    # 4ms-observation bucket, p99 in the 200ms one.
    assert estimates[0.5] <= 10.0
    assert 100.0 <= estimates[0.99] <= 250.0
    empty = latency_percentiles_ms([])
    assert empty == {0.5: None, 0.95: None, 0.99: None}


# ---------------------------------------------------------------------------
# Analysis: deltas and the regression gate (synthetic rows, no sockets)
# ---------------------------------------------------------------------------


def synthetic_rows():
    rows = []
    for spec in quick_table().specs():
        rows.append(
            {
                **summarize_run(spec, []),
                "requests": 10,
                "ok": 10,
                "throughput_rps": 50.0 + 10 * (spec.arrival_rate == 60.0),
                "p50_ms": 5.0,
                "p95_ms": 20.0,
                "p99_ms": 30.0,
                "shed_rate": 0.0,
                "bytes_on_wire": 1000 + spec.fragments,
                "duration_s": 1.0,
            }
        )
    return rows


def test_factor_deltas_only_cover_varying_factors():
    deltas = factor_deltas(synthetic_rows())
    # The quick table's axes.
    assert set(deltas) == {"topology", "arrival_rate"}
    assert deltas["arrival_rate"]["60.0"]["throughput_rps"] == 60.0
    assert deltas["arrival_rate"]["30.0"]["throughput_rps"] == 50.0
    assert deltas["topology"]["star"]["runs"] == 2


def test_gate_passes_against_own_baseline_and_catches_regressions():
    rows = synthetic_rows()
    entry = build_baseline_entry(rows, "quick")
    assert check_baseline_format({"quick": entry}) == []
    assert gate_against_baseline(rows, entry) == []

    slow = [dict(row, p95_ms=row["p95_ms"] * 10) for row in rows]
    assert any("p95" in failure for failure in gate_against_baseline(slow, entry))

    drifted = [dict(row, bytes_on_wire=row["bytes_on_wire"] + 1) for row in rows]
    assert any("bytes_on_wire" in f for f in gate_against_baseline(drifted, entry))

    broken = [dict(row, errors=2, ok=row["ok"] - 2) for row in rows]
    assert any("error" in f for f in gate_against_baseline(broken, entry))

    unaccounted = [dict(row, ok=row["ok"] - 1) for row in rows]
    assert any("typed outcomes" in f for f in gate_against_baseline(unaccounted, entry))

    renamed = [dict(row, run_id=row["run_id"] + "-x") for row in rows]
    assert any("run-id set" in f for f in gate_against_baseline(renamed, entry))


def test_check_baseline_format_rejects_mangled_documents():
    assert check_baseline_format([]) != []
    assert check_baseline_format({}) != []
    entry = build_baseline_entry(synthetic_rows(), "quick")
    broken = json.loads(json.dumps({"quick": entry}))
    del broken["quick"]["runs"][next(iter(broken["quick"]["runs"]))]["bytes_on_wire"]
    assert any("bytes_on_wire" in p for p in check_baseline_format(broken))
    mislabeled = json.loads(json.dumps({"quick": entry}))
    mislabeled["quick"]["scale"] = "default"
    assert any("must equal its key" in p for p in check_baseline_format(mislabeled))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_loadtest_quick_and_analyze_only(tmp_path, monkeypatch, capsys):
    from repro import cli
    import repro.loadgen as loadgen

    monkeypatch.setattr(
        loadgen, "table_for_scale", lambda scale, **kw: tiny_table(requests=3)
    )
    out = tmp_path / "lt"
    baseline = tmp_path / "BENCH_loadtest.json"
    with hard_deadline(120):
        assert cli.main(["loadtest", "--quick", "--out", str(out)]) == 0
    assert (out / "run_table.csv").exists()
    # Build a baseline from the collected rows, then gate analyze-only.
    rows = load_run_table(out / "run_table.csv")
    baseline.write_text(json.dumps({"quick": build_baseline_entry(rows, "quick")}))
    assert (
        cli.main(
            ["loadtest", "--analyze-only", "--out", str(out), "--baseline", str(baseline)]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "[PASS] regression gate" in captured.out
    # Missing run table in analyze-only mode is a usage error, not a crash.
    assert cli.main(["loadtest", "--analyze-only", "--out", str(tmp_path / "no")]) == 2
