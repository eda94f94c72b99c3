"""The separate analysis step: read ``run_table.csv``, compare, gate.

Deliberately decoupled from collection (muBench-style): the collector
only measures and writes artifacts; this module turns an aggregate CSV
into per-factor deltas and a pass/fail verdict against the committed
``BENCH_loadtest.json`` baseline.  Re-analysis of an old run directory
is therefore always possible without re-driving any load.

Gate philosophy (quick scale, CI):

* **Exact** where the system is deterministic -- the run-id set must
  match the baseline's, every request must be accounted for by a typed
  outcome, ``bytes_on_wire`` must equal the baseline byte for byte
  (same run id -> same planned queries -> same simulated ledger).
* **Generous tolerances** where wall clocks rule -- shared CI runners
  jitter, so throughput may sink to ``1/LATENCY_TOLERANCE`` of baseline
  and p95 may grow ``LATENCY_TOLERANCE``x before the gate trips.  The
  gate exists to catch a serving-tier regression measured in multiples,
  not a noisy percent.
* **Zero tolerance for the wrong failure kind** -- a healthy quick-scale
  cluster must produce no ``unavailable``/``error`` outcomes at all,
  and no more shedding than the baseline saw (plus one request's worth
  of slack).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.loadgen.collector import RUN_TABLE_COLUMNS

#: Factors the delta report sweeps (a subset of the CSV columns).
FACTORS = (
    "topology",
    "fragments",
    "engine",
    "executor",
    "batch_size",
    "arrival_rate",
)

#: Multiplier bounding how much worse wall-clock columns may get before
#: the baseline gate fails (CI runners are shared and noisy).
LATENCY_TOLERANCE = 4.0

#: Extra shed fraction allowed over the baseline's recorded rate.
SHED_SLACK = 0.02

_INT_COLUMNS = (
    "fragments",
    "batch_size",
    "repetition",
    "seed",
    "nodes_per_mb",
    "requests",
    "ok",
    "retried",
    "shed",
    "unavailable",
    "errors",
    "bytes_on_wire",
)
_FLOAT_COLUMNS = (
    "arrival_rate",
    "total_mb",
    "duration_s",
    "throughput_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_rate",
    "max_lag_s",
)


def load_run_table(path: Path) -> List[Dict[str, object]]:
    """Parse an aggregate CSV back into typed row dicts."""
    rows: List[Dict[str, object]] = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(RUN_TABLE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"run table is missing columns: {sorted(missing)}")
        for raw in reader:
            row: Dict[str, object] = dict(raw)
            for column in _INT_COLUMNS:
                row[column] = int(float(raw[column])) if raw[column] != "" else 0
            for column in _FLOAT_COLUMNS:
                row[column] = float(raw[column]) if raw[column] != "" else None
            rows.append(row)
    return rows


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [value for value in values if value is not None]
    if not present:
        return None
    return sum(present) / len(present)


def factor_deltas(rows: Sequence[Mapping[str, object]]) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Per-factor, per-level aggregate means.

    ``{factor: {level: {"runs": n, "throughput_rps": ..., "p95_ms": ...,
    "shed_rate": ..., "bytes_on_wire": ...}}}`` -- only factors with at
    least two observed levels appear (a constant column has no delta to
    report).
    """
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for factor in FACTORS:
        levels: Dict[str, List[Mapping[str, object]]] = {}
        for row in rows:
            levels.setdefault(str(row[factor]), []).append(row)
        if len(levels) < 2:
            continue
        out[factor] = {}
        for level, members in sorted(levels.items()):
            out[factor][level] = {
                "runs": len(members),
                "throughput_rps": _round(_mean([m["throughput_rps"] for m in members])),
                "p95_ms": _round(_mean([m["p95_ms"] for m in members])),
                "shed_rate": _round(_mean([m["shed_rate"] for m in members]), 4),
                "bytes_on_wire": _round(_mean([float(m["bytes_on_wire"]) for m in members])),
            }
    return out


def _round(value: Optional[float], digits: int = 3) -> Optional[float]:
    return None if value is None else round(value, digits)


def render_deltas(deltas: Mapping[str, Mapping[str, Mapping[str, object]]]) -> str:
    """Render the per-factor, per-level statistics as an indented text report."""
    lines: List[str] = []
    for factor, levels in deltas.items():
        lines.append(f"{factor}:")
        for level, stats in levels.items():
            lines.append(
                f"  {level:>12}: {stats['throughput_rps']} req/s  "
                f"p95={stats['p95_ms']}ms  shed={stats['shed_rate']}  "
                f"bytes={stats['bytes_on_wire']} ({stats['runs']} run(s))"
            )
    return "\n".join(lines) if lines else "(single-level table: no factor deltas)"


# ---------------------------------------------------------------------------
# Baseline document (BENCH_loadtest.json)
# ---------------------------------------------------------------------------

#: Per-run fields recorded in (and gated against) the baseline.
BASELINE_RUN_FIELDS = ("throughput_rps", "p95_ms", "shed_rate", "bytes_on_wire")


def build_baseline_entry(rows: Sequence[Mapping[str, object]], scale: str) -> Dict[str, object]:
    """The committed-baseline entry for one scale, from measured rows."""
    runs = {
        str(row["run_id"]): {field: row[field] for field in BASELINE_RUN_FIELDS}
        for row in rows
    }
    return {
        "scale": scale,
        "runs": runs,
        "throughput_rps": _round(_mean([row["throughput_rps"] for row in rows])),
        "p95_ms": _round(_mean([row["p95_ms"] for row in rows])),
        "shed_rate": _round(_mean([row["shed_rate"] for row in rows]), 4),
    }


def check_baseline_format(doc: object) -> List[str]:
    """Schema problems in a BENCH_loadtest.json document ([] = well-formed)."""
    problems: List[str] = []
    if not isinstance(doc, dict) or not doc:
        return ["baseline must be a non-empty JSON object keyed by scale"]
    for scale, entry in doc.items():
        prefix = f"scale {scale!r}"
        if not isinstance(entry, dict):
            problems.append(f"{prefix}: entry must be an object")
            continue
        if entry.get("scale") != scale:
            problems.append(f"{prefix}: 'scale' field must equal its key")
        runs = entry.get("runs")
        if not isinstance(runs, dict) or not runs:
            problems.append(f"{prefix}: 'runs' must be a non-empty object")
            runs = {}
        for run_id, run in runs.items():
            if not isinstance(run, dict):
                problems.append(f"{prefix}: run {run_id!r} must be an object")
                continue
            for field in BASELINE_RUN_FIELDS:
                if field not in run:
                    problems.append(f"{prefix}: run {run_id!r} is missing {field!r}")
        for field in ("throughput_rps", "p95_ms", "shed_rate"):
            if not isinstance(entry.get(field), (int, float)):
                problems.append(f"{prefix}: aggregate {field!r} must be a number")
    return problems


def load_baseline(path: Path) -> Dict[str, object]:
    """Read a committed baseline document; reject one in the wrong format."""
    doc = json.loads(Path(path).read_text())
    problems = check_baseline_format(doc)
    if problems:
        raise ValueError(
            "malformed baseline %s: %s" % (path, "; ".join(problems))
        )
    return doc


def gate_against_baseline(
    rows: Sequence[Mapping[str, object]],
    baseline_entry: Mapping[str, object],
    *,
    latency_tolerance: float = LATENCY_TOLERANCE,
    shed_slack: float = SHED_SLACK,
) -> List[str]:
    """Regression failures of measured rows vs one baseline scale entry.

    Returns a list of human-readable failure strings; empty = PASS.
    """
    failures: List[str] = []
    baseline_runs: Mapping[str, Mapping[str, object]] = baseline_entry["runs"]  # type: ignore[assignment]
    measured_ids = {str(row["run_id"]) for row in rows}
    expected_ids = set(baseline_runs)
    if measured_ids != expected_ids:
        failures.append(
            f"run-id set changed vs baseline "
            f"(missing {sorted(expected_ids - measured_ids)}, "
            f"new {sorted(measured_ids - expected_ids)}); regenerate the baseline"
        )
    for row in rows:
        run_id = str(row["run_id"])
        accounted = row["ok"] + row["retried"] + row["shed"] + row["unavailable"] + row["errors"]
        if accounted != row["requests"]:
            failures.append(
                f"{run_id}: {accounted} typed outcomes for {row['requests']} requests"
            )
        if row["unavailable"] or row["errors"]:
            failures.append(
                f"{run_id}: healthy cluster produced "
                f"{row['unavailable']} unavailable / {row['errors']} error outcomes"
            )
        reference = baseline_runs.get(run_id)
        if reference is None:
            continue
        if row["bytes_on_wire"] != reference["bytes_on_wire"]:
            failures.append(
                f"{run_id}: bytes_on_wire {row['bytes_on_wire']} != baseline "
                f"{reference['bytes_on_wire']} (deterministic ledger changed)"
            )
    mean_throughput = _mean([row["throughput_rps"] for row in rows])
    mean_p95 = _mean([row["p95_ms"] for row in rows])
    mean_shed = _mean([row["shed_rate"] for row in rows]) or 0.0
    base_throughput = float(baseline_entry["throughput_rps"])  # type: ignore[arg-type]
    base_p95 = float(baseline_entry["p95_ms"])  # type: ignore[arg-type]
    base_shed = float(baseline_entry["shed_rate"])  # type: ignore[arg-type]
    if mean_throughput is not None and mean_throughput < base_throughput / latency_tolerance:
        failures.append(
            f"mean throughput {mean_throughput:.2f} req/s fell below "
            f"{base_throughput:.2f}/{latency_tolerance:g} req/s"
        )
    if mean_p95 is not None and mean_p95 > base_p95 * latency_tolerance:
        failures.append(
            f"mean p95 {mean_p95:.2f}ms exceeds baseline {base_p95:.2f}ms "
            f"x{latency_tolerance:g}"
        )
    if mean_shed > base_shed + shed_slack:
        failures.append(
            f"shed rate {mean_shed:.4f} exceeds baseline {base_shed:.4f} + {shed_slack}"
        )
    return failures


def analyze(
    run_table_path: Path,
    *,
    baseline_path: Optional[Path] = None,
    scale: Optional[str] = None,
) -> Dict[str, object]:
    """The whole separate step: load, delta, optionally gate.

    Returns ``{"rows", "deltas", "failures", "scale"}``; ``failures`` is
    None when no baseline was requested, a (possibly empty) list when a
    baseline entry for this scale was found.
    """
    rows = load_run_table(run_table_path)
    if not rows:
        raise ValueError(f"{run_table_path} contains no runs")
    scale = scale or str(rows[0]["scale"])
    deltas = factor_deltas(rows)
    failures: Optional[List[str]] = None
    if baseline_path is not None and Path(baseline_path).exists():
        baseline = load_baseline(baseline_path)
        entry = baseline.get(scale)
        if entry is not None:
            failures = gate_against_baseline(rows, entry)
    return {"rows": rows, "deltas": deltas, "failures": failures, "scale": scale}


__all__ = [
    "BASELINE_RUN_FIELDS",
    "FACTORS",
    "LATENCY_TOLERANCE",
    "SHED_SLACK",
    "analyze",
    "build_baseline_entry",
    "check_baseline_format",
    "factor_deltas",
    "gate_against_baseline",
    "load_baseline",
    "load_run_table",
    "render_deltas",
]
