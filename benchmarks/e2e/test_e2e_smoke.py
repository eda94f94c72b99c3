"""Smoke test of the end-to-end benchmark (tier 1, well under 20 s).

Runs ``run.py --smoke`` three times at once -- twice with one seed, once
with another -- over all four workloads and both trace modes, and checks
what later PRs rely on: every name in ``BENCHMARK.json`` is printed
exactly once per workload and run with a finite value, no operation
fails, the driver's JSON line is well formed, and the seed -- nothing
else -- decides the counts.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import EXACT_END_TO_END, EXACT_PER_LAYER, main as compare_main  # noqa: E402

CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
END_TO_END = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}


def parse(output: str):
    """``{(workload, metric): (value, unit)}``, appearance counts, JSON lines."""
    values, seen, results = {}, Counter(), []
    for line in output.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
        elif line and not line.startswith("#"):
            workload, name, value, unit = line.split()[:4]
            values[workload, name] = (float(value), unit)
            seen[workload, name] += 1
    return values, seen, results


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
             "--out", str(out / label)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for label, seed in (("a", 11), ("b", 11), ("c", 12))
    ]
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        outputs.append(stdout)
    return out, [parse(output) for output in outputs]


def test_every_declared_metric_is_printed_once_and_finite(runs):
    _, parsed = runs
    expected = {**END_TO_END, **PER_LAYER}
    for values, seen, _ in parsed:
        assert set(values) == {(w, name) for w in WORKLOADS for name in expected}
        assert set(seen.values()) == {1}
        for (_, name), (value, unit) in values.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert unit == expected[name]
            assert math.isfinite(value)
        for (workload, name), (value, _) in values.items():
            if name in END_TO_END:
                assert value > 0, (workload, name)


def test_driver_json_lines(runs):
    _, parsed = runs
    for _, _, results in parsed:
        assert len(results) == 2 * len(WORKLOADS)
        for result in results:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) in (set(END_TO_END), set(PER_LAYER))


def test_counts_follow_the_seed_and_nothing_else(runs):
    _, ((first, _, _), (again, _, _), (other, _, _)) = runs
    exact = EXACT_END_TO_END + EXACT_PER_LAYER
    for workload in WORKLOADS:
        same = [first[workload, name][0] for name in exact]
        assert same == [again[workload, name][0] for name in exact], workload
        assert same != [other[workload, name][0] for name in exact], workload
        assert first[workload, "bytes_per_op"] != other[workload, "bytes_per_op"]
        assert first[workload, "bench.failed_share"][0] == 0.0


def test_compare_agrees_with_itself_and_catches_a_moved_count(runs, capsys):
    out, _ = runs
    assert compare_main([str(out / "a"), str(out / "a"), "--same-commit"]) == 0
    assert "no regression" in capsys.readouterr().out
    moved = out / "moved"
    shutil.copytree(out / "a", moved)
    path = moved / WORKLOADS[0] / "result-trace0.json"
    result = json.loads(path.read_text())
    result["metrics"]["bytes_per_op"]["value"] += 1
    path.write_text(json.dumps(result))
    assert compare_main([str(out / "a"), str(moved), "--same-commit"]) == 1
    assert "bytes_per_op" in capsys.readouterr().out
