"""End-to-end benchmark of the ParBoX reproduction: one command, every metric.

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--trace 0|1]
                                  [--seconds S] [--smoke] [--out DIR]

Each workload is generated from the seed, driven only through the
program's public API, and every reply is checked against a centralized
oracle.  ``--trace 0`` prints the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced run; without ``--trace``
both runs are made.  Every metric is printed by name with its unit, and
the last line of a run is one JSON object (the driver's contract).
Names, units and bounds live in ``BENCHMARK.json`` at the repo root.

Every workload runs in a child process that leads its own process group,
so the server and site-worker processes it starts are reaped on every
exit path, under a hard deadline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

#: Hard wall-clock limit of one run of one workload.
DEADLINE_S = 170.0
SMOKE_SECONDS = 0.2


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="seconds of measurement per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics; default: both")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="miniature documents and sub-second phases (the smoke test)")
    parser.add_argument("--out", help="directory for result JSON and spans.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    return args


# ---------------------------------------------------------------------------
# Supervisor: one child per workload, in its own process group
# ---------------------------------------------------------------------------


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def supervise(args: argparse.Namespace) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"the program's sources are not at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    passes = 2 if args.trace is None else 1
    for workload in args.workloads:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        command += [] if args.trace is None else ["--trace", str(args.trace)]
        command += ["--smoke"] if args.smoke else []
        command += ["--out", args.out] if args.out else []
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            output, _ = child.communicate(timeout=DEADLINE_S * passes)
        except subprocess.TimeoutExpired:
            print(f"# {workload}: no result within {DEADLINE_S * passes:.0f} s; killed",
                  file=sys.stderr)
        finally:
            _reap_group(child.pid)
            child.wait()
        if child.returncode != 0:
            print(f"# {workload} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        sys.stdout.write(output)
        sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# Child: one workload, one run per trace mode
# ---------------------------------------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(args: argparse.Namespace) -> int:
    for trace in (False, True) if args.trace is None else (bool(args.trace),):
        run_once(args, trace)
    return 0


def run_once(args: argparse.Namespace, trace: bool) -> None:
    from repro.obs.trace import SpanStore

    from drive import NPROC, RUNNERS
    from gen import SPECS, Inputs, scaled
    from procs import Reference, pin

    contract = load_contract()
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    workload = args.workload
    spec = scaled(SPECS[workload], args.smoke)

    if not args.smoke:  # the smoke test makes several runs side by side
        pin()  # callers, reference probe and program share one CPU (see procs.pin)
    loadavg = os.getloadavg()[0]
    noisy = loadavg > NPROC
    inputs = Inputs(spec, args.seed)
    store = SpanStore(capacity=200_000)
    probe = Reference()
    try:
        e2e, layer, budget, attempted, failed = RUNNERS[spec.kind](
            inputs, probe, args.seconds, trace, args.smoke, store
        )
    finally:
        probe.close()
    measured = dict(layer if trace else e2e)
    if trace:
        p50_s = sum(seconds for _, seconds in budget)
        measured.update({
            "bench.generate_s": inputs.generate_s,
            "bench.loadavg_start": loadavg,
            "bench.reconcile_gap_share": budget[-1][1] / p50_s,
            "bench.failed_share": failed / attempted,
        })
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    if not all(math.isfinite(value) for value in measured.values()):
        raise SystemExit(f"non-finite metric in {measured}")

    loop = sorted(probe.samples)
    print(f"# {workload} reference probe: median {loop[len(loop) // 2] * 1e3:.3f} ms, "
          f"fastest {loop[0] * 1e3:.3f} ms over {len(loop)} timings; timings are reported "
          f"at the speed at which it takes {probe.NOMINAL_S * 1e3:g} ms")
    print(f"# {workload} seed={args.seed} trace={int(trace)} seconds={args.seconds:g} "
          f"nproc={NPROC} loadavg={loadavg:.2f}{' NOISY' if noisy else ''} "
          f"attempted={attempted} failed={failed} failed_share={failed / attempted:.6f}")
    metrics = {}
    for name, unit in units.items():
        applies = name in measured
        value = measured.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} {value:.6g} {unit}"
              + ("" if applies else "  # does not apply to this workload"))
    if budget:
        total = sum(seconds for _, seconds in budget)
        print(f"# {workload} latency budget of the median batch ({total * 1e3:.3f} ms):")
        for label, seconds in budget:
            print(f"#   {seconds * 1e3:9.3f} ms {seconds / total:7.1%}  {label}")

    if args.out:
        out = Path(args.out) / workload
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": workload, "seed": args.seed, "trace": int(trace),
            "seconds": args.seconds, "smoke": args.smoke, "nproc": NPROC,
            "python": platform.python_version(), "commit": _commit(),
            "loadavg_start": loadavg, "noisy": noisy,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "budget_ms": [[label, seconds * 1e3] for label, seconds in budget],
        }
        with open(out / f"result-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        if trace:
            with open(out / "spans.json", "w", encoding="utf-8") as handle:
                handle.write(store.export_json(indent=0))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_child(args) if args.child else supervise(args)


if __name__ == "__main__":
    sys.exit(main())
