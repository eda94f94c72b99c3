"""The served program: one ``ServingCluster`` in its own process.

Started by the harness for the serve workloads.  Builds the workload's
document (reporting how long that took, so the harness can keep its own
generation cost out of ``setup_s``), boots gateway + inline site
servers, prints one ``READY`` JSON line and serves until its stdin
closes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

from repro.serving import ServingCluster  # noqa: E402

from gen import SPECS, build_cluster, scaled  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    cluster = build_cluster(scaled(SPECS[args.workload], args.smoke), args.seed)
    generate_s = time.perf_counter() - started
    with ServingCluster(cluster) as tier:
        ready = {
            "host": tier.gateway.host,
            "port": tier.gateway.port,
            "generate_s": generate_s,
            "sites": {
                site_id: servers[0].port for site_id, servers in tier.sites.items()
            },
        }
        print("READY " + json.dumps(ready), flush=True)
        sys.stdin.read()  # the harness closes our stdin to stop us
    return 0


if __name__ == "__main__":
    sys.exit(main())
