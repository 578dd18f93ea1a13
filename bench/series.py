#!/usr/bin/env python3
"""Record one entry of the BENCH series: every workload, untraced and traced.

    python3 bench/series.py --out bench/results/BENCH_<n>.json [--seconds 40]

Runs each workload on its default seed (so the reference values are checked)
with --trace 0 and --trace 1, and writes the environment, every sample's wall
time, the end-to-end and per-layer metrics and the failure counts to one file.
Exits 1 if any run was not correct.
"""

import argparse
import json
import sys
from pathlib import Path

import run as bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    series = {"seconds": args.seconds, "env": bench.environment(), "workloads": {}}
    correct = True
    for name in bench.WORKLOADS:
        seed = bench.REFERENCE[name]["seed"]
        entry = {"seed": seed}
        for trace in (False, True):
            record = bench.execute(name, seed, args.seconds, trace)
            bench.report(record)
            result = record["result"]
            correct = correct and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "fail_ratio": record["fail_ratio"],
                "claims": record["claims"],
                "wall_s_samples": {
                    kind: [s["wall_s"] for s in record["samples"] if s["kind"] == kind]
                    for kind in ("plain", "traced")
                },
                "setup_s_samples": record["setup_samples_s"],
                "metrics": result["metrics"],
            }
        series["workloads"][name] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(series, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
