"""Run the benchmark once per seed 1-10 and report each metric's median and
quartile spread (Q3 - Q1 as a share of the median), the steadiness test a
benchmark change has to pass.

    python3 perfbench/spread.py --workload sweep

Each run measures ``run_seconds`` from ``BENCHMARK.json``.  Runs are sequential.  The last line of output is a JSON summary, the form
``perfbench/BASELINE.json`` keeps per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SEEDS = tuple(range(1, 11))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict = {}
    units: dict = {}
    failed = 0
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
        ), flush=True)

    summary = {"workload": args.workload, "seeds": list(SEEDS),
               "seconds": seconds, "failed": failed, "metrics": {}}
    for name, vs in values.items():
        spread = stats.quartile_spread(vs) if len(vs) > 1 and statistics.median(vs) else 0.0
        summary["metrics"][name] = {
            "median": statistics.median(vs), "spread": spread, "unit": units[name],
        }
        print(f"{name:40s} median {statistics.median(vs):14.6g} {units[name]:8s} "
              f"spread {spread:.4f}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
