"""Run every workload once and print each metric by name, with its unit,
and each workload's fail ratio.  Each run measures for the run_seconds of
BENCHMARK.json, the run length the bounds there were set on.

    python3 perfbench/table.py [--seed N] [--trace 0|1]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for wl in WORKLOADS:
        argv = [sys.executable, str(RUN), "--workload", wl, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{wl}: run failed: {done.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        print(f"{wl}: fail_ratio = {result['failed']}/{result['attempted']}"
              f" = {result['failed'] / result['attempted']:g}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
