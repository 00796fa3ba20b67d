#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload lt-cli --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
metric its median, its quartile spread (Q3 - Q1) as a share of the median,
and the bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, bad = {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            bad.append(seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)

    print(f"{args.workload}: {len(args.seeds)} seeds, incorrect runs: {bad}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:36s} median {med:.6g}  spread {spread:.4f}  "
              f"bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
