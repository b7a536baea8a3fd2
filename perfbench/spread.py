#!/usr/bin/env python3
"""Run every workload and report the run-to-run spread of its metrics.

    python3 perfbench/spread.py --runs 10 [--workload uq3-ew] [--first-seed 100]
    python3 perfbench/spread.py --runs 1 --workload uq1-eo --workload uq3-ew --workload uq2-online

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, on the workloads of BENCHMARK.json (or those named), and prints each
run's metrics and wall time. For every workload and metric it then prints
the median of the runs, with its unit, and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound. Exits 1 if any run failed
or was not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--first-seed", type=int, default=100)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            ok &= bool(result["correct"])
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            print(f"{name} seed {seed}: correct {result['correct']} wall {walls[-1]:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"== {name}: wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for k, vs in values.items():
            med = statistics.median(vs)
            line = f"  {k:24s} median {med:10.4g} {units[k]}"
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(k)
                flag = ""
                if bound is not None and k != "setup_s":
                    flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
                line += f"  spread {spread:6.3f}  bound {bound}  {flag}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
