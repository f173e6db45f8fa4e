"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/spread.py --workloads gateway join train_evaluate \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--seconds 10]

Prints the wall time of each run and, per workload and metric, the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, which is how run-to-run spread is judged against each bound.  Every
result line is also kept under .bench_work/spread/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    keep = os.path.join(ROOT, ".bench_work", "spread")
    os.makedirs(keep, exist_ok=True)
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            line = proc.stdout.strip().splitlines()[-1]
            with open(os.path.join(keep, f"{workload}-{seed}-t{args.trace}.json"), "w") as fh:
                fh.write(line + "\n")
            res = json.loads(line)
            ok &= res["correct"]
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"wall={time.perf_counter() - started:.1f}s", flush=True)
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'OK' if share < bound / 3 else 'WIDE'}"
            print(f"  {name:34s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {share:7.4f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
