"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/prove.py --workloads sweep,identities --seeds 1-10 [--trace 0|1] [--out FILE]

Runs run.py once per (workload, seed), one run at a time, with run_seconds
from BENCHMARK.json.  For each end-to-end metric it prints the median and the
spread: the distance between the first and third quartile of the values, as
a share of their median, next to the metric's bound.  --out writes the values
as JSON, e.g. to compare a later commit with perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        durations = []
        for seed in summary["seeds"]:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            durations.append(time.perf_counter() - started)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, {result['failed']} failed ops", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {"run_wall_s": {"max": max(durations), "values": durations}}
        print(f"{workload}: {len(durations)} runs, longest {max(durations):.1f} s, total {sum(durations):.0f} s")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "spread": spread, "values": series}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"  bound {bound}" + ("  (spread above bound/3)" if spread > bound / 3 else "")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:40s} median {median:14.6g}  spread {spread:7.4f}{flag}")
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
