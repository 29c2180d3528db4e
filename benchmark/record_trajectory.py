#!/usr/bin/env python3
"""Measures every workload over several seeds and records a trajectory point.

    python3 benchmark/record_trajectory.py --seeds 1-10 --trace-seeds 1-3 \\
        --label "what changed"

Run it from the repository root.  For each workload of BENCHMARK.json it runs
run.py for run_seconds once per seed with --trace 0 and once per trace seed
with --trace 1, then prints, for
every metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.  Unless --dry-run is given, the point is appended
to benchmark/trajectory.json with the stamp of the runs.  Exits non-zero if
any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    stamp = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', lines[0]))
    stamp = {k: v.strip('"') for k, v in stamp.items()}
    for line in lines:
        if line.startswith("# FAIL"):
            print("   ", line, file=sys.stderr)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result ({result['failed']} failed)")
    return result, stamp


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1-3")
    parser.add_argument("--label", default="")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    point = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
             "trace_seeds": args.trace_seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        samples = {}
        units = {}
        trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []
        for trace, seeds in ((0, seed_list(args.seeds)), (1, trace_seeds)):
            for seed in seeds:
                result, stamp = run_once(workload, seed, seconds, trace)
                for key in ("commit", "hardware_threads", "build_type", "compiler"):
                    point[key] = stamp.get(key, "")
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"{workload} seed {seed} trace {trace}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        stats = {}
        for name, values in samples.items():
            stats[name] = {"unit": units[name], **summarize(values)} if len(values) >= 2 else \
                {"unit": units[name], "median": values[0], "n": 1}
            s = stats[name]
            print(f"  {workload:12s} {name:26s} median {s['median']:<12.6g} "
                  f"spread {s.get('spread', 0.0):.4f} (n={s['n']})")
        point["workloads"][workload] = stats

    if not args.dry_run:
        trajectory = {"points": []}
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as f:
                trajectory = json.load(f)
        trajectory["points"].append(point)
        with open(TRAJECTORY, "w") as f:
            json.dump(trajectory, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"record_trajectory.py: {e}", file=sys.stderr)
        sys.exit(1)
