#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end metric's
median, quartiles and spread (the quartile distance over the median).

    python3 perfbench/stability.py --seeds 1-10 [--workloads a,b] [--out FILE]

Run it from the repository root. Workloads, run length and bounds come from
BENCHMARK.json. A metric is flagged when its spread is not below a third of
its bound (setup_s is exempt: only its median is compared between commits).
--out writes the figures as JSON, the form of perfbench/baseline.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(spec, workload, seed):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect: {lines[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(spec, workload, seed))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        figures = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            figures[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            flag = name != "setup_s" and spread >= bound / 3
            steady = steady and not flag
            print(f"{workload:12} {name:26} median {median:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f} "
                  f"bound {bound:5.3f}{'  <-- not steady' if flag else ''}")
        summary["workloads"][workload] = figures
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
