"""Regenerate the README's figures: spreads over seeds and tracing overhead.

    python3 perfbench/report.py [--runs 10] [--seconds 20] [--first-seed 1]

For each workload: ``--runs`` untraced runs on consecutive seeds, then one
traced run on the first seed.  Prints each run's result line, then one
markdown table per workload with the median, the quartile spread
(Q3 - Q1) / median of every end-to-end metric as ``statistics.quantiles``
gives it, and the tracing overhead (traced minus untraced wall time on the
same seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    line = out.strip().splitlines()[-1]
    print(workload, seed, f"trace={trace}", line, flush=True)
    return json.loads(line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.runs)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    tables = []
    for workload in workloads:
        results = [run(workload, s, args.seconds, 0) for s in seeds]
        traced = run(workload, args.first_seed, args.seconds, 1)
        rows = [f"### {workload}", "",
                "| metric | median | (Q3 - Q1) / median | min | max |",
                "| --- | --- | --- | --- | --- |"]
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            unit = first["unit"]
            rows.append(f"| {name} ({unit}) | {med:.4g} | {(q3 - q1) / med:.3f} | "
                        f"{min(vals):.4g} | {max(vals):.4g} |")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        wall = traced["metrics"]["trace.wall_s"]["value"]
        base = results[0]["metrics"]["wall_s"]["value"]
        rows += ["", f"Failed share of attempted jobs: {shares}; all correct: "
                 f"{all(r['correct'] for r in results)}.  Tracing overhead on seed "
                 f"{args.first_seed}: {wall:.3f} s traced against {base:.3f} s untraced "
                 f"({(wall - base) / base:+.1%}); glue "
                 f"{traced['metrics']['trace.glue_s']['value']:.4f} s per round.", ""]
        tables.append("\n".join(rows))
    print("\n".join(tables))


if __name__ == "__main__":
    main()
