#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median, the quartiles and their distance as a share
of the median (the spread the metric's bound in BENCHMARK.json must cover).

Run from the repository root:

    python3 perfbench/noise.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]

Reads the command, workloads and run length from BENCHMARK.json. Exits
non-zero if any run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            t0 = time.time()
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if k in bounds)
            print(f"{workload} seed {seed} ({time.time() - t0:.1f} s) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f" (bound {bound})" if bound is not None else ""
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{note}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
