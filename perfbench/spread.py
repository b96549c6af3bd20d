#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Quartiles are statistics.quantiles(values, n=4). A spread above a third of
the bound is flagged "noisy"; above the bound, "FAIL". Each run's result and
per-layer values are appended as JSON lines to
.bench_build/perfbench/spread.jsonl.
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


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    log_path = os.path.join(ROOT, ".bench_build", "perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    bad = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.time() - t0
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, out.returncode))
                print("\n".join(l for l in lines if l.startswith("#")))
                bad = True
                continue
            layers = {}
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "layer" and parts[2] == "=":
                    layers[parts[1]] = float(parts[3])
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                      "result": result, "per_layer": layers}) + "\n")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %.1f s  %s" % (workload, seed, wall, "  ".join(
                "%s=%.6g" % (k, v[-1]) for k, v in values.items())), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > m["bound"]:
                verdict, bad = "FAIL", True
            elif spread > m["bound"] / 3:
                verdict = "noisy"
            print("  %-14s median %-12.6g spread %6.2f%%  bound %5.1f%%  %s" % (
                m["name"], med, 100 * spread, 100 * m["bound"], verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
