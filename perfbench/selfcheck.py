#!/usr/bin/env python3
"""Determinism self-check of the benchmark: run each workload twice with one
seed and require every exact per-layer count to match, and each run to pass
its own correctness checks.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [--workloads a,b]

This gates on deterministic work counters (events, packets, messages,
detector checks and alerts, controller actions, daemon frames and bytes),
never on wall time, so it holds on a noisy machine. Exit code 0 when every
workload repeats exactly, 1 otherwise. Takes about two minutes.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fattree-packet", "clos1k", "flow-campaign", "daemon-replay")

# Per-layer metrics that are exact for a given (workload, seed, seconds).
EXACT = (
    "sim.events", "net.tx_packets", "net.dropped_packets",
    "transport.data_packets", "transport.retx_packets", "transport.acks",
    "transport.messages", "collective.iterations",
    "flowpulse.checks", "flowpulse.alerts", "flowpulse.flow_iters",
    "flowpulse.packet_iters", "flowpulse.demotions", "flowpulse.clean_ratio",
    "flowpulse.detect_iters_p50", "ctrl.quarantines", "ctrl.restores",
    "ctrl.mitigate_ms_p50", "ctrl.recover_ms_p50", "ctrl.false_quarantine_ratio",
    "daemon.frames_in", "daemon.counters_rejected", "daemon.errors",
    "daemon.bytes_in", "daemon.bytes_out",
)
LINE = re.compile(r"^(?:e2e|layer)\s+(\S+) = (\S+) ")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    values = {}
    correct = False
    for line in out.stdout.splitlines():
        m = LINE.match(line)
        if m:
            values[m.group(1)] = m.group(2)
        if line.startswith("{"):
            correct = '"correct": true' in line
    return out.returncode == 0 and correct, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        (ok_a, a), (ok_b, b) = (run_once(workload, args.seed, args.seconds) for _ in range(2))
        diffs = [n for n in EXACT if a.get(n) != b.get(n)]
        missing = [n for n in EXACT if n not in a]
        good = ok_a and ok_b and not diffs and not missing
        ok = ok and good
        print("%-15s %s" % (workload, "ok" if good else "FAIL"))
        if not (ok_a and ok_b):
            print("  a run failed its correctness checks")
        for n in missing:
            print("  %s not reported" % n)
        for n in diffs:
            print("  %s: %s vs %s" % (n, a.get(n), b.get(n)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
