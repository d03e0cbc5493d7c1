#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, measured the way the
benchmark contract does: ten runs of the BENCHMARK.json command per
workload, then the distance between the first and third quartile of each
metric's ten values as a share of their median.

    benchmark/spread.py run OUT.jsonl {1..10}    one run per seed listed
    benchmark/spread.py run OUT.jsonl 0 0 0 0 0 0 0 0 0 0
    benchmark/spread.py show A.jsonl [B.jsonl]   the table; with B, also how
                                                 far B's medians are from A's

Ten runs take about 16 minutes. The files under benchmark/spread/ were made
with this loop on the reference host.
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(out, seeds):
    with open(out, "w") as f:
        for s in seeds:
            for w in MANIFEST["workloads"]:
                cmd = MANIFEST["command"] + [
                    "--workload", w["name"], "--seed", str(s),
                    "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0",
                ]
                start = time.monotonic()
                done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
                row = {
                    "workload": w["name"],
                    "seed": s,
                    "elapsed_s": round(time.monotonic() - start, 3),
                    "result": json.loads(done.stdout.splitlines()[-1]),
                }
                f.write(json.dumps(row) + "\n")
                f.flush()


def load(path):
    values = {}
    for line in open(path):
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            values.setdefault((row["workload"], name), []).append(m["value"])
    return values


def show(a, b=None):
    first, second = load(a), load(b) if b else {}
    print(f"{'workload':14} {'metric':18} {'median':>16} {'iqr/median':>11} {'range/median':>13}"
          + (f" {'second median':>16} {'apart':>8}" if b else ""))
    for (w, name), xs in first.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        line = (f"{w:14} {name:18} {med:16.6f} {100 * (q3 - q1) / med:10.2f}%"
                f" {100 * (max(xs) - min(xs)) / med:12.2f}%")
        if (w, name) in second:
            other = statistics.median(second[(w, name)])
            line += f" {other:16.6f} {100 * (other - med) / med:+7.2f}%"
        print(line)


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "run":
        run(args[1], [int(s) for s in args[2:]])
    elif len(args) in (2, 3) and args[0] == "show":
        show(*args[1:])
    else:
        sys.exit(__doc__)
