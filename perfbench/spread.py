#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises each metric.

    python3 perfbench/spread.py --workload paper_warm --seeds 1-10 [--trace 1]
        [--seconds 10] [--smoke] [--json OUT [--note TEXT]]

Run from the repository root. For every metric it prints the median, the
first and third quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the interquartile spread as a share of the median, followed by
the wall-clock seconds each run took. ``--json OUT`` appends one JSON line
with the same summary (and ``--note``, say the commit and the host), the
form ``perfbench/trajectory.jsonl`` keeps.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--quiet", "--release", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--json")
    ap.add_argument("--note", default="")
    args = ap.parse_args()

    values, elapsed, failures = {}, [], 0
    for seed in seeds(args.seeds):
        cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", args.seconds, "--trace", args.trace]
        if args.smoke:
            cmd.append("--smoke")
        t = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        elapsed.append(time.monotonic() - t)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            failures += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                         if args.trace == "0")
        print(f"seed {seed}: {elapsed[-1]:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}",
              file=sys.stderr)

    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
              f"spread {100 * spread:6.2f}%")
    print(f"runs: {len(elapsed)}, incorrect: {failures}, "
          f"run seconds: median {statistics.median(elapsed):.1f}, max {max(elapsed):.1f}")
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                "trace": int(args.trace), "note": args.note,
                                "metrics": summary},
                               sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
