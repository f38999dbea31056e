#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the bounds are judged.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 45]

Runs `run.py` once per seed and prints, per metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), plus the failed share of every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="45")
    args = ap.parse_args()
    values, shares = {}, []
    for seed in seeds(args.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", "0"],
                             cwd=os.path.dirname(HERE), capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append((res["failed"], res["attempted"]))
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("%-24s median %-14.6g spread %.4f" % (k, med, spread))
    print("failed shares: " + ", ".join("%d/%d" % s for s in shares))


if __name__ == "__main__":
    main()
