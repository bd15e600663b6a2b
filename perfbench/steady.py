"""Steadiness check: run one workload on several seeds and report, for
every end-to-end metric, the median and the spread between the first and
third quartile as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py --workload topology --runs 10 --first-seed 1

Runs are sequential, each in its own process.  A spread above the bound
(setup_s excepted) means two sets of runs of the same commit could
disagree by more than the bound; the benchmark aims for a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")

    lines = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit("seed %d: exit code %d\n%s" % (seed, proc.returncode, proc.stderr))
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(line)
        print("seed %d: correct %s, %d attempted, %d failed, %s" % (
            seed, line["correct"], line["attempted"], line["failed"],
            ", ".join("%s %.4f" % (k, v["value"]) for k, v in sorted(line["metrics"].items()))),
            flush=True)

    ok = all(line["correct"] for line in lines)
    shares = {line["failed"] / line["attempted"] for line in lines}
    if len(shares) != 1:
        print("failed share differs between runs: %s" % sorted(shares))
        ok = False
    print("%-12s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        values = [line["metrics"][m["name"]]["value"] for line in lines]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        steady = spread <= m["bound"] / 3
        if m["name"] != "setup_s":
            ok = ok and spread <= m["bound"]
        print("%-12s %12.6f %8.4f %8.3f %s" % (m["name"], med, spread, m["bound"],
                                               "" if steady else "(above a third of the bound)"))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
