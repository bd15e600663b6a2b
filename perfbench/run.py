"""polycx benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload delaunay-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up (import plus input generation and
serialisation) is measured five times and its median reported.  Then
whole passes over the workload's jobs repeat until --seconds have elapsed;
the first pass's outputs go through the independent checkers in
checks.py, and every later pass must reproduce them exactly.

Times are reported in reference seconds.  The machines this runs on are
shared, and their speed drifts by tens of percent within seconds.  So
while jobs run, a timer signal samples a fixed calibration kernel (exact
rational elimination, no polycx code) every CAL_INTERVAL_S; job times
exclude the samples, and each is scaled by CAL_UNIT_S over the kernel's
mean time per unit in the same pass.  A change to polycx moves the jobs,
never the kernel; raw times and scale factors are kept in the record.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
spends the first half of the time on untraced passes and the rest on
passes with tracer.py's wrappers installed, and prints the per-layer
metrics, including the tracing overhead.  --workload all runs every
workload in a fresh process of its own and prints a table.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (backend, Python
version, git SHA, per-pass times) goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
CAL_UNIT_S = 0.0025      # seconds per calibration unit at the reference speed
CAL_INTERVAL_S = 0.05    # wall time between calibration samples

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import polycx, polycx.cli; "
                "print(time.perf_counter() - t)")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds():
    """Time to import polycx in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit("cannot import polycx from %s:\n%s" % (SRC, proc.stderr.strip()))
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Calibrator:
    """Samples the machine's speed while work runs: every CAL_INTERVAL_S of
    wall time a timer signal runs one unit of a fixed kernel (exact
    Fraction row reduction, no polycx code) and times it."""

    def __init__(self):
        self.matrix = [[Fraction((i * 7 + j * 3 + 1) % 11 - 5, (i + j) % 5 + 1)
                        for j in range(8)] for i in range(8)]
        self.units = 0
        self.seconds = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        checks.rref(self.matrix)
        self.seconds += time.perf_counter() - t0
        self.units += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self):
        """Reference seconds per measured second."""
        if not self.units:
            self._tick()
        return CAL_UNIT_S * self.units / self.seconds


def run_pass(jobs):
    """Run every job once under a Calibrator.  Job times exclude the
    kernel's own time.  Returns (per-job seconds, scale factor, outputs,
    failures, share of the jobs' wall time that was theirs)."""
    times, outputs, failures = [], [], []
    gross = 0.0
    with Calibrator() as cal:
        for name, fn in jobs:
            t0, c0 = time.perf_counter(), cal.seconds
            try:
                outputs.append(fn())
            except Exception as e:  # a failed job is counted, the pass goes on
                outputs.append(None)
                failures.append("%s: %s: %s" % (name, type(e).__name__, e))
            t1, c1 = time.perf_counter(), cal.seconds
            times.append(t1 - t0 - (c1 - c0))
            gross += t1 - t0
    return times, cal.factor(), outputs, failures, sum(times) / gross


def digest(result):
    text = json.dumps(result, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(args, spec):
    sys.path.insert(0, SRC)
    import polycx  # noqa: F401  (fails here, before any result, without the program)
    import polycx.cli  # noqa: F401

    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []      # raw seconds
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            workload = cls(args.seed, workdir)
            setups.append(t_import + time.perf_counter() - t0)

        errors = ["checker accepted a wrong input: " + name
                  for name in checks.negative_controls()]
        tracer = None
        passes = []      # (traced, per-job raw seconds, scale factor)
        layers = []
        spans = []
        first = None
        failure_notes = []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if passes and elapsed >= args.seconds and (layers or not args.trace):
                break
            if args.trace and tracer is None and passes and elapsed >= args.seconds / 2:
                tracer = tracing.Tracer()
                tracer.install()
            times, factor, outputs, failures, own = run_pass(workload.jobs())
            if tracer is not None:
                # kernel samples land in whichever span is open; they take
                # a uniform share of wall time, so remove that share
                spans = tracer.take()
                layers.append({name: v * factor * own if tracing.is_time(name) else v
                               for name, v in tracing.aggregate(spans).items()})
            passes.append((tracer is not None, times, factor))
            attempted += len(times)
            failed += len(failures)
            failure_notes.extend(failures[:3])
            if not failures:
                result = workload.collect(outputs)
                if first is None:
                    first = digest(result)
                    errors.extend(workload.check(result))
                elif digest(result) != first:
                    errors.append("pass %d differs from the first pass" % len(passes))
            if tracer is not None:
                tracer.take()  # drop the spans of collect()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def wall(traced):
        return statistics.median(sum(t) * f for tr, t, f in passes if tr == traced)

    if args.trace:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = wall(True) - wall(False)
        wanted = spec["per_layer"]
    else:
        per_job = [statistics.median(col) for col in
                   zip(*([x * f for x in t] for _, t, f in passes))]
        values = {
            "setup_s": statistics.median(setups) * statistics.median(f for _, _, f in passes),
            "wall_s": wall(False),
            "job_p50_s": statistics.median(per_job),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, errors + failure_notes[:10], passes, setups, spans


def write_record(args, line, errors, passes, setups, spans):
    import polycx.rationals
    qq = polycx.rationals.QQ
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": line, "errors": errors,
        "backend": "%s.%s" % (qq.__module__, qq.__name__),
        "python": platform.python_version(), "git_sha": git_sha(),
        "setup_raw_s": setups,
        "passes": [{"traced": tr, "raw_wall_s": sum(t), "scale": f, "raw_job_s": t}
                   for tr, t, f in passes],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans:
        tracing.write_spans(stem + ".spans.jsonl", spans)


def run_all(args, spec):
    """Every workload in a fresh process; a table, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit("workload %s failed with exit code %d" % (w["name"], proc.returncode))
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print("%-16s attempted %5d  failed %3d  correct %s"
              % (w["name"], line["attempted"], line["failed"], line["correct"]))
        for name, m in line["metrics"].items():
            print("    %-40s %14.6f %s" % (name, m["value"], m["unit"]))
            total["metrics"]["%s.%s" % (w["name"], name)] = m
        total["correct"] = total["correct"] and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
    print(json.dumps(total, sort_keys=True))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="polycx benchmark")
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        run_all(args, spec)
        return
    line, errors, passes, setups, spans = run_workload(args, spec)
    write_record(args, line, errors, passes, setups, spans)
    for e in errors[:20]:
        print("check: " + e, file=sys.stderr)
    print("%s seed %d: %d passes, %d jobs attempted, %d failed, correct %s"
          % (args.workload, args.seed, len(passes), line["attempted"], line["failed"],
             line["correct"]))
    for name, m in line["metrics"].items():
        print("  %-40s %.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
