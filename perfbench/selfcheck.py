#!/usr/bin/env python3
"""Sensitivity self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seeds 101,102,103] [--seconds 10]

Plants a calibrated delay in the harness wrapper around each
dragon4_to_chars call (benchmark code only; the library is untouched) and
shows that the benchmark sees it where it should:

  * shortest: cost_vs_ref rises past its bound;
  * parse:    cost_vs_ref stays within its bound.

The delay is twice the bound times the library's measured ns/value on
shortest, so the expected rise is twice the bound.  Medians over the seeds
are compared.  Exit status 0 means both held.  Takes about 4 runs per seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = os.path.join(ROOT, ".bench_build", "perfbench", "out",
                      "report-shortest.json")


def run(workload, seed, seconds, delay_ns):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if delay_ns:
        command += ["--plant-delay-ns", repr(delay_ns)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("selfcheck: %s seed %d failed:\n%s" %
                 (workload, seed, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("selfcheck: %s seed %d reported incorrect output" %
                 (workload, seed))
    return result["metrics"]["cost_vs_ref"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101,102,103")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "cost_vs_ref")

    base = {"shortest": [], "parse": []}
    lib_ns = []
    for seed in seeds:
        base["shortest"].append(run("shortest", seed, args.seconds, 0))
        with open(REPORT) as handle:
            report = json.load(handle)
        lib_ns.append(report["timings"]["lib_ns_per_value"]["median"])
        base["parse"].append(run("parse", seed, args.seconds, 0))
    delay_ns = 2 * bound * statistics.median(lib_ns)
    delayed = {w: [run(w, seed, args.seconds, delay_ns) for seed in seeds]
               for w in base}

    ok = True
    for workload, must_exceed in (("shortest", True), ("parse", False)):
        before = statistics.median(base[workload])
        after = statistics.median(delayed[workload])
        change = after / before - 1
        held = change > bound if must_exceed else abs(change) <= bound
        ok &= held
        print("%-8s cost_vs_ref %.4f -> %.4f (%+.1f%%, bound %.0f%%): %s" %
              (workload, before, after, 100 * change, 100 * bound,
               "past the bound as planted" if must_exceed and held else
               "within the bound" if held else "FAILED"))
    print("planted delay %.1f ns per dragon4_to_chars call "
          "(2 x bound x %.1f ns/value)" % (delay_ns, statistics.median(lib_ns)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
