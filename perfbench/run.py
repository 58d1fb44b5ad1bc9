#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload shortest|precision|parse|batch \\
        --seed N --seconds S --trace 0|1 [--plant-delay-ns X]

Run from the root of a checkout.  Builds libdragon4 from ./src and the
harness under .bench_build/perfbench (incremental after the first run),
then runs the harness.  The last line of standard output is the JSON
result; build output goes to standard error.  Reports and trace spans are
written to .bench_build/perfbench/out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("shortest", "precision", "parse", "batch")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def revision():
    """The git revision when the checkout is a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"),
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over src/ (paths and contents): names the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-delay-ns", type=float, default=0.0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside perfbench/: run from a full checkout")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", OUT_DIR, "--revision", revision(),
               "--source-digest", source_digest()]
    if args.plant_delay_ns > 0:
        command += ["--plant-delay-ns", repr(args.plant_delay_ns)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
