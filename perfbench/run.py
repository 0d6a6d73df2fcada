#!/usr/bin/env python3
"""Fleet benchmark entry point.

    python3 perfbench/run.py --workload explain_mix|stage2_heavy|append_reads \
        --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt: the repository's
libraries, dpclustx_router, dpclustx_serve and the harness) from source into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, then runs
the harness, whose last stdout line is the JSON result. Build output goes to
a log file in the build directory, never to stdout. Every file the run
writes, temporary files included, stays under the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explain_mix", "stage2_heavy", "append_reads")
TARGETS = ("dpclustx_router", "dpclustx_serve", "perfbench_harness")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    """Configures once, then builds the three targets (a no-op when current)."""
    binary = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(binary, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", binary,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", binary, "-j", jobs, "--target", *TARGETS])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                die("build failed: " + " ".join(step))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(needed):
            die("no DPClustX sources here (missing %s)" % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.abspath(build_dir), ROOT)
    if build_dir.startswith(".."):
        die("build directory must lie inside the checkout")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    binary = build(build_dir, env)
    sys.stdout.flush()
    harness = subprocess.run(
        [os.path.join(binary, "perfbench_harness"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--bin-dir", os.path.join(binary, "tools"),
         "--work-dir", os.path.join(build_dir, "run-" + args.workload)],
        env=env)
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
