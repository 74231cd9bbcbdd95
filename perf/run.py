#!/usr/bin/env python3
"""Build and run the nanodesign benchmark.

    python3 perf/run.py --workload svc_mix --seed 1 --seconds 25 --trace 0
    python3 perf/run.py --workload timing_opt --seed 1 --seconds 25 --trace 1
    python3 perf/run.py --test

The first call configures and builds the library and the nanobench program
(Release) into .bench_build/ at the checkout root; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
nanobench's one-line JSON result. --trace 1 also writes the benchmark's
spans to .bench_build/traces/<workload>-seed<seed>.json. --test builds and
runs the benchmark's own unit tests instead of a workload.
"""

import argparse
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PERF_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["svc_mix", "timing_opt", "grid_scenario"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        build(["nanobench_tests"])
        return subprocess.run([os.path.join(BUILD_DIR, "nanobench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(["nanobench"])
    cmd = [os.path.join(BUILD_DIR, "nanobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(PERF_DIR, "expected_digests.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ)
    env.pop("NANO_OBS", None)  # obs stays off outside the traced window
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
