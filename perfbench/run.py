#!/usr/bin/env python3
"""Builds and runs the loopback serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark binary
(Release) into .bench_build/ at the repository root; later runs only
re-check the build. The benchmark writes its outputs under .bench_out/. Build output goes to stderr, so the benchmark's
stdout ends with its one-line JSON result. Workloads and metrics are
defined in perfbench/METRICS.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: the library sources (CMakeLists.txt, "
                         "src/) are not next to perfbench/; nothing to build\n")
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "loopback_bench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD, "loopback_bench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
