#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 vpbench/run.py --workload paper-v8k --seed 1 --seconds 20 --trace 0

The first call configures and builds vpbench/CMakeLists.txt (the library in
src/ plus the vpbench binary, Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The exit
code is the benchmark's, or non-zero when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vpbench")


def build(out):
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "vpbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("vpbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "vpbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
