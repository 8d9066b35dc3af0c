#!/usr/bin/env python3
"""Build and run the simulator-speed benchmark.

Usage (from the repository root):

    python3 simbench/run.py --workload steady-translate --seed 1 \
        --seconds 20 --trace 0

Builds tpslib and the simbench binary from source with CMake into
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench), then runs
the binary with the same arguments.  Build output goes to stderr;
the last stdout line is the result object.  Run records (per-pass
values, host-noise diagnostics, traced spans) land in runs/ under the
build directory.  Exits 2, printing no result, when the build fails,
and 1 when a correctness check fails.  See simbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "simbench"))


def build(out):
    """Configure (first time) and build simbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    binary = os.path.join(out, "simbench")
    return subprocess.run([binary, "--out-dir", runs] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
