#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the benchmark binary) in
Release mode under .bench_build/ (or $CARGO_TARGET_DIR when set); later calls
only rebuild what changed. The arguments go to the binary unchanged. Build output
goes to stderr, so the last line of stdout is the binary's JSON result. The
exit status is the binary's: 0 on success, 1 when a correctness check fails,
2 on bad arguments. A failed build exits 1 and prints no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--parallel", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([os.path.join(out, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
