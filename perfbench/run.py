#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the stand-alone perfbench package (perfbench/CMakeLists.txt, an optimised
build of the simulator's library modules) into .bench_build/perfbench; later
calls only let CMake confirm it is current. All arguments go to the
perfbench binary, whose last line of output is the JSON result. Build output
goes to stderr. Exits non-zero, without a result, when the build fails.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
# One run must end within three minutes; leave room for start-up and exit.
RUN_TIMEOUT_S = 170


def build() -> Path:
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), *sys.argv[1:], "--out-dir", str(OUT)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
