#!/usr/bin/env python3
"""Build perfbench from this checkout's sources, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale full|quick]

perfbench and the libraries it links are built once, in Release, into
.bench_build/ at the repository root; later runs reuse that build. Build
output is shown (on stderr) only when a step fails, so the last stdout line
stays perfbench's JSON result. Exits non-zero without a result when the
lossburst sources are not next to this directory or the build fails.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def step(cmd: list[str]) -> None:
    """Run one build step; its output reaches stderr only when it fails."""
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                         check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        raise subprocess.CalledProcessError(out.returncode, cmd)


def build() -> None:
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", BUILD, "--target", "perfbench", "--parallel", jobs])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--scale", choices=("full", "quick"), default="full")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no lossburst sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", args.scale,
           "--out-dir", os.path.join(BUILD, "perfbench-out")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    sys.exit(main())
