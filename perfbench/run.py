#!/usr/bin/env python3
"""End-to-end benchmark of galois: one command, three workloads.

    python3 perfbench/run.py --workload cold-llm --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt: the galois library, galoisd and the
benchmark binary, in Release) under .bench_build/; later runs only rebuild what
changed. Results and traces go under .bench_out/. The binary's last line
of standard output is the result as one JSON object; the exit status is
non-zero when the build fails or any answer is wrong.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cold-llm", "warm-serve", "explore-mix")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no galois sources next to perfbench/ (src/ is missing)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 1
    galoisd = os.path.join(BUILD_DIR, "galoisd")
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest"),
                               "--galoisd", galoisd, "--out", OUT_DIR],
                              cwd=ROOT).returncode

    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    command = [os.path.join(BUILD_DIR, "galois_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--galoisd", galoisd, "--out", out, "--commit", commit()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
