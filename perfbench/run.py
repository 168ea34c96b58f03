#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark measurement.

    python3 perfbench/run.py --workload grid-ccr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The build is a Release build of src/ plus the benchmark program, made with
CMake under .bench_build/perfbench next to this directory's parent.  Build
output goes to standard error; the last line of standard output is the
program's result object.  --self-test builds and runs the benchmark's own
tests instead.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"run.py: cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {os.path.basename(cmd[0])} exceeded "
                 f"{RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return run([build("perfbench_test")])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("rill_perfbench")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", args.trace,
                "--commit", source_commit()])


if __name__ == "__main__":
    sys.exit(main())
