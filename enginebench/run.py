#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 enginebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 enginebench/run.py --self-test

Run from the repository root. The benchmark binary and the engine
libraries it links are built from source into .bench_build/ (Release) on
first use; later runs only check the build is current. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Workloads: offline_stored, offline_busy.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "engine_bench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_revision():
    """The git revision, or a digest of src/ when the tree is not a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("enginebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", source_revision()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
