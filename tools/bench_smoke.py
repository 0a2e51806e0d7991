#!/usr/bin/env python3
"""Bench smoke test: short runs of the repeated-run benches.

    tools/bench_smoke.py --build-dir BUILD

Runs bench_pipeline_scaling (48 frames, 1 and 4 streams) and bench_kernels
with --json into BUILD, then requires both to exit 0 and every archived row
to carry the median fps, its noise band (fps_iqr_rel) and the wall and CPU
time per run. It gates no performance budget: runs this short measure the
harness, not the engine.
"""
import argparse
import json
import os
import subprocess
import sys

REQUIRED = ("fps", "fps_iqr_rel", "wall_ms", "cpu_ms", "reps")


def run_bench(binary, args, json_path):
    cmd = [binary] + args + ["--json", json_path]
    print("$", " ".join(cmd), flush=True)
    if subprocess.run(cmd).returncode != 0:
        return ["%s exited non-zero" % os.path.basename(binary)]
    with open(json_path) as f:
        rows = json.load(f)
    if not rows:
        return ["%s archived no rows" % json_path]
    errors = []
    for row in rows:
        for key in REQUIRED:
            if not isinstance(row.get(key), (int, float)):
                errors.append("%s: row %s lacks %s" % (json_path, row.get("name"), key))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    args = parser.parse_args()
    bench = os.path.join(args.build_dir, "bench")
    errors = run_bench(os.path.join(bench, "bench_pipeline_scaling"),
                       ["--frames", "48", "--streams", "1,4"],
                       os.path.join(args.build_dir, "bench_smoke.json"))
    errors += run_bench(os.path.join(bench, "bench_kernels"), [],
                        os.path.join(args.build_dir, "bench_smoke_kernels.json"))
    for e in errors:
        print("bench_smoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
