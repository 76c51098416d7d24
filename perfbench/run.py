#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size regular|smoke]

Run it from the root of a checkout. It builds perfbench/perfbench.exe
with dune into the directory named by CARGO_TARGET_DIR (default
.bench_build), runs it with the same arguments and passes its output
through. The last line of the output is the JSON result; the traced run
also writes its spans under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

REQUIRED = ["dune-project", "lib", os.path.join("perfbench", "dune")]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    # the one default, equal to BENCHMARK.json's run_seconds
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["regular", "smoke"], default="regular")
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.exists(f)]
    if missing:
        print("perfbench: run me from the root of a checkout; missing: "
              + ", ".join(missing), file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = "./perfbench/perfbench.exe"
    try:
        build = subprocess.run(
            # the shared dune cache lives outside the checkout
            ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--cache=disabled", target],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             universal_newlines=True)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stderr.write(out)
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print("perfbench: exited with %d" % run.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("perfbench: the last line is not a result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
