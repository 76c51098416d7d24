#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/smoke.py

Run from the root of a checkout. Runs every workload at the tiny smoke
size, untraced and traced, through run.py, which already rejects a run
whose last line is not a result. Checks that the checks passed and that
every metric BENCHMARK.json names is emitted with its unit and a finite
value; faults' traced run also emits netsim.post_crash_amplification.
Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]


def fail(msg):
    print("smoke: FAIL " + msg)
    sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]] + ["faults"]
    for name in workloads:
        for trace in (0, 1):
            cmd = RUN + ["--workload", name, "--seed", "7", "--seconds", "10",
                         "--trace", str(trace), "--size", "smoke"]
            run = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 universal_newlines=True, timeout=300)
            label = "%s --trace %d" % (name, trace)
            if run.returncode != 0:
                fail("%s exited with %d" % (label, run.returncode))
            result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
            if result["correct"] is not True:
                fail("%s: checks failed" % label)
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                fail("%s: attempted/failed" % label)
            metrics = result["metrics"]
            names = {m["name"] for m in wanted[trace]}
            if name == "faults" and trace == 1:
                names.add("netsim.post_crash_amplification")
            if set(metrics) != names:
                fail("%s: metrics differ from BENCHMARK.json: %s" % (
                    label, sorted(set(metrics) ^ names)))
            for m in wanted[trace]:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"]:
                    fail("%s: %s unit %s, want %s" % (label, m["name"], got["unit"], m["unit"]))
                if not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
                    fail("%s: %s value %r" % (label, m["name"], got["value"]))
            print("smoke: ok %s (%d metrics)" % (label, len(metrics)))


if __name__ == "__main__":
    main()
