#!/usr/bin/env python3
"""Smoke test of the benchmark at a small size.

    python3 smoke.py MAIN_EXE BENCHMARK_JSON

Runs every workload declared in BENCHMARK.json once untraced and once
traced, with every op count divided by 20 and the minimum number of
rounds, and checks that:
  - each run exits 0 and reports correct, with no failed op;
  - the untraced run emits exactly the declared end_to_end metrics, and
    the traced run exactly the declared per_layer metrics, all finite;
  - both runs report the same metrics digest (rounds within a run are
    already checked against each other, and shard-soak's traced run checks
    1 lane against 2), so tracing does not change the simulation.
"""

import json
import math
import os
import re
import subprocess
import sys


def run(exe, workload, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--scale", "20"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        sys.exit("%s trace=%d: exit %d\n%s" % (workload, trace, out.returncode, out.stdout))
    result = json.loads(lines[-1])
    digest = re.search(r"digest (0x[0-9a-f]+)", out.stdout).group(1)
    return result, digest


def main():
    exe, bench_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    declared = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    for w in bench["workloads"]:
        digests = []
        for trace in (0, 1):
            result, digest = run(exe, w["name"], trace)
            where = "%s trace=%d" % (w["name"], trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit("%s: not correct: %s" % (where, result))
            got = result["metrics"]
            if sorted(got) != sorted(declared[trace]):
                missing = set(declared[trace]) - set(got)
                extra = set(got) - set(declared[trace])
                sys.exit("%s: missing %s, undeclared %s" % (where, sorted(missing), sorted(extra)))
            for name, m in got.items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    sys.exit("%s: %s is not a finite number: %s" % (where, name, m))
            digests.append(digest)
        if digests[0] != digests[1]:
            sys.exit("%s: digest differs traced vs untraced: %s" % (w["name"], digests))
        print("smoke %s ok (digest %s)" % (w["name"], digests[0]))


if __name__ == "__main__":
    main()
