#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload assemble --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the repository's libraries
plus the benchmark binary) under .bench_build/; later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. --self-test runs every workload at minimal
size under both --trace values and checks the printed metrics against
BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace, mini=False):
    """Runs the binary; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--out-dir", os.path.join(BUILD_ROOT, "perfbench-run"),
           "--trace-dir", os.path.join(BUILD_ROOT, "perfbench-traces")]
    if mini:
        cmd.append("--mini")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout


def self_test():
    """Every workload, both sheets, minimal size: names, units, values, checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(workload, 1, 1, trace, mini=True)
            where = "%s --trace %d" % (workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                problems.append("%s: correct=%s attempted=%s"
                                % (where, result.get("correct"), result.get("attempted")))
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(wanted):
                problems.append("%s: metrics %s missing, %s unexpected"
                                % (where, sorted(set(wanted) - set(metrics)),
                                   sorted(set(metrics) - set(wanted))))
            for name, m in metrics.items():
                if not NAME.fullmatch(name):
                    problems.append("%s: bad metric name %r" % (where, name))
                if not UNIT.fullmatch(m.get("unit", "")):
                    problems.append("%s: %s has bad unit %r" % (where, name, m.get("unit")))
                if name in wanted and m.get("unit") != wanted[name]:
                    problems.append("%s: %s unit %r, BENCHMARK.json says %r"
                                    % (where, name, m.get("unit"), wanted[name]))
                if printed.get(name) != m.get("unit"):
                    problems.append("%s: %s not printed with its unit" % (where, name))
                if not isinstance(m.get("value"), (int, float)):
                    problems.append("%s: %s value %r" % (where, name, m.get("value")))
            if key == "end_to_end":
                zero = [n for n, m in metrics.items() if m.get("value") == 0]
                if zero:
                    problems.append("%s: end-to-end metrics read 0: %s" % (where, zero))
            print("self-test %-28s %d metrics" % (where, len(metrics)), file=sys.stderr)
    for p in problems:
        print("SELF-TEST FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
