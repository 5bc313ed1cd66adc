#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --service-rate-qps R --workload W --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --service-rate-qps R --selftest

Run from the repository root. The first call configures and builds the
library under src/ and the benchmark binary into .bench_build/perfbench
(optimized); later calls rebuild only what changed. Build output goes to
stderr; the binary's stdout is passed through, its last line being the JSON
result. --selftest runs the harness self-test at reduced scale instead.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
SELFTEST_SEED = "90210"  # held out: never used while tuning the benchmark


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: %s" % " ".join(step))


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124, None
    return proc.returncode, proc.stdout.decode() if capture else None


def selftest(rate_args):
    """Reduced-scale harness check: metric names and units match
    BENCHMARK.json, every workload runs clean on a held-out seed, and the
    FSA-BLAST oracle trips on hand-altered alignment lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for kind, trace in (("end_to_end", "0"), ("per_layer", "1")):
        want = {m["name"]: m["unit"] for m in bench[kind]}
        for workload in bench["workloads"]:
            name = workload["name"]
            code, out = run_binary(rate_args + [
                "--workload", name, "--seed", SELFTEST_SEED, "--seconds", "1",
                "--trace", trace, "--scale", "0.2"], capture=True)
            result = json.loads(out.strip().splitlines()[-1]) if out else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            label = "%s --trace %s" % (name, trace)
            if code != 0 or not result.get("correct") or result.get("failed"):
                failures.append("%s: not clean (exit %d)" % (label, code))
            if got != want:
                failures.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, unit mismatch %s" % (
                                    label, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want if k in got and
                                           got[k] != want[k])))
            print("selftest: %-28s %s" % (label, "ok" if got == want and
                                          code == 0 else "FAILED"))
    code, _ = run_binary(["--selftest-oracle"])
    if code != 0:
        failures.append("oracle did not trip on altered alignments")
    for failure in failures:
        print("selftest: FAILED: " + failure)
    print("selftest: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    args = sys.argv[1:]
    build()
    if "--selftest" in args:
        args.remove("--selftest")
        return selftest(args)
    code, _ = run_binary(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
