#!/usr/bin/env python3
"""Builds and runs the Damaris end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload small_writes --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). The first call configures a Release build of the program's
libraries and the benchmark program under .bench_build/; later calls only
rebuild what changed. The benchmark's own math tests run before every
measurement. The last line of standard output is the JSON result; the
exit code is non-zero when the build, the math tests or an output check
fail, or when the reported metrics differ from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("small_writes", "checkpoint", "insitu", "sim_paper")
# A run measures for --seconds; this caps one run end to end.
RUN_TIMEOUT_S = 170


def build():
    """Configures (first use) and builds the benchmark; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "dmr_perfbench", "perfbench_math_test"])
    steps.append([os.path.join(BUILD, "perfbench_math_test")])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build or math tests failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "dmr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "out"),
           "--sim-reference",
           os.path.join(ROOT, "perfbench", "sim_reference.txt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode == 0 and not metrics_match(proc.stdout, args.trace):
        return 1
    return proc.returncode


def metrics_match(stdout, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode (per-layer with --trace 1, else end-to-end)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    lines = stdout.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        print("perfbench: reported metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
