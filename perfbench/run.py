#!/usr/bin/env python3
"""Build the hcqbench driver from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke]

Run from the repository root.  The first run configures and builds the hcq
library and the driver (CMake, Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only re-check the build.  Build
output goes to standard error; standard output carries the driver's lines,
the last being the one-line JSON result.  A traced run (--trace 1) also
writes its spans to .bench_build/traces/.

Exit status: the driver's (0 ok, 1 a correctness check failed, 2 usage,
3 the workload threw), 4 when the result does not carry exactly the metrics
BENCHMARK.json lists, and 5 when there is no hcq source tree to build.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(5, f"no hcq source tree at {ROOT} (need CMakeLists.txt and src/)")
    build_root = pathlib.Path(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hcqbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(5, "building the driver failed: " + " ".join(step))
    return build_dir / "hcqbench", build_root / "traces"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size (the benchmark's own tests)")
    args = parser.parse_args()

    binary, traces = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", str(traces)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line, flush=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    want = expected_metrics(args.trace == "1")
    if want is not None:
        got = list(json.loads(lines[-1])["metrics"]) if lines else []
        if got != want:
            fail(4, f"result metrics {got} differ from BENCHMARK.json's {want}")


if __name__ == "__main__":
    main()
