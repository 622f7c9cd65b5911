#!/usr/bin/env python3
"""Steadiness check of the benchmark: run every workload repeatedly and report
the spread of each end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--reps 10] [--seed-base 1] [--workloads a,b]
    python3 perfbench/steady.py --smoke

Each repetition runs every workload once through run.py with its own seed
(seed-base + repetition), alternating the workload order between
repetitions.  For each workload and metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median, and the bound; a spread above a third of the bound is flagged, above
the bound it fails (setup_s is judged only on its median, so its spread is
shown but not judged).  It also checks that every run was correct and that
the share of failed operations was the same in every run.  The raw values
go to .bench_build/steady.json.

--smoke is the benchmark's own test: one short shrunken run of every
workload in both trace modes, checking that each is correct and reports
exactly the metrics BENCHMARK.json lists.  Exit status 0 when everything
holds, 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def smoke(bench):
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result, err = run(w, 1, 1, trace, True)
            want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            if err or not result["correct"] or list(result["metrics"]) != want:
                print(f"FAIL {w} trace={trace}: {err or 'incorrect result or metric names'}")
                ok = False
            else:
                print(f"ok   {w} trace={trace}: attempted={result['attempted']} "
                      f"failed={result['failed']}")
    return ok


def steadiness(bench, workloads, reps, seed_base):
    seconds = bench["run_seconds"]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for r in range(reps):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, err = run(w, seed_base + r, seconds, 0, False)
            if err or not result["correct"]:
                print(f"FAIL {w} seed {seed_base + r}: {err or 'incorrect result'}")
                ok = False
                continue
            shares[w].add(result["failed"] / result["attempted"])
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"rep {r} {w} done", file=sys.stderr, flush=True)
    out = ROOT / ".bench_build" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seed_base": seed_base, "values": values}, indent=1))
    for w in workloads:
        print(f"\n{w}  (failed share per run: {sorted(shares[w])})")
        if len(shares[w]) > 1:
            ok = False
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    verdict, ok = "TOO WIDE", False
                elif spread > m["bound"] / 3:
                    verdict = "above bound/3"
            print(f"  {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{m['bound']:>6} {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--smoke", action="store_true", help="fast self-test of the benchmark")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if args.smoke:
        ok = smoke(bench)
    else:
        workloads = ([w["name"] for w in bench["workloads"]] if not args.workloads
                     else args.workloads.split(","))
        ok = steadiness(bench, workloads, args.reps, args.seed_base)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
