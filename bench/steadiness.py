"""Steadiness check for the benchmark defined in BENCHMARK.json.

    python3 bench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--against bench/results/first.json]

For each workload: `--runs` untraced runs, each with another seed, then the
spread of every end-to-end metric, (Q3 - Q1) / median with quartiles from
statistics.quantiles(n=4), against its bound; and two traced runs with the
same seed, whose non-time per-layer metrics (counts, bytes, ratios of
counts) must agree exactly. With --against, each median is also compared
with the one in an earlier record and may be worse by at most the bound.
Exits 1 if a spread reaches its bound, if a median got worse by more than
its bound, if a count differs, or if any run reports a failed op. The record
is written to bench/results/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as wl


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", help="earlier steadiness.json to compare medians with")
    args = ap.parse_args(argv)
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    ok = True
    record = {}
    for name in names:
        runs = [run_once(spec, name, args.first_seed + i, 0) for i in range(args.runs)]
        ok &= all(r["correct"] for r in runs)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < metric["bound"] else "TOO WIDE"
            if verdict == "ok" and spread >= metric["bound"] / 3:
                verdict = "ok (above bound/3)"
            ok &= verdict != "TOO WIDE"
            shift = ""
            before = earlier.get(name, {}).get("e2e", {}).get(metric["name"])
            if before:
                worse = (med / before["median"] - 1 if metric["better"] == "lower"
                         else before["median"] / med - 1)
                ok &= worse <= metric["bound"]
                shift = f" worse-than-earlier {worse:+.4f}" + (
                    "" if worse <= metric["bound"] else " TOO MUCH")
            rows[metric["name"]] = {"median": med, "spread": spread, "bound": metric["bound"],
                                    "values": values}
            print(f"{name:10s} {metric['name']:12s} median {med:.6g} spread {spread:.4f} "
                  f"bound {metric['bound']} {verdict}{shift}")
        traced = [run_once(spec, name, args.first_seed, 1) for _ in range(2)]
        ok &= all(r["correct"] for r in traced)
        # Counts, and ratios of counts; trace.* ratios are made of times.
        exact = {k: v for k, v in traced[0]["metrics"].items() if v["unit"] == "count"
                 or (v["unit"] == "ratio" and not k.startswith("trace."))}
        differ = [k for k in exact if traced[1]["metrics"][k] != exact[k]]
        ok &= not differ
        print(f"{name:10s} {len(exact)} exact per-layer metrics, "
              f"{'all equal' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        record[name] = {"e2e": rows, "exact_differ": differ,
                        "attempted": sum(r["attempted"] for r in runs + traced),
                        "failed": sum(r["failed"] for r in runs + traced)}
    os.makedirs(os.path.join(wl.BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(wl.BENCH_DIR, "results", "steadiness.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
