#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command once per seed on each workload, one process at
a time, and prints every end-to-end metric's median, quartiles and spread
(interquartile distance as a share of the median) next to the bound in
BENCHMARK.json. It also runs the first seed a second time and asserts
that every virtual-clock metric is bit-identical between the two runs,
and that the share of failed operations is the same in every run.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads kv-a-tight --seeds 1-5 --seconds 20

Exit status is 1 when a run fails, a virtual metric differs between
repeats of one seed, failure shares differ, or a spread other than
setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics of the modelled system's virtual clock: same seed, same value.
VIRTUAL = {"v_goodput_kops", "v_p50_us", "v_p99_us", "v_p999_us",
           "ssd_write_amp", "flush_energy_j", "recover_v_ms"}


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            r = run_once(bench["command"], wl, seed, args.seconds)
            host = " ".join(f"{k}={r['metrics'][k]['value']:.4g}" for k in ("host_kops", "setup_s"))
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} {host}",
                  flush=True)
            ok &= r["correct"]
            runs.append(r)
        again = run_once(bench["command"], wl, args.seeds[0], args.seconds)
        for name in sorted(VIRTUAL):
            a, b = runs[0]["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b:
                print(f"  FAIL {name}: seed {args.seeds[0]} gave {a!r} then {b!r}")
                ok = False
        shares = {r["failed"] / r["attempted"] for r in runs + [again]}
        if len(shares) != 1:
            print(f"  FAIL failed shares differ between runs: {sorted(shares)}")
            ok = False
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "over bound/3"
            print(f"  {name:<20} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
