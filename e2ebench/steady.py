#!/usr/bin/env python3
"""Checks that the end-to-end benchmark is steady and records its baseline.

Run from the root of the repository:

    python3 e2ebench/steady.py --runs 10 --traced-runs 3 --out e2ebench/baseline.json

For every workload in BENCHMARK.json it runs the benchmark --runs times
untraced for BENCHMARK.json's run_seconds, with seeds 1, 2, ..., and prints each end-to-end
metric's median and the distance between its first and third quartile
as a share of the median, next to the metric's bound. It then makes
--traced-runs traced runs per workload and reports the per-layer
table, the self-time table of the last traced job, and whether each
deterministic count repeated exactly: within one run (the same seed)
and across the traced runs (different seeds). With --out it writes all
of it, plus the machine, as JSON. With --previous it compares each
end-to-end median with the same median in an earlier --out file and
reports by how much it is worse, as a share of the earlier median.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(args, check=True, capture_output=True, text=True, timeout=900).stdout
    lines = out.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    details["elapsed_s"] = round(time.time() - start, 1)
    return result, details


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--previous", default="", help="an earlier --out file to compare medians with")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "run_seconds": seconds,
        "workloads": {},
    }
    previous = {}
    if a.previous:
        with open(a.previous) as f:
            previous = json.load(f)["workloads"]
    ok = True
    for name in names:
        rec = record["workloads"].setdefault(name, {})
        seeds = list(range(1, 1 + a.runs))
        values = {m["name"]: [] for m in bench["end_to_end"]}
        rec["jobs"] = {}
        for seed in seeds:
            result, details = run_once(bench["command"], name, seed, seconds, 0)
            rec["jobs"][str(seed)] = details["jobs"]
            record["machine"]["gomaxprocs"] = details["gomaxprocs"]
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: FAILED {details['jobs']}", file=sys.stderr)
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: {result['attempted']} jobs in {details['elapsed_s']} s, " +
                  ", ".join(f"{m}={v['value']:.4g}" for m, v in sorted(result["metrics"].items())),
                  file=sys.stderr)
        rec["seeds"] = seeds
        rec["end_to_end"] = {}
        if a.runs >= 2:
            for m in bench["end_to_end"]:
                med, sp = spread(values[m["name"]])
                steady = sp < m["bound"] / 3
                ok = ok and sp <= m["bound"]
                rec["end_to_end"][m["name"]] = {"unit": m["unit"], "median": med, "iqr_share": sp,
                                                "bound": m["bound"], "below_third_of_bound": steady,
                                                "values": values[m["name"]]}
                print(f"  {name:20s} {m['name']:16s} median {med:10.5g} {m['unit']:4s} "
                      f"spread {sp:6.3f} bound {m['bound']:.2f} {'ok' if steady else 'WIDE'}")
                prev = previous.get(name, {}).get("end_to_end", {}).get(m["name"])
                if prev:
                    worse = (med / prev["median"] - 1) * (1 if m["better"] == "lower" else -1)
                    rec["end_to_end"][m["name"]]["previous_median"] = prev["median"]
                    rec["end_to_end"][m["name"]]["worse_than_previous"] = worse
                    ok = ok and worse <= m["bound"]
                    print(f"  {name:20s} {m['name']:16s} worse than the previous median by {worse:+.3f}")

        layer_runs = []
        for seed in seeds[:a.traced_runs]:
            result, details = run_once(bench["command"], name, seed, seconds, 1)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed} traced: FAILED {details['jobs']}", file=sys.stderr)
            layer_runs.append((seed, result, details))
        if layer_runs:
            per_layer = {}
            for m in bench["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for _, r, _ in layer_runs]
                per_layer[m["name"]] = {"unit": m["unit"], "median": statistics.median(vals), "values": vals}
            counts = {}
            for c, vals in layer_runs[0][2]["counts"].items():
                counts[c] = {
                    "repeats_within_run": all(len(set(d["counts"][c])) == 1 for _, _, d in layer_runs),
                    "repeats_across_seeds": len({d["counts"][c][0] for _, _, d in layer_runs}) == 1,
                    "per_seed": {str(s): d["counts"][c] for s, _, d in layer_runs},
                }
            rec["per_layer"] = per_layer
            rec["deterministic_counts"] = counts
            rec["self_time_s"] = layer_runs[-1][2].get("self_time_s", {})
            for m, v in per_layer.items():
                print(f"  {name:20s} {m:36s} {v['median']:12.5g} {v['unit']}")
            for c, v in counts.items():
                print(f"  {name:20s} {c:36s} repeats within a run: {v['repeats_within_run']}, "
                      f"across seeds: {v['repeats_across_seeds']}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
