"""Measure the benchmark's baseline and its run-to-run spread.

  python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]

Runs run.py once per (seed, workload) for seeds 0..RUNS-1, seed by seed so
that slow drift of the machine reaches every workload alike, then one traced
run per workload at seed 0.  Every run is a separate process started after
the previous one ended.  Writes, per workload and end-to-end metric, the
values, their median and the quartile spread (q3 - q1) / median that
BENCHMARK.json's bounds are checked against, plus the traced run's
per-layer metrics.  Exits 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(spec, name, seed, trace):
    argv = [*spec["command"], "--workload", name, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d failed: %s" % (name, seed, trace, proc.stderr))
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: {m: [] for m in bounds} for name in names}
    env = None
    for seed in range(args.runs):
        for name in names:
            env, res = bench_run(spec, name, seed, 0)
            for m in bounds:
                values[name][m].append(res["metrics"][m]["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values[name].items()},
                  file=sys.stderr)

    out = {"env": env, "runs": args.runs, "run_seconds": spec["run_seconds"],
           "end_to_end": {}, "per_layer": {}}
    for name in names:
        out["end_to_end"][name] = {
            m: {
                "median": statistics.median(v),
                "spread": spread(v),
                "bound": bounds[m],
                "values": v,
            }
            for m, v in values[name].items()
        }
        _, res = bench_run(spec, name, 0, 1)
        out["per_layer"][name] = {k: v["value"] for k, v in res["metrics"].items()}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name in names:
        for m, row in out["end_to_end"][name].items():
            print("%-18s %-16s median %12.4f spread %.4f (bound %.2f)"
                  % (name, m, row["median"], row["spread"], row["bound"]))


if __name__ == "__main__":
    main()
