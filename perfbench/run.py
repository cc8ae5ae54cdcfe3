"""Benchmark runner for latshape.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, one after another, each in a fresh
interpreter (child.py) with jobs=1, until the next one would end after S
seconds.  Every repetition's output is checked against perfbench/reference.json.

Every untraced repetition samples the machine's speed while its call runs
(calibrate.Sampler).  Its wall time, net of the samples, is scaled by
calibrate.SAMPLE_REF_S / (harmonic mean of its samples), and setup_s by
calibrate.SAMPLE_REF_S / (harmonic mean of all the run's samples).  This
takes out most of the drift of the shared machine's speed.

--trace 0 prints the end-to-end metrics: wall_s (median of the repetitions),
subspaces_per_s (output size / wall_s), setup_s (median of interpreter start
to ``latshape`` imported, over every child including SETUP_SAMPLES import-only
ones), all three scaled, and peak_rss_mb (median ru_maxrss of the
repetitions).

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of layertrace.py (medians over the traced repetitions),
the two yields, trace.wall_s, trace.overhead, and raw.wall_s and
raw.probe_s; these four are not scaled.  Tracing never touches an
end-to-end number.

The last stdout line is the JSON result; the line before it is the run
environment.  Raw per-repetition data go to .bench_out/ in the checkout.
Exits 1 when a repetition fails (exception or wrong output) and 2, with no
result, when the run is refused or the package source is missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402

REFUSED_ENV = ("LATSHAPE_PURE_PYTHON", "LATSHAPE_MAX_CANDIDATES")
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0


class RepFailed(Exception):
    pass


def spawn(args, deadline):
    """Run child.py with ``args`` after the spawn timestamp; parsed stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    argv = [sys.executable, CHILD, ROOT, args[0], args[1], args[2], repr(t_spawn)]
    argv += args[3:]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RepFailed("repetition exceeded the run's time limit")
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode]
        raise RepFailed(lines[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(rep):
    """The run environment, from the parent and one repetition's child."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "kernel": rep.get("kernel", "unknown"),
        "LATSHAPE_PURE_PYTHON_set": bool(os.environ.get("LATSHAPE_PURE_PYTHON")),
        "LATSHAPE_MAX_CANDIDATES_set": bool(os.environ.get("LATSHAPE_MAX_CANDIDATES")),
        "python": platform.python_version(),
        "numpy": rep.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


class Run:
    """Samples of one benchmark run: setup times, calibration probes,
    untraced and traced repetitions, and the count of repetitions attempted
    and failed."""

    def __init__(self):
        self.setups, self.plain, self.traced, self.errors = [], [], [], []
        self.attempted = self.failed = 0

    def probes(self):
        return [p for r in self.plain for p in r["probes_s"]]

    def scale(self):
        """Factor that turns this run's times into reference-speed times."""
        return calibrate.SAMPLE_REF_S / statistics.harmonic_mean(self.probes())

    def rep(self, args, deadline):
        self.attempted += 1
        try:
            rep = spawn(args, deadline)
        except RepFailed as exc:
            rep = {"errors": [str(exc)]}
        if rep["errors"]:
            self.failed += 1
            self.errors.extend(rep["errors"])
            return False
        self.setups.append(rep["setup_s"])
        (self.traced if args[2] == "1" else self.plain).append(rep)
        return True


def measure(name, seed, seconds, trace):
    """Repetitions until the next would overrun ``seconds``, stopping at the
    first failure."""
    run = Run()
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(["import-only", "0", "0", "full"], deadline)  # warm .pyc and page cache
    for _ in range(SETUP_SAMPLES):
        run.setups.append(spawn(["import-only", "0", "0", "full"], deadline)["setup_s"])

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s.jsonl.gz" % name)
    t0 = time.monotonic()
    cycle_times = []
    while True:
        c0 = time.monotonic()
        if not run.rep([name, str(seed), "0", "full"], deadline):
            break
        if trace and not run.rep([name, str(seed), "1", "full", spans_path], deadline):
            break
        cycle_times.append(time.monotonic() - c0)
        if time.monotonic() - t0 + statistics.median(cycle_times) > seconds:
            break
    return run


def scaled_wall(rep):
    """The repetition's wall time at the reference probe speed."""
    return rep["wall_s"] * calibrate.SAMPLE_REF_S / statistics.harmonic_mean(rep["probes_s"])


def end_to_end(run):
    wall = statistics.median(scaled_wall(r) for r in run.plain)
    size = run.plain[0]["size"]
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "subspaces_per_s": {"value": size / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(run.setups) * run.scale(), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in run.plain),
            "unit": "MB",
        },
    }


def per_layer(run):
    plain, traced = run.plain, run.traced
    out = {}
    for key in traced[0]["layers"]:
        value = statistics.median(r["layers"][key] for r in traced)
        unit = "s" if key.endswith("self_s") else "count"
        out[key] = {"value": value, "unit": unit}
    size = plain[0]["size"]
    for metric, ctor in (
        ("subspaces.dfs_yield", "quadform.Subspace.from_rows.calls"),
        ("subspaces.sweep_yield", "quadform.Subspace.from_saturated_rows.calls"),
    ):
        calls = out[ctor]["value"]
        out[metric] = {"value": size / calls if calls else 0.0, "unit": "ratio"}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead"] = {"value": traced_wall / plain_wall - 1.0, "unit": "ratio"}
    out["raw.wall_s"] = {"value": plain_wall, "unit": "s"}
    out["raw.probe_s"] = {"value": statistics.harmonic_mean(run.probes()), "unit": "s"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    refused = [var for var in REFUSED_ENV if os.environ.get(var)]
    if refused:
        print("perfbench: refusing to run with %s set" % ", ".join(refused), file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "latshape")):
        print("perfbench: no package source at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except RepFailed as exc:  # an import-only child failed: nothing to measure
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    metrics = {}
    if not run.errors:
        if args.trace:
            metrics = per_layer(run)
        else:
            metrics = end_to_end(run)
    env = environment(run.plain[0] if run.plain else {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "setup_samples": run.setups,
        "reps": run.plain,
        "traced_reps": run.traced,
        "metrics": metrics,
    }
    out_path = os.path.join(
        OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for err in run.errors:
        print("perfbench: FAILED: %s" % err, file=sys.stderr)
    print(json.dumps({"env": env}))
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
