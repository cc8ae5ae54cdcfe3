"""Tests of the benchmark itself: output gates, tracer wrapping and a
tiny-size smoke run of every workload.

  python3 -m pytest -q perfbench/tests
"""

import gc
import gzip
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402
from child import import_package  # noqa: E402
from layertrace import TRACED, Tracer  # noqa: E402

MODS = import_package(ROOT)


def tiny(name, seed=0):
    work = workloads.Workload(name, seed, "tiny")
    work.prepare(MODS)
    return work, work.call()


def reference_for(name, summary):
    return {name: summary}


# ---------------------------------------------------------------------------
# gates


def _swap_across_discs(table):
    """Same per-D counts, different subspaces: swap one subspace between
    the two smallest discriminants."""
    d1, d2 = sorted(table.table)[:2]
    a, b = list(table.table[d1]), list(table.table[d2])
    a[0], b[0] = b[0], a[0]
    new = dict(table.table)
    new[d1] = tuple(sorted(a, key=lambda s: s.basis))
    new[d2] = tuple(sorted(b, key=lambda s: s.basis))
    return type(table)(new)


@pytest.mark.parametrize("name", ["sweep-5-2", "dfs-a4"])
def test_table_gates(name):
    work, table = tiny(name)
    ref = reference_for(name, work.summarise(table))
    assert workloads.check(name, 0, work.summarise(table), ref) == []

    swapped = work.summarise(_swap_across_discs(table))
    assert swapped["counts"] == ref[name]["counts"]
    errors = workloads.check(name, 0, swapped, ref)
    assert any("seed-0 output hash" in e for e in errors)
    assert any("seed-independent" in e for e in errors)

    d = sorted(table.table)[0]
    dropped = dict(table.table)
    dropped[d] = table.table[d][1:]
    errors = workloads.check(name, 0, work.summarise(type(table)(dropped)), ref)
    assert any("per-D counts" in e for e in errors)


def test_dfs_seed_is_an_isometry():
    work0, table0 = tiny("dfs-a4", 0)
    ref = reference_for("dfs-a4", work0.summarise(table0))
    for seed in (1, 7):
        work, table = tiny("dfs-a4", seed)
        assert work.perm != list(range(4)) or work.signs != [1] * 4
        assert workloads.check("dfs-a4", seed, work.summarise(table), ref) == []


@pytest.mark.parametrize("name", ["lines-experiment", "planes-experiment"])
def test_experiment_gates(name):
    work, result = tiny(name)
    summary = work.summarise(result)
    ref = reference_for(name, summary)
    report = result[1]

    def tampered(field, value):
        rep = json.loads(json.dumps(report))
        rep["per_disc"][0][field] = value
        work.reference_keys = summary["keys"]
        return work.summarise((None, rep))

    # the Monte-Carlo statistic is only compared at seed 0
    mc = tampered("grassmann_ks", 0.5)
    assert any("seed-0" in e for e in workloads.check(name, 0, mc, ref))
    assert workloads.check(name, 3, mc, ref) == []
    # seed-independent statistics are compared at every seed
    ks_field = next(k for k in summary["keys"] if k.endswith("_y_ks"))
    errors = workloads.check(name, 3, tampered(ks_field, 0.5), ref)
    assert any("seed-independent" in e for e in errors)
    errors = workloads.check(name, 3, tampered("count", 10**6), ref)
    assert any("per-D counts" in e for e in errors)
    # a field added to the report later is outside the gate
    assert workloads.check(name, 0, tampered("diagnostics", [1, 2]), ref) == []


def test_experiment_seed_changes_only_monte_carlo():
    work0, res0 = tiny("lines-experiment", 0)
    work5, res5 = tiny("lines-experiment", 5)
    ref = reference_for("lines-experiment", work0.summarise(res0))
    assert workloads.check("lines-experiment", 5, work5.summarise(res5), ref) == []


# ---------------------------------------------------------------------------
# tracer


def _originals():
    out = {}
    for mod_name, attr in TRACED:
        owner = MODS[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(mod_name, attr)] = getattr(owner, cls_name).__dict__[meth]
        else:
            out[(mod_name, attr)] = getattr(owner, attr)
    return out


def _current(mod_name, attr):
    owner = MODS[mod_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_tracer_wraps_and_restores_every_attribute():
    before = _originals()
    work = workloads.Workload("dfs-a4", 0, "tiny")
    work.prepare(MODS)
    tracer = Tracer(MODS)
    with tracer:
        for key in before:
            assert _current(*key) is not before[key], key
        work.call()
    for key, obj in before.items():
        assert _current(*key) is obj, key
    metrics = tracer.metrics()
    assert metrics["subspaces.enumerate_by_disc.calls"] == 1
    assert metrics["quadform.Subspace.from_rows.calls"] > 0
    assert metrics["kernel.short_vectors.vectors"] > 0
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    top = tracer.spans[0]
    assert top[3] == -1
    assert total == pytest.approx(top[2] - top[1], rel=1e-9)


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(ValueError):
        with Tracer(MODS):
            MODS["subspaces"].schmidt_table(3, 5, 4)  # k > n raises
    for key, obj in before.items():
        assert _current(*key) is obj, key


def test_self_time_excludes_children_and_missing_functions_are_skipped():
    fake = types.SimpleNamespace()

    def hnf_basis(x):
        time.sleep(0.02)
        return x

    def hnf(x):
        time.sleep(0.01)
        return fake.hnf_basis(x)

    fake.hnf, fake.hnf_basis = hnf, hnf_basis
    mods = {name: types.SimpleNamespace() for name, _ in TRACED}
    mods["exact"] = fake
    tracer = Tracer(mods)
    with tracer:
        fake.hnf(1)
        fake.hnf(2)
    m = tracer.metrics()
    assert m["exact.hnf.calls"] == 2 and m["exact.hnf_basis.calls"] == 2
    assert 0.015 < m["exact.hnf.self_s"] < 0.035
    assert 0.035 < m["exact.hnf_basis.self_s"]
    assert m["kernel.short_vectors.calls"] == 0
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, -1, 2]
    assert fake.hnf is hnf and fake.hnf_basis is hnf_basis


# ---------------------------------------------------------------------------
# calibration


def test_times_are_scaled_by_the_mean_sampled_speed_and_nothing_else():
    ref = calibrate.SAMPLE_REF_S
    run = runner.Run()
    run.setups = [0.2, 0.4, 0.3]
    # each repetition ran at its own speed, which its samples measure; the
    # first ran at full speed for half its samples and a third for the rest
    run.plain = [
        {"wall_s": w, "size": 100, "peak_rss_mb": 50.0, "probes_s": [f * ref for f in fs]}
        for w, fs in ((3.0, (1, 3)), (4.0, (2, 2)), (9.0, (3,)))
    ]
    m = runner.end_to_end(run)
    assert m["wall_s"]["value"] == pytest.approx(2.0)
    # harmonic mean of all five samples: 5 / (1 + 1/3 + 1/2 + 1/2 + 1/3) = 1.875
    assert m["setup_s"]["value"] == pytest.approx(0.3 / 1.875)
    assert m["subspaces_per_s"]["value"] == pytest.approx(100 / 2.0)
    assert m["peak_rss_mb"]["value"] == 50.0


def test_probe_leaves_the_collector_as_it_found_it():
    assert calibrate._work(3) == calibrate._work(3)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        assert 0 < calibrate.probe() < 10
        assert gc.isenabled() is enabled
    gc.enable()


def test_sampler_samples_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(sampler.samples) >= 3 and min(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# smoke runs through the child process


def _child(name, trace, spans=None):
    argv = [sys.executable, os.path.join(BENCH, "child.py"), ROOT, name, "0",
            str(trace), repr(time.monotonic()), "tiny"]
    if spans:
        argv.append(spans)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_tiny_workload(name, tmp_path):
    plain = _child(name, 0)
    assert plain["errors"] == [] and plain["size"] > 0
    assert 0 < plain["setup_s"] < 60 and plain["wall_s"] > 0
    assert len(plain["probes_s"]) >= 1 and min(plain["probes_s"]) > 0
    assert plain["peak_rss_mb"] > 0 and "layers" not in plain

    spans = str(tmp_path / "spans.jsonl.gz")
    traced = _child(name, 1, spans)
    assert traced["summary"] == plain["summary"] and traced["probes_s"] == []
    assert traced["layers"]["%s.calls" % _entry(name)] == 1
    with gzip.open(spans, "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == traced["spans"] > 0
    assert set(rows[0]) == {"id", "name", "start", "end", "parent"}
    assert all(r["start"] <= r["end"] for r in rows)
    assert all(r["parent"] < r["id"] for r in rows)


def _entry(name):
    return {
        "sweep-5-2": "subspaces.schmidt_table",
        "dfs-a4": "subspaces.enumerate_by_disc",
        "lines-experiment": "experiment.run_experiment",
        "planes-experiment": "experiment.run_experiment",
    }[name]


def _run(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dfs-a4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_run_refuses_kernel_and_cap_overrides():
    for var in ("LATSHAPE_PURE_PYTHON", "LATSHAPE_MAX_CANDIDATES"):
        proc = _run(ROOT, dict(os.environ, **{var: "1"}))
        assert proc.returncode != 0 and proc.stdout == ""
        assert var in proc.stderr


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
