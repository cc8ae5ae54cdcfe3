"""One cold repetition of one workload, in a fresh interpreter.

Usage (from run.py, not by hand):
  python3 child.py ROOT WORKLOAD SEED TRACE T_SPAWN SCALE [SPANS_PATH]

ROOT is the checkout holding ``src/latshape``; T_SPAWN is the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC is
system-wide on Linux, so the two clocks agree).  SEED 0..; TRACE 0 or 1;
SCALE ``full`` or ``tiny``.  With TRACE 1 the spans are written to
SPANS_PATH.  Prints one JSON object on stdout and exits 0, or exits 1 with a
diagnostic on stderr when the package cannot be imported from ROOT.
"""

import os
import sys
import time


def import_package(root):
    """Import latshape from ROOT/src and nowhere else; returns the modules."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import latshape.experiment  # noqa: F401  (pulls in every traced layer)
    from latshape import exact, experiment, kernel, quadform, shapes, subspaces

    pkg_dir = os.path.dirname(os.path.abspath(latshape.experiment.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        raise ImportError("latshape imported from %s, not from %s" % (pkg_dir, src))
    return {
        "kernel": kernel,
        "exact": exact,
        "quadform": quadform,
        "shapes": shapes,
        "subspaces": subspaces,
        "experiment": experiment,
    }


def main(argv):
    root, name, seed, trace, t_spawn, scale = argv[:6]
    seed, trace, t_spawn = int(seed), int(trace), float(t_spawn)
    try:
        mods = import_package(root)
    except ImportError as exc:
        print("perfbench: cannot import latshape: %s" % exc, file=sys.stderr)
        return 1
    setup_s = time.monotonic() - t_spawn
    if name == "import-only":
        print('{"setup_s": %r}' % setup_s)
        return 0

    import json
    import resource

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import calibrate
    import workloads
    from layertrace import Tracer

    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)
    ref_keys = reference.get(name, {}).get("keys") if scale == "full" else None
    work = workloads.Workload(name, seed, scale)
    work.prepare(mods, ref_keys)

    # untraced repetitions sample the machine's speed while they run; the
    # samples' own time is taken out of wall_s
    sampler = calibrate.Sampler()
    tracer = Tracer(mods) if trace else None
    with tracer or sampler:
        t0 = time.perf_counter()
        result = work.call()
        wall_s = time.perf_counter() - t0
    probes = sampler.samples
    wall_s -= sum(probes)
    if not trace and not probes:  # a call shorter than one sampling interval
        probes = [calibrate.probe()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = work.summarise(result)
    errors = workloads.check(name, seed, summary, reference) if scale == "full" else []
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probes_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "size": summary["size"],
        "summary": summary,
        "errors": errors,
        "kernel": getattr(mods["kernel"], "implementation_name", lambda: "n/a")(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        if len(argv) > 6:
            tracer.write_spans(argv[6])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
