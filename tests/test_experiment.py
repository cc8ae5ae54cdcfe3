import csv
import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

from latshape import exact
from latshape import experiment as ex
from latshape import quadform
from latshape import shapes
from latshape import subspaces

import fraction_oracle as fo


# closed form of the reference law, derived independently of the
# quadrature table
Y0 = math.sqrt(3.0) / 2.0


def _hyperbolic_cdf_exact(t: float) -> float:
    if t <= Y0:
        return 0.0
    if t >= 1.0:
        return 1.0 - 3.0 / (math.pi * t)
    return (
        3.0
        / math.pi
        * ((2.0 * math.sqrt(1.0 - t * t) - 1.0) / t + 2.0 * math.asin(t))
        - 2.0
    )


def test_ks_statistic_frozen_examples():
    uniform = lambda t: np.clip(t, 0.0, 1.0)
    assert ex.ks_statistic([0.1, 0.2, 0.3], uniform) == pytest.approx(0.7)
    assert ex.ks_statistic([0.5], uniform) == pytest.approx(0.5)


def test_ks_statistic_at_reference_quantiles():
    uniform = lambda t: np.clip(t, 0.0, 1.0)
    m = 40
    samples = [i / (m + 1) for i in range(1, m + 1)]
    assert ex.ks_statistic(samples, uniform) <= 1.0 / (m + 1) + 1e-12


def test_ks_statistic_validation_and_weights():
    uniform = lambda t: np.clip(t, 0.0, 1.0)
    with pytest.raises(ValueError):
        ex.ks_statistic([], uniform)
    with pytest.raises(ValueError):
        ex.ks_statistic([0.5, 0.6], uniform, weights=[1.0])
    with pytest.raises(ValueError):
        ex.ks_statistic([0.5, 0.6], uniform, weights=[1.0, -1.0])
    samples = [0.13, 0.55, 0.62, 0.91]
    plain = ex.ks_statistic(samples, uniform)
    weighted = ex.ks_statistic(samples, uniform, weights=[2.0] * 4)
    assert weighted == pytest.approx(plain)


def test_sphere_z_cdf():
    assert ex.sphere_z_cdf(-1.0) == 0.0
    assert ex.sphere_z_cdf(0.0) == pytest.approx(0.5)
    assert ex.sphere_z_cdf(1.0) == 1.0
    assert ex.sphere_z_cdf(-5.0) == 0.0
    assert ex.sphere_z_cdf(5.0) == 1.0
    assert ex.sphere_z_cdf(0.5) == pytest.approx(0.75)


def test_two_sample_ks():
    assert ex.two_sample_ks([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)
    assert ex.two_sample_ks([0.0, 0.1], [5.0, 6.0]) == pytest.approx(1.0)
    # {1,2} vs {1,3}: ecdfs agree except on [2,3) where they differ by 1/2
    assert ex.two_sample_ks([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ex.two_sample_ks([], [1.0])


@pytest.mark.parametrize("weights", [[1, 1, 50], [1], [1, -1], [0, 0]])
def test_two_sample_ks_refuses_bad_weights(weights):
    # too long was truncated (0.5), too short raised IndexError and a zero
    # sum gave nan
    with pytest.raises(ValueError, match="weights must be positive and match the samples"):
        ex.two_sample_ks([1, 2], [1.5], weights)
    # at 1.5 the weighted side has mass 1/4 and the other all of it
    assert ex.two_sample_ks([1, 2], [1.5], [1, 3]) == pytest.approx(0.75)


def test_reference_cdfs_are_elementwise_on_arrays():
    # ks_statistic calls the reference once on the sorted samples: the array
    # call and each float call must give the bits of the scalar laws below
    # (the CDFs as they were before they took arrays), a float for a float
    knots, cdf_knots, tail = ex._hyperbolic_table()

    def hyperbolic_scalar(t):
        if t <= knots[0]:
            return 0.0
        if t >= knots[-1]:
            return 1.0 - tail / t
        return float(np.interp(t, knots, cdf_knots))

    def sphere_scalar(t):
        return min(1.0, max(0.0, (t + 1.0) / 2.0))

    ys = np.concatenate(([0.0, 0.5, knots[0], knots[-1], 12.5, 1e6], np.linspace(0.8, 14.0, 997)))
    zs = np.linspace(-1.5, 1.5, 301)
    for cdf, scalar, xs in ((ex.hyperbolic_y_cdf, hyperbolic_scalar, ys), (ex.sphere_z_cdf, sphere_scalar, zs)):
        expected = [scalar(float(t)) for t in xs]
        got = [cdf(float(t)) for t in xs]
        assert all(type(v) is float for v in got)
        assert got == expected
        assert np.array_equal(cdf(xs), np.array(expected))


def test_hyperbolic_table_matches_closed_form():
    knots, cdf, tail = ex._hyperbolic_table()
    worst = max(abs(c - _hyperbolic_cdf_exact(t)) for t, c in zip(knots, cdf))
    assert worst < 1e-8
    assert tail == pytest.approx(3.0 / math.pi, abs=1e-9)


# sha256 of knots, cdf and tail coefficient as the table was first
# shipped (a 152 KB JSON file); the report KS digits depend on every bit
HYPERBOLIC_TABLE_SHA256 = "5db85d467b71202f6a3ab022bba70df02d1e1ce8940bd7102044210e59fa650f"


def test_hyperbolic_table_bits_frozen():
    knots, cdf, tail = ex._hyperbolic_table()
    assert (knots.size, cdf.size) == (4353, 4353)
    blob = knots.tobytes() + cdf.tobytes() + struct.pack("<d", tail)
    assert hashlib.sha256(blob).hexdigest() == HYPERBOLIC_TABLE_SHA256


def test_hyperbolic_y_cdf_lookup():
    # below the fundamental-domain floor nothing accumulates
    assert ex.hyperbolic_y_cdf(0.5) == 0.0
    assert ex.hyperbolic_y_cdf(Y0) == pytest.approx(0.0, abs=1e-10)
    for t in (0.88, 0.95, 1.0, 1.7, 3.2, 9.0):
        assert ex.hyperbolic_y_cdf(t) == pytest.approx(
            _hyperbolic_cdf_exact(t), abs=1e-5
        )
    # far tail uses the stored coefficient, not the table
    assert ex.hyperbolic_y_cdf(1e6) == pytest.approx(
        1.0 - 3.0 / (math.pi * 1e6), abs=1e-12
    )


def test_config_validation():
    q = quadform.QuadraticForm.sum_of_squares(3)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=())
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=3, discs=(5,))
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=(5,), kind="nope")
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=(5,), weighting="nope")
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=(5,), jobs=0)
    # a repeated D would give the report two sections and the CSV every row twice
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=(5, 5))
    with pytest.raises(ValueError):
        ex.ExperimentConfig(form=q, k=1, discs=(5, 3, 5))
    # 2.5 and 3.9 ran as D = 2, 3; a generator is read once
    with pytest.raises(ValueError, match=r"got \[2\.5, 3\.9\]"):
        ex.ExperimentConfig(form=q, k=1, discs=(2.5, 3.9))
    assert ex.ExperimentConfig(form=q, k=1, discs=(d for d in (5, 3))).discs == (5, 3)
    with pytest.raises(ValueError, match=r"got \[5, 3\.0\]"):
        ex.ExperimentConfig(form=q, k=1, discs=(d for d in (5, 3.0)))
    # True ran as D = 1 and passed as a cap of 1
    with pytest.raises(ValueError, match=r"got \[True, 2\]"):
        ex.ExperimentConfig(form=q, k=1, discs=(True, 2))
    with pytest.raises(ValueError, match="max_candidates must be >= 0, got True"):
        ex.ExperimentConfig(form=q, k=1, discs=(5,), max_candidates=True)
    # 2.5 samples passed here and raised a TypeError inside numpy
    for bad in (2.5, True, 1):
        with pytest.raises(ValueError, match="mc_samples must be an integer >= 2, got %r" % (bad,)):
            ex.ExperimentConfig(form=q, k=1, discs=(5,), mc_samples=bad)


def test_run_experiment_counts_and_verdicts(tmp_path):
    q = quadform.QuadraticForm.sum_of_squares(3)
    out = tmp_path / "r.csv"
    cfg = ex.ExperimentConfig(form=q, k=1, discs=(5, 7, 11), out_path=str(out))
    _, report = ex.run_experiment(cfg)
    by_disc = {sec["disc"]: sec for sec in report["per_disc"]}
    assert by_disc[5]["count"] == len(subspaces.enumerate_by_disc(q, 1, 5).get(5))
    assert by_disc[7]["count"] == 0
    assert by_disc[7]["verdict"] == "empty"
    assert all(sec["consistent"] for sec in report["per_disc"])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    # header + one row per subspace, nothing for the empty bucket
    assert len(rows) == 1 + by_disc[5]["count"] + by_disc[11]["count"]
    assert rows[0][:2] == ["D", "hnf"]


def test_run_experiment_deterministic_across_jobs(tmp_path):
    q = quadform.QuadraticForm.sum_of_squares(3)
    outs = []
    reports = []
    for jobs in (1, 2):
        out = tmp_path / ("r%d.csv" % jobs)
        cfg = ex.ExperimentConfig(
            form=q, k=1, discs=(5, 11, 13), out_path=str(out), jobs=jobs, seed=3
        )
        _, report = ex.run_experiment(cfg)
        outs.append(out.read_bytes())
        report.pop("csv_path")
        reports.append(report)
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


def test_run_experiment_deterministic_across_jobs_k2(tmp_path):
    q = quadform.QuadraticForm.sum_of_squares(4)
    outs = []
    reports = []
    for jobs in (1, 2):
        out = tmp_path / ("r%d.csv" % jobs)
        cfg = ex.ExperimentConfig(
            form=q, k=2, discs=(5, 13, 21), weighting="stabilizer",
            out_path=str(out), jobs=jobs, mc_samples=64,
        )
        _, report = ex.run_experiment(cfg)
        outs.append(out.read_bytes())
        report.pop("csv_path")
        reports.append(report)
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


def test_worker_pool_no_larger_than_the_bucket_count(monkeypatch):
    # a fork pool starts all its workers at the first submit, so --jobs
    # above the number of discriminants would only fork idle processes
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    q = quadform.QuadraticForm.sum_of_squares(3)
    cfg = ex.ExperimentConfig(form=q, k=1, discs=(5, 13), jobs=8, seed=1)
    serial = ex.run_experiment(dataclasses.replace(cfg, jobs=1))
    monkeypatch.setattr(ex, "ProcessPoolExecutor", SerialPool)
    assert ex.run_experiment(cfg) == serial
    assert sizes == [2]


# sha256 of the CSV of sumsq:4, k = 2, D = 5, 13, 21, seed 0, recorded at
# commit cb86b46, where the stabiliser order was still a membership test of
# every group element per subspace; the orbit route must keep these bytes.
# The CSV does not depend on the weighting or the Monte-Carlo sample, so
# both weightings give the same bytes.
FROZEN_PLANES_CSV_SHA256 = "a3591eb62dc63e0d26d2d7a4e1fca3f07bf22e0fa3ed1e414bf672ae56cc6d40"


@pytest.mark.parametrize("weighting", ex.WEIGHTINGS)
def test_planes_csv_bytes_frozen(tmp_path, weighting):
    q = quadform.QuadraticForm.sum_of_squares(4)
    out = tmp_path / "p.csv"
    cfg = ex.ExperimentConfig(
        form=q, k=2, discs=(5, 13, 21), weighting=weighting, out_path=str(out), seed=0
    )
    ex.run_experiment(cfg)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FROZEN_PLANES_CSV_SHA256


# sha256 of the compact sorted-key JSON of the seed-0 report (no CSV path),
# recorded at commit 9a44f05, before the per-orbit records and the batched
# Monte-Carlo draw.  The report carries grassmann_ks, so these bytes pin the
# Monte-Carlo sample and the pooled projection entries as well.
FROZEN_REPORT_SHA256 = {
    (4, 2, "plain"): "11aa789c0c0bf266d4fe26eba7b62eba72ddc77eaaa5268e90d9af8d9e285220",
    (4, 2, "stabilizer"): "9897127014f21f46d01a9a5f3c4467d03e2a39d7feaacd5f7f3f3fe6ed3d67c2",
    (3, 1, "plain"): "87eac52abd2967de2d1f8c3ac84dd100d282cfcda958cd012bffa2cb0e78163d",
    (3, 1, "stabilizer"): "5272663acf1ad574927ba2bfefac8330e529b4731ed47d535e594772cebba4a1",
}


@pytest.mark.parametrize("n, k, weighting", sorted(FROZEN_REPORT_SHA256))
def test_seed0_report_bytes_frozen(n, k, weighting):
    discs = {(4, 2): (5, 13, 21), (3, 1): (9, 25, 50)}[n, k]
    cfg = ex.ExperimentConfig(
        form=quadform.QuadraticForm.sum_of_squares(n),
        k=k,
        discs=discs,
        weighting=weighting,
        seed=0,
    )
    _, report = ex.run_experiment(cfg)
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FROZEN_REPORT_SHA256[n, k, weighting]


A4 = quadform.QuadraticForm(((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 2)))
T3 = quadform.QuadraticForm(((2, 1, 0), (1, 3, 1), (0, 1, 4)))
ORBIT_CASES = [
    (quadform.QuadraticForm.sum_of_squares(3), 1, (9, 25, 50)),
    (quadform.QuadraticForm.sum_of_squares(4), 2, (5, 41)),
    (A4, 2, (12, 20, 28)),
    (quadform.QuadraticForm.diagonal([1, 1, 2]), 1, (18, 27)),
    (quadform.QuadraticForm.diagonal([1, 1, 2]), 2, (11, 14, 22)),
    (T3, 1, (5, 18, 23, 27, 36)),
    (T3, 2, (27, 41, 59)),
]


def _reduced(q, lat):
    (a, b), (_, c) = quadform.gram_restriction(q, lat)
    return shapes._reduce_binary(a, b, c)


def _reduced_sides(form, k, sub, rep):
    """(member, representative) reduced Grams of each rank-2 side."""
    if k == 2:
        yield _reduced(form, sub), _reduced(form, rep)
    if form.n - k == 2:
        perps = [quadform.orth_complement(form, s) for s in (sub, rep)]
        yield _reduced(form, perps[0]), _reduced(form, perps[1])


@pytest.mark.parametrize("form, k, discs", ORBIT_CASES)
def test_orbit_records_match_per_subspace_oracle(form, k, discs):
    # every member's record, carried from its representative through the
    # orbit map, equals the per-subspace record computed from scratch
    order = len(quadform.special_orthogonal_group(form))
    buckets = subspaces.disc_buckets(form, k, discs)
    mirrored = non_orthogonal = 0
    for d in discs:
        subs = buckets[d]
        assert subs
        orbit_of = quadform.orbits(form, subs)
        rows = ex._bucket_records(form, subs, orbit_of)
        for sub, entry, row in zip(subs, orbit_of, rows):
            assert row == fo._record(form, sub, order // entry.size)
            rep = subs[entry.rep]
            image = exact.mat_mul(rep.basis, exact.transpose(entry.g))
            assert quadform.Subspace.from_rows(form, image) == sub
            g_gt = exact.mat_mul(entry.g, exact.transpose(entry.g))
            non_orthogonal += g_gt != exact.identity(form.n)
            # a member whose SL_2(Z) class is not its representative's is
            # reached through the mirror Gram
            mirrored += sum(mine != theirs for mine, theirs in _reduced_sides(form, k, sub, rep))
    assert mirrored > 0
    # off the diagonal forms some g^{-1} is not g^T: the carried
    # projection needs the adjugate
    assert (non_orthogonal > 0) == (form in (A4, T3))


@pytest.mark.parametrize("form, k, discs", ORBIT_CASES + [
    (quadform.QuadraticForm.sum_of_squares(5), 2, (5, 12)),
    (A4, 3, (14, 26, 34)),
])
def test_orbits_match_the_hnf_keyed_oracle(form, k, discs):
    # the Plücker-keyed orbit map equals the HNF-keyed one entry for entry:
    # the same representatives, orbit sizes and first g in group order
    for subs in subspaces.disc_buckets(form, k, discs).values():
        assert subs
        assert quadform.orbits(form, subs) == fo.orbits(form, subs)


def test_records_stay_exact_past_64_bits():
    # the line through (1, 0, 2^40) has N = B^T B with an entry 2^80, and
    # its images under the group reach it through u^{-1} N u: an int64
    # path would wrap where Python ints do not
    q = quadform.QuadraticForm.sum_of_squares(3)
    line = quadform.Subspace.from_rows(q, [[1, 0, 2**40]])
    group = quadform.special_orthogonal_group(q)
    subs = sorted({quadform.rotate_subspace(g, line) for g in group}, key=lambda s: s.basis)
    orbit_of = quadform.orbits(q, subs)
    assert len({entry.rep for entry in orbit_of}) == 1
    rows = ex._bucket_records(q, subs, orbit_of)
    for sub, entry, row in zip(subs, orbit_of, rows):
        assert row == fo._record(q, sub, len(group) // entry.size)
    assert max(abs(x) for row in quadform.projection_numerator(q, line)[0] for x in row) > 2**63


def test_orbit_oracle_cases_reach_every_boundary():
    # the oracle cases hold reduced forms [[a,b],[b,c]] on each part of the
    # fundamental domain's boundary
    seen = set()
    for form, k, discs in ORBIT_CASES:
        for subs in subspaces.disc_buckets(form, k, discs).values():
            for sub in subs:
                for (a, b, c), _rep in _reduced_sides(form, k, sub, sub):
                    seen |= {
                        name
                        for name, hit in (("b=0", b == 0), ("2|b|=a", 2 * abs(b) == a), ("a=c", a == c))
                        if hit
                    }
    assert seen == {"b=0", "2|b|=a", "a=c"}


@pytest.mark.parametrize(
    "form, k, discs",
    [
        (quadform.QuadraticForm.sum_of_squares(4), 2, (7, 9, 11, 17, 27)),
        (quadform.QuadraticForm.sum_of_squares(3), 1, (9, 25, 50)),
        (quadform.QuadraticForm.diagonal([1, 1, 2]), 2, (11, 14)),
    ],
)
def test_per_disc_orbit_diagnostics(form, k, discs):
    order = len(quadform.special_orthogonal_group(form))
    cfg = ex.ExperimentConfig(form=form, k=k, discs=discs, kind="shape_L", mc_samples=2)
    _, report = ex.run_experiment(cfg)
    for sec in report["per_disc"]:
        hist = sec["stab_histogram"]
        assert isinstance(sec["orbits"], int)
        assert all(isinstance(s, str) for s in hist)
        # every subspace is counted once; each orbit of size |G|/s
        # contributes s per member, so |G| per orbit
        assert sum(hist.values()) == sec["count"]
        assert sum(int(s) * c for s, c in hist.items()) == sec["orbits"] * order
    assert any(len(sec["stab_histogram"]) > 1 for sec in report["per_disc"])


def test_run_experiment_weightings_agree_when_stabilizers_tie():
    # every line of disc 1009 has the same stabilizer order, so the
    # weighted and plain empirical laws coincide
    q = quadform.QuadraticForm.sum_of_squares(3)
    stats = {}
    for weighting in ("plain", "stabilizer"):
        cfg = ex.ExperimentConfig(form=q, k=1, discs=(1009,), weighting=weighting)
        _, report = ex.run_experiment(cfg)
        stats[weighting] = report["per_disc"][0]["sphere_z_ks"]
    assert stats["plain"] == pytest.approx(stats["stabilizer"], abs=1e-12)


def test_run_experiment_work_cap():
    # the cap stops the walks of planes of Z^5 at D = 10^6 before any table
    q = quadform.QuadraticForm.sum_of_squares(5)
    cfg = ex.ExperimentConfig(form=q, k=2, discs=(10**6,), max_candidates=20000)
    with pytest.raises(subspaces.BoundExceededError, match="candidate bound exceeded"):
        ex.run_experiment(cfg)


def test_run_experiment_honours_the_candidate_cap():
    # the cap applies to every enumeration path, the sum of squares included
    q = quadform.QuadraticForm.sum_of_squares(4)
    cfg = ex.ExperimentConfig(form=q, k=2, discs=(5,), max_candidates=1)
    with pytest.raises(subspaces.BoundExceededError):
        ex.run_experiment(cfg)


def test_config_refuses_a_negative_candidate_cap():
    q = quadform.QuadraticForm.sum_of_squares(3)
    with pytest.raises(ValueError, match="max_candidates must be >= 0, got -1"):
        ex.ExperimentConfig(form=q, k=1, discs=(11,), max_candidates=-1)
    assert ex.ExperimentConfig(form=q, k=1, discs=(11,), max_candidates=0).max_candidates == 0


def test_shape_columns_populated_for_k2(tmp_path):
    q = quadform.QuadraticForm.sum_of_squares(4)
    out = tmp_path / "s.csv"
    cfg = ex.ExperimentConfig(form=q, k=2, discs=(5,), out_path=str(out))
    _, report = ex.run_experiment(cfg)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert row["shape_l_x"] != ""
        assert row["shape_perp_y"] != ""
        assert int(row["stab_order"]) >= 1
    assert report["per_disc"][0]["count"] == len(rows)
