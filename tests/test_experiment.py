import csv
import hashlib
import json
import math
from importlib import resources

import pytest

from latshape import experiment as ex
from latshape import gen_reference
from latshape import quadform
from latshape import subspaces


# closed form of the reference law, derived independently of the
# shipped quadrature table
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
    uniform = lambda t: min(1.0, max(0.0, t))
    assert ex.ks_statistic([0.1, 0.2, 0.3], uniform) == pytest.approx(0.7)
    assert ex.ks_statistic([0.5], uniform) == pytest.approx(0.5)


def test_ks_statistic_at_reference_quantiles():
    uniform = lambda t: min(1.0, max(0.0, t))
    m = 40
    samples = [i / (m + 1) for i in range(1, m + 1)]
    assert ex.ks_statistic(samples, uniform) <= 1.0 / (m + 1) + 1e-12


def test_ks_statistic_validation_and_weights():
    uniform = lambda t: min(1.0, max(0.0, t))
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


def test_hyperbolic_table_matches_closed_form():
    payload = json.loads(
        resources.files("latshape").joinpath("data/hyperbolic_y_cdf.json").read_text()
    )
    knots = payload["knots"]
    cdf = payload["cdf"]
    worst = max(
        abs(c - _hyperbolic_cdf_exact(t)) for t, c in zip(knots, cdf)
    )
    assert worst < 1e-8
    assert payload["tail_coeff"] == pytest.approx(3.0 / math.pi, abs=1e-9)


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


def test_reference_generator_roundtrip():
    # a coarse rebuild still lands within quadrature error of the truth
    table = gen_reference.build_table(theta_panels=96, mid_step=1.0 / 32, y_top=6.0)
    worst = max(
        abs(c - _hyperbolic_cdf_exact(t))
        for t, c in zip(table["knots"], table["cdf"])
    )
    assert worst < 1e-6


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


def test_run_experiment_counts_and_verdicts(tmp_path):
    q = quadform.QuadraticForm.sum_of_squares(3)
    out = tmp_path / "r.csv"
    cfg = ex.ExperimentConfig(form=q, k=1, discs=(5, 7, 11), out_path=str(out))
    _, report = ex.run_experiment(cfg)
    by_disc = {sec["disc"]: sec for sec in report["per_disc"]}
    assert by_disc[5]["count"] == len(subspaces.lines_with_disc(q, 5))
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


def test_run_experiment_sweep_guard():
    q = quadform.QuadraticForm.sum_of_squares(4)
    cfg = ex.ExperimentConfig(form=q, k=2, discs=(subspaces.MAX_SWEEP_DISC + 1,))
    with pytest.raises(subspaces.BoundExceededError):
        ex.run_experiment(cfg)


def test_run_experiment_honours_the_candidate_cap():
    # the cap applies to every enumeration path, the sum of squares included
    q = quadform.QuadraticForm.sum_of_squares(4)
    cfg = ex.ExperimentConfig(form=q, k=2, discs=(5,), max_candidates=1)
    with pytest.raises(subspaces.BoundExceededError):
        ex.run_experiment(cfg)


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
