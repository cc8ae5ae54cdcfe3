import pytest

from latshape import padic
from latshape import quadform
from latshape import verify as vf


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        vf.verify("nonsense")


def test_counts_must_be_ints():
    # 2.5 samples ran 7 cases per check and reported samples: 2.5
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match="samples must be positive, got %r" % (bad,)):
            vf.verify("glue", samples=bad)
    # dmax 2.5 was a TypeError inside the recursion; the tables refuse it
    for suite in ("schmidt", "nonempty"):
        for bad in (2.5, True, 0):
            with pytest.raises(ValueError, match="max_disc must be >= 1, got %r" % (bad,)):
                vf.verify(suite, samples=3, dmax=bad)


def test_a_failing_case_fails_the_report(monkeypatch):
    check = vf._Check("toy")
    check.record(True, "fine")
    check.record(False, "first")
    check.record(False, "second")
    monkeypatch.setitem(vf._DISPATCH, "reciprocity", lambda samples, seed: [check])
    report = vf.verify("reciprocity", samples=3)
    assert report["passed"] is False
    assert report["checks"] == [
        {"name": "toy", "cases": 3, "failures": 2, "first_failure": "first"}
    ]


def test_report_shape():
    rep = vf.verify("reciprocity", samples=25, seed=1)
    assert rep["suite"] == "reciprocity"
    assert rep["params"] == {"samples": 25, "seed": 1, "dmax": None}
    assert rep["passed"] is True
    for check in rep["checks"]:
        assert set(check) == {"name", "cases", "failures", "first_failure"}
        assert check["cases"] > 0
        assert check["failures"] == 0
        assert check["first_failure"] is None


@pytest.mark.parametrize("suite", [s for s in vf.SUITES if s not in ("schmidt", "nonempty")])
def test_all_sampled_suites_pass_small(suite):
    rep = vf.verify(suite, samples=12, seed=5)
    assert rep["passed"], rep


def test_bounded_suites_pass_small():
    assert vf.verify("schmidt", samples=10, seed=5, dmax=8)["passed"]
    assert vf.verify("nonempty", samples=10, seed=5, dmax=48)["passed"]


def test_form_override():
    q = quadform.QuadraticForm.diagonal([1, 2, 3])
    rep = vf.verify("duality", form=q, samples=10, seed=9)
    assert rep["passed"]
    rep = vf.verify("continuity", form=quadform.QuadraticForm.sum_of_squares(3),
                    samples=8, seed=9)
    assert rep["passed"]


def test_internal_hensel_copy_agrees_with_padic():
    cases = [
        ([1, 1], 2), ([1, 1], 5), ([1, -1], 7), ([1, 2, 3], 3),
        ([1, 1, 1], 7), ([2, -3, 5], 5), ([1, 1, 1, 1], 2), ([1, -2, 3, -5], 3),
    ]
    for ents, p in cases:
        assert vf._hensel_isotropic(ents, p) == padic.is_isotropic_diagonal(ents, p), (
            ents,
            p,
        )
