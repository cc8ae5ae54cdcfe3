import json

import pytest

from latshape import cli, quadform, subspaces


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_enumerate_single_disc(capsys):
    code, payload = _run(capsys, "enumerate", "--Q", "sumsq:3", "--k", "1", "--disc", "5")
    assert code == 0
    assert isinstance(payload, list) and len(payload) == 12
    hnfs = [row["hnf"] for row in payload]
    assert hnfs == sorted(hnfs)
    assert all(";" in h for h in hnfs)


def test_enumerate_count_table(capsys):
    code, payload = _run(capsys, "enumerate", "--Q", "sumsq:3", "--k", "1", "--dmax", "8")
    assert code == 0
    # lines per disc = primitive representations by x^2+y^2+z^2 up to sign
    assert payload == {"1": 3, "2": 6, "3": 4, "4": 0, "5": 12, "6": 12, "7": 0, "8": 0}


def test_enumerate_usage_errors():
    with pytest.raises(SystemExit) as e:
        cli.main(["enumerate", "--Q", "sumsq:3", "--k", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["enumerate", "--Q", "sumsq:3", "--k", "1", "--disc", "5", "--dmax", "9"])
    assert e.value.code == 2


def test_bad_form_spec_is_a_runtime_error(capsys):
    assert cli.main(["enumerate", "--Q", "wat", "--k", "1", "--disc", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_form_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"n": 2, "gram": [[2, 1], [1, 2]]}))
    code, payload = _run(
        capsys, "enumerate", "--Q", "file:%s" % path, "--k", "1", "--disc", "2"
    )
    assert code == 0
    assert [row["basis"] for row in payload] == [[[0, 1]], [[1, -1]], [[1, 0]]]
    bad = tmp_path / "bad.json"
    # a wrong n, no Gram, a list and a number for the Gram, a true n, a
    # true Gram entry (JSON true is not the integer 1) and an n of 1.0: a
    # diagnostic each
    for payload in (
        {"n": 3, "gram": [[1]]}, {"n": 3}, [[1]], {"gram": 5},
        {"n": True, "gram": [[1]]}, {"gram": [[True]]}, {"n": 1.0, "gram": [[1]]},
    ):
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["enumerate", "--Q", "file:%s" % bad, "--k", "1", "--disc", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_planes_of_a4_match_the_vector_search(tmp_path, capsys):
    gram = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
    path = tmp_path / "a4.json"
    path.write_text(json.dumps({"n": 4, "gram": gram}))
    brute = subspaces.enumerate_by_disc(quadform.QuadraticForm(gram), 2, 12)
    code, payload = _run(
        capsys, "enumerate", "--Q", "file:%s" % path, "--k", "2", "--dmax", "12"
    )
    assert code == 0
    assert payload == {str(d): len(brute.get(d)) for d in range(1, 13)}
    assert sum(payload.values()) > 0
    # A4 has no plane of disc 5 and 30 of disc 7
    for disc in (5, 7):
        code, payload = _run(
            capsys, "enumerate", "--Q", "file:%s" % path, "--k", "2", "--disc", str(disc)
        )
        assert code == 0
        assert [row["basis"] for row in payload] == [
            [list(r) for r in s.basis] for s in brute.get(disc)
        ]
        assert len(payload) == (0 if disc == 5 else 30)


def test_enumerate_one_disc_emits_the_table_bucket(tmp_path, capsys):
    # --disc walks the rank-k row only at D; it lists the same bucket, in
    # the same order, as the full table up to D, on and off the diagonal
    a4 = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
    path = tmp_path / "a4.json"
    path.write_text(json.dumps({"n": 4, "gram": a4}))
    for spec, form, disc, size in (
        ("sumsq:4", quadform.QuadraticForm.sum_of_squares(4), 61, 864),
        ("file:%s" % path, quadform.QuadraticForm(a4), 20, 75),
    ):
        code, payload = _run(capsys, "enumerate", "--Q", spec, "--k", "2", "--disc", str(disc))
        assert code == 0
        bucket = subspaces.recursion_table(form, 2, disc).get(disc)
        assert len(payload) == len(bucket) == size
        assert payload == json.loads(json.dumps([s.to_json() for s in bucket]))


def test_candidate_cap_is_a_runtime_error(capsys):
    argv = ["--k", "2", "--max-candidates", "1"]
    assert cli.main(["enumerate", "--Q", "sumsq:4", "--disc", "5"] + argv) == 1
    assert "candidate bound exceeded" in capsys.readouterr().err
    assert cli.main(["experiment", "--n", "4", "--dlist", "5"] + argv) == 1
    assert "candidate bound exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["experiment", "--n", "3", "--k", "1", "--dlist", "11"],
    ["enumerate", "--Q", "sumsq:3", "--k", "1", "--disc", "11"],
    ["enumerate", "--Q", "sumsq:3", "--k", "1", "--dmax", "11"],
])
def test_negative_candidate_cap_is_a_usage_error(capsys, argv):
    assert cli.main(argv + ["--max-candidates", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_candidates must be >= 0, got -1" in captured.err


def test_enumerate_one_disc_honours_the_work_cap(capsys):
    # planes of Z^5 at D = 10^6 walk lbar tables up to D; the cap stops the
    # first walk that passes it, long before the tables are built
    argv = ["enumerate", "--Q", "sumsq:5", "--k", "2", "--disc", "1000000",
            "--max-candidates", "20000"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "candidate bound exceeded" in captured.err


def test_enumerate_planes_of_z4_pass_the_sweep_guard(capsys):
    # planes of Z^4 come from pairs of Z^3 shells, which build no table
    disc = 161
    code, payload = _run(capsys, "enumerate", "--Q", "sumsq:4", "--k", "2", "--disc", str(disc))
    assert code == 0
    expected = subspaces.schmidt_table(4, 2, disc).get(disc)
    assert len(payload) == len(expected) == 6144
    assert payload == json.loads(json.dumps([s.to_json() for s in expected]))


def test_enumerate_lines_honour_the_candidate_cap(capsys):
    # the recursion walks one vector per line of norm 10009 in Z^3, 576 in
    # all, and counts them against the cap
    argv = ["enumerate", "--Q", "sumsq:3", "--k", "1", "--disc", "10009", "--max-candidates"]
    assert cli.main(argv + ["575"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "candidate bound exceeded" in captured.err
    code, payload = _run(capsys, *argv, "576")
    assert code == 0 and len(payload) == 576


def test_enumerate_lines_skip_the_sweep_guard(capsys):
    # lines have no lbar tables to sweep; 151 is past the D = 150 that once
    # refused every job at k >= 2
    disc = 151
    for spec, n in (("sumsq:3", 3), ("sumsq:4", 4)):
        code, payload = _run(capsys, "enumerate", "--Q", spec, "--k", "1", "--disc", str(disc))
        assert code == 0
        q = quadform.QuadraticForm.sum_of_squares(n)
        expected = subspaces.recursion_table(q, 1, disc).get(disc)
        assert [row["basis"] for row in payload] == [
            [list(r) for r in s.basis] for s in expected
        ]
    # 151 = 7 mod 8 is no sum of three squares, but Z^4 has lines there
    assert len(payload) > 0


@pytest.mark.parametrize("k", ["1", "2"])
def test_enumerate_refuses_a_disc_below_one(capsys, k):
    assert cli.main(["enumerate", "--Q", "sumsq:4", "--k", k, "--disc", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "discriminants >= 1, got [0]" in captured.err


def test_invariants(capsys):
    code, payload = _run(capsys, "invariants", "--Q", "sumsq:3", "--L", "1,1,1")
    assert code == 0
    assert payload["disc"] == 3
    assert payload["glue_factors"] == [3]
    assert payload["i_L"] * payload["i_Lperp"] == 1
    assert payload["content_L"] == 3
    assert payload["local_disc"] == {"3": {"ord": 1, "unit_class": 1}}
    assert payload["lambda_clean"] is True


def test_isotropy_subspace(capsys):
    code, payload = _run(
        capsys, "isotropy", "--Q", "sumsq:5", "--L", "1,0,0,0,0;0,1,0,0,0",
        "--pmax", "5",
    )
    assert code == 0
    places = payload["places"]
    assert set(places) == {"2", "3", "5"}
    assert places["5"]["strongly_isotropic"] is True
    assert places["5"]["sufficient"] is True
    assert places["3"]["q_L_isotropic"] is False
    assert "strongly_isotropic" not in places["2"]


def test_isotropy_diagonal(capsys):
    code, payload = _run(capsys, "isotropy", "--diag", "1,-1,2", "--p", "5")
    assert code == 0
    assert payload["places"]["5"] is True
    # missing both --diag and --Q/--L is a runtime error with exit 1
    assert cli.main(["isotropy", "--p", "3"]) == 1
    capsys.readouterr()
    assert cli.main(["isotropy", "--diag", "1,0", "--p", "3"]) == 1
    assert "diagonal entries must be nonzero" in capsys.readouterr().err


def test_an_empty_basis_is_refused(capsys):
    assert cli.main(["shapes", "--Q", "sumsq:3", "--L", ";"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty subspace basis" in captured.err


@pytest.mark.parametrize("form", [["--diag", "1,1"], ["--Q", "sumsq:3", "--L", "1,0,0"]])
def test_isotropy_refuses_pmax_below_two(capsys, form):
    # no prime is at most 1, so the report would check nothing
    assert cli.main(["isotropy", "--pmax", "1"] + form) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pmax must be >= 2" in captured.err


def test_shapes(capsys):
    code, payload = _run(
        capsys, "shapes", "--Q", "sumsq:5", "--L", "1,1,0,0,0;0,1,1,0,1",
        "--moduli-check",
    )
    assert code == 0
    assert payload["shape_L"]["canonical_gram"] == [[2, 1], [1, 3]]
    assert payload["shape_L"]["uhp"][0] == pytest.approx(-0.5)
    assert len(payload["shape_Lperp"]["canonical_gram"]) == 3
    assert "uhp" not in payload["shape_Lperp"]
    assert max(payload["moduli"]["residuals"].values()) < 1e-9
    assert payload["moduli"]["l_block_error"] < 1e-9


def test_shapes_search_bound_is_a_runtime_error(capsys):
    # the rank-5 complement exceeds the canonicalization's rank limit
    assert cli.main(
        ["shapes", "--Q", "sumsq:7", "--L", "1,0,0,0,0,0,0;0,1,0,0,0,0,0"]
    ) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["shapes", "--Q", "sumsq:3", "--L", "1,2"],
        ["shapes", "--Q", "sumsq:3", "--L", "1,0,0,1"],
        ["shapes", "--Q", "sumsq:3", "--L", "1,0,0;0,1"],
        ["invariants", "--Q", "sumsq:4", "--L", "1,1,1"],
        ["isotropy", "--Q", "sumsq:3", "--L", "1,1", "--p", "3"],
    ],
)
def test_basis_rows_of_the_wrong_length_are_refused(capsys, argv):
    # such rows used to give a subspace of another space, and exit 0
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "basis rows must have length n = " in captured.err


def test_enumerate_refuses_a_rank_above_n_on_the_line_path(capsys):
    # a 0-dimensional form has no lines to list; the rank check refuses it
    assert cli.main(["enumerate", "--Q", "sumsq:0", "--k", "1", "--disc", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 <= k <= n" in captured.err


def test_experiment(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, payload = _run(
        capsys, "experiment", "--n", "3", "--k", "1", "--dlist", "5,7",
        "--out", str(out), "--seed", "1",
    )
    assert code == 0
    assert payload["csv_path"] == str(out)
    by_disc = {sec["disc"]: sec for sec in payload["per_disc"]}
    assert by_disc[5]["count"] == 12
    assert by_disc[7]["verdict"] == "empty"
    assert out.exists()
    # --n must agree with an explicit --Q
    assert cli.main(
        ["experiment", "--Q", "sumsq:4", "--n", "3", "--k", "1", "--dlist", "5"]
    ) == 1
    # a repeated discriminant is refused, not reported twice
    assert cli.main(["experiment", "--n", "3", "--k", "1", "--dlist", "5,5"]) == 1
    capsys.readouterr()
    assert cli.main(["experiment", "--k", "1", "--dlist", "5"]) == 1
    assert "experiment needs --n or --Q" in capsys.readouterr().err
    # a negative seed failed only after enumeration, inside numpy
    assert cli.main(["experiment", "--n", "3", "--k", "1", "--dlist", "5", "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_verify_cli(capsys):
    code, payload = _run(
        capsys, "verify", "--suite", "reciprocity", "--samples", "30", "--seed", "2"
    )
    assert code == 0
    assert payload["passed"] is True
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--suite", "bogus"])
    assert e.value.code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_nonpositive_samples(capsys, samples):
    # a suite over zero cases would report a pass that checked nothing
    assert cli.main(["verify", "--suite", "glue", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be positive" in captured.err


@pytest.mark.parametrize("suite", ["glue", "moduli", "continuity"])
def test_verify_refuses_a_rank_one_form(tmp_path, capsys, suite):
    # a rank-1 form has no subspace of rank 1 to n-1; sampling failed in randrange
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "gram": [[1]]}))
    assert cli.main(["verify", "--suite", suite, "--Q", "file:%s" % path, "--samples", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need n >= 2, got n = 1" in captured.err


def test_verify_refuses_options_the_suite_ignores(capsys):
    for argv in (
        ["--suite", "reciprocity", "--Q", "sumsq:5", "--dmax", "3"],
        ["--suite", "reciprocity", "--Q", "sumsq:5"],
        ["--suite", "isotropy", "--dmax", "3"],
        ["--suite", "schmidt", "--Q", "sumsq:4", "--dmax", "3"],
        ["--suite", "glue", "--dmax", "3"],
        ["--suite", "moduli", "--Q", "sumsq:5", "--dmax", "3"],
    ):
        assert cli.main(["verify", "--samples", "2"] + argv) == 1, argv
        assert "takes no" in capsys.readouterr().err
