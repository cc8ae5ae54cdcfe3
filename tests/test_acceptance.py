"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - detail` and then asserts, so
a verbose run shows one line per criterion.  A failing criterion reports
its measured numbers in the message; thresholds are not loosened to turn
it green.  After the criteria come count oracles that share no code with
either enumerator, and the SO(4) -> SO(3) x SO(3) split the (4,2) one
rests on.
"""

import csv
import itertools
import math
import random

import pytest

from latshape import experiment as ex
from latshape import padic as pa
from latshape import quadform as qf
from latshape import shapes
from latshape import subspaces as sp
from latshape import verify as vf
from latshape import exact

from test_padic import hensel_oracle

Q3 = qf.QuadraticForm.sum_of_squares(3)
Q4 = qf.QuadraticForm.sum_of_squares(4)
Q5 = qf.QuadraticForm.sum_of_squares(5)
Q6 = qf.QuadraticForm.sum_of_squares(6)

ODD_PRIMES = (3, 5, 7, 11, 13)


def _line(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    message = "criterion %d: %s - %s" % (number, verdict, detail)
    print(message)
    assert ok, message


# Tables shared by criteria 1, 2, 3 and 7; each is built once per module.
@pytest.fixture(scope="module")
def table_4_2_200():
    return sp.schmidt_table(4, 2, 200)


@pytest.fixture(scope="module")
def table_5_2_100():
    return sp.schmidt_table(5, 2, 100)


@pytest.fixture(scope="module")
def table_3_1_500():
    return sp.enumerate_by_disc(Q3, 1, 500)


def test_criterion_01_nonempty_4_2_mod16(table_4_2_200):
    table = table_4_2_200
    mismatches = []
    for d in range(1, 201):
        want_empty = d % 16 in (0, 7, 12, 15)
        got_empty = len(table.get(d)) == 0
        if want_empty != got_empty:
            mismatches.append(d)
        verdict = sp.nonempty_criterion(4, 2, d)
        if verdict == sp.Verdict.EMPTY and not got_empty:
            mismatches.append(d)
        if verdict in (sp.Verdict.NONEMPTY, sp.Verdict.ALWAYS_NONEMPTY) and got_empty:
            mismatches.append(d)
    _line(1, not mismatches, "(4,2) D<=200 vs mod-16 rule, mismatches=%s" % mismatches)


def test_criterion_02_legendre_3_1_mod8(table_3_1_500):
    table = table_3_1_500
    mismatches = []
    for d in range(1, 501):
        want_empty = d % 8 in (0, 4, 7)
        got_empty = len(table.get(d)) == 0
        if want_empty != got_empty:
            mismatches.append(d)
        verdict = sp.nonempty_criterion(3, 1, d)
        if verdict == sp.Verdict.EMPTY and not got_empty:
            mismatches.append(d)
        if verdict in (sp.Verdict.NONEMPTY, sp.Verdict.ALWAYS_NONEMPTY) and got_empty:
            mismatches.append(d)
    _line(2, not mismatches, "(3,1) D<=500 vs mod-8 rule, mismatches=%s" % mismatches)


def test_criterion_03_52_always_nonempty(table_5_2_100):
    table = table_5_2_100
    empty = [d for d in range(1, 101) if len(table.get(d)) == 0]
    bad_verdict = [
        d
        for d in range(1, 101)
        if sp.nonempty_criterion(5, 2, d) != sp.Verdict.ALWAYS_NONEMPTY
    ]
    ok = not empty and not bad_verdict
    _line(3, ok, "(5,2) D<=100 all nonempty, empty=%s bad_verdict=%s" % (empty, bad_verdict))


def test_criterion_04_exact_identity_suite():
    # six exact-identity families, each on 500+ random subspaces spread
    # over seven forms with discriminants {1, 1, 1, 1, 2, 6, 18}
    failures = []
    for suite in ("glue", "duality", "indices", "orders", "primitive", "lambda"):
        rep = vf.verify(suite, samples=500, seed=11)
        if not rep["passed"]:
            bad = [c for c in rep["checks"] if c["failures"]]
            failures.append((suite, bad))
    _line(4, not failures, "6 identity suites x 500 subspaces, failures=%s" % failures)


def test_criterion_05_schmidt_cross_validation():
    problems = []
    pairs = (
        (3, 1, 50, Q3),
        (4, 1, 50, Q4),
        (4, 2, 40, Q4),
    )
    recursion_sides = []
    for n, k, top, q in pairs:
        recursion_side = sp.schmidt_table(n, k, top)
        recursion_sides.append(recursion_side)
        vector_side = sp.enumerate_by_disc(q, k, top)
        for d in range(1, top + 1):
            a = {s.basis for s in recursion_side.get(d)}
            b = {s.basis for s in vector_side.get(d)}
            if a != b:
                problems.append(("sets", n, k, d, len(a), len(b)))
    checked = 0
    for (n, k, top, _q), table in zip(pairs, recursion_sides):
        for d in range(1, top + 1):
            for L in table.get(d):
                if not L.basis[0][0]:
                    continue  # lives in the hyperplane x_0 = 0, not decomposable
                triple = sp.schmidt_decompose(L)
                if sp.schmidt_compose(L.form, triple).basis != L.basis:
                    problems.append(("roundtrip", n, k, L.hnf_key()))
                    continue
                m = triple.h * triple.h + sum(x * x for x in triple.v)
                if qf.disc(L.form, L) != qf.disc(triple.lbar.form, triple.lbar) * m:
                    problems.append(("recursion", n, k, L.hnf_key()))
                checked += 1
    ok = not problems and checked > 1000
    _line(
        5,
        ok,
        "two enumerators agree on (3,1),(4,1)<=50 and (4,2)<=40; "
        "%d decompositions round-trip; problems=%s" % (checked, problems[:5]),
    )


def test_recursion_matches_vector_search_on_general_forms():
    # beside criterion 5: the recursion against the independent vector DFS
    # on forms that are not the sum of squares.  The last form has
    # det M_2 / det M_3 = 3, so its planes lie over lines of disc up to
    # 3 * max_disc.
    a4 = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
    rng = random.Random(7)
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((1, -1)) for _ in range(4)]
    permuted = [[signs[i] * signs[j] * a4[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    grams = (
        a4,
        permuted,
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
        [[2, 1, 0, 0, 1], [1, 3, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 3, 1], [1, 0, 0, 1, 4]],
        [[2, 1, 1], [1, 2, 1], [1, 1, 1]],
    )
    cases = [(g, k, 30) for g in grams for k in range(1, len(g) + 1)] + [(a4, 2, 60)]
    problems = []
    for gram, k, top in cases:
        q = qf.QuadraticForm(gram)
        if sp.recursion_table(q, k, top).table != sp.enumerate_by_disc(q, k, top).table:
            problems.append((gram, k, top))
    assert not problems, problems


def test_criterion_06_isotropy_oracle_and_reciprocity():
    pool = (1, -1, 2, -2, 3, -3, 5, -5)
    cache = {}
    cases = 0
    mismatches = []
    for rank in (2, 3, 4):
        for ents in itertools.product(pool, repeat=rank):
            for p in (2, 3, 5, 7):
                cases += 1
                got = pa.is_isotropic_diagonal(list(ents), p)
                key = (tuple(sorted(ents)), p)
                if key not in cache:
                    cache[key] = hensel_oracle(list(key[0]), p)
                if got != cache[key]:
                    mismatches.append((ents, p))
    rng = random.Random(0)
    recip_bad = []
    for _ in range(1000):
        a = rng.randint(-500, 500) or 7
        b = rng.randint(-500, 500) or -11
        prod = pa.hilbert_symbol(a, b, "inf")
        rem = abs(2 * a * b)
        p = 2
        while rem > 1:
            while rem % p:
                p += 1 if p == 2 else 2
            prod *= pa.hilbert_symbol(a, b, p)
            while rem % p == 0:
                rem //= p
        if prod != 1:
            recip_bad.append((a, b))
    ok = not mismatches and not recip_bad and cases == 18688
    _line(
        6,
        ok,
        "%d oracle cases, mismatches=%s; 1000 reciprocity products, bad=%s"
        % (cases, mismatches[:3], recip_bad[:3]),
    )


def test_criterion_07_sufficiency_implies_strong_isotropy(
    table_4_2_200, table_3_1_500, table_5_2_100
):
    # Over a unimodular ambient form both indices i are 1, so
    # disc q_L = disc q_perp = D for the whole discriminant class: the
    # inputs of sufficient_criterion depend on (D, p) alone and one call
    # covers every subspace in the bucket.  The disc equalities are
    # re-verified by exact spot checks, and the conclusion is evaluated
    # through the public API on a spread of subspaces per firing bucket.
    families = (
        (Q4, table_4_2_200, 200),
        (Q3, table_3_1_500, 500),
        (Q5, table_5_2_100, 100),
    )
    violations = []
    const_bad = []
    fired = 0
    evaluated = 0
    for q, table, top in families:
        for d in range(1, top + 1):
            subs = table.get(d)
            if not subs:
                continue
            for L in (subs[0], subs[len(subs) // 2]):
                if qf.disc(q, L) != d or qf.disc(q, qf.orth_complement(q, L)) != d:
                    const_bad.append((q.n, L.hnf_key()))
            k = subs[0].k
            for p in ODD_PRIMES:
                if not pa.sufficient_criterion(k, q.n - k, p, d, d):
                    continue
                fired += 1
                step = max(1, len(subs) // 9)
                for L in subs[::step][:9]:
                    evaluated += 1
                    if not pa.stabilizer_strongly_isotropic(q, L, p):
                        violations.append((q.n, k, d, p, L.hnf_key()))
    ok = not violations and not const_bad and fired > 100 and evaluated > 900
    _line(
        7,
        ok,
        "%d firing (D,p) buckets, %d API evaluations, violations=%s, "
        "disc-constancy failures=%s" % (fired, evaluated, violations[:3], const_bad[:3]),
    )


def test_criterion_08_moduli_consistency():
    import numpy as np

    rng = random.Random(2026)
    worst_residual = 0.0
    worst_l = 0.0
    worst_snap = 0.0
    bad = []
    done = 0
    plans = ((Q5, 2, 3, 50), (Q6, 3, 2, 50))
    for q, k, span, quota in plans:
        got = 0
        while got < quota:
            rows = [
                [rng.randint(-span, span) for _ in range(q.n)] for _ in range(k)
            ]
            if exact.rank_int([list(r) for r in rows]) != k:
                continue
            got += 1
            done += 1
            L = qf.Subspace.from_rows(q, rows)
            pt = shapes.moduli_point(q, L)
            res = max(pt.residuals().values())
            worst_residual = max(worst_residual, res)
            gram_l, gram_p = shapes.shapes_from_moduli(q, pt)
            exact_l = np.array(qf.gram_restriction(q, L), float)
            err_l = float(np.abs(gram_l / (pt.alpha * pt.lam) ** 2 - exact_l).max())
            worst_l = max(worst_l, err_l)
            perp = qf.orth_complement(q, L)
            exact_p = qf.gram_restriction(q, perp)
            ratio = np.linalg.det(gram_p) / np.linalg.det(np.array(exact_p, float))
            snapped = gram_p / ratio ** (1.0 / len(exact_p))
            rounded = [[round(v) for v in row] for row in snapped]
            scale = max(1.0, float(np.abs(snapped).max()))
            snap_err = float(np.abs(snapped - np.array(rounded, float)).max()) / scale
            worst_snap = max(worst_snap, snap_err)
            if (
                res >= 1e-9
                or err_l >= 1e-9
                or snap_err >= 1e-9
                or not shapes.forms_equivalent(rounded, exact_p)
            ):
                bad.append((q.n, k, L.hnf_key()))
    ok = not bad and done == 100
    _line(
        8,
        ok,
        "100 subspaces (5,2)/(6,3): worst residual %.2e, worst L-block %.2e, "
        "worst perp snap %.2e (all vs 1e-9), bad=%s" % (worst_residual, worst_l, worst_snap, bad[:3]),
    )


SPHERE_DISCS = (101, 1009, 10009, 100003)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _shape_probe_discs():
    # For prime D = 3 (mod 8) the perp shapes of H^{3,1}(D) are the
    # h(-D) Heegner points, each carried by 12 lines (r_3(D) = 24 h(-D)).
    # Duke's theorem makes their y-law hyperbolic as D grows, but how far
    # one D sits from the limit is governed by h(-D), not by D: at 100003
    # (h = 39) the y-KS is 0.150.  The probe therefore pools a fixed,
    # rule-defined run of such primes at one scale.
    discs = []
    d = 100003
    while len(discs) < 4:
        if d % 8 == 3 and _is_prime(d):
            discs.append(d)
        d += 1
    return tuple(discs)


def test_criterion_09_equidistribution_probe(tmp_path):
    shape_discs = _shape_probe_discs()
    discs = tuple(sorted(set(SPHERE_DISCS + shape_discs)))
    out = tmp_path / "criterion09.csv"
    cfg = ex.ExperimentConfig(
        form=Q3, k=1, discs=discs, kind="joint", seed=0, out_path=str(out)
    )
    _, report = ex.run_experiment(cfg)
    by_disc = {sec["disc"]: sec for sec in report["per_disc"]}
    z = [by_disc[d]["sphere_z_ks"] for d in SPHERE_DISCS]
    monotone = all(a >= b - 1e-12 for a, b in zip(z, z[1:]))
    sphere_ok = monotone and z[-1] < 0.05

    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["D"]) in shape_discs]
    pooled = ex.ks_statistic(
        [float(r["shape_perp_y"]) for r in rows], ex.hyperbolic_y_cdf
    )
    shape_ok = pooled < 0.1
    per_d = [
        "D=%d: %d lines, %d GL2 shape classes, y-KS %.4f"
        % (
            d,
            by_disc[d]["count"],
            _perp_shape_class_count([r for r in rows if int(r["D"]) == d]),
            by_disc[d]["shape_perp_y_ks"],
        )
        for d in shape_discs
    ]
    detail = (
        "sphere z-KS %s monotone=%s final %.4f (<0.05: %s); "
        "perp-shape y-KS pooled over %d lines at D=%s: %.4f (<0.1: %s); %s"
        % (
            ["%.4f" % v for v in z],
            monotone,
            z[-1],
            sphere_ok,
            len(rows),
            list(shape_discs),
            pooled,
            shape_ok,
            "; ".join(per_d),
        )
    )
    _line(9, sphere_ok and shape_ok, detail)


def _perp_shape_class_count(rows) -> int:
    # rows of the experiment CSV; the hnf column is the line's basis
    classes = set()
    for r in rows:
        L = qf.Subspace.from_rows(Q3, [[int(x) for x in r["hnf"].split(";")]])
        classes.add(shapes.shape(Q3, qf.orth_complement(Q3, L)))
    return len(classes)


def _matching_spans():
    # spans of e_a + s e_b over the perfect matchings {a, b} of the six
    # coordinates and the signs s: 5 * 3 * 1 matchings times 2^3 signs
    spans = set()
    for perm in itertools.permutations(range(6)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = [[0] * 6 for _ in range(3)]
            for i, s in enumerate(signs):
                rows[i][perm[2 * i]], rows[i][perm[2 * i + 1]] = 1, s
            spans.add(qf.Subspace.from_rows(Q6, rows).basis)
    return spans


def test_criterion_10_badly_behaved_chart():
    # Subspaces of (6,3) with a primitive side of disc <= 2.  At this
    # scale they occur only at D = 8 and 16, and all of them are content-2
    # copies 2*M on both sides with disc M = D/8; at D = 8 they are the
    # 15 * 2^3 spans of e_a +- e_b over perfect matchings of six coordinates.
    table = sp.schmidt_table(6, 3, 16)
    chart = []
    counts = {}
    off_eight = []
    # D <= M is excluded: there every subspace counts by construction
    for d in range(3, 17):
        size = len(table.get(d))
        assert size >= 20
        counts[d] = sp.count_small_primitive_shapes(Q6, table.get(d), 2)
        chart.append("D=%d:%d/%d" % (d, counts[d], size))
        if d % 8 and counts[d]:
            off_eight.append((d, counts[d]))
    # the same count on the generic path (content and primitive part of
    # both restricted forms), checking each counted side is 2 * disc D/8
    not_copies = []
    counted = {8: set(), 16: set()}
    for d in counted:
        for L in table.get(d):
            sides = [
                qf.content_and_primitive(qf.gram_restriction(Q6, side))
                for side in (L, qf.orth_complement(Q6, L))
            ]
            if not any(exact.det_int(prim) <= 2 for _, prim in sides):
                continue
            counted[d].add(L.basis)
            if any((g, exact.det_int(prim)) != (2, d // 8) for g, prim in sides):
                not_copies.append((d, L.hnf_key()))
    generic_counts = {d: len(c) for d, c in counted.items()}
    closed_form = _matching_spans()
    ok = (
        not off_eight
        and not not_copies
        and all(generic_counts[d] == counts[d] for d in counted)
        and len(closed_form) == 15 * 2**3 == counts[8]
        and counted[8] == closed_form
    )
    detail = (
        "count(disc<=2 primitive side)/|H| for (6,3): %s; nonzero off 8|D: %s; "
        "generic path counts %s, non-content-2 sides %s; D=8 equals the "
        "%d matching spans: %s"
        % (
            "; ".join(chart),
            off_eight,
            generic_counts,
            not_copies[:3],
            len(closed_form),
            counted[8] == closed_form,
        )
    )
    _line(10, ok, detail)


# Oracles that share no code with either enumerator: planes of Z^4 as pairs
# of Z^3 shells, with the group action behind them, and line counts from the
# theta series.


def _z3_shells(max_norm):
    # every vector of Z^3 of norm <= max_norm, keyed by norm
    shells = {}
    r = math.isqrt(max_norm)
    for x in range(-r, r + 1):
        ry = math.isqrt(max_norm - x * x)
        for y in range(-ry, ry + 1):
            rz = math.isqrt(max_norm - x * x - y * y)
            for z in range(-rz, rz + 1):
                shells.setdefault(x * x + y * y + z * z, []).append((x, y, z))
    return shells


def _plucker_from_parts(a, b):
    # (p12, p13, p14, p23, p24, p34) with self-dual part a = (p12+p34,
    # p13-p24, p14+p23) and anti-self-dual part b = (p12-p34, p13+p24, p14-p23)
    return (
        (a[0] + b[0]) // 2, (a[1] + b[1]) // 2, (a[2] + b[2]) // 2,
        (a[2] - b[2]) // 2, (b[1] - a[1]) // 2, (a[0] - b[0]) // 2,
    )


def _parts(p):
    p12, p13, p14, p23, p24, p34 = p
    return (p12 + p34, p13 - p24, p14 + p23), (p12 - p34, p13 + p24, p14 - p23)


def test_planes_of_z4_are_pairs_of_z3_shells(table_4_2_200):
    # SO(4) -> SO(3) x SO(3): the Plücker relation p12 p34 - p13 p24 +
    # p14 p23 = 0 is |a|^2 = |b|^2, so a plane of disc D is a pair of norm-D
    # vectors of Z^3 with a = b (mod 2) and p primitive, up to (a, b) ~ (-a, -b)
    shells = _z3_shells(200)
    oracle = {}
    for d in range(1, 201):
        shell = shells.get(d, [])
        pairs = sum(
            1
            for a in shell
            for b in shell
            if all((x - y) % 2 == 0 for x, y in zip(a, b))
            and math.gcd(*_plucker_from_parts(a, b)) == 1
        )
        assert pairs % 2 == 0, d
        oracle[d] = pairs // 2
    counts = table_4_2_200.counts()
    assert {d: c for d, c in oracle.items() if c} == {d: c for d, c in counts.items() if c}
    # the front door takes the pairs for this job; the recursion agrees
    buckets = sp.disc_buckets(Q4, 2, range(1, 61))
    table = sp.recursion_table(Q4, 2, 60)
    for d in range(1, 61):
        assert buckets[d] == table.get(d), d


def test_so4_acts_on_the_pairs_through_a_proper_fibre_product():
    # SO_4(Z) acts on p through the second compound of g^T (rows map by
    # r -> r g^T) and so on (a, b) through SO_3(Z) x SO_3(Z), of order 576.
    # The two factors share a simple factor, so the Goursat proposition gives
    # no product: the image has order 96, maps onto each factor (order 24),
    # and is the fibre product over S_3 whose kernels are the four diagonal
    # rotations on each side
    group = qf.special_orthogonal_group(Q4)
    assert len(group) == 192
    cols = list(itertools.combinations(range(4), 2))
    units = [tuple(2 * (i == j) for j in range(3)) for i in range(3)]
    zero = (0, 0, 0)
    image = {}
    for g in group:
        compound = [[g[j0][i0] * g[j1][i1] - g[j1][i0] * g[j0][i1] for j0, j1 in cols]
                    for i0, i1 in cols]
        sides = []
        for side in range(2):
            columns = []
            for e in units:
                p = _plucker_from_parts(*((e, zero) if side == 0 else (zero, e)))
                parts = _parts(exact.vec_mat(p, compound))
                assert parts[1 - side] == zero  # g keeps the self-dual split
                columns.append(tuple(x // 2 for x in parts[side]))
            sides.append(tuple(zip(*columns)))
        image.setdefault(tuple(sides), []).append(g)
    one = tuple(map(tuple, exact.identity(3)))
    minus = tuple(tuple(-x for x in row) for row in exact.identity(4))
    diagonal = {tuple(map(tuple, m)) for m in _sign_diagonals()}
    assert len(image) == 96
    assert sorted(image[(one, one)]) == sorted([tuple(map(tuple, exact.identity(4))), minus])
    for side in range(2):
        factor = {pair[side] for pair in image}
        assert len(factor) == 24
        assert all(
            exact.mat_mul(m, exact.transpose(m)) == exact.identity(3) and exact.det_int(m) == 1
            for m in factor
        )
        kernel = {pair[side] for pair in image if pair[1 - side] == one}
        assert kernel == diagonal


def _sign_diagonals():
    # the rotations of Z^3 that are diagonal: det 1 sign matrices
    for signs in itertools.product((1, -1), repeat=3):
        if math.prod(signs) == 1:
            yield [[signs[i] * (i == j) for j in range(3)] for i in range(3)]


def _theta_power(n, top):
    # r_n(m) for m <= top: the coefficients of theta(q)^n, theta = sum q^(j^2)
    squares = [(j * j, 1 if j == 0 else 2) for j in range(math.isqrt(top) + 1)]
    r = [1] + [0] * top
    for _ in range(n):
        r = [sum(c * r[m - s] for s, c in squares if s <= m) for m in range(top + 1)]
    return r


def _mobius(d):
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


@pytest.mark.parametrize("n, k, top", [(3, 1, 400), (4, 1, 200), (3, 2, 150), (4, 3, 150)])
def test_line_and_hyperplane_counts_match_the_theta_series(n, k, top):
    # |H^{n,1}(D)| = 1/2 sum_{d^2 | D} mu(d) r_n(D / d^2): primitive
    # representations up to sign; Z^n is unimodular, so L -> L^perp carries
    # H^{n,1}(D) onto H^{n,n-1}(D)
    r = _theta_power(n, top)
    table = sp.schmidt_table(n, k, top)
    for d in range(1, top + 1):
        primitive = sum(
            _mobius(f) * r[d // (f * f)] for f in range(1, math.isqrt(d) + 1) if d % (f * f) == 0
        )
        assert primitive % 2 == 0 and len(table.get(d)) == primitive // 2, d
