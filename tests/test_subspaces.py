"""Enumeration tests: the two enumerators against each other, against
small closed-form counts, and against an independent box search."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from latshape import exact, quadform
from latshape import subspaces as sp

Q0_3 = quadform.QuadraticForm.sum_of_squares(3)
Q0_4 = quadform.QuadraticForm.sum_of_squares(4)
Q0_5 = quadform.QuadraticForm.sum_of_squares(5)


def _basis_set(subs):
    return set(s.basis for s in subs)


def test_hermite_bound_frozen():
    assert sp.hermite_bound(1, 10) == 10
    assert sp.hermite_bound(2, 10) == 14
    assert sp.hermite_bound(3, 5) == 12
    assert sp.hermite_bound(1, 1) == 1


def test_line_counts_match_representation_numbers():
    # primitive representations of D by x^2+y^2+z^2, one line per +-pair
    table = sp.enumerate_by_disc(Q0_3, 1, 30)
    for D in range(1, 31):
        reps = 0
        r = math.isqrt(D)
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                rest = D - x * x - y * y
                if rest < 0:
                    continue
                z = math.isqrt(rest)
                if z * z == rest and math.gcd(math.gcd(abs(x), abs(y)), z) == 1:
                    reps += 2 if z else 1
        assert len(table.get(D)) == reps // 2, D


def test_line_counts_frozen():
    table = sp.enumerate_by_disc(Q0_3, 1, 8)
    counts = [len(table.get(D)) for D in range(1, 9)]
    assert counts == [3, 6, 4, 0, 12, 12, 0, 0]
    schmidt = sp.schmidt_table(3, 1, 8)
    assert [len(schmidt.get(D)) for D in range(1, 9)] == counts


def _box_subspaces_4_2(max_disc):
    # any plane of disc <= 6 has a reduced basis with norms N1*N2 <= 8,
    # and norm <= 8 in Z^4 forces coordinates in [-2, 2]
    assert max_disc <= 6
    vecs = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    v = (a, b, c, d)
                    nrm = a * a + b * b + c * c + d * d
                    if not 1 <= nrm <= 8:
                        continue
                    for x in v:
                        if x > 0:
                            vecs.append(v)
                            break
                        if x < 0:
                            break
    found = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            rows = [list(vecs[i]), list(vecs[j])]
            if exact.rank_int(rows) != 2:
                continue
            sub = quadform.Subspace.from_rows(Q0_4, rows)
            d = quadform.disc(Q0_4, sub)
            if d <= max_disc:
                found.setdefault(d, set()).add(sub.basis)
    return found


def test_planes_against_box_oracle():
    oracle = _box_subspaces_4_2(6)
    brute = sp.enumerate_by_disc(Q0_4, 2, 6)
    schmidt = sp.schmidt_table(4, 2, 6)
    for D in range(1, 7):
        expect = oracle.get(D, set())
        assert _basis_set(brute.get(D)) == expect, D
        assert _basis_set(schmidt.get(D)) == expect, D


def test_schmidt_matches_brute_4_2():
    brute = sp.enumerate_by_disc(Q0_4, 2, 12)
    schmidt = sp.schmidt_table(4, 2, 12)
    for D in range(1, 13):
        assert _basis_set(brute.get(D)) == _basis_set(schmidt.get(D)), D
    assert len(schmidt.get(3)) == 32
    assert len(schmidt.get(11)) == 288


def test_schmidt_matches_brute_5_2():
    brute = sp.enumerate_by_disc(Q0_5, 2, 6)
    schmidt = sp.schmidt_table(5, 2, 6)
    for D in range(1, 7):
        assert _basis_set(brute.get(D)) == _basis_set(schmidt.get(D)), D


@pytest.mark.parametrize("n, k, low, high", [(4, 2, 12, 30), (5, 2, 8, 16), (6, 3, 4, 6)])
def test_schmidt_table_prefix_of_larger_ceiling(n, k, low, high):
    # a table up to `low` is the part D <= low of the table up to `high`
    small = sp.schmidt_table(n, k, low)
    large = sp.schmidt_table(n, k, high)
    assert small.table and max(small.table) <= low
    assert max(large.table) <= high
    for d in range(1, low + 1):
        assert small.get(d) == large.get(d), d


def test_enumeration_general_form():
    q = quadform.QuadraticForm.diagonal([1, 1, 2])
    table = sp.enumerate_by_disc(q, 1, 14)
    for D, subs in table.table.items():
        for sub in subs:
            assert quadform.disc(q, sub) == D
            assert sub.basis == quadform.Subspace.from_rows(q, sub.basis).basis
    # x^2 + y^2 + 2z^2 = 2: (1,1,0) up to sign/order and (0,0,1)
    assert len(table.get(2)) == 3
    # 14 is not represented at all: 14, 12, 6 are not sums of two squares
    assert len(table.get(14)) == 0


def test_duality_counts():
    line_table = sp.enumerate_by_disc(Q0_4, 1, 10)
    hyp_table = sp.enumerate_by_disc(Q0_4, 3, 10)
    for D in range(1, 11):
        lines = line_table.get(D)
        hyps = hyp_table.get(D)
        assert len(lines) == len(hyps), D
        assert _basis_set(quadform.orth_complement(Q0_4, s) for s in lines) == \
            _basis_set(hyps)
    plane_table = sp.enumerate_by_disc(Q0_4, 2, 8)
    for D in range(1, 9):
        planes = plane_table.get(D)
        perps = [quadform.orth_complement(Q0_4, s) for s in planes]
        assert _basis_set(perps) == _basis_set(planes), D


def _q_norm(q, w):
    gw = exact.vec_mat(w, q.gram)
    return sum(x * y for x, y in zip(gw, w))


@pytest.mark.parametrize("gram, decomposable", [
    (exact.identity(4), [779, 2221, 935, 1]),
    ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], [345, 451, 89, 1]),
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [33, 10, 1]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 3]], [81, 56, 1]),
    ([[1]], [1]),
], ids=["Z4", "A4", "G3", "diag113", "Z1"])
def test_decompose_compose_roundtrip(gram, decomposable):
    # the split along x_0 on any form, at every k including k = n, over
    # every subspace of disc <= 20 that is not inside x_0 = 0
    q = quadform.QuadraticForm(gram)
    counts = []
    for k in range(1, q.n + 1):
        checked = 0
        table = sp.recursion_table(q, k, 20)
        for D, subs in table.table.items():
            for sub in subs:
                if not sub.basis[0][0]:
                    # lives in the hyperplane x_0 = 0
                    with pytest.raises(ValueError):
                        sp.schmidt_decompose(sub)
                    continue
                triple = sp.schmidt_decompose(sub)
                assert sp.schmidt_compose(q, triple).basis == sub.basis
                # exact discriminant recursion for the split
                lbar_disc = quadform.disc(triple.lbar.form, triple.lbar)
                assert Fraction(D) == lbar_disc * _q_norm(q, (triple.h,) + triple.v)
                checked += 1
        counts.append(checked)
    assert counts == decomposable


def test_compose_rejects_coprimality_violation():
    lbar = quadform.Subspace.from_rows(
        quadform.QuadraticForm.sum_of_squares(2), [[1, 0]]
    )
    with pytest.raises(ValueError):
        sp.schmidt_compose(Q0_3, sp.SchmidtTriple(2, lbar, (0, 2)))
    # same data with h = 1 is fine
    sub = sp.schmidt_compose(Q0_3, sp.SchmidtTriple(1, lbar, (0, 2)))
    assert sub.basis == ((1, 0, 2), (0, 1, 0))


def test_compose_rejects_vector_outside_projected_lattice():
    lbar = quadform.Subspace.from_rows(
        quadform.QuadraticForm.sum_of_squares(2), [[1, 0]]
    )
    with pytest.raises(ValueError):
        sp.schmidt_compose(Q0_3, sp.SchmidtTriple(1, lbar, (0, Fraction(1, 2))))


def test_compose_rejects_v_not_orthogonal_to_lbar():
    lbar = quadform.Subspace.from_rows(
        quadform.QuadraticForm.sum_of_squares(2), [[1, 0]]
    )
    with pytest.raises(ValueError):
        sp.schmidt_compose(Q0_3, sp.SchmidtTriple(1, lbar, (1, 0)))


def test_compose_orthogonality_is_taken_in_q():
    # v = (0, 0) is dot-orthogonal to lbar, but (1, 0, 0) is not
    # Q-orthogonal to (0, 1, 0); v = (0, -1) is
    q = quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    lbar = quadform.Subspace.from_rows(quadform.QuadraticForm([[3, 1], [1, 4]]), [[1, 0]])
    with pytest.raises(ValueError, match="Q-orthogonal"):
        sp.schmidt_compose(q, sp.SchmidtTriple(1, lbar, (0, 0)))
    sub = sp.schmidt_compose(q, sp.SchmidtTriple(1, lbar, (0, -1)))
    assert sub.basis == ((1, 0, -1), (0, 1, 0))
    assert quadform.disc(q, sub) == 18 == 3 * _q_norm(q, (1, 0, -1))


def test_compose_rejects_lbar_over_the_wrong_form():
    lbar = quadform.Subspace.from_rows(
        quadform.QuadraticForm.sum_of_squares(2), [[1, 0]]
    )
    q = quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    with pytest.raises(ValueError, match="trailing block"):
        sp.schmidt_compose(q, sp.SchmidtTriple(1, lbar, (0, 1)))
    with pytest.raises(ValueError, match="trailing block"):
        sp.schmidt_compose(Q0_4, sp.SchmidtTriple(1, lbar, (0, 1)))


def test_projection_data_matches_fraction_projection():
    # integer data (P, lifts) and the dual basis adj @ P / D' of P^# against
    # the rational projection of Z^4 onto lbar^perp, built with the rational
    # projection matrix
    q = Q0_4
    std = quadform.Lattice.standard(q.n)
    checked = 0
    for table in (sp.schmidt_table(4, 1, 30), sp.schmidt_table(4, 2, 12)):
        for d, lbars in table.table.items():
            for lbar in lbars:
                perp_rows, lifts = sp._projection_data(lbar)
                adj, dprime = exact.adjugate(exact.mat_mul(perp_rows, exact.transpose(perp_rows)))
                perp = quadform.orth_complement(q, lbar)
                assert [list(r) for r in perp.basis] == perp_rows
                assert dprime == d
                dual = [
                    [Fraction(x, dprime) for x in row]
                    for row in exact.mat_mul(adj, perp_rows)
                ]
                projected = quadform.project_lattice(q, perp, std)
                assert quadform.Lattice.from_rows(q.n, dual).basis == projected.basis
                gram = exact.mat_mul(dual, exact.transpose(dual))
                assert gram == [[Fraction(x, dprime) for x in row] for row in adj]
                proj = quadform.projection_matrix(q, perp)
                for lift, row in zip(lifts, dual):
                    assert exact.vec_mat(lift, proj) == row
                checked += 1
    assert checked > 1000


def test_schmidt_triple_validation():
    lbar = quadform.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        sp.SchmidtTriple(0, lbar, (0, 0, 0))
    with pytest.raises(ValueError):
        sp.SchmidtTriple(1, lbar, (0, 0))
    # h is an int >= 1, not merely a number >= 1
    for h in (Fraction(3, 2), 2.0, Fraction(2), True):
        with pytest.raises(ValueError, match="positive integer"):
            sp.SchmidtTriple(h, lbar, (0, 0, 0))


def test_nonempty_criterion_vs_enumeration():
    t31 = sp.enumerate_by_disc(Q0_3, 1, 40)
    for D in range(1, 41):
        verdict = sp.nonempty_criterion(3, 1, D)
        assert verdict == (
            sp.Verdict.NONEMPTY if t31.get(D) else sp.Verdict.EMPTY
        ), D
    t41 = sp.enumerate_by_disc(Q0_4, 1, 24)
    t42 = sp.enumerate_by_disc(Q0_4, 2, 24)
    for D in range(1, 25):
        assert sp.nonempty_criterion(4, 1, D) == (
            sp.Verdict.NONEMPTY if t41.get(D) else sp.Verdict.EMPTY
        ), D
        assert sp.nonempty_criterion(4, 2, D) == (
            sp.Verdict.NONEMPTY if t42.get(D) else sp.Verdict.EMPTY
        ), D
        # hyperplanes share the verdict with lines by duality
        assert sp.nonempty_criterion(4, 3, D) == sp.nonempty_criterion(4, 1, D)
    t52 = sp.schmidt_table(5, 2, 8)
    for D in range(1, 9):
        assert sp.nonempty_criterion(5, 2, D) == sp.Verdict.ALWAYS_NONEMPTY
        assert len(t52.get(D)) > 0, D


def test_nonempty_criterion_corner_cases():
    assert sp.nonempty_criterion(2, 1, 5) == sp.Verdict.NO_CLOSED_FORM
    assert sp.nonempty_criterion(3, 1, 7) == sp.Verdict.EMPTY
    assert sp.nonempty_criterion(3, 2, 7) == sp.Verdict.EMPTY
    assert sp.nonempty_criterion(4, 2, 23) == sp.Verdict.EMPTY
    assert sp.nonempty_criterion(4, 2, 17) == sp.Verdict.NONEMPTY
    with pytest.raises(ValueError):
        sp.nonempty_criterion(3, 3, 5)
    with pytest.raises(ValueError):
        sp.nonempty_criterion(3, 1, 0)


def _small_shape_count_reference(q, subs, M):
    count = 0
    for sub in subs:
        q_l, q_perp, _ = quadform.restricted_forms(q, sub)
        _, prim_l = quadform.content_and_primitive(q_l)
        _, prim_p = quadform.content_and_primitive(q_perp)
        if exact.det_int(prim_l) <= M or exact.det_int(prim_p) <= M:
            count += 1
    return count


def test_count_small_primitive_shapes():
    # fast path over the recursion's planes, reference over the DFS's
    schmidt = sp.schmidt_table(4, 2, 9)
    brute = sp.enumerate_by_disc(Q0_4, 2, 9)
    assert sp.count_small_primitive_shapes(Q0_4, schmidt.get(4), 0) == 0
    for D in (4, 8, 9):
        for M in (1, 2, 5):
            fast = sp.count_small_primitive_shapes(Q0_4, schmidt.get(D), M)
            assert fast == _small_shape_count_reference(Q0_4, brute.get(D), M), (D, M)
    q = quadform.QuadraticForm.diagonal([1, 1, 2])
    lines = sp.enumerate_by_disc(q, 1, 2).get(2)
    assert sp.count_small_primitive_shapes(q, lines, 2) == 3
    # both sides of the middle in Z^5: 2k < n and 2k > n, where the content
    # of L^perp is read off the invariant factors of L's Gram
    for k in (2, 3):
        table = sp.schmidt_table(5, k, 8)
        for D, M in ((4, 1), (4, 5), (8, 1), (8, 2)):
            fast = sp.count_small_primitive_shapes(Q0_5, table.get(D), M)
            assert fast == _small_shape_count_reference(Q0_5, table.get(D), M), (k, D, M)


def test_count_small_primitive_shapes_6_3():
    q6 = quadform.QuadraticForm.sum_of_squares(6)
    table = sp.schmidt_table(6, 3, 4)
    # disc 1 planes restrict to unimodular forms on both sides
    assert sp.count_small_primitive_shapes(q6, table.get(1), 2) == 20
    assert len(table.get(1)) == 20
    # disc 4 is cube-free on both sides, so no primitive disc reaches 2
    assert sp.count_small_primitive_shapes(q6, table.get(4), 2) == 0


def test_candidate_cap():
    with pytest.raises(sp.BoundExceededError):
        sp.enumerate_by_disc(Q0_4, 2, 20, max_candidates=5)
    assert sp.enumerate_by_disc(Q0_4, 2, 20, max_candidates=10**6)
    # the recursion counts the candidates of all its walks
    with pytest.raises(sp.BoundExceededError):
        sp.recursion_table(Q0_4, 2, 20, max_candidates=5)
    assert sp.recursion_table(Q0_4, 2, 20, max_candidates=10**6)


def test_negative_candidate_cap_is_refused_before_any_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("walked with a negative cap")

    monkeypatch.setattr(sp.kernel, "_walk", walk)
    calls = (
        lambda cap: sp.disc_buckets(Q0_3, 1, [11], cap),
        lambda cap: sp.disc_buckets(Q0_4, 2, [5], cap),
        lambda cap: sp.recursion_table(Q0_3, 2, 10, cap),
        lambda cap: sp.enumerate_by_disc(Q0_3, 2, 10, cap),
        lambda cap: sp.lines_with_disc(Q0_3, 11, cap),
    )
    for call in calls:
        with pytest.raises(ValueError, match="max_candidates must be >= 0, got -1"):
            call(-1)
        # True was a cap of 1
        with pytest.raises(ValueError, match="max_candidates must be >= 0, got True"):
            call(True)
    monkeypatch.undo()
    # a cap of 0 is valid: it admits a job that walks no vector
    assert sp.disc_buckets(Q0_3, 1, [7], max_candidates=0) == {7: ()}
    with pytest.raises(sp.BoundExceededError):
        sp.disc_buckets(Q0_3, 1, [1], max_candidates=0)


G1 = quadform.QuadraticForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 2], [0, 0, 2, 1]])
G2 = quadform.QuadraticForm([[3, 1, 1, 0], [1, 2, 1, 1], [1, 1, 2, 1], [0, 1, 1, 1]])


def _mirrored(gram):
    """J G J with J the reversal of the coordinates."""
    return [list(r[::-1]) for r in gram[::-1]]


def test_full_table_walks_the_rank_k_row_only_to_max_disc():
    # the trailing minors of both Grams drop (det M_3 > det M_4), so the
    # lbar rows run past max_disc; a rank-2 subspace inside x_0 = 0 keeps
    # its disc, so the rank-2 row stops at max_disc at every level.  Walking
    # it to the lbar cap took 30,133 and 32,546 candidates.
    g1, g2 = (quadform.QuadraticForm(_mirrored(g.gram)) for g in (G1, G2))
    table = sp.recursion_table(g1, 2, 60, max_candidates=28155)
    assert sp.recursion_table(g2, 2, 60, max_candidates=30106)
    # the last walk passes what the others left: the message counts them all
    with pytest.raises(sp.BoundExceededError, match=r"28155 vectors \(limit 28154\)"):
        sp.recursion_table(g1, 2, 60, max_candidates=28154)
    brute = sp.enumerate_by_disc(g1, 2, 30)
    for d in range(1, 31):
        assert table.get(d) == brute.get(d), d
    assert sum(len(table.get(d)) for d in range(1, 31)) > 0


A4 = quadform.QuadraticForm([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
D112 = quadform.QuadraticForm.diagonal([1, 1, 2])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("gram", [
    G1.gram, G2.gram, A4.gram, [[3, 1, 0, 1], [1, 4, 1, 0], [0, 1, 2, 1], [1, 0, 1, 5]],
], ids=["g1", "g2", "A4", "G"])
def test_recursion_is_mirror_equivariant(gram, k):
    # J maps H^{n,k}_G(D) onto H^{n,k}_{JGJ}(D); the two sides walk the
    # trailing blocks of different Grams, so each checks the other
    q, mirror = quadform.QuadraticForm(gram), quadform.QuadraticForm(_mirrored(gram))
    table = sp.recursion_table(q, k, 25)
    flipped = {d: tuple(sorted(
        (quadform.Subspace.from_rows(mirror, [r[::-1] for r in s.basis]) for s in subs),
        key=lambda s: s.basis)) for d, subs in table.table.items()}
    assert flipped == sp.recursion_table(mirror, k, 25).table
    assert sum(map(len, flipped.values())) > 0


# (form, k, discs): lists unsorted, a single D, D = 1 and empty buckets
TARGETED_CASES = [
    (Q0_3, 2, (14, 1, 9, 5)),
    (Q0_3, 3, (1,)),
    (Q0_4, 2, (41, 17, 25)),
    (Q0_4, 2, (7, 12, 15)),
    (Q0_4, 3, (18, 17)),
    (Q0_5, 2, (12, 10)),
    (Q0_5, 3, (9, 6)),
    (quadform.QuadraticForm.sum_of_squares(6), 2, (7,)),
    (quadform.QuadraticForm.sum_of_squares(6), 3, (5,)),
    (A4, 2, (20, 7, 13, 5)),
    (A4, 3, (16, 1, 4, 14)),
    (D112, 2, (14, 11)),
    (D112, 3, (2, 1)),
    (Q0_3, 1, (9, 25, 50, 1)),
    (D112, 1, (2, 18, 11)),
    (A4, 1, (2, 20, 50)),
]


@pytest.mark.parametrize("q, k, discs", TARGETED_CASES)
def test_disc_buckets_equal_the_full_table(q, k, discs):
    # the rank-k row walked only at the requested D keeps every bucket of
    # the table up to max(discs), in order
    buckets = sp.disc_buckets(q, k, discs)
    table = sp.recursion_table(q, k, max(discs))
    assert list(buckets) == list(discs)
    for d in discs:
        assert buckets[d] == table.get(d), d


def test_disc_buckets_hold_empty_and_nonempty_discs():
    # the equalities above are not vacuous; H^{4,2}(D) is empty for
    # D = 7, 12, 15 mod 16 and H^{3,1}(D) for D = 0, 4, 7 mod 8
    for q, k, discs, sizes in [
        (Q0_4, 2, (7, 12, 15), [0, 0, 0]),
        (Q0_4, 2, (41, 17, 25), [1536, 384, 144]),
        (A4, 2, (20, 7, 13, 5), [75, 30, 0, 0]),
        (A4, 3, (16, 1, 4, 14), [20, 0, 5, 30]),
        (Q0_3, 1, (9, 25, 50, 1), [12, 12, 36, 3]),
        (Q0_3, 1, (7, 28), [0, 0]),
        (A4, 1, (2, 20, 50), [10, 65, 300]),
    ]:
        buckets = sp.disc_buckets(q, k, discs)
        assert [len(buckets[d]) for d in discs] == sizes


@pytest.mark.parametrize(
    "q, k, discs", [
        (Q0_3, 2, (14, 1, 9, 5)),
        (D112, 2, (14, 11)),
        (A4, 2, (20, 7, 13, 5)),
        (Q0_3, 1, (9, 25, 50, 1)),
        (D112, 1, (2, 18, 11)),
        (A4, 1, (2, 20, 50)),
    ]
)
def test_disc_buckets_match_the_vector_search(q, k, discs):
    buckets = sp.disc_buckets(q, k, discs)
    brute = sp.enumerate_by_disc(q, k, max(discs))
    for d in discs:
        assert buckets[d] == brute.get(d), d


def test_disc_class_table_validation():
    sub = quadform.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    other = quadform.Subspace.from_rows(Q0_3, [[0, 1, 0]])
    with pytest.raises(ValueError):
        sp.DiscClassTable({1: (sub, sub)})
    with pytest.raises(ValueError):
        sp.DiscClassTable({1: (sub, other)})
    table = sp.DiscClassTable({1: (other, sub)})
    assert table.counts() == {1: 2}
    assert table.get(7) == ()


def test_enumerator_argument_validation():
    with pytest.raises(ValueError):
        sp.enumerate_by_disc(Q0_3, 0, 5)
    with pytest.raises(ValueError):
        sp.enumerate_by_disc(Q0_3, 1, 0)
    with pytest.raises(ValueError):
        sp.schmidt_table(3, 4, 5)
    with pytest.raises(ValueError):
        sp.schmidt_table(3, 1, 0)
    # disc_buckets checks the rank at k = 1 as at every other rank
    with pytest.raises(ValueError, match="need 1 <= k <= n"):
        sp.disc_buckets(quadform.QuadraticForm.sum_of_squares(0), 1, [1])
    # the Schmidt split takes any form: diag(1, 1, 3) round-trips
    q113 = quadform.QuadraticForm.diagonal([1, 1, 3])
    sub = quadform.Subspace.from_rows(q113, [[1, 0, 1], [0, 1, 1]])
    triple = sp.schmidt_decompose(sub)
    assert (triple.h, triple.lbar.basis) == (1, ((1, 1),))
    assert sp.schmidt_compose(q113, triple) == sub
    assert quadform.disc(q113, sub) == 7 == 4 * _q_norm(q113, (1,) + triple.v)


@pytest.mark.parametrize("k", [1, 2])
def test_disc_buckets_refuse_an_empty_list_and_a_disc_below_one(k):
    # the same refusal, naming the input, at every rank
    with pytest.raises(ValueError, match=r"discriminants >= 1, got \[\]"):
        sp.disc_buckets(Q0_4, k, [])
    for discs in ([0, 5], [5, -3]):
        with pytest.raises(ValueError, match=r"got \[%d, %d\]" % tuple(discs)):
            sp.disc_buckets(Q0_4, k, discs)
    # 2.5 was a TypeError; a generator was read empty by the time of max()
    with pytest.raises(ValueError, match=r"got \[5, 2\.5\]"):
        sp.disc_buckets(Q0_4, k, [5, 2.5])
    assert sp.disc_buckets(Q0_4, k, (d for d in (5, 6.0))) == sp.disc_buckets(Q0_4, k, [5, 6])
    # True ran as D = 1
    with pytest.raises(ValueError, match=r"got \[True, 5\]"):
        sp.disc_buckets(Q0_4, k, [True, 5])


def test_disc_buckets_cap_counts_the_walks_of_all_discs():
    # one cap over all walks at every rank: at k = 1 on Z^3 the shells of
    # 10009 and 100003 hold 576 and 468 vectors up to sign, all primitive,
    # so a cap that covers the larger shell alone trips on both discs
    for d, shell in ((10009, 576), (100003, 468)):
        assert len(sp.disc_buckets(Q0_3, 1, [d], max_candidates=shell)[d]) == shell
        with pytest.raises(sp.BoundExceededError):
            sp.disc_buckets(Q0_3, 1, [d], max_candidates=shell - 1)
    for cap in (576, 1043):
        with pytest.raises(sp.BoundExceededError):
            sp.disc_buckets(Q0_3, 1, [10009, 100003], max_candidates=cap)
    both = sp.disc_buckets(Q0_3, 1, [10009, 100003], max_candidates=1044)
    assert sp.lines_with_disc(Q0_3, 10009) == list(both[10009])


def _z3_shell(D):
    r = math.isqrt(D)
    return [(x, y, z) for x in range(-r, r + 1) for y in range(-r, r + 1)
            for z in range(-r, r + 1) if x * x + y * y + z * z == D]


def test_planes_of_z4_cap_counts_the_half_shell_and_every_pair():
    # planes of Z^4 pair a half-shell vector a of Z^3 with every b of its
    # parity class in the full shell: the cap counts both before any plane;
    # at 25 six pairs give a non-primitive p, such as a = b = (0, 0, 5)
    work = {}
    for D in (25, 41):
        shell = _z3_shell(D)
        pairs = sum(all((x - y) % 2 == 0 for x, y in zip(a, b)) for a in shell for b in shell)
        work[D] = len(shell) // 2 + pairs // 2
    assert work == {25: 165, 41: 1584}
    for D, sizes in ((25, 144), (41, 1536)):
        assert len(sp.disc_buckets(Q0_4, 2, [D], max_candidates=work[D])[D]) == sizes
        with pytest.raises(sp.BoundExceededError, match="%d vectors" % work[D]):
            sp.disc_buckets(Q0_4, 2, [D], max_candidates=work[D] - 1)
    with pytest.raises(sp.BoundExceededError):
        sp.disc_buckets(Q0_4, 2, [25, 41], max_candidates=1584 + 165 - 1)
    assert sp.disc_buckets(Q0_4, 2, [41, 25], max_candidates=1584 + 165)[25]


def test_disc_buckets_reach_past_the_old_sweep_limit():
    # Z^n is unimodular, so L -> L^perp maps H^{n,n-1}(D) onto H^{n,1}(D);
    # both D lie past the D = 150 that once refused every job at k >= 2
    for q, k, D, size in ((Q0_3, 2, 1009, 120), (Q0_4, 3, 161, 768)):
        planes = sp.disc_buckets(q, k, [D])[D]
        lines = sp.disc_buckets(q, 1, [D])[D]
        assert len(planes) == len(lines) == size
        perps = sorted(quadform.orth_complement(q, s).basis for s in planes)
        assert perps == [s.basis for s in lines]


def test_disc_buckets_work_cap_stops_the_walk():
    # at the default cap this job walks for seconds before it is refused;
    # a cap of 20000 stops the first lbar table within one x_0 range, and
    # the message counts every walk of the job
    with pytest.raises(sp.BoundExceededError) as excinfo:
        sp.disc_buckets(Q0_5, 2, [10**6], max_candidates=20000)
    err = excinfo.value
    assert 20000 < err.count <= 20000 + 2 * math.isqrt(10**6) + 1 and err.limit == 20000
    assert "%d vectors (limit 20000)" % err.count in str(err)


def test_shared_walks_keep_the_cap_threshold(monkeypatch):
    # every lbar counts its orbit's walk as if it had walked, and the one
    # that passes the cap raises without walking again: the refusal walks
    # no more forms than the full job
    walks = []
    walk = sp.kernel._walk
    monkeypatch.setattr(sp.kernel, "_walk", lambda *a, **kw: walks.append(1) or walk(*a, **kw))
    assert sp.recursion_table(Q0_5, 2, 12, max_candidates=6024)
    full, walks[:] = len(walks), []
    with pytest.raises(sp.BoundExceededError, match=r"6024 vectors \(limit 6023\)"):
        sp.recursion_table(Q0_5, 2, 12, max_candidates=6023)
    assert len(walks) <= full == 27


def _line_orbits(d, top):
    """Primitive lines of Z^d of norm <= top up to signed permutations:
    the sorted absolute values of their vectors."""
    r = math.isqrt(top)
    return {tuple(sorted(map(abs, v))) for v in itertools.product(range(-r, r + 1), repeat=d)
            if math.gcd(*v) == 1 and sum(x * x for x in v) <= top}


def test_table_walks_one_lbar_per_orbit(monkeypatch):
    # the signed permutations of x_1..x_{m-1} fix the Gram of Z^m, so one
    # walk serves each orbit of line lbars of Z^{m-1}, m = 3, 4, 5, and one
    # walk each lifts the zero lbar at m = 2, 3, 4; a walk per lbar took 2,556
    walks = []
    walk = sp.kernel._walk
    monkeypatch.setattr(sp.kernel, "_walk", lambda *a, **kw: walks.append(1) or walk(*a, **kw))
    table = sp.schmidt_table(5, 2, 30)
    assert len(walks) == sum(len(_line_orbits(d, 30)) for d in (2, 3, 4)) + 3 == 76
    assert sum(table.counts().values()) == 56250


# x_1, x_2, x_3 meet x_0 alike and nothing else: they swap but never flip
SWAPS_ONLY = quadform.QuadraticForm([[2, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]])


def _fixes_gram(gram, g):
    full = [(0, 1)] + [(i + 1, s) for i, s in g]
    return all(sa * sb * gram[ia][ib] == gram[a][b]
               for a, (ia, sa) in enumerate(full) for b, (ib, sb) in enumerate(full))


@pytest.mark.parametrize("gram, free", [
    (Q0_5.gram, 4),
    (A4.gram, 0),
    # x_1 and x_2 of G2 have equal rows outside the pair: one swap
    (G2.gram, 2),
    # x_1 of the mirrored G1 meets x_0: only x_2 and x_3 flip and swap
    (_mirrored(G1.gram), 2),
    (SWAPS_ONLY.gram, 3),
], ids=["sumsq5", "A4", "g2", "mirrored-g1", "swaps-only"])
def test_stabiliser_generators_fix_the_gram(gram, free):
    gens = sp._stabiliser(gram)
    assert all(_fixes_gram(gram, g) for g in gens)
    moved = {i for g in gens for i, (src, s) in enumerate(g) if (src, s) != (i, 1)}
    assert len(moved) == free


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signed_permutations_act_on_wedges(data):
    # the wedge of the moved rows is the wedge moved by _on_wedges, sign
    # included, for any signed permutation and any rows
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, n))
    perm = data.draw(st.permutations(range(n)))
    g = tuple((i, data.draw(st.sampled_from((1, -1)))) for i in perm)
    rows = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    steps = exact.wedge_steps(n, k)

    def wedge(rs):
        w = [1]
        for step, r in zip(steps, rs):
            w = exact.extend_wedge(step, w, r)
        return w

    w = wedge(rows)
    assert wedge([[s * r[i] for i, s in g] for r in rows]) == [s * w[i] for i, s in sp._on_wedges(g, k)]


SHARED_CASES = [
    (quadform.QuadraticForm.diagonal([1, 1, 2, 2]), 2, 30),
    (quadform.QuadraticForm.diagonal([1, 1, 2, 2]), 3, 30),
    (quadform.QuadraticForm(_mirrored(G1.gram)), 1, 30),
    (quadform.QuadraticForm(_mirrored(G1.gram)), 2, 30),
    (quadform.QuadraticForm(_mirrored(G1.gram)), 3, 16),
    (SWAPS_ONLY, 2, 30),
    (quadform.QuadraticForm.sum_of_squares(6), 3, 3),
]


@pytest.mark.parametrize("q, k, top", SHARED_CASES)
def test_shared_walks_match_the_vector_search(q, k, top):
    # sign flips and swaps (diag(1, 1, 2, 2)), flips and a swap of the last
    # two coordinates only (the mirrored G1; at k = 1 nothing is shared),
    # swaps only and plane lbars (Z^6, k = 3)
    table = sp.recursion_table(q, k, top)
    assert table == sp.enumerate_by_disc(q, k, top)
    assert sum(table.counts().values()) > 0


def test_plane_lbars_share_exactly():
    # (6,3) lifts over planes of Z^5, keyed by their Plücker vectors: the
    # digest is that of the table walked once per lbar
    table = sp.schmidt_table(6, 3, 6)
    text = repr(sorted((d, [s.basis for s in subs]) for d, subs in table.table.items()))
    assert sum(table.counts().values()) == 5480
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "69dfd6c18637e777f9fc0ea12ae4ce306cf0e123ac3388548018c99047ff1baa")


def test_full_rank_and_zero_rank():
    full = sp.enumerate_by_disc(Q0_3, 3, 1).get(1)
    assert len(full) == 1 and full[0].k == 3
    q = quadform.QuadraticForm.diagonal([1, 1, 2])
    table = sp.enumerate_by_disc(q, 3, 5)
    assert table.get(2)[0].basis == tuple(tuple(r) for r in exact.identity(3))
    assert table.get(5) == ()


# the vector DFS keys a k-tuple by the primitive Plücker vector of its span
# and takes its disc by Cauchy-Binet; these properties pin both down


def _wedge(rows):
    """The wedge of the rows, grown row by row through the DFS's tables."""
    wedge = [1]
    for step, row in zip(exact.wedge_steps(len(rows[0]), len(rows)), rows):
        wedge = exact.extend_wedge(step, wedge, row)
    return wedge


def _dfs_key(rows):
    """The DFS's key of the rows, or None when their wedge is zero."""
    wedge = _wedge(rows)
    if not any(wedge):
        return None
    g = math.gcd(*wedge)
    return tuple(x // (g if next(filter(None, wedge)) > 0 else -g) for x in wedge)


@st.composite
def integer_rows(draw, n=None):
    n = draw(st.integers(2, 6)) if n is None else n
    k = draw(st.integers(1, n))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=k, max_size=k))


@st.composite
def unimodular(draw, k):
    u = exact.identity(k)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    if draw(st.booleans()) and k > 1:
        u[0], u[1] = u[1], u[0]
    return u


@given(integer_rows())
@settings(max_examples=200, deadline=None)
def test_dfs_key_is_zero_exactly_on_dependent_rows(rows):
    key = _dfs_key(rows)
    assert (key is None) == (exact.rank_int(rows) < len(rows))
    if key is not None:
        q = quadform.QuadraticForm.sum_of_squares(len(rows[0]))
        basis = quadform.Subspace.from_rows(q, rows).basis
        # the saturated basis has the same primitive key and a content-1 wedge
        assert _dfs_key(basis) == key
        assert math.gcd(*_wedge(basis)) == 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dfs_keys_agree_exactly_when_saturations_agree(data):
    rows = data.draw(integer_rows())
    n, k = len(rows[0]), len(rows)
    assume(exact.rank_int(rows) == k)
    q = quadform.QuadraticForm.sum_of_squares(n)
    u = data.draw(unimodular(k))
    a = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k))
    assume(exact.det_int(a))
    i, j, delta = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1)), data.draw(st.integers(-2, 2))
    nudged = [list(r) for r in rows]
    nudged[i][j] += delta
    key, basis = _dfs_key(rows), quadform.Subspace.from_rows(q, rows).basis
    for other in (exact.mat_mul(u, rows), exact.mat_mul(a, rows), nudged):
        if exact.rank_int(other) < k:
            continue
        other_basis = quadform.Subspace.from_rows(q, other).basis
        assert (_dfs_key(other) == key) == (other_basis == basis)


G5 = quadform.QuadraticForm(
    [[2, 1, 0, 0, 1], [1, 3, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 3, 1], [1, 0, 0, 1, 4]]
)


@pytest.mark.parametrize("q", [A4, G5], ids=["A4", "G5"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cauchy_binet_disc_of_the_dfs_key(q, data):
    rows = data.draw(integer_rows(q.n))
    assume(exact.rank_int(rows) == len(rows))
    p = _dfs_key(rows)
    pcp = sum(c * p[a] * p[b] for a, b, c in sp._compound_terms(q.gram, len(rows)))
    assert pcp == quadform.disc(q, quadform.Subspace.from_rows(q, rows))


def test_dfs_saturates_each_subspace_once(monkeypatch):
    # the Plücker dedupe runs before saturation: one from_rows per result
    calls = []
    from_rows = quadform.Subspace.from_rows

    def counted(cls, form, rows):
        calls.append(rows)
        return from_rows(form, rows)

    monkeypatch.setattr(quadform.Subspace, "from_rows", classmethod(counted))
    table = sp.enumerate_by_disc(A4, 2, 20)
    found = sum(table.counts().values())
    assert found > 0
    assert len(calls) == found


def test_dfs_hands_from_rows_a_basis_of_the_saturation(monkeypatch):
    # the DFS builds only from reduced bases of L(Z): their HNF already is
    # the stored basis, which is what lets exact.saturate take one HNF
    seen = []
    from_rows = quadform.Subspace.from_rows

    def spied(cls, form, rows):
        sub = from_rows(form, rows)
        seen.append((rows, sub))
        return sub

    monkeypatch.setattr(quadform.Subspace, "from_rows", classmethod(spied))
    table = sp.enumerate_by_disc(A4, 2, 20)
    assert len(seen) == sum(table.counts().values()) > 0
    for rows, sub in seen:
        assert tuple(map(tuple, exact.hnf_basis(rows))) == sub.basis


def _permuted_a4():
    # the seeded signed permutation of A4 in the acceptance tests
    a4 = A4.gram
    rng = random.Random(7)
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((1, -1)) for _ in range(4)]
    return quadform.QuadraticForm(
        [[signs[i] * signs[j] * a4[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    )


A4_PERMUTED = _permuted_a4()


# the DFS on Z^5 at k = 4 walks reduced 4-tuples under a norm-product bound
# of (4/3)^6 D: 0.13 s at D = 2, 0.95 s at D = 4 and 6.5 s at D = 8 (one
# 2-core x86-64 machine, fresh processes)
@pytest.mark.parametrize("q, k, top", [
    pytest.param(Q0_5, 1, 8, id="sumsq5-k1"),
    pytest.param(Q0_5, 2, 8, id="sumsq5-k2"),
    pytest.param(Q0_5, 3, 8, id="sumsq5-k3"),
    pytest.param(Q0_5, 4, 4, id="sumsq5-k4"),
    pytest.param(A4_PERMUTED, 1, 8, id="permuted-a4-k1"),
    pytest.param(A4_PERMUTED, 2, 8, id="permuted-a4-k2"),
    pytest.param(A4_PERMUTED, 3, 8, id="permuted-a4-k3"),
    pytest.param(A4_PERMUTED, 4, 8, id="permuted-a4-k4"),
])
def test_vector_search_matches_recursion_at_every_wedge_depth(q, k, top):
    brute = sp.enumerate_by_disc(q, k, top)
    assert brute == sp.recursion_table(q, k, top)
    assert sum(brute.counts().values()) > 0
