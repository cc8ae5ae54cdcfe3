"""Tests for quadratic-lattice invariants.

Frozen values come from hand Gram arithmetic and from the exhaustive
box-search oracle for integral special orthogonal groups embedded below.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from latshape import exact
from latshape import quadform as qf
from latshape import subspaces
from latshape import verify

import fraction_oracle as fo

F = Fraction

Q0_3 = qf.QuadraticForm.sum_of_squares(3)
Q112 = qf.QuadraticForm.diagonal([1, 1, 2])
Q123 = qf.QuadraticForm.diagonal([1, 2, 3])
QGEN = qf.QuadraticForm([[3, 1, 1], [1, 5, 2], [1, 2, 7]])

FORMS = [Q0_3, Q112, Q123, QGEN]


# ---------------------------------------------------------------------------
# oracle: exhaustive box search for SO_Q(Z) in rank 3


def so3_box_oracle(gram, bound):
    """All g with g^T M g = M, det 1, entries in [-bound, bound].

    The caller is responsible for choosing ``bound`` at least as large as
    max_j sqrt(M_jj * max_i (M^{-1})_ii), which makes the box exhaustive.
    """

    def qprod(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(3) for j in range(3))

    def det3(g):
        return (
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        )

    by_norm = {}
    for v in product(range(-bound, bound + 1), repeat=3):
        by_norm.setdefault(qprod(v, v), []).append(v)
    out = []
    for c1 in by_norm.get(gram[0][0], []):
        for c2 in by_norm.get(gram[1][1], []):
            if qprod(c1, c2) != gram[0][1]:
                continue
            for c3 in by_norm.get(gram[2][2], []):
                if qprod(c1, c3) != gram[0][2] or qprod(c2, c3) != gram[1][2]:
                    continue
                g = [[c1[r], c2[r], c3[r]] for r in range(3)]
                if det3(g) == 1:
                    out.append(g)
    return out


# ---------------------------------------------------------------------------
# frozen worked examples


def test_disc_and_glue_line():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert qf.disc(Q0_3, L) == 5
    assert qf.glue_group(Q0_3, L).factors == (5,)
    assert qf.glue_group(Q0_3, L).order == 5


def test_disc_diagonal_prefix():
    q = qf.QuadraticForm.diagonal([2, 3, 5, 7])
    L = qf.Subspace.from_rows(q, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert qf.disc(q, L) == 6


def test_gram_restriction_values():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert qf.gram_restriction(Q0_3, L) == ((5,),)
    assert type(qf.gram_restriction(Q0_3, L)[0][0]) is int
    full = qf.Lattice.standard(3)
    assert qf.gram_restriction(Q112, full) == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(2)),
    )


def test_dual_lattice_line():
    lat = qf.Lattice.from_rows(3, [[1, 2, 0]])
    dual = qf.dual_lattice(Q0_3, lat)
    assert dual.basis == ((F(1, 5), F(2, 5), F(0)),)
    assert qf.dual_lattice(Q0_3, dual) == lat


def test_dual_lattice_standard():
    dual = qf.standard_dual(Q112)
    assert dual.basis == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1, 2)),
    )
    assert qf.standard_dual(Q0_3) == qf.Lattice.standard(3)


def test_dual_pairing_characterization():
    # B* M B^T unimodular integral == full dual, not a finite-index piece
    lat = qf.Lattice.from_rows(3, [[1, 1, 1], [0, 2, 5]])
    dual = qf.dual_lattice(QGEN, lat)
    pair = exact.mat_mul(
        exact.mat_mul([list(r) for r in dual.basis], [list(r) for r in QGEN.gram]),
        exact.transpose([list(r) for r in lat.basis]),
    )
    assert all(x.denominator == 1 for row in pair for x in row)
    assert abs(exact.det_int([[int(x) for x in row] for row in pair])) == 1


def test_orth_complement_values():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    perp = qf.orth_complement(Q0_3, L)
    assert perp.basis == ((2, -1, 0), (0, 0, 1))
    assert qf.orth_complement(Q0_3, perp) == L
    Le3 = qf.Subspace.from_rows(Q112, [[0, 0, 1]])
    assert qf.orth_complement(Q112, Le3).basis == ((1, 0, 0), (0, 1, 0))


def test_project_lattice_values():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    proj = qf.project_lattice(Q0_3, L, qf.Lattice.standard(3))
    assert proj.basis == ((F(1, 5), F(2, 5), F(0)),)
    # projection fixes lattices already inside L
    sub = qf.Lattice.from_rows(3, [[2, 4, 0]])
    assert qf.project_lattice(Q0_3, L, sub) == sub
    Le3 = qf.Subspace.from_rows(Q112, [[0, 0, 1]])
    assert qf.project_lattice(Q112, Le3, qf.Lattice.standard(3)).basis == ((F(0), F(0), F(1)),)


def test_glue_non_primitive_example():
    q6 = qf.QuadraticForm.sum_of_squares(6)
    L = qf.Subspace.from_rows(q6, [[1, 2, 0, 0, 0, 0], [0, 0, 1, 2, 0, 0], [0, 0, 0, 0, 1, 2]])
    gram = qf.gram_restriction(q6, L)
    assert gram == ((5, 0, 0), (0, 5, 0), (0, 0, 5))
    assert qf.disc(q6, L) == 125
    assert qf.glue_group(q6, L).factors == (5, 5, 5)
    content, prim = qf.content_and_primitive(gram)
    assert content == 5
    assert prim == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_content_examples():
    c, prim = qf.content_and_primitive(((2, 2), (2, 4)))
    assert c == 2 and prim == ((1, 1), (1, 2))
    c, prim = qf.content_and_primitive(((1, 0), (0, 3)))
    assert c == 1 and prim == ((1, 0), (0, 3))
    # an integral Gram with Fraction entries splits into ints as well
    c, prim = qf.content_and_primitive(((F(4), F(2)), (F(2), F(6))))
    assert (c, prim) == (2, ((2, 1), (1, 3)))
    assert type(c) is int and all(type(x) is int for row in prim for x in row)
    # the zero and the empty Gram have content 0
    assert qf.content_and_primitive(((0, 0), (0, 0))) == (0, ((0, 0), (0, 0)))
    assert qf.content_and_primitive(()) == (0, ())
    with pytest.raises(ValueError):
        qf.content_and_primitive(((F(1, 2),),))


def test_local_glue():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert qf.glue_group(Q0_3, L).local_exponents(5) == [1]
    assert qf.glue_group(Q0_3, L).local_exponents(2) == [0]
    q46 = qf.QuadraticForm.diagonal([4, 6])
    full = qf.Subspace.from_rows(q46, [[1, 0], [0, 1]])
    assert qf.glue_group(q46, full).factors == (2, 12)
    assert qf.glue_group(q46, full).local_exponents(2) == [1, 2]
    assert qf.glue_group(q46, full).local_exponents(3) == [0, 1]


def test_index_iL():
    assert qf.index_iL(Q112, qf.Subspace.from_rows(Q112, [[0, 0, 1]])) == 2
    assert qf.index_iL(Q112, qf.Subspace.from_rows(Q112, [[1, 0, 0]])) == 1
    # unimodular form: dual of Z^n is Z^n
    assert qf.index_iL(Q0_3, qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])) == 1


def test_local_disc():
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert qf.local_disc(Q0_3, L, 5) == (1, 1)
    # disc 5 is a unit at 3, and 5 = 2 mod 3 is a non-residue
    assert qf.local_disc(Q0_3, L, 3) == (0, -1)
    q = qf.QuadraticForm.diagonal([1, 12])
    L12 = qf.Subspace.from_rows(q, [[0, 1]])
    assert qf.local_disc(q, L12, 2) == (2, 3)


def test_restricted_forms_values():
    Le1 = qf.Subspace.from_rows(Q112, [[1, 0, 0]])
    q_l, q_p, tau = qf.restricted_forms(Q112, Le1)
    assert q_l == ((1,),)
    assert q_p == ((1, 0), (0, 2))
    assert tau == ((F(1), F(0)), (F(0), F(1, 2)))
    i_perp = qf.index_iL(Q112, qf.orth_complement(Q112, Le1))
    assert i_perp == 2
    assert exact.det_int(q_p) == i_perp**2 * exact.det_fraction(tau)
    # unimodular ambient: tau and q_perp coincide
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    q_l, q_p, tau = qf.restricted_forms(Q0_3, L)
    assert q_l == ((5,),)
    assert q_p == ((5, 0), (0, 1))
    assert tau == q_p


def test_lambda_examples():
    lam, clean = qf.lambda_L(Q112, qf.Subspace.from_rows(Q112, [[0, 0, 1]]))
    assert clean and lam == qf.Lattice.standard(3)
    lam, clean = qf.lambda_L(Q112, qf.Subspace.from_rows(Q112, [[1, 0, 0]]))
    assert clean and lam == qf.standard_dual(Q112)
    # unimodular form: lambda is always Z^n
    lam, clean = qf.lambda_L(Q0_3, qf.Subspace.from_rows(Q0_3, [[1, 2, 0]]))
    assert clean and lam == qf.Lattice.standard(3)


def test_lambda_no_complement_case():
    # A = Z/4 with image of L ∩ (Z^2)^# the order-2 subgroup: no complement
    # exists, so containment in the tower must fail while the three
    # identities still hold.
    q = qf.QuadraticForm.diagonal([1, 4])
    L = qf.Subspace.from_rows(q, [[2, 1]])
    lam, clean = qf.lambda_L(q, L)
    assert not clean
    _assert_lambda_identities(q, L, lam)
    # commensurability: [Z^n : lam ∩ Z^n] <= disc of the form
    sub = _integral_part(lam)
    assert math.prod(exact.quotient_invariants(sub, exact.identity(2))) <= q.disc()


def test_lambda_complement_found_despite_overlap():
    # image of L and of L^perp coincide in A here; a complement still
    # exists and the search must find it
    q = qf.QuadraticForm.diagonal([2, 2])
    L = qf.Subspace.from_rows(q, [[1, 1]])
    lam, clean = qf.lambda_L(q, L)
    assert clean
    _assert_lambda_identities(q, L, lam)


def test_lambda_large_discriminant_group_needs_no_listing():
    # A = Z/70001 and the image of L ∩ (Z^3)^# is all of A: a complement
    # exists (the zero group), found without listing A's 70001 elements
    q = qf.QuadraticForm.diagonal([1, 1, 70001])
    L = qf.Subspace.from_rows(q, [[0, 0, 1]])
    assert qf._complement_lifts(q, L) == []
    lam, clean = qf.lambda_L(q, L)
    assert clean and lam == qf.Lattice.standard(3)
    _assert_lambda_identities(q, L, lam)


def test_lambda_complement_above_the_old_listing_cap():
    # A = (Z/2)^2 ⊕ Z/80000 and T̄ = Z/80000: the complement is generated
    # by the two halves, with a T̄ of more than 2^16 elements
    q = qf.QuadraticForm.diagonal([2, 2, 80000])
    L = qf.Subspace.from_rows(q, [[0, 0, 1]])
    assert len(qf._complement_lifts(q, L)) == 2
    lam, clean = qf.lambda_L(q, L)
    assert clean
    assert lam.basis == ((F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, 1))
    _assert_lambda_identities(q, L, lam)


def test_complement_lifts_match_the_earlier_subgroup_search():
    # the lifts, None included, are the ones the earlier search through
    # the listed subgroup found first
    rng = random.Random(13)
    forms = FORMS + [
        qf.QuadraticForm.diagonal([1, 4]),
        qf.QuadraticForm.diagonal([2, 2]),
        qf.QuadraticForm.diagonal([2, 4, 8]),
        qf.QuadraticForm([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]),
    ]
    outcomes = set()
    for q in forms:
        for _ in range(30):
            k = rng.randint(1, q.n - 1)
            rows = [[rng.randint(-5, 5) for _ in range(q.n)] for _ in range(k)]
            if exact.rank_int(rows) < k:
                continue
            L = qf.Subspace.from_rows(q, rows)
            lifts = qf._complement_lifts(q, L)
            assert lifts == fo.complement_lifts(q, L), (q.gram, L.basis)
            outcomes.add(None if lifts is None else len(lifts))
    # the pool reaches no complement as well as complements of each size
    assert {None, 0, 1, 2} <= outcomes


def _integral_part(lam):
    """Basis of lam ∩ Z^n for a full-rank lattice.

    x ∈ lam iff x @ lam^{-1} is integral; with lam = R/r for an integer R
    the inverse is r adj(R) / det R, so after scaling it to d^{-1} * (integer
    matrix m) this is the congruence x @ m ≡ 0 (mod d), solved as an integer
    kernel with slack variables.
    """
    rows = [list(r) for r in lam.basis]
    n = len(rows)
    r, ir = exact.scale_to_int(rows)
    adj, det = exact.adjugate(ir)
    d, m = exact.scale_to_int([[Fraction(r * x, det) for x in row] for row in adj])
    stacked = [list(r) for r in m] + [[d if j == i else 0 for j in range(n)] for i in range(n)]
    ker = exact.kernel_basis(exact.transpose(stacked))
    sol = [k[:n] for k in ker if any(k[:n])]
    return exact.hnf_basis(sol)


def test_rotate_subspace():
    g = [[F(3, 5), F(4, 5), F(0)], [F(-4, 5), F(3, 5), F(0)], [F(0), F(0), F(1)]]
    L = qf.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    rot = qf.rotate_subspace(g, L)
    assert rot.basis == ((3, -4, 0),)
    assert qf.disc(Q0_3, rot) == 25
    assert qf.rotation_ord_p(g, 5) == 1
    assert qf.rotation_ord_p(g, 3) == 0
    # identity and an integral rotation preserve everything
    assert qf.rotate_subspace(exact.identity(3), L) == L
    perm = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    L2 = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert qf.disc(Q0_3, qf.rotate_subspace(perm, L2)) == qf.disc(Q0_3, L2)
    with pytest.raises(ValueError):
        qf.rotate_subspace([[1, 1, 0], [0, 1, 0], [0, 0, 1]], L)


def test_rotation_disc_valuation_jump():
    # the 3-4-5 rotation moves span(e1) to a line of disc 25: the jump in
    # 5-adic valuation is 2 = 2 * k * ord_5(g), meeting the doubled bound
    # with equality (k = 1, ord = 1)
    g = [[F(3, 5), F(4, 5), F(0)], [F(-4, 5), F(3, 5), F(0)], [F(0), F(0), F(1)]]
    L = qf.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    rot = qf.rotate_subspace(g, L)
    v_before = 0
    v_after = 2
    assert qf.disc(Q0_3, L) == 1 and qf.disc(Q0_3, rot) == 25
    assert abs(v_after - v_before) <= 2 * L.k * qf.rotation_ord_p(g, 5)


def test_special_orthogonal_orders():
    assert len(qf.special_orthogonal_group(Q0_3)) == 24
    assert len(qf.special_orthogonal_group(Q112)) == 8
    assert len(qf.special_orthogonal_group(qf.QuadraticForm.sum_of_squares(4))) == 192


def test_special_orthogonal_against_box_oracle():
    for gram in ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[3, 1, 1], [1, 5, 2], [1, 2, 7]]):
        # entry bound 1 is exhaustive: max_j M_jj * max_i (M^{-1})_ii < 4
        oracle = so3_box_oracle(gram, 1)
        got = qf.special_orthogonal_group(qf.QuadraticForm(gram))
        assert sorted(tuple(map(tuple, g)) for g in oracle) == sorted(got)


# I_1..I_6, then eight forms whose groups have orders 1 to 120 (A4)
ORDER_FORMS = [exact.identity(n) for n in range(1, 7)] + [
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
    [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
    [[3, 1, 1], [1, 5, 2], [1, 2, 7]],
    [[2, 1, 1], [1, 2, 1], [1, 1, 1]],
    [[2, 1], [1, 2]],
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
]


def test_special_orthogonal_group_matches_the_earlier_search_in_order():
    # verify's continuity suite samples group members by index, so the
    # order of the tuple is part of the output
    for gram in ORDER_FORMS:
        q = qf.QuadraticForm(gram)
        assert qf.special_orthogonal_group(q) == fo.special_orthogonal_group(q.gram), gram


def test_trivial_automorphism_group():
    assert len(qf.special_orthogonal_group(QGEN)) == 1
    L = qf.Subspace.from_rows(QGEN, [[1, 4, 2]])
    assert _stabilizer_order(QGEN, L) == 1


def _stabilizer_order(q, L):
    """|Stab(L)| = |G| / |G·L| by orbit-stabiliser, read off ``orbits``."""
    return len(qf.special_orthogonal_group(q)) // qf.orbits(q, [L])[0].size


def test_stabilizer_orders():
    Le1 = qf.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    assert _stabilizer_order(Q0_3, Le1) == 8
    L = qf.Subspace.from_rows(Q0_3, [[1, 2, 0]])
    assert _stabilizer_order(Q0_3, L) == 2
    assert _stabilizer_order(Q0_3, L) >= 1


def test_stabilizer_order_matches_rotation_count():
    rng = random.Random(5)
    for q in (Q0_3, Q112, QGEN):
        group = qf.special_orthogonal_group(q)
        for _ in range(12):
            k = rng.randint(1, 2)
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
            if exact.rank_int(rows) != k:
                continue
            L = qf.Subspace.from_rows(q, rows)
            fixed = sum(1 for g in group if qf.rotate_subspace(g, L) == L)
            assert _stabilizer_order(q, L) == fixed, (q.gram, rows)


def stabilizer_order_by_membership(q, L):
    """|{g ∈ SO_Q(Z) : g·L = L}| by testing every group element.

    This is the package's earlier stabiliser count, kept here as an oracle
    for ``qf.orbits``: g is a unimodular isometry, so g·L(Z) is saturated
    of rank k and g·L = L as soon as every rotated basis row lies in L(Z).
    The rotated row row·g^T is the row dotted with each row of g;
    membership is decided by back-substitution on the pivots of the HNF
    basis.
    """
    basis = L.basis
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]

    def fixed(g):
        for row in basis:
            w = [sum(a * b for a, b in zip(row, grow)) for grow in g]
            for brow, p in zip(basis, pivots):
                c, rem = divmod(w[p], brow[p])
                if rem:
                    return False
                if c:
                    w = [x - c * y for x, y in zip(w, brow)]
            if any(w):
                return False
        return True

    return sum(1 for g in qf.special_orthogonal_group(q) if fixed(g))


def _orbit_buckets():
    q4 = qf.QuadraticForm.sum_of_squares(4)
    table = subspaces.schmidt_table(4, 2, 30)
    for d in range(1, 31):
        yield q4, table.get(d)
    lines = subspaces.disc_buckets(Q0_3, 1, (5, 9, 14, 25, 50))
    for d in (5, 9, 14, 25, 50):
        yield Q0_3, lines[d]
    for k in (1, 2):
        table = subspaces.enumerate_by_disc(Q112, k, 30)
        for d in range(1, 31):
            yield Q112, table.get(d)


def test_orbits_match_membership_oracle():
    # Each class of subspaces sharing a representative is checked to be
    # exactly the orbit of its first member, rotated here through the public
    # (saturating) constructor, and every member must carry that orbit's
    # size; the brute-force count then
    # checks |G| / size on the first member and on every fifth subspace.
    seen = 0
    for q, subs in _orbit_buckets():
        group = qf.special_orthogonal_group(q)
        got = qf.orbits(q, subs)
        assert len(got) == len(subs)
        classes = {}
        for i, (sub, (size, rep, g)) in enumerate(zip(subs, got)):
            classes.setdefault(rep, []).append((sub, size))
            if i % 5 == 0 or len(classes[rep]) == 1:
                assert len(group) // size == stabilizer_order_by_membership(q, sub)
            # the orbit map: rep is the orbit's first subspace, and g carries
            # it onto sub; on every 25th, no earlier group element does
            assert rep == subs.index(classes[rep][0][0])
            rotate = lambda h: qf.Subspace.from_rows(
                q, exact.mat_mul(subs[rep].basis, exact.transpose(h))
            )
            assert rotate(g) == sub
            if i % 25 == 0:
                assert g == next(h for h in group if rotate(h) == sub)
        # the representatives, one per orbit, come in order of first appearance
        assert list(classes) == sorted(classes)
        for members in classes.values():
            rep = members[0][0]
            images = {
                qf.Subspace.from_rows(q, exact.mat_mul(rep.basis, exact.transpose(g)))
                for g in group
            }
            # the buckets are G-invariant, so each class is a whole orbit:
            # the classes partition the bucket into G-closed sets
            assert images == {sub for sub, _size in members}
            assert {size for _sub, size in members} == {len(images)}
            assert len(group) % len(images) == 0
        seen += len(subs)
    assert seen > 6000


def test_orbits_ignore_images_outside_the_list():
    q4 = qf.QuadraticForm.sum_of_squares(4)
    subs = subspaces.schmidt_table(4, 2, 13).get(13)
    full = qf.orbits(q4, subs)
    part = qf.orbits(q4, subs[1::3])
    assert [e.size for e in part] == [e.size for e in full][1::3]
    assert qf.orbits(q4, []) == []
    # a repeated subspace lands in the orbit of its first copy
    assert qf.orbits(q4, [subs[0], subs[1], subs[0]]) == [full[0], full[1], full[0]]
    # rank 0 is one orbit of size 1, and ranks never mix: the axis
    # (0, 0, 1) and the plane x_0 = 0 of Z^3 share the wedge (0, 0, 1)
    q3 = qf.QuadraticForm.sum_of_squares(3)
    zero = qf.Subspace.from_rows(q3, [])
    axes = subspaces.schmidt_table(3, 1, 1).get(1)
    planes = subspaces.schmidt_table(3, 2, 1).get(1)
    mixed = [s for pair in zip(axes, planes) for s in pair]
    assert [s.basis for s in mixed[:2]] == [((0, 0, 1),), ((0, 1, 0), (0, 0, 1))]
    g0 = ((0, 0, -1), (0, 1, 0), (1, 0, 0))  # the first g in group order
    g1 = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    g2 = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    g3 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    g4 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    E = qf.OrbitEntry
    assert qf.orbits(q3, mixed) == [
        E(3, 0, g1), E(3, 1, g2), E(3, 0, g3), E(3, 1, g4), E(3, 0, g0), E(3, 1, g0)]
    assert qf.orbits(q3, [zero] + mixed[1:4] + [zero]) == [
        E(1, 0, g0), E(3, 1, g2), E(3, 2, g0), E(3, 1, g4), E(1, 0, g0)]


def test_form_validation():
    with pytest.raises(ValueError):
        qf.QuadraticForm([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        qf.QuadraticForm([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        qf.QuadraticForm([[F(1, 2)]])
    with pytest.raises(ValueError, match="gram matrix must be square"):
        qf.QuadraticForm([[1, 0]])


def test_json_round_trip():
    gram = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert qf.QuadraticForm.from_json({"n": 3, "gram": gram}) == Q112
    assert qf.QuadraticForm.from_json({"gram": gram}) == Q112
    with pytest.raises(ValueError):
        qf.QuadraticForm.from_json({"n": 4, "gram": gram})
    # a JSON true is not the integer 1, as n or as a Gram entry
    with pytest.raises(ValueError, match="declared n"):
        qf.QuadraticForm.from_json({"n": True, "gram": [[1]]})
    # nor is a JSON 3.0
    with pytest.raises(ValueError, match="declared n"):
        qf.QuadraticForm.from_json({"n": 3.0, "gram": gram})
    with pytest.raises(ValueError, match="gram entries must be integers"):
        qf.QuadraticForm.from_json({"gram": [[True]]})
    with pytest.raises(ValueError, match="gram entries must be integers"):
        qf.QuadraticForm([[2, False], [False, 2]])
    # no Gram, no object and no rows were a KeyError or a TypeError
    for payload in ({"n": 3}, [gram], {"gram": 5}):
        with pytest.raises(ValueError, match="form payload"):
            qf.QuadraticForm.from_json(payload)
    L = qf.Subspace.from_rows(Q112, [[1, 0, 0]])
    assert L.to_json() == {"hnf": "1;0;0", "basis": [[1, 0, 0]]}
    assert L.hnf_key() == "1;0;0"


def test_subspace_refuses_non_integral_rows():
    # a non-integral entry was truncated: 1.5 -> 1, 0.5 -> 0
    for rows in ([[1.5, 0, 1]], [[F(1, 2), 2, 1]]):
        with pytest.raises(ValueError):
            qf.Subspace.from_rows(Q0_3, rows)
    # integral values of other types are accepted
    assert qf.Subspace.from_rows(Q0_3, [[F(4, 2), 2.0, 0]]).basis == ((1, 1, 0),)


def test_subspace_refuses_rows_of_the_wrong_length():
    # [1, 2] spanned a line of Q^2 while the form lived on Q^3
    for rows in ([[1, 2]], [[1, 0, 0, 1]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(ValueError, match="length n = 3"):
            qf.Subspace.from_rows(Q0_3, rows)


@st.composite
def recursion_rows(draw):
    """A row with a positive first entry over an HNF basis with a zero
    first column, drawn independently of each other."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n - 1, max_size=n - 1), max_size=n - 1))
    basis = [[0] + r for r in exact.hnf_basis(rows)]
    top = [draw(st.integers(1, 8))] + draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
    return [top] + basis


@settings(max_examples=300, deadline=None)
@given(recursion_rows())
def test_from_saturated_rows_is_one_row_reduction(rows):
    # the row reduced at the basis's pivots on top of the basis is the HNF,
    # saturated or not, and equals from_rows on saturated rows
    q = qf.QuadraticForm.sum_of_squares(len(rows[0]))
    sub = qf.Subspace.from_saturated_rows(q, rows)
    assert [list(r) for r in sub.basis] == exact.hnf_basis(rows)
    if exact.saturate(rows) == exact.hnf_basis(rows):
        assert sub == qf.Subspace.from_rows(q, rows)


# ---------------------------------------------------------------------------
# property tests over random subspaces


def _assert_lambda_identities(q, L, lam):
    inter = qf.lattice_intersect_subspace(lam, L)
    assert inter == L.lattice()
    perp = qf.orth_complement(q, L)
    proj = qf.project_lattice(q, perp, lam)
    assert proj == qf.dual_lattice(q, perp.lattice())
    lam_dual = qf.dual_lattice(q, lam)
    assert qf.lattice_intersect_subspace(lam_dual, perp) == perp.lattice()


@st.composite
def form_and_subspace(draw):
    q = draw(st.sampled_from(FORMS))
    k = draw(st.integers(min_value=1, max_value=2))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=k,
            max_size=k,
        )
    )
    if exact.rank_int([list(r) for r in rows]) != k:
        rows = [[1, 0, 0], [0, 1, 0]][:k]
    return q, qf.Subspace.from_rows(q, rows)


@settings(max_examples=120, deadline=None)
@given(form_and_subspace())
def test_glue_order_is_disc(data):
    q, L = data
    assert qf.glue_group(q, L).order == qf.disc(q, L)


@settings(max_examples=120, deadline=None)
@given(form_and_subspace())
def test_index_product_and_local(data):
    q, L = data
    perp = qf.orth_complement(q, L)
    i1, i2 = qf.index_iL(q, L), qf.index_iL(q, perp)
    assert i1 * i2 == q.disc()
    d = q.disc()
    p = 2
    while d > 1:
        while d % p:
            p += 1
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        assert _vp_int(i1, p) + _vp_int(i2, p) == e


def _vp_int(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


INDEX_FORMS = FORMS + [
    qf.QuadraticForm.diagonal([1, 4]),
    qf.QuadraticForm.diagonal([2, 6, 3, 1]),
    qf.QuadraticForm([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]),
    qf.QuadraticForm([[4, 2, 1, 0], [2, 6, 0, 1], [1, 0, 8, 3], [0, 1, 3, 10]]),
]


@st.composite
def subspace_of_any_rank(draw):
    q = draw(st.sampled_from(INDEX_FORMS))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=q.n, max_size=q.n)
    rows = draw(st.lists(row, max_size=q.n))
    assume(exact.rank_int(rows) == len(rows))
    return q, qf.Subspace.from_rows(q, rows)


@settings(max_examples=200, deadline=None)
@given(subspace_of_any_rank())
def test_index_iL_matches_the_rational_intersection(data):
    # one Smith form of B M against the index of L(Z) in the rational
    # lattice L ∩ (Z^n)^# that Λ_L and τ are built from
    q, L = data
    t = qf.lattice_intersect_subspace(qf.standard_dual(q), L)
    assert qf.index_iL(q, L) == math.prod(exact.quotient_invariants(L.basis, t.basis))


@settings(max_examples=100, deadline=None)
@given(form_and_subspace())
def test_dual_involution_and_projection_lemma(data):
    q, L = data
    lat = L.lattice()
    assert qf.dual_lattice(q, qf.dual_lattice(q, lat)) == lat
    # the projection of the ambient dual is the dual of L(Z)
    assert qf.project_lattice(q, L, qf.standard_dual(q)) == qf.dual_lattice(q, lat)


@settings(max_examples=100, deadline=None)
@given(form_and_subspace())
def test_quotient_isomorphism(data):
    q, L = data
    perp = qf.orth_complement(q, L)
    inv1 = exact.quotient_invariants(
        [list(r) for r in L.basis], [list(r) for r in qf.project_lattice(q, L, qf.Lattice.standard(3)).basis]
    )
    inv2 = exact.quotient_invariants(
        [list(r) for r in perp.basis],
        [list(r) for r in qf.project_lattice(q, perp, qf.Lattice.standard(3)).basis],
    )
    assert [x for x in inv1 if x != 1] == [x for x in inv2 if x != 1]


@settings(max_examples=100, deadline=None)
@given(form_and_subspace())
def test_disc_comparison_and_tau(data):
    q, L = data
    perp = qf.orth_complement(q, L)
    d1, d2 = qf.disc(q, L), qf.disc(q, perp)
    i1, i2 = qf.index_iL(q, L), qf.index_iL(q, perp)
    assert Fraction(d1, i1) <= d2 <= i2 * d1
    q_l, q_p, tau = qf.restricted_forms(q, L)
    assert exact.det_int(q_p) == i2 * i2 * exact.det_fraction(tau)


@settings(max_examples=80, deadline=None)
@given(form_and_subspace())
def test_lambda_identities_random(data):
    q, L = data
    lam, clean = qf.lambda_L(q, L)
    _assert_lambda_identities(q, L, lam)
    if clean:
        assert lam.contains_lattice(qf.Lattice.standard(q.n))
        assert qf.standard_dual(q).contains_lattice(lam)


@settings(max_examples=100, deadline=None)
@given(form_and_subspace())
def test_local_disc_reconstruction(data):
    q, L = data
    d = qf.disc(q, L)
    rebuilt = 1
    p, rem = 2, d
    while rem > 1:
        while rem % p:
            p += 1
        ordp, _ = qf.local_disc(q, L, p)
        rebuilt *= p**ordp
        while rem % p == 0:
            rem //= p
    assert rebuilt == d


@settings(max_examples=60, deadline=None)
@given(form_and_subspace())
def test_disc_ratio_law_and_gcd_divisibility(data):
    q, L = data
    perp = qf.orth_complement(q, L)
    q_l, q_p, _ = qf.restricted_forms(q, L)
    k, nk = L.k, perp.k
    # exact covolume identity: disc(q_perp) * i(L)^2 == disc(q_L) * disc(Q)
    i_l = qf.index_iL(q, L)
    assert exact.det_int(q_p) * i_l * i_l == exact.det_int(q_l) * q.disc()
    # corollary: disc valuations of the two restrictions differ by at
    # most the ambient valuation, at every prime
    primes = set()
    for value in (q.disc(), qf.disc(q, L)):
        p, rem = 2, value
        while rem > 1:
            while rem % p:
                p += 1
            primes.add(p)
            while rem % p == 0:
                rem //= p
    for p in primes:
        dv_l = _vp_frac(exact.det_int(q_l), p)
        dv_p = _vp_frac(exact.det_int(q_p), p)
        assert abs(dv_l - dv_p) <= _vp_int(q.disc(), p)
    if k > nk and nk > 0:
        assert q.disc() % qf.content_and_primitive(q_l)[0] == 0
    if nk > k:
        assert q.disc() % qf.content_and_primitive(q_p)[0] == 0


def test_content_not_controlled_by_ambient_disc():
    # disc valuations obey the ratio law above, but gcd contents do not:
    # in the unimodular sum of three squares, the line through (1,1,1)
    # restricts to 3x^2 (content 3) while its complement has content 1.
    L = qf.Subspace.from_rows(Q0_3, [[1, 1, 1]])
    q_l, q_p, _ = qf.restricted_forms(Q0_3, L)
    assert qf.content_and_primitive(q_l)[0] == 3
    assert qf.content_and_primitive(q_p)[0] == 1
    assert Q0_3.disc() == 1


def _vp_frac(x, p):
    x = Fraction(x)
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


# ---------------------------------------------------------------------------
# integer elimination against the Fraction Gauss-Jordan oracle, on the
# verification forms that are not diagonal or not unimodular

ORACLE_FORMS = [q for q in verify._default_forms() if not q.is_sum_of_squares()]


@st.composite
def oracle_subspace(draw):
    q = draw(st.sampled_from(ORACLE_FORMS))
    k = draw(st.integers(min_value=1, max_value=q.n - 1))
    entry = st.integers(min_value=-5, max_value=5)
    rows = draw(
        st.lists(st.lists(entry, min_size=q.n, max_size=q.n), min_size=k, max_size=k)
    )
    if exact.rank_int(rows) != k:
        rows = exact.identity(q.n)[:k]
    return q, qf.Subspace.from_rows(q, rows)


def _oracle_gram(q, rows):
    return exact.mat_mul(exact.mat_mul(rows, [list(r) for r in q.gram]), exact.transpose(rows))


@settings(max_examples=150, deadline=None)
@given(oracle_subspace())
def test_projection_and_dual_match_fraction_oracle(data):
    q, L = data
    b = [list(r) for r in L.basis]
    m = [list(r) for r in q.gram]
    ginv = fo.inverse_fraction(_oracle_gram(q, b))
    expected = exact.mat_mul(exact.mat_mul(exact.mat_mul(m, exact.transpose(b)), ginv), b)
    assert qf.projection_matrix(q, L) == expected
    # the dual of a rational lattice: the tau_perp lattice L ∩ (Z^n)^#
    t = qf.lattice_intersect_subspace(qf.standard_dual(q), L)
    rows = [list(r) for r in t.basis]
    tinv = fo.inverse_fraction(_oracle_gram(q, rows))
    assert qf.dual_lattice(q, t) == qf.Lattice.from_rows(q.n, exact.mat_mul(tinv, rows))
    assert q.inverse_gram() == fo.inverse_fraction(m)


@settings(max_examples=150, deadline=None)
@given(oracle_subspace(), st.integers(min_value=1, max_value=12))
def test_restricted_disc_matches_fraction_oracle(data, scale):
    q, L = data
    lattices = [
        qf.lattice_intersect_subspace(qf.standard_dual(q), L),
        qf.dual_lattice(q, L.lattice()),
        qf.Lattice.from_rows(q.n, [[Fraction(x, scale) for x in r] for r in L.basis]),
    ]
    for lat in lattices:
        gram = qf.gram_restriction(q, lat)
        assert exact.det_fraction(gram) == fo.det_fraction(gram)


@settings(max_examples=150, deadline=None)
@given(
    oracle_subspace(),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_lattice_coordinates_match_fraction_oracle(data, coeffs, den):
    q, L = data
    basis = [list(r) for r in qf.dual_lattice(q, L.lattice()).basis]
    vectors = [
        # in the span, integral exactly when den divides every coefficient
        [sum(Fraction(c, den) * row[j] for c, row in zip(coeffs, basis)) for j in range(q.n)],
        # a lattice vector plus a vector of Z^n, possibly outside the span
        [x + int(j == coeffs[0] % q.n) for j, x in enumerate(basis[0])],
    ]
    for vec in vectors:
        c = fo.solve_row_coordinates(basis, vec)
        expected = None
        if c is not None and all(x.denominator == 1 for x in c):
            expected = [[int(x) for x in c]]
        assert exact.lattice_coordinates(basis, [vec]) == expected
