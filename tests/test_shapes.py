"""Shape canonicalization, equivalence search, fundamental-domain
points, and the float moduli pipeline against the exact data."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latshape import cli, exact, kernel, quadform, shapes
from latshape import subspaces as sp

import fraction_oracle as fo

Q0_3 = quadform.QuadraticForm.sum_of_squares(3)
Q0_4 = quadform.QuadraticForm.sum_of_squares(4)


def _random_unimodular(k, rng):
    # product of elementary shears and signed swaps
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(8):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        t = rng.choice([-2, -1, 1, 2])
        for c in range(k):
            u[i][c] += t * u[j][c]
    if rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return u


def _conjugate(gram, u):
    k = len(gram)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[i][j] = sum(
                u[i][a] * gram[a][b] * u[j][b] for a in range(k) for b in range(k)
            )
    return out


def test_shape_frozen_examples():
    five_i3 = shapes.shape(
        quadform.QuadraticForm.diagonal([5, 5, 5]), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert five_i3.canonical_gram == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert five_i3.scale == 5
    # Gauss reduction keeps [[5,1],[1,5]] (form 5x^2+2xy+5y^2)
    two = shapes.shape(quadform.QuadraticForm([[5, 1], [1, 5]]), [[1, 0], [0, 1]])
    assert two.canonical_gram == ((5, 1), (1, 5))
    assert two.scale == 1
    # rational content is stripped
    line = quadform.Subspace.from_rows(Q0_3, [[1, 1, 1]])
    sc = shapes.shape(Q0_3, line)
    assert sc.canonical_gram == ((1,),) and sc.scale == 3
    # a rational lattice's fractional content is stripped, denominator kept
    q112 = quadform.QuadraticForm.diagonal([1, 1, 2])
    dual = shapes.shape(q112, quadform.standard_dual(q112))
    assert dual.canonical_gram == ((1, 0, 0), (0, 2, 0), (0, 0, 2))
    assert dual.scale == Fraction(1, 2)
    plane = quadform.Subspace.from_rows(Q0_4, [[1, 2, 0, 1], [0, 1, 3, 1]])
    dual = shapes.shape(Q0_4, quadform.dual_lattice(Q0_4, plane.lattice()))
    assert dual.canonical_gram == ((6, 3), (3, 11))
    assert dual.scale == Fraction(1, 57)


def _gl2_reduce(a, b, c):
    # the GL_2(Z) triple (a, |b|, c) of the integer SL_2(Z) reduction
    a, b, c = shapes._reduce_binary(a, b, c)
    return a, abs(b), c


def test_gauss_reduce_frozen():
    assert _gl2_reduce(5, 1, 5) == (5, 1, 5)
    assert _gl2_reduce(2, -1, 2) == (2, 1, 2)
    assert _gl2_reduce(10, 7, 6) == (2, 1, 6)
    assert _gl2_reduce(1, 0, 1) == (1, 0, 1)
    # off the boundary a negative off-diagonal still flips: y -> -y is a
    # GL_2(Z) move, so (3,-1,5) and (3,1,5) are one class
    assert _gl2_reduce(3, -1, 5) == (3, 1, 5)
    # SL_2(Z) keeps the sign off the boundary and fixes it on the boundary
    assert shapes._reduce_binary(3, -1, 5) == (3, -1, 5)
    assert shapes._reduce_binary(2, -1, 5) == (2, 1, 5)
    assert shapes._reduce_binary(3, -1, 3) == (3, 1, 3)


@st.composite
def binary_pd_gram(draw, rational):
    """[[a, b], [b, c]] with b^2 < ac; entries over their own denominators
    when rational, else integers."""
    dens = [draw(st.integers(1, 40)) if rational else 1 for _ in range(3)]
    pa, pc = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    # (m/d_b)^2 < (pa/d_a)(pc/d_c)  <=>  m^2 d_a d_c <= pa pc d_b^2 - 1
    bound = math.isqrt((pa * pc * dens[1] ** 2 - 1) // (dens[0] * dens[2]))
    m = draw(st.integers(-bound, bound))
    a, b, c = Fraction(pa, dens[0]), Fraction(m, dens[1]), Fraction(pc, dens[2])
    if not rational:
        a, b, c = int(a), int(b), int(c)
    return [[a, b], [b, c]]


@settings(max_examples=400, deadline=None)
@given(binary_pd_gram(rational=False))
def test_binary_reduction_matches_fraction_oracle(g):
    (a, b), (_, c) = g
    ra, rb, rc = shapes._reduce_binary(a, b, c)
    assert abs(2 * rb) <= ra <= rc and ra * rc - rb * rb == a * c - b * b
    if 2 * abs(rb) == ra or ra == rc:
        assert rb >= 0
    assert (ra, abs(rb), rc) == fo.gauss_reduce(a, b, c)
    assert shapes._canonical_gram(g) == ((ra, abs(rb)), (abs(rb), rc))


@settings(max_examples=400, deadline=None)
@given(st.one_of(binary_pd_gram(rational=False), binary_pd_gram(rational=True)))
def test_upper_half_point_matches_fraction_oracle(g):
    pt = shapes.upper_half_point(g)
    assert (pt.x, pt.y) == fo.upper_half_point(g)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(binary_pd_gram(rational=False), binary_pd_gram(rational=True)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
)
def test_upper_half_point_sl2_invariant(g, moves):
    # u is a word in T^t = [[1, t], [0, 1]] and S = [[0, -1], [1, 0]]: det +1
    u = [[1, 0], [0, 1]]
    for t in moves:
        u = [[u[0][0], t * u[0][0] + u[0][1]], [u[1][0], t * u[1][0] + u[1][1]]]
        u = [[u[0][1], -u[0][0]], [u[1][1], -u[1][0]]]
    ug = [[sum(u[i][r] * g[r][s] for r in range(2)) for s in range(2)] for i in range(2)]
    ugu = [[sum(ug[i][s] * u[j][s] for s in range(2)) for j in range(2)] for i in range(2)]
    assert shapes.upper_half_point(ugu) == shapes.upper_half_point(g)


def test_shape_of_a_lattice_is_the_shape_of_its_subspace():
    q4 = quadform.QuadraticForm([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
    for q, rows in [
        (Q0_3, [[1, 1, 1]]),
        (Q0_3, [[1, 2, 0], [0, 1, 3]]),
        (Q0_4, [[1, 0, 1, 2], [0, 1, 1, 1]]),
        (q4, [[1, 0, 0, 1], [0, 1, -1, 0], [0, 0, 1, 1]]),
    ]:
        L = quadform.Subspace.from_rows(q, rows)
        by_lattice, by_subspace = shapes.shape(q, L.lattice()), shapes.shape(q, L)
        assert by_lattice == by_subspace and by_lattice.scale == by_subspace.scale


def test_shape_invariance_under_unimodular_change():
    rng = random.Random(7)
    grams = [
        [[1, 0], [0, 1]],
        [[2, 1], [1, 3]],
        [[3, 1], [1, 5]],
        [[1, 0, 0], [0, 2, 1], [0, 1, 4]],
        [[2, 0, 1], [0, 3, 1], [1, 1, 5]],
    ]
    for gram in grams:
        q = quadform.QuadraticForm(gram)
        base = shapes.shape(q, [[int(i == j) for j in range(q.n)] for i in range(q.n)])
        for _ in range(6):
            u = _random_unimodular(q.n, rng)
            moved = shapes.shape(q, u)
            assert moved == base
            assert hash(moved) == hash(base)
    # scaling changes scale but not the class
    a = shapes.shape(quadform.QuadraticForm.diagonal([3, 6]), [[1, 0], [0, 1]])
    b = shapes.shape(quadform.QuadraticForm.diagonal([1, 2]), [[1, 0], [0, 1]])
    assert a == b and a.scale == 3 * b.scale


def test_shape_errors():
    with pytest.raises(ValueError):
        shapes.shape(Q0_3, [])
    with pytest.raises(ValueError):
        shapes.shape(Q0_3, quadform.Lattice.from_rows(3, []))
    with pytest.raises(shapes.SearchBoundError):
        shapes.shape(
            quadform.QuadraticForm.sum_of_squares(5),
            [[int(i == j) for j in range(5)] for i in range(5)],
        )


def test_forms_equivalent_examples():
    assert shapes.forms_equivalent([[2, 1], [1, 3]], [[2, -1], [-1, 3]])
    assert not shapes.forms_equivalent([[1, 0], [0, 1]], [[1, 0], [0, 2]])
    # same determinant, different class
    assert not shapes.forms_equivalent(
        [[1, 0, 0], [0, 1, 0], [0, 0, 25]], [[1, 0, 0], [0, 5, 0], [0, 0, 5]]
    )
    rng = random.Random(3)
    g = [[2, 1, 0], [1, 2, 1], [0, 1, 5]]
    for _ in range(5):
        u = _random_unimodular(3, rng)
        assert shapes.forms_equivalent(g, _conjugate(g, u))
    # the early returns: different ranks, and the empty form
    assert not shapes.forms_equivalent([[1]], [[1, 0], [0, 1]])
    assert shapes.forms_equivalent([], [])


def test_forms_equivalent_matches_the_earlier_search():
    binaries = [
        [[a, b], [b, c]]
        for a in range(1, 5)
        for b in range(-2, 3)
        for c in range(1, 7)
        if a * c - b * b > 0
    ]
    for g1 in binaries:
        for g2 in binaries:
            assert shapes.forms_equivalent(g1, g2) == fo.forms_equivalent(g1, g2), (g1, g2)
    rng = random.Random(5)
    ternaries = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 25]],
        [[1, 0, 0], [0, 5, 0], [0, 0, 5]],
        [[2, 1, 0], [1, 2, 1], [0, 1, 5]],
    ]
    ternaries += [_conjugate(g, _random_unimodular(3, rng)) for g in ternaries for _ in range(3)]
    for g1 in ternaries:
        for g2 in ternaries:
            assert shapes.forms_equivalent(g1, g2) == fo.forms_equivalent(g1, g2), (g1, g2)
    g5 = [[2, 1, 0, 0, 0], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 2, 1], [0, 0, 0, 1, 3]]
    moved = _conjugate(g5, _random_unimodular(5, rng))
    assert shapes.forms_equivalent(g5, moved) and fo.forms_equivalent(g5, moved)


def test_isometry_search_cap_binds_every_caller(monkeypatch, capsys):
    monkeypatch.setattr(kernel, "POOL_CAP", 2)
    # three vectors of norm 1 per sign pair in Z^3
    with pytest.raises(shapes.SearchBoundError):
        shapes.forms_equivalent(Q0_3.gram, Q0_3.gram)
    quadform.special_orthogonal_group.cache_clear()
    with pytest.raises(shapes.SearchBoundError):
        quadform.special_orthogonal_group(Q0_3)
    code = cli.main(["experiment", "--Q", "sumsq:3", "--k", "1", "--dlist", "2"])
    assert code == 1
    assert "isometry search pool too large" in capsys.readouterr().err


def test_forms_equivalent_refuses_non_integral_entries():
    with pytest.raises(ValueError):
        shapes.forms_equivalent([[Fraction(3, 2)]], [[1]])
    with pytest.raises(ValueError):
        shapes.forms_equivalent([[2.9, 0], [0, 1]], [[2, 0], [0, 1]])
    assert shapes.forms_equivalent([[Fraction(4, 2)]], [[2]])
    with pytest.raises(ValueError):
        shapes.forms_equivalent([[1, 1], [1, 1]], [[1, 0], [0, 1]])


def test_shape_class_refuses_non_integral_entries():
    with pytest.raises(ValueError):
        shapes.ShapeClass([[Fraction(3, 2)]], 1)
    with pytest.raises(ValueError):
        shapes.ShapeClass([[2.9, 0], [0, 1]], 1)
    cls = shapes.ShapeClass([[Fraction(4, 2), 0.0], [0, 1]], 1)
    assert cls.canonical_gram == ((2, 0), (0, 1))
    assert all(type(x) is int for row in cls.canonical_gram for x in row)
    assert cls == shapes.ShapeClass([[2, 0], [0, 1]], 3)
    for scale in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="scale must be positive"):
            shapes.ShapeClass([[1]], scale)


def test_equivalence_matches_canonical_forms():
    pool = []
    for a in range(1, 4):
        for b in range(-1, 2):
            for c in range(a, 5):
                if a * c - b * b > 0:
                    pool.append([[a, b], [b, c]])
    for g1 in pool:
        s1 = shapes.shape(quadform.QuadraticForm(g1), [[1, 0], [0, 1]])
        for g2 in pool:
            s2 = shapes.shape(quadform.QuadraticForm(g2), [[1, 0], [0, 1]])
            # compare primitive parts: equivalence is tested on equal content
            _, p1 = quadform.content_and_primitive(g1)
            _, p2 = quadform.content_and_primitive(g2)
            assert shapes.forms_equivalent(p1, p2) == (s1 == s2), (g1, g2)


def test_canonical_gram_matches_the_earlier_rank_test():
    # Gram-determinant independence picks the same pool and the same
    # representative as the earlier full-HNF rank test
    rng = random.Random(5)
    for k, count in ((3, 300), (4, 12)):
        done = 0
        while done < count:
            b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if exact.det_int(b) == 0:
                continue
            _, g = quadform.content_and_primitive(exact.mat_mul(b, exact.transpose(b)))
            assert shapes._canonical_gram(g) == fo.canonical_gram(g), g
            done += 1


def test_upper_half_point_refusals():
    for y in (0.0, -1.0):
        with pytest.raises(ValueError, match="y must be positive"):
            shapes.UpperHalfPoint(0.0, y)
    with pytest.raises(ValueError, match="gram must be symmetric"):
        shapes.upper_half_point([[2, 1], [0, 2]])
    for gram in ([[1, 2], [2, 1]], [[-1, 0], [0, -1]]):
        with pytest.raises(ValueError, match="form is not positive definite"):
            shapes.upper_half_point(gram)


def test_upper_half_point_frozen():
    assert shapes.upper_half_point([[1, 0], [0, 1]]) == shapes.UpperHalfPoint(0.0, 1.0)
    pt = shapes.upper_half_point([[5, 1], [1, 5]])
    assert pt.x == -0.2
    assert abs(pt.y - math.sqrt(0.96)) < 1e-15
    # scaling invariance, including non-integral scalings
    pt2 = shapes.upper_half_point([[Fraction(5, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 3)]])
    assert (pt2.x, pt2.y) == (pt.x, pt.y)


def test_upper_half_point_ties():
    # |z| = 1 boundary resolves to the left half
    left = shapes.upper_half_point([[2, 1], [1, 2]])
    right = shapes.upper_half_point([[2, -1], [-1, 2]])
    assert left == right
    assert left.x == -0.5 and abs(left.y - math.sqrt(3) / 2) < 1e-15
    # x = +1/2 off the circle resolves to -1/2
    pt = shapes.upper_half_point([[2, -1], [-1, 5]])
    assert pt.x == -0.5 and abs(pt.y - 1.5) < 1e-15
    assert pt == shapes.upper_half_point([[2, 1], [1, 5]])
    # fundamental-domain invariants on a haphazard family
    for a, b, c in [(1, 0, 1), (3, 2, 7), (12, 5, 13), (6, -1, 9), (4, 3, 11)]:
        p = shapes.upper_half_point([[a, b], [b, c]])
        assert abs(p.x) <= 0.5 + 1e-12
        assert p.x * p.x + p.y * p.y >= 1 - 1e-12


def test_upper_half_point_complete_invariant():
    # the point separates mirror classes; a full basis change (det -1
    # allowed) identifies the unordered pair {pt(g), pt(mirror g)}
    def pair(g):
        pts = []
        for h in (g, [[g[0][0], -g[0][1]], [-g[1][0], g[1][1]]]):
            p = shapes.upper_half_point(h)
            pts.append((round(p.x, 9), round(p.y, 9)))
        return frozenset(pts)

    seen = []
    for a in range(1, 5):
        for b in range(-2, 3):
            for c in range(a, 6):
                if a * c - b * b <= 0:
                    continue
                g = [[a, b], [b, c]]
                _, prim = quadform.content_and_primitive(g)
                key = pair(g)
                for other_key, other in seen:
                    assert (key == other_key) == shapes.forms_equivalent(prim, other), (
                        g,
                        other,
                    )
                seen.append((key, prim))


def test_grassmann_coordinates():
    v = np.array([1.0, 2.0, 0.0])
    p = shapes.grassmann_coordinates(quadform.Subspace.from_rows(Q0_3, [[1, 2, 0]]))
    assert np.abs(p - np.outer(v, v) / 5).max() < 1e-12
    q = quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    mq_inv = np.linalg.inv(np.array([[float(x) for x in r] for r in q.gram]))
    for rows in [[[1, 0, 0]], [[1, 2, 0], [0, 0, 1]], [[0, 1, 1]]]:
        L = quadform.Subspace.from_rows(q, rows)
        p = shapes.grassmann_coordinates(L)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p @ mq_inv - (p @ mq_inv).T).max() < 1e-10
        assert abs(np.trace(p) - L.k) < 1e-10


def test_moduli_point_trivial():
    q5 = quadform.QuadraticForm.sum_of_squares(5)
    L = quadform.Subspace.from_rows(q5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    pt = shapes.moduli_point(q5, L, quadform.Lattice.standard(5))
    assert np.abs(pt.rho - np.eye(5)).max() < 1e-12
    assert abs(pt.alpha - 1.0) < 1e-12
    assert np.abs(pt.a - np.eye(5)).max() < 1e-12
    assert np.abs(pt.m - np.eye(5)).max() < 1e-12


def test_moduli_residuals_and_determinant():
    rng = random.Random(11)
    forms = [Q0_4, quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]])]
    checked = 0
    for q in forms:
        for _ in range(10):
            k = rng.choice([1, q.n - 2, q.n - 1])
            rows = [
                [rng.randrange(-3, 4) for _ in range(q.n)] for _ in range(k)
            ]
            try:
                L = quadform.Subspace.from_rows(q, rows)
            except ValueError:
                continue
            if L.k != k:
                continue
            pt = shapes.moduli_point(q, L)
            res = pt.residuals()
            assert max(res.values()) < 1e-9, res
            assert abs(np.linalg.det(pt.m) - 1.0) < 1e-10
            checked += 1
    assert checked > 10


def test_shapes_from_moduli_consistency():
    rng = random.Random(5)
    q5 = quadform.QuadraticForm.sum_of_squares(5)
    q6 = quadform.QuadraticForm.sum_of_squares(6)
    cases = []
    t52 = sp.schmidt_table(5, 2, 7)
    for D in (3, 5, 7):
        subs = t52.get(D)
        cases += [(q5, quadform.Subspace(q5, s.basis)) for s in rng.sample(subs, 3)]
    t63 = sp.schmidt_table(6, 3, 3)
    for D in (2, 3):
        subs = t63.get(D)
        cases += [(q6, quadform.Subspace(q6, s.basis)) for s in rng.sample(subs, 3)]
    for q, L in cases:
        pt = shapes.moduli_point(q, L)
        gram_l, gram_p = shapes.shapes_from_moduli(q, pt)
        # L side shares the HNF basis, so it matches after one scalar
        ex_l = np.array(quadform.gram_restriction(q, L), dtype=float)
        s = (pt.alpha * pt.lam) ** 2
        assert np.abs(gram_l / s - ex_l).max() < 1e-9
        # perp side may differ by a unimodular change: snap and search
        perp = quadform.orth_complement(q, L)
        ex_p = quadform.gram_restriction(q, perp)
        det_ratio = np.linalg.det(gram_p) / np.linalg.det(
            np.array(ex_p, dtype=float)
        )
        snapped = gram_p / det_ratio ** (1.0 / len(ex_p))
        rounded = [[round(x) for x in row] for row in snapped]
        assert np.abs(snapped - np.array(rounded, dtype=float)).max() < 1e-9
        assert shapes.forms_equivalent(rounded, ex_p)


def test_moduli_point_size_reduced_completion():
    # a k = 5 subspace of Z^6 with large HNF entries: an unreduced
    # completion row left g_L with condition number ~3.6e12
    q6 = quadform.QuadraticForm.sum_of_squares(6)
    key = "1;0;2;15;0;34;0;1;1;84;2;191;0;0;4;66;0;147;0;0;0;91;2;207;0;0;0;0;3;4"
    v = [int(x) for x in key.split(";")]
    L = quadform.Subspace.from_rows(q6, [v[i:i + 6] for i in range(0, 30, 6)])
    assert L.hnf_key() == key
    pt = shapes.moduli_point(q6, L)
    assert max(pt.residuals().values()) < 1e-9
    assert abs(np.linalg.det(pt.m) - 1.0) < 1e-9


def test_moduli_point_argument_validation():
    with pytest.raises(ValueError):
        shapes.moduli_point(Q0_3, quadform.Subspace.from_rows(Q0_3, []))
    full = quadform.Subspace.from_rows(Q0_3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        shapes.moduli_point(Q0_3, full)
    line = quadform.Subspace.from_rows(Q0_3, [[1, 0, 0]])
    lam = quadform.Lattice.from_rows(3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not inside the given lattice"):
        shapes.moduli_point(Q0_3, line, lam)
