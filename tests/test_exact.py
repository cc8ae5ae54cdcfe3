"""Tests for the exact integer/rational linear algebra layer.

Expected values for HNF/SNF were frozen from independent oracles kept in
this file: exhaustive unimodular row reduction for HNF, and the
gcd-of-minors characterization for SNF invariant factors.
"""

import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latshape import exact
from latshape import quadform

import fraction_oracle as fo


# ---------------------------------------------------------------------------
# oracles


def unimodular_2x2(bound):
    for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c in (1, -1):
            yield [[a, b], [c, d]]


def is_reduced_row_hnf(h):
    lastcol = -1
    seen_zero = False
    pivots = []
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            seen_zero = True
            continue
        if seen_zero or nz <= lastcol or row[nz] <= 0:
            return False
        pivots.append((len(pivots), nz))
        lastcol = nz
    for prow, pcol in pivots:
        p = h[prow][pcol]
        for i in range(prow):
            if not 0 <= h[i][pcol] < p:
                return False
    return True


def oracle_hnf_2x2(mat, bound=8):
    found = set()
    for u in unimodular_2x2(bound):
        h = exact.mat_mul(u, mat)
        if is_reduced_row_hnf(h):
            found.add(tuple(map(tuple, h)))
    assert len(found) == 1
    return [list(r) for r in found.pop()]


def minor_gcd(mat, k):
    m, n = len(mat), len(mat[0])
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(exact.det_int(sub)))
    return g


def oracle_snf_diagonal(mat):
    k = min(len(mat), len(mat[0]))
    out, prev = [], 1
    for i in range(1, k + 1):
        di = minor_gcd(mat, i)
        out.append(di // prev if prev else 0)
        prev = di
    return out


# ---------------------------------------------------------------------------
# HNF


def test_hnf_frozen_example():
    # oracle_hnf_2x2([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    h, u = exact.hnf([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]]
    assert exact.mat_mul(u, [[2, 4], [1, 3]]) == h
    assert exact.det_int(u) in (1, -1)


@pytest.mark.parametrize(
    "mat",
    [
        [[2, 4], [1, 3]],
        [[4, 6], [2, 2]],
        [[0, 0], [3, 6]],
        [[7, 3], [2, 1]],
        [[-2, 5], [3, -4]],
    ],
)
def test_hnf_matches_oracle(mat):
    h, _ = exact.hnf(mat)
    assert h == oracle_hnf_2x2(mat)


def test_hnf_identity_fixed_point():
    h, u = exact.hnf(exact.identity(3))
    assert h == exact.identity(3)


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=150, deadline=None)
def test_hnf_properties(mat):
    h, u = exact.hnf(mat)
    assert exact.mat_mul(u, mat) == h
    assert exact.det_int(u) in (1, -1)
    assert is_reduced_row_hnf(h)
    # idempotence on the nonzero part: canonical form is a fixed point
    basis = [r for r in h if any(r)]
    if basis:
        assert exact.hnf_basis(basis) == basis


def test_hnf_basis_invariance_under_row_mixing():
    mat = [[3, 1, 4], [1, 5, 9]]
    mixed = [
        [4, 6, 13],  # r1+r2
        [1, 5, 9],
    ]
    assert exact.hnf_basis(mat) == exact.hnf_basis(mixed)


# ---------------------------------------------------------------------------
# SNF


def test_snf_frozen_examples():
    # oracle_snf_diagonal: diag(2,3) -> [1, 6]; diag(4,6) -> [2, 12]
    d, u, v = exact.snf([[2, 0], [0, 3]])
    assert d == [1, 6]
    d, _, _ = exact.snf([[4, 0], [0, 6]])
    assert d == [2, 12]


@pytest.mark.parametrize(
    "mat",
    [
        [[2, 0], [0, 3]],
        [[4, 0], [0, 6]],
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[1, 2], [3, 4]],
        [[6, 4], [4, 8]],
        [[0, 0], [0, 0]],
    ],
)
def test_snf_matches_minor_gcd_oracle(mat):
    d, u, v = exact.snf(mat)
    assert d == oracle_snf_diagonal(mat)
    prod = exact.mat_mul(exact.mat_mul(u, mat), v)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            assert x == (d[i] if i == j and i < len(d) else 0)
    assert exact.det_int(u) in (1, -1)
    assert exact.det_int(v) in (1, -1)


@st.composite
def rect_matrices(draw, min_rows=2, max_rows=3, min_cols=2, max_cols=4, lo=-20, hi=20):
    ncols = draw(st.integers(min_value=min_cols, max_value=max_cols))
    return draw(
        st.lists(
            st.lists(st.integers(min_value=lo, max_value=hi), min_size=ncols, max_size=ncols),
            min_size=min_rows,
            max_size=max_rows,
        )
    )


@given(rect_matrices())
@settings(max_examples=100, deadline=None)
def test_snf_properties(mat):
    d, u, v = exact.snf(mat)
    prod = exact.mat_mul(exact.mat_mul(u, mat), v)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            assert x == (d[i] if i == j and i < len(d) else 0)
    for i in range(len(d) - 1):
        assert d[i] >= 0
        if d[i + 1]:
            assert d[i + 1] % max(d[i], 1) == 0 if d[i] else True
        if d[i] == 0:
            assert d[i + 1] == 0
    assert exact.det_int(u) in (1, -1)
    assert exact.det_int(v) in (1, -1)


# ---------------------------------------------------------------------------
# saturation / kernels / quotients


def test_saturate_frozen():
    assert exact.saturate([[2, 4, 0]]) == [[1, 2, 0]]
    assert exact.saturate([[2, 0], [0, 3]]) == [[1, 0], [0, 1]]


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError):
        exact.saturate([[1, 2, 3], [2, 4, 6]])


def test_saturate_idempotent_and_contains_input():
    mat = [[2, 2, 4], [0, 6, 2]]
    sat = exact.saturate(mat)
    assert exact.saturate(sat) == sat
    assert exact.lattice_coordinates(sat, mat) is not None


def test_kernel_basis_frozen():
    assert exact.kernel_basis([[1, 2, 0]]) == [[2, -1, 0], [0, 0, 1]]
    assert exact.kernel_basis([[2, -1, 0], [0, 0, 1]]) == [[1, 2, 0]]


def test_kernel_of_full_rank_is_empty():
    assert exact.kernel_basis(exact.identity(3)) == []


def test_kernel_orthogonality_random():
    import random

    rng = random.Random(11)
    for _ in range(25):
        m = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(2)]
        ker = exact.kernel_basis(m)
        for row in ker:
            assert all(sum(a * b for a, b in zip(mrow, row)) == 0 for mrow in m)
        assert len(ker) == 5 - fo.rank_fraction(m)


def test_quotient_invariants_frozen():
    assert exact.quotient_invariants([[2, 0], [0, 2]], exact.identity(2)) == [2, 2]
    assert exact.quotient_invariants([[1, 1], [0, 6]], exact.identity(2)) == [1, 6]


def test_quotient_invariants_rejects_non_sublattice():
    with pytest.raises(ValueError):
        exact.quotient_invariants([[1, 0], [0, 1]], [[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="rank mismatch"):
        exact.quotient_invariants([[1, 0]], exact.identity(2))
    with pytest.raises(ValueError, match="sublattice has smaller rank"):
        exact.quotient_invariants([[1, 0], [2, 0]], exact.identity(2))


def test_quotient_invariants_rational_lattices():
    sup = [[Fraction(1, 5), Fraction(2, 5)], [Fraction(0), Fraction(1)]]
    sub = [[1, 2], [0, 5]]
    assert exact.quotient_invariants(sub, sup) == [5, 5]


# ---------------------------------------------------------------------------
# completion / solving


def test_complete_to_unimodular():
    c = [[2, 1, 0]]
    t = exact.complete_to_unimodular(c)
    assert t[0] == [2, 1, 0]
    assert exact.det_int(t) in (1, -1)
    with pytest.raises(ValueError):
        exact.complete_to_unimodular([[2, 0, 0]])


def test_inverse_unimodular():
    u = [[1, 2], [0, 1]]
    assert exact.inverse_unimodular(u) == [[1, -2], [0, 1]]
    with pytest.raises(ValueError):
        exact.inverse_unimodular([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        exact.inverse_unimodular([[1, 2], [2, 4]])


def test_solve_integral():
    a = [[1, 2, 0], [0, 0, 1]]
    x = exact.solve_integral(a, [3, 6, 5])
    assert x is not None and exact.vec_mat(x, a) == [3, 6, 5]
    assert exact.solve_integral([[2, 0]], [1, 0]) is None


def test_lattice_coordinates_rational():
    basis = [[Fraction(1, 2), 0], [0, 1]]
    # integral hits, one of them with a rational vector
    assert exact.lattice_coordinates(basis, [[Fraction(3, 2), 2], [1, 0]]) == [[3, 2], [2, 0]]
    # in the span, but at non-integral coordinates (1/2, 0)
    assert exact.lattice_coordinates(basis, [[1, 0], [Fraction(1, 4), 0]]) is None
    # outside the span of a rank-1 basis
    assert exact.lattice_coordinates([[Fraction(1, 2), 0]], [[0, 1]]) is None
    assert exact.lattice_coordinates([[Fraction(1, 2), 0]], [[Fraction(-5, 2), 0]]) == [[-5]]


def test_rational_hnf_basis_scale_invariance():
    rows = [[Fraction(1, 2), Fraction(1, 2)], [0, 1]]
    basis = exact.rational_hnf_basis(rows)
    doubled = exact.rational_hnf_basis(rows + [[Fraction(1, 2), Fraction(3, 2)]])
    assert basis == doubled  # extra generator already in the lattice


# ---------------------------------------------------------------------------
# bordered HNF/SNF against the transform-carrying oracles


@st.composite
def int_matrices(draw):
    # 1-5 rows and 1-6 columns with many zeros; optionally one row a
    # combination of two others (rank-deficient) and a zero column
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        others = st.sampled_from([t for t in range(m) if t != i])
        j, k = draw(others), draw(others)
        f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[i] = [f * a + g * b for a, b in zip(mat[j], mat[k])]
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in mat:
            row[col] = 0
    return mat


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_hnf_matches_oracle_form(mat):
    h, u = exact.hnf(mat)
    assert h == fo.hnf(mat)[0]
    assert exact.hnf_basis(mat) == fo.hnf_basis(mat)
    assert exact.mat_mul(u, mat) == h
    assert exact.det_int(u) in (1, -1)


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_matches_two_pass_oracle(mat):
    assert exact.kernel_basis(mat) == fo.kernel_basis(mat)


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_saturate_matches_oracle_kernel_of_kernel(mat):
    n = len(mat[0])
    ker = fo.kernel_basis(mat)
    if len(ker) != n - len(mat):
        with pytest.raises(ValueError):
            exact.saturate(mat)
        return
    assert exact.saturate(mat) == (fo.kernel_basis(ker) if ker else exact.identity(n))


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_snf_matches_oracle_transforms(mat):
    # the bordered loop applies the oracle's operations, so U and V agree too
    assert exact.snf(mat) == fo.snf(mat)


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_oracle_diagonal(mat):
    d, _, _ = fo.snf(mat)
    assert exact.invariant_factors(mat) == [x for x in d if x]


@given(int_matrices(), st.lists(st.integers(-9, 9), min_size=5, max_size=5), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_lattice_coordinates_membership(mat, coeffs, den):
    # dependent rows and more rows than columns are allowed; a vector is in
    # the lattice iff it is integral and adding it keeps the HNF basis
    inside = exact.vec_mat(coeffs[: len(mat)], mat)
    probe = [Fraction(x, den) for x in inside]
    member = all(x.denominator == 1 for x in probe) and (
        fo.hnf_basis(mat + [[int(x) for x in probe]]) == fo.hnf_basis(mat)
    )
    x = exact.lattice_coordinates(mat, [inside, probe])
    if member:
        assert exact.mat_mul(x, mat) == [inside, probe]
    else:
        assert x is None
    y = exact.solve_integral(mat, inside)
    assert exact.vec_mat(y, mat) == inside


# ---------------------------------------------------------------------------
# fraction-free (Bareiss) routines against the Fraction oracles


@st.composite
def square_matrices(draw, max_n=6):
    # small entries with many zeros; optionally a repeated row (singular) or
    # a zero leading entry (forces a row swap at the first pivot)
    n = draw(st.integers(min_value=0, max_value=max_n))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        mat[draw(st.integers(0, n - 1))] = list(mat[draw(st.integers(0, n - 1))])
    if n >= 1 and draw(st.booleans()):
        mat[0][0] = 0
    return mat


@st.composite
def unimodular_matrices(draw, max_n=6, n=None):
    # identity under random elementary row operations and a row swap
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    mat = exact.identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            f = draw(st.integers(-3, 3))
            mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    mat[i], mat[j] = mat[j], mat[i]
    return mat


@given(square_matrices())
@settings(max_examples=300, deadline=None)
def test_det_int_matches_det_fraction(mat):
    snapshot = [list(r) for r in mat]
    assert exact.det_int(mat) == fo.det_fraction(mat)
    assert mat == snapshot


@given(square_matrices())
@settings(max_examples=300, deadline=None)
def test_adjugate_identity(mat):
    adj, det = exact.adjugate(mat)
    n = len(mat)
    scalar = [[det if i == j else 0 for j in range(n)] for i in range(n)]
    assert det == fo.det_fraction(mat)
    assert exact.mat_mul(adj, mat) == scalar
    assert exact.mat_mul(mat, adj) == scalar


def test_adjugate_frozen():
    assert exact.adjugate([]) == ([], 1)
    assert exact.adjugate([[0]]) == ([[1]], 0)
    assert exact.adjugate([[0, 1], [2, 3]]) == ([[3, -1], [-2, 0]], -2)
    # rank n-1: the adjugate is nonzero although det = 0
    assert exact.adjugate([[1, 2], [2, 4]]) == ([[4, -2], [-2, 1]], 0)


@st.composite
def symmetric_matrices(draw):
    # M M^T is positive semidefinite (definite when M is nonsingular);
    # M + M^T is usually indefinite
    mat = draw(square_matrices(max_n=5))
    if draw(st.booleans()):
        return exact.mat_mul(mat, exact.transpose(mat))
    return [[x + y for x, y in zip(row, col)] for row, col in zip(mat, zip(*mat))]


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_ldl_int_minors_and_completion(mat):
    n = len(mat)
    leading = [exact.det_int([row[:k] for row in mat[:k]]) for k in range(1, n + 1)]
    if any(m <= 0 for m in leading):
        with pytest.raises(ValueError):
            exact.ldl_int(mat)
        return
    rows, minors = exact.ldl_int(mat)
    assert minors == leading
    # mat == U^T diag(1 / (D_i D_{i+1})) U, i.e. x mat x^T = sum y_i^2 / (D_i D_{i+1})
    d = [1] + minors
    assert all(rows[i][j] == 0 for i in range(n) for j in range(i))
    assert mat == [
        [sum(Fraction(rows[k][i] * rows[k][j], d[k] * d[k + 1]) for k in range(n))
         for j in range(n)]
        for i in range(n)
    ]


@given(unimodular_matrices())
@settings(max_examples=200, deadline=None)
def test_inverse_unimodular_matches_inverse_fraction(mat):
    inv = exact.inverse_unimodular(mat)
    assert fo.to_fraction_matrix(inv) == fo.inverse_fraction(mat)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_saturate_takes_one_hnf_exactly_on_saturated_rows(data):
    # saturated rows U [I_k | 0] V, the same rows times c > 1, a
    # non-unimodular square matrix and dependent rows, each against the
    # oracle's kernel of the kernel; only the first skips kernel_basis
    n = data.draw(st.integers(1, 5))
    case = data.draw(st.sampled_from(["saturated", "scaled", "square", "dependent"]))
    if case == "square":
        k = n
    else:
        assume(case != "dependent" or n > 1)
        k = data.draw(st.integers(2 if case == "dependent" else 1, n))
    u, v = data.draw(unimodular_matrices(n=k)), data.draw(unimodular_matrices(n=n))
    rows = exact.mat_mul(u, v[:k])
    if case == "scaled":
        c = data.draw(st.integers(2, 5))
        rows = [[c * x for x in r] for r in rows]
    elif case == "square":
        c = data.draw(st.sampled_from([-3, -2, 2, 3]))
        rows[0] = [c * x for x in rows[0]]
    elif case == "dependent":
        f = data.draw(st.integers(-3, 3))
        rows[-1] = [f * x for x in rows[0]]
    ker = fo.kernel_basis(rows)
    with mock.patch.object(exact, "kernel_basis", wraps=exact.kernel_basis) as spy:
        if case == "dependent":
            assert len(ker) > n - k
            with pytest.raises(ValueError, match="^saturate: input rows are linearly dependent$"):
                exact.saturate(rows)
        else:
            assert exact.saturate(rows) == (fo.kernel_basis(ker) if ker else exact.identity(n))
    assert spy.called == (case != "saturated")


# wedges of integer rows: the Plücker vector that keys the vector DFS and
# the orbit map


def _wedge(rows):
    wedge = [1]
    for step, row in zip(exact.wedge_steps(len(rows[0]), len(rows)), rows):
        wedge = exact.extend_wedge(step, wedge, row)
    return wedge


def _primitive(wedge):
    """The nonzero wedge over its content, first nonzero entry positive."""
    g = gcd(*wedge)
    return tuple(x // (g if next(filter(None, wedge)) > 0 else -g) for x in wedge)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_primitive_wedge_is_the_signed_minor_vector_of_the_saturation(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=k, max_size=k))
    assume(exact.rank_int(rows) == k)
    minors = [exact.det_int([[r[j] for j in cols] for r in rows])
              for cols in itertools.combinations(range(n), k)]
    assert _wedge(rows) == minors
    assert list(exact.wedge(rows)) == minors
    content = gcd(*minors)
    sign = 1 if next(x for x in minors if x) > 0 else -1
    key = _primitive(minors)
    assert key == tuple(sign * x // content for x in minors)
    # every basis of the saturated lattice has this key, and a content-1 wedge
    basis = exact.saturate(rows)
    u = data.draw(unimodular_matrices(n=k))
    a = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                           min_size=k, max_size=k))
    assume(exact.det_int(a))
    for other in (basis, exact.mat_mul(u, basis), exact.mat_mul(a, rows)):
        assert _primitive(_wedge(other)) == key
    assert gcd(*_wedge(exact.mat_mul(u, basis))) == 1
    assert exact.signed(exact.wedge(basis)) == key
    # a stack of row sets (m x k x n, dtype=object) transposed to k x n x m
    # wedges every set at once: column i is the wedge of set i
    sets = [rows, basis, exact.mat_mul(u, basis)]
    stacked = exact.wedge(np.array(sets, dtype=object).transpose(1, 2, 0))
    assert [list(col) for col in zip(*stacked)] == [list(exact.wedge(s)) for s in sets]


def test_det_and_inverse_fraction():
    m = [[2, 1], [1, 2]]
    assert exact.det_fraction(m) == 3
    inv = exact.inverse_fraction(m)
    assert exact.mat_mul(m, inv) == fo.to_fraction_matrix(exact.identity(2))
    with pytest.raises(ValueError):
        exact.inverse_fraction([[1, 2], [2, 4]])


@given(square_matrices(), st.lists(st.integers(1, 12), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_rational_det_and_inverse_match_oracle(mat, dens):
    # row i divided by dens[i]: a rational matrix with mixed denominators
    rat = [[Fraction(x, d) for x in row] for row, d in zip(mat, dens)]
    det = exact.det_fraction(rat)
    assert det == fo.det_fraction(rat)
    if det:
        assert exact.inverse_fraction(rat) == fo.inverse_fraction(rat)


def test_frac_str_roundtrip():
    assert exact.frac_str(Fraction(-3, 4)) == "-3/4"
    assert exact.frac_str(5) == "5"


def test_scaling_refuses_non_integral_floats():
    # a non-integral float was truncated: 1.5 -> 1, 2.5 -> 2
    with pytest.raises(ValueError):
        quadform.Lattice.from_rows(3, [[1.5, 0, 0]])
    with pytest.raises(ValueError):
        exact.det_fraction([[2.5]])
    with pytest.raises(ValueError):
        exact.lattice_coordinates([[1, 0]], [[1.5, 0]])
    # integral floats and Fractions still scale
    assert exact.det_fraction([[2.0]]) == 2
    assert exact.scale_to_int([[Fraction(1, 2), 2.0]]) == (2, [[1, 4]])


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valuation_refuses_p_below_two(p):
    # no valuation exists at p < 2, and at p = 1 the division loop never ends
    with pytest.raises(ValueError, match="p >= 2"):
        exact.valuation(12, p)
    with pytest.raises(ValueError, match="valuation of zero"):
        exact.valuation(0, 3)
    q = quadform.QuadraticForm.sum_of_squares(3)
    with pytest.raises(ValueError, match="p >= 2"):
        quadform.local_disc(q, quadform.Subspace.from_rows(q, [[1, 1, 0]]), p)
