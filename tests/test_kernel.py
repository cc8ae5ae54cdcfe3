"""Tests for the short-vector kernel against an exhaustive box search and
against the earlier Fraction kernel kept in ``fraction_oracle``."""

from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from latshape import exact, kernel

import fraction_oracle as fo

A4 = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]
GRAMS = [
    exact.identity(3),
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    A4,
    [[3]],
]


def _norm(gram, v):
    n = len(gram)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def _box_search(gram, bound):
    """Sorted (norm, v) with 0 < norm <= bound and last nonzero entry > 0.

    x G x^T <= bound forces x_i^2 <= bound * (G^{-1})_ii, so the box with
    that radius in every coordinate is exhaustive.
    """
    n = len(gram)
    adj, det = exact.adjugate(gram)
    radius = max(isqrt(bound * adj[i][i] // det) for i in range(n))
    out = []
    for v in product(range(-radius, radius + 1), repeat=n):
        nonzero = [x for x in v if x]
        if not nonzero or nonzero[-1] < 0:
            continue
        norm = _norm(gram, v)
        if norm <= bound:
            out.append((norm, v))
    return sorted(out)


@pytest.mark.parametrize("gram", GRAMS)
def test_short_vectors_match_box_search(gram):
    for bound in (0, 1, 2, 5, 9):
        got = kernel.short_vectors(gram, bound)
        assert got == _box_search(gram, bound), (gram, bound)
        assert got == sorted(got)
        for norm, v in got:
            assert norm == _norm(gram, v)
            assert [x for x in v if x][-1] > 0


@pytest.mark.parametrize("gram", GRAMS)
def test_vectors_with_norm_is_the_shell_of_short_vectors(gram):
    ball = kernel.short_vectors(gram, 9)
    for target in range(0, 10):
        shell = kernel.vectors_with_norm(gram, target)
        assert shell == [v for norm, v in ball if norm == target], (gram, target)
        assert shell == sorted(shell)


def test_one_dimensional_kernel():
    assert kernel.short_vectors([[3]], 12) == [(3, (1,)), (12, (2,))]
    assert kernel.vectors_with_norm([[3]], 12) == [(2,)]
    assert kernel.vectors_with_norm([[3]], 11) == []


@pytest.mark.parametrize("gram", [[[3]], [[5]], [[1, 0], [0, 1]], [[2, 1], [1, 3]]])
def test_small_kernels_in_both_sign_modes(gram):
    # n = 1 walks a pinned 2 x 2 form and n = 2 is the innermost pair alone
    for bound in range(0, 30):
        box = _box_search(gram, bound)
        positive = [(t, v) for t, v in box if v[-1] > 0]
        assert kernel.short_vectors(gram, bound) == box
        assert kernel.short_vectors(gram, bound, last_positive=True) == positive
        norms = {bound, bound // 2, bound // 3}
        assert kernel.vectors_with_norms(gram, norms) == [(t, v) for t, v in box if t in norms]
        assert kernel.vectors_with_norms(gram, norms, last_positive=True) == [
            (t, v) for t, v in positive if t in norms
        ]


def _three_squares(norms):
    """Every (|v|^2, v) of Z^3 with |v|^2 in ``norms``, both signs, sorted:
    x_0 is the isqrt of what (x_2, x_1) leave."""
    out = set()
    for t in norms:
        r = isqrt(t)
        for x2 in range(-r, r + 1):
            m = isqrt(t - x2 * x2)
            for x1 in range(-m, m + 1):
                rest = t - x2 * x2 - x1 * x1
                x0 = isqrt(rest)
                if x0 * x0 == rest:
                    out.update({(t, (x0, x1, x2)), (t, (-x0, x1, x2))})
    return sorted(out)


def test_large_norm_shells_match_an_isqrt_oracle():
    norms = {10009, 100003}
    both = _three_squares(norms)
    assert kernel.vectors_with_norms(exact.identity(3), norms, last_positive=True) == [
        (t, v) for t, v in both if v[-1] > 0
    ]
    got = kernel.vectors_with_norms(exact.identity(3), norms)
    assert got == [(t, v) for t, v in both if [x for x in v if x][-1] > 0]
    assert len(got) == 1044
    # a non-diagonal 3 x 3 Gram and a 2 x 2 Gram at norms in the hundreds
    for gram, norms in (
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], {100, 257, 300}),
        ([[3, 1], [1, 4]], {101, 250, 499}),
    ):
        box = _box_search(gram, max(norms))
        assert kernel.vectors_with_norms(gram, norms) == [(t, v) for t, v in box if t in norms]
        assert kernel.vectors_with_norms(gram, norms, last_positive=True) == [
            (t, v) for t, v in box if t in norms and v[-1] > 0
        ]


@st.composite
def pd_grams(draw):
    # B B^T for a nonsingular B of rank 1-5, or its adjugate: leading
    # minors above 1, so the completion has nontrivial denominators
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    b = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    assume(exact.det_int(b) != 0)
    gram = exact.mat_mul(b, exact.transpose(b))
    if draw(st.booleans()):
        gram = exact.adjugate(gram)[0]
    return gram


@given(pd_grams(), st.integers(min_value=0, max_value=40))
@settings(max_examples=120, deadline=None)
def test_short_vectors_match_fraction_oracle(gram, bound):
    assert kernel.short_vectors(gram, bound) == fo.short_vectors(gram, bound)


@given(pd_grams())
@settings(max_examples=30, deadline=None)
def test_vectors_with_norm_match_fraction_oracle(gram):
    for target in range(41):
        assert kernel.vectors_with_norm(gram, target) == fo.vectors_with_norm(gram, target)


@given(pd_grams(), st.sets(st.integers(min_value=-2, max_value=40), max_size=6))
@settings(max_examples=80, deadline=None)
def test_vectors_with_norms_is_one_shell_per_norm(gram, norms):
    # one walk up to max(norms) finds what one vectors_with_norm per norm
    # finds, and with last_positive the v[-1] > 0 part of the ball
    got = kernel.vectors_with_norms(gram, norms)
    assert got == sorted(got)
    assert got == [(t, v) for t in sorted(norms) for v in kernel.vectors_with_norm(gram, t)]
    bound = max(norms, default=0)
    ball = kernel.short_vectors(gram, bound, last_positive=True)
    assert kernel.vectors_with_norms(gram, norms, last_positive=True) == [
        (t, v) for t, v in ball if t in norms
    ]
    # the last_positive walk is the v[-1] > 0 part of the plain ball, which
    # the Fraction oracle checks
    assert ball == [(t, v) for t, v in kernel.short_vectors(gram, bound) if v[-1] > 0]


def test_walk_stops_within_one_x0_range_of_its_limit():
    # an x_1 row of the ball adds at most 2 isqrt(bound) + 1 vectors, so the
    # walk raises with at most that many past the limit, not after the ball
    with pytest.raises(kernel.BoundExceededError, match="candidate bound exceeded") as excinfo:
        kernel.short_vectors(exact.identity(4), 10**6, limit=1000)
    err = excinfo.value
    assert 1000 < err.count <= 1000 + 2 * isqrt(10**6) + 1 and err.limit == 1000
    assert "%d vectors (limit 1000)" % err.count in str(err)
    full = kernel.short_vectors(A4, 30)
    assert kernel.short_vectors(A4, 30, limit=len(full)) == full
    shell = kernel.vectors_with_norms(exact.identity(3), {10009, 100003})
    assert kernel.vectors_with_norms(exact.identity(3), {10009, 100003}, limit=1044) == shell
    with pytest.raises(kernel.BoundExceededError, match="1044 vectors"):
        kernel.vectors_with_norms(exact.identity(3), {10009, 100003}, limit=1043)


@given(pd_grams(), st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=60))
@settings(max_examples=80, deadline=None)
def test_limit_admits_exactly_the_walks_it_covers(gram, bound, limit):
    # the checks inside the walk only stop it early: a walk raises exactly
    # when its full list is longer than the limit, in both branches
    norms = {bound, bound // 2}
    for walk, arg in ((kernel.short_vectors, bound), (kernel.vectors_with_norms, norms)):
        full = walk(gram, arg)
        if len(full) <= limit:
            assert walk(gram, arg, limit=limit) == full
        else:
            with pytest.raises(kernel.BoundExceededError):
                walk(gram, arg, limit=limit)


def test_rejects_indefinite_gram():
    # indefinite, then semidefinite
    for gram in ([[1, 2], [2, 1]], [[1, 1], [1, 1]]):
        for enumerate_ in (kernel.short_vectors, kernel.vectors_with_norm):
            with pytest.raises(ValueError):
                enumerate_(gram, 4)
