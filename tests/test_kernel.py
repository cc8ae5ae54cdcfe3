"""Tests for the short-vector kernel against an exhaustive box search."""

from itertools import product
from math import isqrt

import pytest

from latshape import exact, kernel

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


def test_rejects_indefinite_gram():
    with pytest.raises(ValueError):
        kernel.short_vectors([[1, 2], [2, 1]], 4)
