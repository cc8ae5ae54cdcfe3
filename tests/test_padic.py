import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshape import exact
from latshape import padic as pa
from latshape import quadform as qf

PLACES = ["inf", 2, 3, 5, 7, 11, 13]
ENTRY_POOL = [1, -1, 2, -2, 3, -3, 5, -5]


def _vp(m, p):
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


def hensel_oracle(entries, p):
    """Ground-truth isotropy of an integral diagonal form over Q_p.

    A primitive zero z has a unit coordinate i, so it certifies itself
    modulo p^(2t+1) with gradient valuation at most
    t = v_p(2) + max_i v_p(d_i); conversely any primitive solution at
    that level whose gradient valuation is <= t lifts by Hensel's
    lemma applied to the coordinate attaining the minimum.  The search
    is a value-set sweep over Z/p^(2t+1), exact in both directions.
    """
    ents = [int(e) for e in entries]
    assert all(ents)
    g = 0
    for e in ents:
        g = math.gcd(g, e)
    ents = [e // g for e in ents]
    t = _vp(2, p) + max(_vp(e, p) for e in ents)
    M = p ** (2 * t + 1)
    cap = t + 1
    states = {(0, False, cap)}
    for d in ents:
        steps = set()
        for x in range(M):
            val = d * x * x % M
            if x == 0:
                steps.add((val, False, cap))
            else:
                gv = min(_vp(2 * d * x, p), cap)
                steps.add((val, x % p != 0, gv))
        states = {
            ((v0 + val) % M, u0 or unit, min(g0, gv))
            for (v0, u0, g0) in states
            for (val, unit, gv) in steps
        }
    return any(v == 0 and unit and gv <= t for (v, unit, gv) in states)


def test_diagonalize_frozen():
    assert pa.diagonalize([[3, 0], [0, 7]]) == (3, 7)
    assert pa.diagonalize([[0, 1], [1, 0]]) == (2, F(-1, 2))
    assert pa.diagonalize([[5, 1], [1, 5]]) == (5, F(24, 5))
    with pytest.raises(ValueError):
        pa.diagonalize([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        pa.diagonalize([[1, 2], [3, 4]])


def test_diagonalize_det_class():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        g = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        det = exact.det_int(g)
        if det == 0:
            continue
        d = pa.diagonalize(g)
        ratio = F(math.prod(d) / det)
        assert ratio > 0
        assert math.isqrt(ratio.numerator) ** 2 == ratio.numerator
        assert math.isqrt(ratio.denominator) ** 2 == ratio.denominator


def test_hilbert_frozen():
    assert pa.hilbert_symbol(1, F(-7, 3), 5) == 1
    assert pa.hilbert_symbol(-1, -1, "inf") == -1
    assert pa.hilbert_symbol(2, 5, 5) == -1
    assert pa.hilbert_symbol(-1, -1, 2) == -1
    assert pa.hilbert_symbol(2, 7, 7) == 1
    with pytest.raises(ValueError):
        pa.hilbert_symbol(0, 3, 5)
    with pytest.raises(ValueError):
        pa.hilbert_symbol(3, 1, 4)


def test_hilbert_against_oracle():
    # (a,b)_p = 1 iff ax^2 + by^2 - z^2 is isotropic; units times an
    # optional single factor of p cover all parity/residue cases, and
    # square invariance is fuzz-tested separately
    rng = random.Random(5)
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7])
        units = [u for u in ENTRY_POOL if u % p]
        a = rng.choice(units) * p ** rng.randint(0, 1)
        b = rng.choice(units) * p ** rng.randint(0, 1)
        want = 1 if hensel_oracle([a, b, -1], p) else -1
        assert pa.hilbert_symbol(a, b, p) == want, (a, b, p)


nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
).filter(lambda x: x != 0)


@settings(max_examples=150, deadline=None)
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals, st.sampled_from(PLACES))
def test_hilbert_symbol_laws(a, b, c, v):
    s = pa.hilbert_symbol
    assert s(a, b, v) == s(b, a, v)
    assert s(a * c, b, v) == s(a, b, v) * s(c, b, v)
    assert s(a, -a, v) == 1
    assert s(a * c * c, b, v) == s(a, b, v)


@settings(max_examples=60, deadline=None)
@given(nonzero_rationals, st.sampled_from(PLACES))
def test_hilbert_norm_property(a, v):
    # (a, b) = 1 for b a nonzero represented value of z^2 - a x^2
    for z, x in [(1, 1), (2, 1), (3, 2)]:
        b = F(z) ** 2 - a * F(x) ** 2
        if b != 0:
            assert pa.hilbert_symbol(a, b, v) == 1


def test_hilbert_reciprocity():
    rng = random.Random(17)
    for _ in range(1000):
        num = rng.randint(-60, 60) or 1
        den = rng.randint(1, 40)
        a = F(num, den)
        b = F(rng.randint(-60, 60) or 1, rng.randint(1, 40))
        support = {2}
        for val in (a.numerator, a.denominator, b.numerator, b.denominator):
            val = abs(val)
            d = 2
            while d * d <= val:
                while val % d == 0:
                    support.add(d)
                    val //= d
                d += 1
            if val > 1:
                support.add(val)
        prod = pa.hilbert_symbol(a, b, "inf")
        for p in support:
            prod *= pa.hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def _random_unimodular(n, rng):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def test_hasse_congruence_invariance():
    rng = random.Random(23)
    trials = 0
    while trials < 30:
        n = rng.randint(2, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        if exact.det_int(g) == 0:
            continue
        trials += 1
        u = _random_unimodular(n, rng)
        gu = exact.mat_mul(exact.mat_mul(u, g), exact.transpose(u))
        d0, d1 = pa.diagonalize(g), pa.diagonalize(gu)
        for v in PLACES:
            assert pa.hasse_invariant(d0, v) == pa.hasse_invariant(d1, v)
            assert pa.is_isotropic_diagonal(d0, v) == pa.is_isotropic_diagonal(d1, v)


def test_square_classes():
    assert pa.is_square_qp(4, 5)
    assert not pa.is_square_qp(2, 5)
    assert not pa.is_square_qp(5, 5)
    assert pa.is_square_qp(F(9, 4), 2)
    assert pa.is_square_qp(17, 2)
    assert not pa.is_square_qp(3, 2)
    assert not pa.is_square_qp(8, 2)
    # 4 was no square at 9; the real square class is a sign, not a p-adic one
    for p in (4, 9, "inf"):
        with pytest.raises(ValueError, match="prime"):
            pa.is_square_qp(4, p)
    # at the real place, a is a square iff <1, -a> is isotropic
    assert pa.is_isotropic_diagonal([1, -F(1, 7)], "inf")
    assert not pa.is_isotropic_diagonal([1, 4], "inf")


def test_isotropy_frozen():
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert not pa.is_isotropic_local(eye3, 2)
    assert pa.is_isotropic_local(eye3, 7)
    assert not pa.is_isotropic_local(eye3, "inf")
    assert pa.is_isotropic_local([[1, 0], [0, -1]], "inf")
    for p in (2, 3, 5, 7, 11):
        assert pa.is_isotropic_local(
            [[1 if i == j else 0 for j in range(5)] for i in range(5)], p
        )
    with pytest.raises(ValueError):
        pa.is_isotropic_local([[1, 0], [0, 0]], 3)


def test_isotropy_vs_oracle_rank2_rank3():
    for p in (2, 3, 5, 7):
        for rank in (2, 3):
            for ents in itertools.combinations_with_replacement(ENTRY_POOL, rank):
                got = pa.is_isotropic_diagonal(ents, p)
                assert got == hensel_oracle(ents, p), (ents, p)


def test_isotropy_vs_oracle_rank4_sample():
    rng = random.Random(31)
    seen = set()
    while len(seen) < 120:
        ents = tuple(sorted(rng.choice(ENTRY_POOL) for _ in range(4)))
        seen.add(ents)
    for ents in sorted(seen):
        for p in (2, 3, 5, 7):
            assert pa.is_isotropic_diagonal(ents, p) == hensel_oracle(ents, p), (ents, p)


def test_isotropy_real_matches_signs():
    rng = random.Random(41)
    for _ in range(50):
        ents = [rng.choice(ENTRY_POOL) for _ in range(rng.randint(1, 5))]
        want = any(e > 0 for e in ents) and any(e < 0 for e in ents)
        assert pa.is_isotropic_diagonal(ents, "inf") == want


def test_stabilizer_examples():
    q3 = qf.QuadraticForm.sum_of_squares(3)
    e1 = qf.Subspace.from_rows(q3, [[1, 0, 0]])
    # rank-1 restrictions are never isotropic
    assert not pa.stabilizer_strongly_isotropic(q3, e1, 3)
    assert not pa.stabilizer_strongly_isotropic(q3, e1, 5)

    q5 = qf.QuadraticForm.sum_of_squares(5)
    l52 = qf.Subspace.from_rows(q5, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0]])
    assert qf.disc(q5, l52) == 2
    assert not pa.stabilizer_strongly_isotropic(q5, l52, 5)
    plane = qf.Subspace.from_rows(q5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    # x^2 + y^2 is isotropic at p iff -1 is a square mod p
    assert pa.stabilizer_strongly_isotropic(q5, plane, 5)
    assert not pa.stabilizer_strongly_isotropic(q5, plane, 3)

    q10 = qf.QuadraticForm.sum_of_squares(10)
    half = qf.Subspace.from_rows(
        q10, [[1 if j == i else 0 for j in range(10)] for i in range(5)]
    )
    for p in (3, 5, 7, 11):
        assert pa.stabilizer_strongly_isotropic(q10, half, p)

    with pytest.raises(ValueError):
        pa.stabilizer_strongly_isotropic(q3, e1, 2)


def test_sufficient_criterion_frozen():
    assert pa.sufficient_criterion(5, 5, 7, 123, 456)
    assert not pa.sufficient_criterion(3, 5, 7, 14, 1)
    assert pa.sufficient_criterion(2, 5, 7, 3, 1)
    assert pa.sufficient_criterion(3, 5, 7, 13, 1)
    assert pa.sufficient_criterion(5, 3, 7, 14, 13)
    assert not pa.sufficient_criterion(5, 3, 7, 13, 14)
    assert pa.sufficient_criterion(2, 3, 7, 3, 5)
    assert not pa.sufficient_criterion(2, 3, 7, 3, 7)
    assert pa.sufficient_criterion(5, 2, 7, 7, 3)
    assert pa.sufficient_criterion(3, 2, 11, 5, 2)
    assert not pa.sufficient_criterion(1, 9, 3, 1, 1)
    assert not pa.sufficient_criterion(2, 2, 5, 1, 1)


def _eight_case_criterion(k, n_minus_k, p, disc_l, disc_lperp):
    """The criterion as eight enumerated rank cases, kept as an oracle."""

    def coprime(d):
        return d % p != 0

    def neg_square(d):
        return d % p != 0 and exact.unit_square_class(-d % p, p) == 1

    a, b = k, n_minus_k
    if a >= 5 and b >= 5:
        return True
    if 3 <= a < 5 and b >= 5 and coprime(disc_l):
        return True
    if a >= 5 and 3 <= b < 5 and coprime(disc_lperp):
        return True
    if 3 <= a < 5 and 3 <= b < 5 and coprime(disc_l) and coprime(disc_lperp):
        return True
    if a == 2 and b >= 5 and neg_square(disc_l):
        return True
    if a == 2 and 3 <= b < 5 and coprime(disc_lperp) and neg_square(disc_l):
        return True
    if a >= 5 and b == 2 and neg_square(disc_lperp):
        return True
    if 3 <= a < 5 and b == 2 and coprime(disc_l) and neg_square(disc_lperp):
        return True
    return False


def test_sufficient_criterion_matches_eight_cases_on_every_rank_pair():
    ranks, discs = range(9), range(1, 31)
    for a, b, p in itertools.product(ranks, ranks, (3, 5, 7, 11, 13)):
        for dl, dp in itertools.product(discs, discs):
            want = _eight_case_criterion(a, b, p, dl, dp)
            assert pa.sufficient_criterion(a, b, p, dl, dp) == want, (a, b, p, dl, dp)


def test_sufficient_criterion_implies_isotropy():
    rng = random.Random(47)
    checked = 0
    for n in (7, 8):
        q = qf.QuadraticForm.sum_of_squares(n)
        for _ in range(40):
            k = rng.randint(2, n - 2)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if exact.rank_int([list(r) for r in rows]) != k:
                continue
            L = qf.Subspace.from_rows(q, rows)
            perp = qf.orth_complement(q, L)
            dl, dp = qf.disc(q, L), qf.disc(q, perp)
            q_l, q_perp, _ = qf.restricted_forms(q, L)
            dia_l, dia_p = pa.diagonalize(q_l), pa.diagonalize(q_perp)
            for p in (3, 5, 7, 11, 13):
                if pa.sufficient_criterion(L.k, perp.k, p, dl, dp):
                    assert pa.is_isotropic_diagonal(dia_l, p), (L.basis, p)
                    assert pa.is_isotropic_diagonal(dia_p, p), (L.basis, p)
                    checked += 1
    assert checked > 50
