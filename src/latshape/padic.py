"""Local invariants of rational quadratic forms.

p-adic square classes, Hilbert symbols, Hasse invariants, and isotropy
over the completions of Q.  There is no p-adic number type here: every
local question is reduced to integer valuations, residue symbols, and
finite modular checks, so all answers are exact.

Places are encoded as a prime integer or the string "inf" for the
real place.  The Hilbert symbol and the isotropy tests take either kind
of place; ``is_square_qp`` is p-adic only, since a real square class is
just a sign (a is a square at v iff <1, -a> is isotropic there).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod
from typing import List, Tuple, Union

from . import exact
from . import quadform

Rational = Union[int, Fraction]
Place = Union[int, str]

INF = "inf"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_divisors(*values) -> List[int]:
    """Sorted primes dividing at least one of the nonzero integers given."""
    primes = set()
    for value in values:
        rem = abs(int(value))
        p = 2
        while rem > 1:
            while rem % p:
                p += 1 if p == 2 else 2
            primes.add(p)
            while rem % p == 0:
                rem //= p
    return sorted(primes)


def _check_place(v: Place) -> Place:
    if v == INF:
        return v
    if isinstance(v, int) and is_prime(v):
        return v
    raise ValueError("place must be a prime or 'inf', got %r" % (v,))


def _unit_part(x: Rational, p: int) -> Tuple[int, int]:
    # x = p^v * (a/b) with a, b prime to p; returns (v, a*b^{-1} mod p^3)
    # (mod p^3 keeps enough residue information for p = 2 and odd p alike)
    x = Fraction(x)
    v = exact.valuation(x, p)
    y = x / Fraction(p) ** v
    mod = p**3
    num = y.numerator % mod
    den = y.denominator % mod
    return v, num * pow(den, -1, mod) % mod


def is_square_qp(a: Rational, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p, for a prime p only."""
    if _check_place(p) == INF:
        raise ValueError("is_square_qp needs a prime, got 'inf'")
    if Fraction(a) == 0:
        raise ValueError("zero is not in the unit group")
    v, u = _unit_part(a, p)
    if v % 2:
        return False
    return exact.unit_square_class(u, p) == 1


def diagonalize(gram) -> Tuple[Fraction, ...]:
    """Rational congruence diagonalization of a symmetric matrix.

    Returns the tuple (a_1, ..., a_m) of nonzero Fractions with
    P^T gram P = diag(a_i) for some invertible rational P.  Their
    product agrees with det(gram) modulo squares.  Raises ValueError
    when the form is degenerate.
    """
    rows = [[Fraction(x) for x in row] for row in gram]
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    for i in range(m):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")
    entries = []
    for i in range(m):
        if rows[i][i] == 0:
            # bring a nonzero entry to the pivot, keeping symmetry
            piv = next((j for j in range(i + 1, m) if rows[j][j] != 0), None)
            if piv is not None:
                rows[i], rows[piv] = rows[piv], rows[i]
                for r in rows:
                    r[i], r[piv] = r[piv], r[i]
            else:
                off = next((j for j in range(i + 1, m) if rows[i][j] != 0), None)
                if off is None:
                    raise ValueError("degenerate form")
                for c in range(m):
                    rows[i][c] += rows[off][c]
                for r in rows:
                    r[i] += r[off]
        d = rows[i][i]
        entries.append(d)
        for r in range(i + 1, m):
            f = rows[r][i] / d
            if f == 0:
                continue
            for c in range(m):
                rows[r][c] -= f * rows[i][c]
            for rr in range(m):
                rows[rr][r] -= f * rows[rr][i]
    return tuple(entries)


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """(a,b)_v: 1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over
    the completion at v, else -1."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    v = _check_place(v)
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    alpha, u = _unit_part(a, p)
    beta, w = _unit_part(b, p)
    if p == 2:
        # eps(x) = (x-1)/2, omega(x) = (x^2-1)/8 mod 2, x odd
        eps_u = (u - 1) // 2 % 2
        eps_w = (w - 1) // 2 % 2
        om_u = (u * u - 1) // 8 % 2
        om_w = (w * w - 1) // 8 % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= exact.unit_square_class(u, p)
    if alpha % 2:
        sign *= exact.unit_square_class(w, p)
    return sign


def _entries(form) -> Tuple[Fraction, ...]:
    ents = tuple(map(Fraction, form))
    if 0 in ents:
        raise ValueError("diagonal entries must be nonzero")
    return ents


def hasse_invariant(form, v: Place) -> int:
    """prod_{i<j} (a_i, a_j)_v for a diagonal form; congruence invariant."""
    return prod(hilbert_symbol(a, b, v) for a, b in combinations(_entries(form), 2))


def is_isotropic_diagonal(form, v: Place) -> bool:
    ents = _entries(form)
    v = _check_place(v)
    m = len(ents)
    if m <= 1:
        return False
    if v == INF:
        return any(a > 0 for a in ents) and any(a < 0 for a in ents)
    p = v
    d = prod(ents)
    if m == 2:
        return is_square_qp(-d, p)
    if m == 3:
        return hasse_invariant(ents, p) == hilbert_symbol(-1, -d, p)
    if m == 4:
        if not is_square_qp(d, p):
            return True
        return hasse_invariant(ents, p) != -hilbert_symbol(-1, -1, p)
    return True


def is_isotropic_local(gram, v: Place) -> bool:
    """Whether the form with the given symmetric Gram matrix represents
    zero nontrivially over the completion at v.

    Rank 1 never; rank 2 iff -det is a local square; rank 3 iff the
    Hasse invariant equals (-1, -det)_v; rank 4 iff det is a local
    non-square or the Hasse invariant differs from -(-1,-1)_v; rank >= 5
    always at finite places.  At the real place: iff indefinite.
    """
    return is_isotropic_diagonal(diagonalize(gram), v)


def stabilizer_strongly_isotropic(q: "quadform.QuadraticForm", L, p: int) -> bool:
    """True iff the restrictions of q to both L and its orthogonal
    complement are isotropic over Q_p (p odd)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if L.k == 0 or L.k == L.n:
        raise ValueError("need a proper nonzero subspace")
    perp = quadform.orth_complement(q, L)
    return all(
        is_isotropic_local(quadform.gram_restriction(q, side), p) for side in (L, perp)
    )


def sufficient_criterion(k: int, n_minus_k: int, p: int, disc_l: int, disc_lperp: int) -> bool:
    """Dimension/discriminant test implying strong isotropy at an odd
    prime.  One test per side: a side of rank r and discriminant D
    passes for r >= 5; for r = 3, 4 when p does not divide D; for r = 2
    when p does not divide D and -D is a square mod p; never for r <= 1.
    The criterion is that both sides pass and the ranks are not (2, 2).
    One-directional: false here does not mean anisotropic (sharp only
    away from ranks 4 and 2)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")

    def side(r, d):
        if r >= 5:
            return True
        if r == 2:
            return d % p != 0 and exact.unit_square_class(-d % p, p) == 1
        return r >= 3 and d % p != 0

    return (k, n_minus_k) != (2, 2) and side(k, disc_l) and side(n_minus_k, disc_lperp)
