"""Exact enumeration of short lattice vectors.

Fincke-Pohst style depth-first search over the quadratic completion of
the Gram matrix.  Everything here is exact: the completion data is held
as ``fractions.Fraction`` and interval endpoints come from integer square
roots, so the enumeration is complete for any integral positive definite
Gram matrix.

Sign convention: of each pair ``{v, -v}`` only the representative whose
last nonzero coordinate is positive is reported.
"""

from fractions import Fraction
from math import isqrt


def _ldl(gram):
    """Quadratic completion q(x) = sum_i d[i] * (x_i + sum_{j>i} c[i][j] x_j)^2."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(r, n):
                a[r][s] -= d[i] * c[i][r] * c[i][s]
    return d, c


def _interval(d, s, rem):
    """Integer range [lo, hi] with d*(x+s)^2 <= rem, or (1, 0) when empty.

    With s = a/b and rem/d = num/den the endpoints are floor expressions in
    sqrt(b^2*num*den); since consecutive integers bracket that square root,
    integer floor division gives the exact answer with no adjustment.
    """
    if rem < 0:
        return 1, 0
    t = rem / d
    a, b = s.numerator, s.denominator
    num, den = t.numerator, t.denominator
    r = isqrt(b * b * num * den)
    m = b * den
    hi = (r - a * den) // m
    lo = -((a * den + r) // m)
    return lo, hi


def short_vectors(gram, bound):
    """All (norm, v) with 0 < v G v^T <= bound, one per sign pair.

    Sorted by (norm, vector).  ``gram`` must be integral symmetric positive
    definite; norms are plain ints.
    """
    n = len(gram)
    if bound < 1:
        return []
    d, c = _ldl(gram)
    out = []
    x = [0] * n

    def rec(i, rem, nonzero):
        if i < 0:
            if nonzero:
                out.append((int(bound - rem), tuple(x)))
            return
        s = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                s += c[i][j] * x[j]
        lo, hi = _interval(d[i], s, rem)
        if not nonzero and lo < 0:
            # outer coordinates all zero: keep the canonical sign only
            lo = 0
        for xi in range(lo, hi + 1):
            x[i] = xi
            rec(i - 1, rem - d[i] * (xi + s) * (xi + s), nonzero or xi != 0)
        x[i] = 0

    rec(n - 1, Fraction(bound), False)
    out.sort()
    return out


def vectors_with_norm(gram, target):
    """All v with v G v^T == target exactly, one per sign pair, sorted.

    The innermost coordinate is solved as a quadratic instead of scanned,
    so the cost is governed by the number of partial prefixes with norm
    budget left, not by the target itself.
    """
    n = len(gram)
    if target < 1:
        return []
    d, c = _ldl(gram)
    out = []
    x = [0] * n

    def solve_last(s, rem, nonzero):
        # d[0] * (x0 + s)^2 == rem with x0 an integer
        t = rem / d[0]
        num, den = t.numerator, t.denominator
        r = isqrt(num * den)
        if r * r != num * den:
            return
        root = Fraction(r, den)
        seen = (root, -root) if root else (root,)
        for u in seen:
            val = u - s
            if val.denominator != 1:
                continue
            x0 = int(val)
            if not nonzero and x0 <= 0:
                continue
            x[0] = x0
            out.append(tuple(x))
            x[0] = 0

    def rec(i, rem, nonzero):
        if i == 0:
            if rem >= 0:
                s = Fraction(0)
                for j in range(1, n):
                    if x[j]:
                        s += c[0][j] * x[j]
                solve_last(s, rem, nonzero)
            return
        s = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                s += c[i][j] * x[j]
        lo, hi = _interval(d[i], s, rem)
        if not nonzero and lo < 0:
            lo = 0
        for xi in range(lo, hi + 1):
            x[i] = xi
            rec(i - 1, rem - d[i] * (xi + s) * (xi + s), nonzero or xi != 0)
        x[i] = 0

    if n == 1:
        solve_last(Fraction(0), Fraction(target), False)
    else:
        rec(n - 1, Fraction(target), False)
    out.sort()
    return out
