"""Exact enumeration of short lattice vectors.

Fincke-Pohst depth-first search (Math. Comp. 44, 1985) over the integer
quadratic completion of the Gram matrix G.  ``exact.ldl_int`` gives, by
fraction-free elimination, the echelon rows U and the leading principal
minors D_1, ..., D_n of G (D_0 = 1).  With

    y_i = sum_{j >= i} U[i][j] x_j,    x G x^T = sum_i y_i^2 / (D_i D_{i+1}),

y_i is an integer that depends only on x_i, ..., x_{n-1}, and its
coefficient on x_i is D_{i+1}.  Scaling by Lambda = lcm_i(D_i D_{i+1})
turns every term into the integer w_i y_i^2, w_i = Lambda / (D_i D_{i+1}).
The walk fixes x_{n-1}, ..., x_2 in turn, one recursive call per level,
and carries the int budget r, Lambda * bound less the terms fixed so far.
The innermost pair (x_1, x_0) is one flat loop over x_1 per prefix: S for
x_0 is linear in x_1, a constant part summed once per prefix plus
U[0][1] x_1.  A 1 x 1 Gram (a) goes through the same loop as diag(a,
a bound + 1), whose x_1 can only be 0.

The ranges are exact: y_i^2 is an integer, so w_i y_i^2 <= r holds exactly
when y_i^2 <= r // w_i, that is when |y_i| <= h = isqrt(r // w_i).  With S
the part of y_i from the outer coordinates this is -h <= D_{i+1} x_i + S
<= h, an integer range for x_i found by floor division.  Nothing is
rounded, so the enumeration is complete for any integral positive definite
Gram.  For a fixed norm the innermost coordinate x_0 is still solved,
not scanned, once per x_1: w_0 y_0^2 == r needs w_0 | r, r / w_0 = t^2
and D_1 | ±t - S.
A set of norms is one walk of the prefixes up to the largest, N_max: at
the innermost coordinate the budget for the norm N is r - Lambda (N_max -
N), solved the same way once per N (``vectors_with_norms``).

A walk takes a ``limit``, the candidates its caller still allows, and
raises ``BoundExceededError`` past it.  The count is read after each step
of x_i (i > 1), after each x_1 row of the ball and at the end, so the walk
stops within one x_0 range of its limit: the work is bounded, not only the
output.  A fixed-norm x_1 row adds at most two vectors per norm and is not
checked on its own: the check would run once per prefix, in the walk's
innermost loop, to stop an overshoot of two vectors.

Sign convention: of each pair ``{v, -v}`` only the representative whose
last nonzero coordinate is positive is reported.

The sum of squares takes an identity route for fixed norms (n >= 2).  Its
shell of norm N is a union of orbits under the signed permutations, and
each orbit holds one sorted absolute vector a = (a_0 <= ... <= a_{n-1}),
a_0 >= 0.  A descending search finds these representatives: a_i is the
largest of a_0..a_i, so with r the norm a_{i+1}..a_{n-1} leave, a_i runs
over [ceil(sqrt(r / (i + 1))), min(a_{i+1}, isqrt(r))], and a_0 is one
isqrt.  So the search visits no prefix that cannot be completed over the
reals, and never the prefixes of the shell itself.  Each representative
expands to its distinct permutations, and each permutation takes both
signs on every nonzero entry but its last, which stays positive: the sign
convention above.  With ``last_positive`` the permutations with v[-1] = 0
are dropped.  The count is read after each orbit, so this route stops
within one orbit, at most 2^(n-1) n! vectors, of its limit.  The result is
sorted like the walk's and equal to it.

The isometry search (Plesken-Souvignier, "Computing isometries of
lattices", J. Symb. Comp. 24, 1997) is built on the shells.  ``isometries(a,
b)`` yields every integer U with U a U^T = b, row by row: row j runs over
the shell of norm b[j][j] under a, the half-shell of ``vectors_with_norm``
first and then the same vectors negated, and a candidate is kept when it
meets every earlier row i in b[i][j].  The rows fixed so far have Gram the
leading block of b, which is positive definite, so they are independent
and the search needs no rank test.  A shell with more than ``POOL_CAP``
vectors per sign pair raises ``SearchBoundError``; the same cap bounds
SO_Q(Z), the equivalence test and the canonicalization pool of ``shapes``.
"""

from itertools import product
from math import inf, isqrt, lcm
from operator import mul

from . import exact

POOL_CAP = 20000


class BoundExceededError(RuntimeError):
    """Raised when an enumeration walks more than ``limit`` candidates."""

    def __init__(self, count, limit):
        super().__init__("candidate bound exceeded: %d vectors (limit %d)" % (count, limit))
        self.count, self.limit = count, limit


class SearchBoundError(RuntimeError):
    """Raised when an isometry or canonicalization search would need to
    enumerate more candidate vectors than the configured cap."""


def _walk(gram, bound, norms=None, last_positive=False, limit=inf):
    """Sorted (norm, v) with 0 < norm <= bound, one v per sign pair, or
    only the v whose norm is in ``norms`` when given (bound = max(norms)).
    With ``last_positive`` the outer coordinate v[-1] starts at 1, so the
    layer v[-1] = 0 is never walked.  A step of x_i (i > 1) or an x_1 row of
    the ball that passes ``limit`` ends the walk; the end raises, and also
    catches the fixed-norm x_1 rows, which are not checked on their own.

    ``rec`` recurses down to level 1, where (x_1, x_0) is one flat loop:
    S_0 = s0 + U[0][1] x_1, and x_0 is solved, not scanned, for fixed norms
    and ranged for the ball.  n = 1 walks diag(a, a bound + 1), whose x_1
    is pinned to 0, and cuts x_1 from the output; there both sign
    conventions mean v[0] > 0, so that walk runs without ``last_positive``,
    which would start x_1 at 1.

    Fixed norms on the identity Gram (n >= 2) take the identity route,
    ``_orbit_shells``, and walk no prefix: each orbit of a sorted absolute
    vector under signed permutations, signed so that the last nonzero entry
    is positive (v[-1] > 0 under ``last_positive``), with the count read
    after each orbit, so it raises within one orbit of ``limit``.  Its list
    equals the walk's, order included.  The ball and every other Gram are
    walked."""
    rows, minors = exact.ldl_int(gram)
    n = len(rows)
    if bound < 1 or not n:
        return []
    if n == 1:
        a = minors[0]
        pinned = _walk(((a, 0), (0, a * bound + 1)), bound, norms, False, limit)
        return [(t, v[:1]) for t, v in pinned]
    if norms is not None and all(x == (i == j) for i, r in enumerate(gram) for j, x in enumerate(r)):
        return _orbit_shells(n, norms, last_positive, limit)
    d = [1] + minors
    lam = lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [lam // (d[i] * d[i + 1]) for i in range(n)]
    # a prefix with budget r leaves r - lam (bound - N) for the norm N;
    # largest N first, so the first N out of reach ends the x_0 solve
    shells = None if norms is None else [(t, lam * (bound - t)) for t in sorted(norms, reverse=True)]
    tails = [r[i + 1:] for i, r in enumerate(rows)]
    p0, w0, u01, u0 = minors[0], w[0], rows[0][1], rows[0][2:]
    out = []
    x = [0] * n

    def rec(i, r, nonzero):
        p, wi = minors[i], w[i]
        s = sum(map(mul, tails[i], x[i + 1:]))
        h = isqrt(r // wi)
        lo, hi = -((h + s) // p), (h - s) // p
        if not nonzero:
            # outer coordinates all zero: keep the canonical sign only
            lo = max(lo, int(last_positive))
        if i > 1:
            for xi in range(lo, hi + 1):
                x[i] = xi
                y = p * xi + s
                rec(i - 1, r - wi * y * y, nonzero or xi != 0)
                if len(out) > limit:
                    break
            x[i] = 0
            return
        tail = tuple(x[2:])
        s0 = sum(map(mul, u0, tail))
        for x1 in range(lo, hi + 1):
            y = p * x1 + s
            left = r - wi * y * y
            s1 = s0 + u01 * x1
            v = (x1,) + tail
            nz = nonzero or x1 != 0
            if shells is None:
                h0 = isqrt(left // w0)
                lo0 = -((h0 + s1) // p0)
                for x0 in range(lo0 if nz else max(lo0, 1), (h0 - s1) // p0 + 1):
                    y = p0 * x0 + s1
                    out.append((bound - (left - w0 * y * y) // lam, (x0,) + v))
                if len(out) > limit:
                    return
                continue
            for norm, off in shells:
                if left < off:
                    break
                t2, m = divmod(left - off, w0)
                t = isqrt(t2)
                if m or t * t != t2:
                    continue
                for y in {t, -t}:
                    x0, m = divmod(y - s1, p0)
                    if not m and (nz or x0 > 0):
                        out.append((norm, (x0,) + v))

    rec(n - 1, lam * bound, False)
    if len(out) > limit:
        raise BoundExceededError(len(out), limit)
    out.sort()
    return out


def _orbit_shells(n, norms, last_positive, limit):
    """Sorted (norm, v) with v v^T in ``norms``, one v per sign pair, on
    Z^n (n >= 2), orbit by orbit under the signed permutations as the
    module docstring says; raises past ``limit`` after the orbit that
    passes it."""
    out = []
    for norm in norms:
        for a in _sorted_squares(n, norm):
            for p in _distinct_permutations(a):
                if last_positive and not p[-1]:
                    continue
                signs = [(x, -x) if x else (0,) for x in p]
                last = max(i for i, x in enumerate(p) if x)
                signs[last] = (p[last],)
                out.extend((norm, v) for v in product(*signs))
            if len(out) > limit:
                raise BoundExceededError(len(out), limit)
    out.sort()
    return out


def _sorted_squares(n, norm):
    """Every a_0 <= ... <= a_{n-1} with a_0 >= 0 and sum a_i^2 == norm
    (n >= 2), by a descending search in which a_i, the largest of
    a_0..a_i, satisfies (i + 1) a_i^2 >= r for the r left to them."""
    a = [0] * n

    def rec(i, r, top):
        c = -(-r // (i + 1))
        lo = isqrt(c - 1) + 1 if c else 0
        for ai in range(lo, min(top, isqrt(r)) + 1):
            left = r - ai * ai
            if i > 1:
                a[i] = ai
                yield from rec(i - 1, left, ai)
                continue
            # 2 a_1^2 >= r, so a_0 = sqrt(left) <= a_1
            a0 = isqrt(left)
            if a0 * a0 == left:
                yield (a0, ai) + tuple(a[2:])

    return rec(n - 1, norm, norm) if norm > 0 else ()


def _distinct_permutations(a):
    """The distinct permutations of the sorted tuple ``a``, each once, by
    the next-permutation step (Narayana): n!/prod(m_j!) of them for the
    multiplicities m_j, not n!."""
    p = list(a)
    n = len(p)
    while True:
        yield tuple(p)
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


def short_vectors(gram, bound, last_positive=False, limit=inf):
    """All (norm, v) with 0 < v G v^T <= bound, one per sign pair.

    Sorted by (norm, vector).  ``gram`` is any sequence of int rows of an
    integral symmetric positive definite matrix; norms are plain ints.
    With ``last_positive`` only the v with v[-1] > 0 are walked.  Raises
    ``BoundExceededError`` past ``limit`` vectors (default: none).
    """
    return _walk(gram, bound, None, last_positive, limit)


def vectors_with_norm(gram, target):
    """All v with v G v^T == target exactly, one per sign pair, sorted.

    The innermost coordinate is solved as a quadratic instead of scanned,
    so the cost is governed by the number of partial prefixes with norm
    budget left, not by the target itself.
    """
    return [v for _, v in _walk(gram, target, (target,))]


def vectors_with_norms(gram, norms, last_positive=False, limit=inf):
    """All (norm, v) with v G v^T in ``norms``, one per sign pair, sorted
    by (norm, vector): one walk of the prefixes up to max(norms), whose
    innermost coordinate is solved once per norm.  With ``last_positive``
    only the v with v[-1] > 0 are walked.  Raises ``BoundExceededError``
    past ``limit`` vectors (default: none).
    """
    norms = set(norms)
    return _walk(gram, max(norms, default=0), norms, last_positive, limit)


def isometries(a, b):
    """Every integer U, as a tuple of row tuples, with U a U^T == b.

    Rows are searched as the module docstring says; each shell vector's
    image v a is computed once.  The shells are built and capped when
    ``isometries`` is called, and the U are found lazily.  Raises
    ``SearchBoundError`` when a half-shell exceeds ``POOL_CAP`` vectors.
    """
    k = len(b)
    shells = {}
    for j in range(k):
        t = b[j][j]
        if t not in shells:
            half = vectors_with_norm(a, t)
            if len(half) > POOL_CAP:
                raise SearchBoundError(
                    "isometry search pool too large: %d vectors" % len(half)
                )
            shell = half + [tuple(-x for x in v) for v in half]
            shells[t] = [(v, exact.vec_mat(v, a)) for v in shell]
    cols = list(zip(*b))
    rows = [None] * k
    images = [None] * k

    def rec(j):
        if j == k:
            yield tuple(rows)
            return
        bj = cols[j]
        for v, va in shells[bj[j]]:
            for i in range(j):
                if sum(map(mul, images[i], v)) != bj[i]:
                    break
            else:
                rows[j], images[j] = v, va
                yield from rec(j + 1)

    return rec(0)
