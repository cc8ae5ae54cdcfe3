"""Fraction routines, kept as independent test oracles.

The package eliminates over the integers only (Bareiss determinants and
adjugates, HNF/SNF solves).  These routines do the same jobs by plain
Gaussian elimination over ``fractions.Fraction``, so the tests can check
the integer routines against a second, unrelated implementation.

The package also reduces binary forms over the integers only.
``gauss_reduce`` and ``upper_half_point`` are the earlier rational
versions: a GL_2(Z) reduction that rounds b/a as a Fraction, and the
modular-group reduction of the root z = x + iy carried out on (x, y^2).

The package enumerates short vectors by an integer (fraction-free) walk.
``short_vectors`` and ``vectors_with_norm`` are the earlier Fincke-Pohst
search over a ``Fraction`` quadratic completion, with ``Fraction`` interval
endpoints and the innermost coordinate of a shell solved as a quadratic.

The package's HNF and SNF are single elimination loops that carry their
transformations as identity borders of the matrix they reduce.  ``hnf`` and
``snf`` are the earlier versions, which update separate transformation
matrices beside the eliminated one, and ``kernel_basis`` is the earlier
two-pass kernel: the transformation rows of ``hnf`` facing zero rows,
canonicalised by a second HNF.

The package runs one isometry search, ``kernel.isometries``, for both
SO_Q(Z) and GL_k(Z)-equivalence.  ``special_orthogonal_group`` and
``forms_equivalent`` are the earlier two searches, kept verbatim: one
matches columns against the Gram with its own pairing, the other matches
rows with its own bilinear form, a rank test per candidate and its own
pool cap.  The group is compared element for element and in order.

The package decides whether the image T̄ of L ∩ (Z^n)^# has a complement
in the discriminant group by one integer solve per cyclic factor of A/T̄.
``complement_lifts`` is the earlier version, kept verbatim with its
helpers: it lists every element of T̄ by a breadth-first walk (capped at
``_GROUP_CAP`` elements) and searches each generator's coset in sorted
order.  ``canonical_gram`` and ``pool_vectors`` are the earlier
canonicalization, which tests each candidate row for independence with a
full HNF (``exact.rank_int``) instead of the sign of a Gram determinant.

The experiment computes each SO_Q(Z)-orbit's record data once, on its
representative, and carries it to the members through the orbit map.
``_record`` is the earlier per-subspace record, kept verbatim: the
complement, both Grams, both contents, both shapes and the ``Fraction``
projection matrix of each subspace on its own.

The package keys each image g·L of the orbit map by its primitive Plücker
vector, the signed wedge of the image rows.  ``orbits`` is the earlier
version, kept verbatim but for the package names it reaches through
``quadform``: it keys each image by the HNF basis of the image rows
(``exact.hnf_basis``, one call per orbit and group element) and each
member by its stored basis.
"""

import math
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import List, Optional, Tuple

from latshape import exact, kernel, quadform, shapes
from latshape.experiment import RecordRow
from latshape.exact import identity, mat_copy, scale_to_int, transpose
from latshape.kernel import SearchBoundError
from latshape.quadform import (
    _disc_group,
    _group_coords,
    _group_vector,
    lattice_intersect_subspace,
    standard_dual,
)
from latshape.shapes import _reduce_binary

_POOL_CAP = 20000


def to_fraction_matrix(mat):
    return [[Fraction(x) for x in row] for row in mat]


def inverse_fraction(mat):
    """Exact inverse of a square matrix over Q (raises on singular input)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def det_fraction(mat):
    """Exact determinant over Q (returns a Fraction; int input gives integral value)."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def rank_fraction(mat):
    if not mat:
        return 0
    a = [[Fraction(x) for x in row] for row in mat]
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        for i in range(r + 1, m):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def solve_row_coordinates(basis, vector):
    """Coordinates of ``vector`` in the row span of ``basis`` over Q.

    ``basis`` must have independent rows.  Returns the coefficient list ``c``
    with ``c @ basis == vector``, or ``None`` when the vector lies outside
    the span.
    """
    k = len(basis)
    if k == 0:
        return [] if not any(vector) else None
    n = len(basis[0])
    # solve c * basis = vector  <=>  basis^T c^T = vector^T
    at = [[Fraction(basis[i][j]) for i in range(k)] for j in range(n)]
    b = [Fraction(x) for x in vector]
    # gaussian elimination on the n x k system
    rows = [at[j] + [b[j]] for j in range(n)]
    r = 0
    pivcols = []
    for col in range(k):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivcols.append(col)
        r += 1
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivcols):
        sol[col] = rows[i][k]
    # consistency: rows beyond rank must have zero rhs
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    return sol


def gauss_reduce(a, b, c):
    """GL_2(Z)-reduced triple of [[a, b], [b, c]]: 0 <= 2b <= a <= c."""
    while True:
        if a > c:
            a, c = c, a
        t = round(Fraction(b, a))
        if t:
            c += t * t * a - 2 * t * b
            b -= t * a
            continue
        if a > c:
            continue
        break
    return a, abs(b), c


def upper_half_point(gram):
    """(x, y) of the fundamental-domain point of a binary PD Gram, by exact
    modular reduction of (x, y^2) = (-b/a, (ac - b^2)/a^2)."""
    a, b, c = (Fraction(gram[0][0]), Fraction(gram[0][1]), Fraction(gram[1][1]))
    x = -b / a
    y2 = (a * c - b * b) / (a * a)
    while True:
        x -= round(x)
        norm2 = x * x + y2
        if norm2 >= 1:
            break
        x, y2 = -x / norm2, y2 / (norm2 * norm2)
    if x * x + y2 == 1 and x > 0:
        x = -x
    if x == Fraction(1, 2):
        x = -x
    return float(x), math.sqrt(float(y2))


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


def hnf(mat):
    """Row Hermite normal form with transformation.

    Returns ``(H, U)`` with ``U`` unimodular, ``U @ mat == H``, and ``H`` the
    unique canonical representative of the row lattice of ``mat``: pivot
    entries positive, every entry above a pivot reduced modulo it, zero rows
    last.

    The input must be an integer matrix; rows may be dependent.
    """
    if not mat:
        return [], []
    h = mat_copy(mat)
    m, n = len(h), len(h[0])
    u = identity(m)
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        # gcd-eliminate below position (row, col)
        pivot = None
        for i in range(row, m):
            if h[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        u[row], u[pivot] = u[pivot], u[row]
        for i in range(row + 1, m):
            while h[i][col] != 0:
                q = h[row][col] // h[i][col]
                h[row] = [a - q * b for a, b in zip(h[row], h[i])]
                u[row] = [a - q * b for a, b in zip(u[row], u[i])]
                h[row], h[i] = h[i], h[row]
                u[row], u[i] = u[i], u[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
            u[row] = [-a for a in u[row]]
        pivots.append((row, col))
        row += 1
    # reduce entries above each pivot
    for prow, pcol in pivots:
        p = h[prow][pcol]
        for i in range(prow):
            q = h[i][pcol] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[prow])]
                u[i] = [a - q * b for a, b in zip(u[i], u[prow])]
    return h, u


def hnf_basis(mat):
    """Nonzero rows of ``hnf(mat)``: the canonical basis of the row lattice."""
    h, _ = hnf(mat)
    return [row for row in h if any(row)]


def _snf_find_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def snf(mat):
    """Smith normal form with transformations.

    Returns ``(d, U, V)`` with ``U @ mat @ V`` diagonal, ``d`` the list of
    ``min(m, n)`` diagonal entries, each nonnegative and ``d[i] | d[i+1]``.
    ``U`` and ``V`` are unimodular.
    """
    if not mat:
        return [], [], []
    a = mat_copy(mat)
    m, n = len(a), len(a[0])
    u, v = identity(m), identity(n)

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(m):
            a[r][i] -= q * a[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(min(m, n)):
        while True:
            piv = _snf_find_pivot(a, t, m, n)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        dirty = True
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold offending row in and restart
        if t < min(m, n) and a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    d = [a[i][i] for i in range(min(m, n))]
    return d, u, v


def kernel_basis(mat):
    """Canonical basis of the integer kernel ``{x in Z^m_cols : mat @ x^T = 0}``.

    Accepts integer or Fraction entries; returns the HNF basis of the
    (automatically saturated) kernel lattice as rows of length ``n_cols``.
    """
    if not mat:
        return []
    _, imat = scale_to_int(mat)
    h, u = hnf(transpose(imat))
    # rows of u facing zero rows of h span the kernel lattice (saturated);
    # canonicalize for a stable answer.
    out = [u[i] for i in range(len(h)) if not any(h[i])]
    return hnf_basis(out) if out else []


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def special_orthogonal_group(gram):
    """All g ∈ SO_Q(Z), as row-major tuples.  Finite since M is definite.

    Columns are images of the standard basis vectors; candidates for
    column j are the lattice vectors of norm M_jj, matched back against
    the Gram entries while backtracking.
    """
    n = len(gram)
    cands = {}
    for j in range(n):
        t = gram[j][j]
        if t not in cands:
            half = kernel.vectors_with_norm(gram, t)
            cands[t] = [v for v in half] + [tuple(-x for x in v) for v in half]
    out = []
    cols = [None] * n

    def pair(v, w):
        return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    def rec(j):
        if j == n:
            g = [[cols[c][r] for c in range(n)] for r in range(n)]
            if exact.det_int(g) == 1:
                out.append(_freeze(g))
            return
        for v in cands[gram[j][j]]:
            if all(pair(cols[i], v) == gram[i][j] for i in range(j)):
                cols[j] = v
                rec(j + 1)
        cols[j] = None

    rec(0)
    return tuple(out)


def forms_equivalent(g1, g2) -> bool:
    """Whether two integral PD Grams are GL_k(Z)-equivalent, by
    norm-by-norm backtracking over short vectors.

    Raises ``ValueError`` on a non-integral entry or a Gram that is not
    positive definite.
    """
    a = exact.integral_rows(g1)
    b = exact.integral_rows(g2)
    if len(a) != len(b):
        return False
    k = len(a)
    if k == 0:
        return True
    # the last leading minor is the determinant
    if exact.ldl_int(a)[1][-1] != exact.ldl_int(b)[1][-1]:
        return False

    def bilin(u, w):
        return sum(u[i] * a[i][j] * w[j] for i in range(k) for j in range(k))

    cand: List[List[Tuple[int, ...]]] = []
    for i in range(k):
        vs = list(kernel.vectors_with_norm(a, b[i][i]))
        if len(vs) > _POOL_CAP:
            raise SearchBoundError("isometry search pool too large")
        cand.append([v for v in vs] + [tuple(-x for x in v) for v in vs])

    def extend(rows):
        depth = len(rows)
        if depth == k:
            return True
        for v in cand[depth]:
            if any(bilin(rows[j], v) != b[j][depth] for j in range(depth)):
                continue
            new_rows = rows + [v]
            if exact.rank_int(new_rows) <= depth:
                continue
            if extend(new_rows):
                return True
        return False

    return extend([])


_GROUP_CAP = 1 << 16


class GroupTooLargeError(RuntimeError):
    """Raised when a subgroup of the discriminant group has more than
    _GROUP_CAP elements, so listing it is refused."""


def _group_add(a, b, d):
    return tuple((x + y) % m for x, y, m in zip(a, b, d))


def _group_order(a, d):
    return lcm(*(m // gcd(m, x) if m else 1 for x, m in zip(a, d)))


def _subgroup_elements(gens, d, cap=_GROUP_CAP):
    zero = tuple(0 for _ in d)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _group_add(a, g, d)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise GroupTooLargeError("discriminant group too large")
        frontier = nxt
    return sorted(seen)


def complement_lifts(q, L):
    """Generators of a complement of the image of L ∩ (Z^n)^# in A, or None.

    A complement exists iff the quotient map A -> A/T̄ admits a group
    section; sections are found one cyclic factor at a time by searching
    each generator's coset for an element of the right order.
    """
    d, u, uinv = _disc_group(q)
    if all(x == 1 for x in d):
        return []
    t = lattice_intersect_subspace(standard_dual(q), L)
    tbar_gens = _group_coords(mat_copy(t.basis), d, uinv)
    tbar = _subgroup_elements(tbar_gens, d)
    # present A/T̄ by stacking the cyclic relations of A over T̄'s generators
    n = q.n
    rel = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rel += [list(a) for a in tbar_gens]
    m, _, v = exact.snf(rel)
    vinv = exact.inverse_unimodular(v)
    lifts = []
    for j in range(n):
        mj = m[j] if j < len(m) else 1
        if mj == 1:
            continue
        base = tuple(x % dd if dd else x for x, dd in zip(vinv[j], d))
        found = None
        for tt in tbar:
            cand = _group_add(base, tt, d)
            if mj % _group_order(cand, d) == 0:
                found = cand
                break
        if found is None:
            return None
        lifts.append(_group_vector(found, d, u))
    return lifts


def pool_vectors(ig) -> List[Tuple[int, Tuple[int, ...]]]:
    # all +-pairs of norm up to the k-th successive minimum; the basis
    # diagonal bounds that minimum, so one sweep suffices
    k = len(ig)
    bound = max(ig[i][i] for i in range(k))
    vecs = kernel.short_vectors(ig, bound)
    if len(vecs) > kernel.POOL_CAP:
        raise SearchBoundError(
            "canonicalization pool too large: %d vectors" % len(vecs)
        )
    rows: List[List[int]] = []
    lam_k = None
    for norm, v in vecs:
        rows.append(list(v))
        if exact.rank_int(rows) < len(rows):
            rows.pop()
        if len(rows) == k:
            lam_k = norm
            break
    assert lam_k is not None
    return [(norm, v) for norm, v in vecs if norm <= lam_k]


def canonical_gram(ig) -> Tuple[Tuple[int, ...], ...]:
    """Deterministic representative of the GL_k(Z)-class of an integral
    primitive PD Gram.

    The candidate pool is every vector of norm at most the k-th
    successive minimum (a class invariant); a basis within that pool
    exists for k <= 4.  The representative minimizes, column by column,
    (norm, |off-diagonal| entries with positive sign preferred) over
    unimodular tuples from the pool.
    """
    k = len(ig)
    if k == 1:
        return ((1,),)
    if k == 2:
        # the det -1 move y -> -y takes the SL_2 class to the GL_2 one
        a, b, c = _reduce_binary(ig[0][0], ig[0][1], ig[1][1])
        return ((a, abs(b)), (abs(b), c))
    if k > 4:
        raise SearchBoundError(
            "canonicalization implemented for rank <= 4, got %d" % k
        )
    pool = []
    for norm, v in pool_vectors(ig):
        pool.append((norm, v))
        pool.append((norm, tuple(-x for x in v)))
    pool.sort(key=lambda t: (t[0], t[1]))
    image = {v: exact.vec_mat(v, ig) for _, v in pool}

    def bilin(u, w):
        return sum(map(mul, image[u], w))

    best_u: Optional[List[Tuple[int, ...]]] = None
    best_key: Optional[Tuple[Tuple[int, ...], ...]] = None

    # key = per-depth Gram columns; prune against best only while the
    # prefix still ties it
    def extend(rows, key, tied):
        nonlocal best_u, best_key
        depth = len(rows)
        if depth == k:
            if exact.det_int(rows) in (1, -1):
                if best_key is None or key < best_key:
                    best_key, best_u = key, rows
            return
        for norm, v in pool:
            col = (norm,) + tuple(
                (abs(x), 0 if x >= 0 else 1)
                for x in (bilin(r, v) for r in rows)
            )
            still = tied
            if tied and best_key is not None:
                if col > best_key[depth]:
                    continue
                still = col == best_key[depth]
            new_rows = rows + [v]
            if exact.rank_int(new_rows) <= depth:
                continue
            extend(new_rows, key + (col,), still)

    extend([], (), True)
    assert best_u is not None, "pool contained no unimodular basis"
    u = best_u
    return tuple(
        tuple(bilin(u[i], u[j]) for j in range(k)) for i in range(k)
    )


def _record(q: quadform.QuadraticForm, sub: quadform.Subspace, stab: int) -> RecordRow:
    proj = shapes.grassmann_coordinates(sub)
    perp = quadform.orth_complement(q, sub)
    gram_l = quadform.gram_restriction(q, sub)
    gram_p = quadform.gram_restriction(q, perp)
    _, prim_l = quadform.content_and_primitive(gram_l)
    _, prim_p = quadform.content_and_primitive(gram_p)
    point_l = None
    if sub.k == 2:
        pt = shapes.upper_half_point(gram_l)
        point_l = (pt.x, pt.y)
    point_p = None
    if perp.k == 2:
        pt = shapes.upper_half_point(gram_p)
        point_p = (pt.x, pt.y)
    return RecordRow(
        disc=exact.det_int(gram_l),
        hnf=sub.hnf_key(),
        proj=tuple(float(x) for x in proj.reshape(-1)),
        shape_l=point_l,
        shape_perp=point_p,
        disc_prim_l=exact.det_int(prim_l),
        disc_prim_perp=exact.det_int(prim_p),
        stab_order=stab,
    )


def orbits(q: quadform.QuadraticForm, subs):
    """SO_Q(Z)-orbits of the subspaces ``subs`` and the orbit map: one
    ``OrbitEntry`` per subspace, aligned with ``subs``.

    The subspaces are walked in order.  Each one not yet covered is the
    representative of a new orbit: every g ∈ SO_Q(Z) maps its basis rows
    by row ↦ row·g^T, and the HNF basis of the image is g·L, since g is
    unimodular and keeps L(Z) saturated.  The distinct images form the
    orbit G·L; the members found in ``subs`` get its size |G·L|, the
    representative's index and the first g, in group order, whose image is
    that member.  Images outside ``subs`` are ignored, so the sizes are
    right even when ``subs`` is not G-invariant.  By orbit-stabiliser
    |Stab(L)| = |G| / |G·L|, the same for every member of an orbit
    (Plesken-Souvignier, "Computing isometries of lattices", J. Symb.
    Comp. 24, 1997).
    """
    subs = list(subs)
    index = {}
    for i, sub in enumerate(subs):
        index.setdefault(sub.basis, []).append(i)
    out = [None] * len(subs)
    group = quadform.special_orthogonal_group(q) if subs else ()
    for i, sub in enumerate(subs):
        if out[i] is not None:
            continue
        basis = sub.basis
        orbit = {}
        for g in group:
            rows = [[sum(a * b for a, b in zip(row, grow)) for grow in g] for row in basis]
            orbit.setdefault(_freeze(exact.hnf_basis(rows)), g)
        for image, g in orbit.items():
            for j in index.get(image, ()):
                out[j] = quadform.OrbitEntry(len(orbit), i, g)
    return out
