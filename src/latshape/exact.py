"""Exact linear algebra over the integers and rationals.

Everything in this module is pure Python over arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point.  Matrices are lists of lists, rows
first.  The three workhorses are the row Hermite normal form, the Smith
normal form, and saturation; callers solve lattice membership and
completion problems with them.  The p-adic valuation and unit square class
shared by the invariant modules live here too, below every module that
needs them, and so does the wedge of integer rows (their Plücker vector),
which keys subspaces in the vector DFS and in the orbit map.  This module
owns the Plücker format: ``wedge_steps`` fixes the order of the column sets
and ``signed`` the sign (first nonzero entry positive); every wedge,
Plücker key and k-th compound elsewhere comes from ``wedge``,
``extend_wedge``, ``signed`` and ``compound``.

Each normal form has one elimination loop, ``hnf_basis`` and ``_smith``;
transformations are read off identity borders.  ``hnf`` reduces
``[mat | I]``, ``kernel_basis`` reduces ``[mat^T | I]`` and ``snf`` the
top-left block of ``[[mat, I], [I, 0]]``.

Elimination is integer-only: HNF, SNF, kernels and saturation take integer
matrices, and so do the fraction-free (Bareiss) determinants, adjugates
and the ``ldl_int`` completion of a positive definite Gram, which also
decides positive definiteness.  ``Fraction`` appears only at the boundary:
a rational matrix enters as ``scale_to_int``'s ``(den, integer matrix)``,
and exact rationals leave as ``Fraction(x, den)``; ``det_fraction`` and
``inverse_fraction`` do both for rational determinants and inverses, and
``lattice_coordinates`` scales a rational basis and its vectors together.

Conventions:
  * ``hnf`` returns the unique fully reduced row HNF: pivots positive,
    entries above a pivot reduced into ``[0, pivot)``, zero rows at the
    bottom, pivot columns strictly increasing.
  * kernels are row spans: ``kernel_basis(A)`` spans ``{x : A @ x^T = 0}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul


# ---------------------------------------------------------------------------
# small helpers


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions (mixed is fine)."""
    if not a:
        return []
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def vec_mat(v, a):
    return [sum(map(mul, v, col)) for col in zip(*a)]


def mat_copy(mat):
    return [list(row) for row in mat]


def integral_rows(mat):
    """The matrix as lists of ints.  Integral values such as Fraction(4, 2)
    or 2.0 are accepted; raises ``ValueError`` on a non-integral entry."""
    rows = [[int(x) for x in row] for row in mat]
    if rows != [list(row) for row in mat]:
        raise ValueError("entries must be integers")
    return rows


def denominator_lcm(mat):
    """lcm of denominators of all entries (1 for all-integer input)."""
    return lcm(*(x.denominator for row in mat for x in row if isinstance(x, Fraction)))


def scale_to_int(mat):
    """(d, d*mat as ints), d the denominator lcm; ValueError on a non-integral float.

    A Fraction entry scales as numerator * (d // denominator), in integers.
    """
    d = denominator_lcm(mat)
    scaled = [
        [x.numerator * (d // x.denominator) if isinstance(x, Fraction) else x * d for x in row]
        for row in mat
    ]
    return d, integral_rows(scaled)


# ---------------------------------------------------------------------------
# Hermite normal form


def _bordered(mat):
    """``[mat | I]``: the border records every row operation."""
    m = len(mat)
    return [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(mat)]


def hnf_basis(mat):
    """Canonical basis of the row lattice of an integer matrix: the nonzero
    rows of its row HNF, pivots positive and entries above a pivot reduced
    into ``[0, pivot)``.  Rows may be dependent.  This is the one HNF
    elimination loop; ``hnf`` and ``kernel_basis`` run it on bordered
    matrices.
    """
    if not mat:
        return []
    h = mat_copy(mat)
    m, n = len(h), len(h[0])
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
        for i in range(row + 1, m):
            while h[i][col] != 0:
                q = h[row][col] // h[i][col]
                h[row] = [a - q * b for a, b in zip(h[row], h[i])]
                h[row], h[i] = h[i], h[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        pivots.append((row, col))
        row += 1
    # reduce entries above each pivot
    for prow, pcol in pivots:
        p = h[prow][pcol]
        for i in range(prow):
            q = h[i][pcol] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[prow])]
    # the rows below the last pivot are zero
    return h[:row]


def hnf(mat):
    """Row Hermite normal form of an integer matrix with transformation.

    Returns ``(H, U)`` with ``U`` unimodular, ``U @ mat == H``, and ``H``
    the unique canonical representative of the row lattice of ``mat``:
    pivot entries positive, every entry above a pivot reduced modulo it,
    zero rows last.  Rows may be dependent.

    ``hnf_basis([mat | I])`` is ``[H | U]``: its rows are independent,
    and pivots in the border only subtract rows with a zero head.
    """
    if not mat:
        return [], []
    n = len(mat[0])
    rows = hnf_basis(_bordered(mat))
    return [r[:n] for r in rows], [r[n:] for r in rows]


def rank_int(mat):
    return len(hnf_basis(mat)) if mat else 0


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_find_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _smith(a, m, n):
    """The one Smith loop: diagonalise the top-left m x n block of ``a`` in
    place and return its diagonal.  Row and column operations act on whole
    rows and columns, so borders right of and below the block record them.
    """

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        while True:
            piv = _snf_find_pivot(a, t, m, n)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
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
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [a[i][i] for i in range(min(m, n))]


def snf(mat):
    """Smith normal form of an integer matrix with transformations.

    Returns ``(d, U, V)`` with ``U @ mat @ V`` diagonal, ``d`` the list of
    ``min(m, n)`` diagonal entries, each nonnegative and ``d[i] | d[i+1]``.
    ``U`` and ``V`` are unimodular: the right and bottom borders of
    ``[[mat, I], [I, 0]]`` after the Smith loop.
    """
    if not mat:
        return [], [], []
    m, n = len(mat), len(mat[0])
    a = _bordered(mat) + [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    d = _smith(a, m, n)
    return d, [row[n:] for row in a[:m]], [row[:n] for row in a[m:]]


def invariant_factors(mat):
    """Nonzero diagonal of the Smith form: the Smith loop with no border."""
    if not mat:
        return []
    return [x for x in _smith(mat_copy(mat), len(mat), len(mat[0])) if x]


# ---------------------------------------------------------------------------
# kernels, saturation, completion


def kernel_basis(mat):
    """Canonical basis of the integer kernel ``{x in Z^n_cols : mat @ x^T = 0}``.

    ``mat`` is an integer matrix.  In ``hnf_basis([mat^T | I])`` the
    borders of the rows with a zero head are the kernel's reduced HNF.
    """
    if not mat:
        return []
    m = len(mat)
    return [r[m:] for r in hnf_basis(_bordered(transpose(mat))) if not any(r[:m])]


def saturate(basis):
    """Saturation of the row lattice inside Z^n.

    ``basis`` is a k x n integer matrix of rank k; the result is the
    canonical HNF basis of ``span_Q(rows) ∩ Z^n``.  When the gcd of the
    rows' k x k minors is 1 the rows already are a basis of it, and one
    HNF of the rows gives it; otherwise it is the kernel of the kernel.
    Raises ``ValueError`` when the rows are dependent.
    """
    if not basis:
        return []
    k, n = len(basis), len(basis[0])
    if gcd(*wedge(basis)) == 1:
        return hnf_basis(basis)
    ker = kernel_basis(basis)
    if len(ker) != n - k:
        raise ValueError("saturate: input rows are linearly dependent")
    if not ker:
        return identity(n)
    return kernel_basis(ker)


def complete_to_unimodular(c):
    """Extend a saturated k x n integer matrix to a unimodular n x n one.

    Returns an ``n x n`` unimodular matrix whose first ``k`` rows are exactly
    the rows of ``c``.  Requires that the rows of ``c`` span a saturated
    rank-``k`` sublattice of ``Z^n``.
    """
    k = len(c)
    d, _, v = snf(c)
    if any(x != 1 for x in d):
        raise ValueError("complete_to_unimodular: input is not saturated")
    vinv = inverse_unimodular(v)
    # rows of v^{-1} form a basis of Z^n whose first k rows span the same
    # lattice as c; swapping those k rows for c itself keeps det = +-1.
    return mat_copy(c) + vinv[k:]


def inverse_unimodular(mat):
    """Inverse of a unimodular integer matrix, as an integer matrix.

    The inverse is adj/det = det*adj, because det = +-1.  Raises
    ``ValueError`` when the matrix is not unimodular.
    """
    adj, det = adjugate(mat)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[det * x for x in row] for row in adj]


# ---------------------------------------------------------------------------
# wedges of integer rows (Plücker vectors)


@lru_cache(maxsize=64)
def wedge_steps(n, k):
    """Laplace tables that grow a wedge by one row, for depths 0..k-1.

    The wedge of d rows is the vector of their d x d minors, indexed by
    the column sets of ``itertools.combinations(range(n), d)``; the wedge
    of no rows is [1].  steps[d] lists, for each (d+1)-set J in turn, the
    pair (added, subtracted) of the terms (j, t) of the minor's expansion
    along the new row v, v[j] * wedge[t] with t indexing the d-set J minus
    j; the term of J's t-th column has sign (-1)^(d+t), so added is never
    empty.  The tables are cached and shared, so they are tuples.
    """
    steps = []
    for d in range(k):
        pos = {c: t for t, c in enumerate(combinations(range(n), d))}
        minors = []
        for J in combinations(range(n), d + 1):
            terms = [(J[t], pos[J[:t] + J[t + 1:]]) for t in range(d + 1)]
            minors.append((tuple(terms[d % 2::2]), tuple(terms[1 - d % 2::2])))
        steps.append(tuple(minors))
    return tuple(steps)


def extend_wedge(step, wedge, vec):
    """The wedge of the rows and vec, from the wedge of the rows and the
    step of ``wedge_steps`` at their depth.  Only products and sums touch
    the entries, so each entry of vec and wedge may also be an exact
    integer array (numpy ``dtype=object``) holding one coordinate of many
    row sets, whose wedges then come out together."""
    out = []
    for added, subtracted in step:
        j, t = added[0]
        x = vec[j] * wedge[t]
        for j, t in added[1:]:
            x = x + vec[j] * wedge[t]
        for j, t in subtracted:
            x = x - vec[j] * wedge[t]
        out.append(x)
    return out


def wedge(rows):
    """The wedge of one or more integer rows, in the order of
    ``wedge_steps``; the wedge of one row is the row.  A stack of m row
    sets, a numpy ``dtype=object`` array of shape m x k x n, transposed to
    k x n x m, gives every coordinate as an m-array (see ``extend_wedge``):
    column i of the result is the wedge of row set i."""
    out = rows[0]
    for step, row in zip(wedge_steps(len(out), len(rows))[1:], rows[1:]):
        out = extend_wedge(step, out, row)
    return out


def compound(mat, k):
    """The k-th compound of a square integer matrix: entry (I, J) is the
    minor on rows I and columns J, both k-sets in the order of
    ``wedge_steps``, so row I is the wedge of the rows I.  By Cauchy-Binet
    wedge(rows·mat) = wedge(rows)·compound(mat, k)."""
    return [wedge([mat[i] for i in rows]) for rows in combinations(range(len(mat)), k)]


def signed(w):
    """The wedge ``w`` as a tuple with its first nonzero entry positive (a
    zero wedge stays zero).  On a basis of a saturated lattice the wedge
    has content 1, so this is the primitive Plücker vector of its span,
    the same for every basis of the lattice."""
    return tuple(w) if next(filter(None, w), 0) >= 0 else tuple([-x for x in w])


# ---------------------------------------------------------------------------
# fraction-free (Bareiss) elimination over the integers
#
# Bareiss, Math. Comp. 22 (1968): after step k every entry is a (k+1)-minor
# of the input, so dividing by the previous pivot is always exact.


def det_int(mat):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    n = len(mat)
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * rk[j]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


def ldl_int(gram):
    """Fraction-free LDL^T of a symmetric positive definite integer matrix.

    Bareiss elimination without row swaps.  Returns ``(rows, minors)``:
    ``rows[i]`` is row i of the echelon form, zero left of the diagonal,
    whose entry j >= i is the minor on rows 0..i and columns 0..i-1, j;
    ``minors[i] = rows[i][i]`` is the leading principal minor D_{i+1}.
    With D_0 = 1 and y_i = sum_j rows[i][j] x_j,

        x gram x^T = sum_i y_i^2 / (D_i D_{i+1}).

    Raises ``ValueError`` at the first leading minor <= 0, so it succeeds
    exactly on positive definite input.
    """
    rows = [[0] * i + r[i:] for i, r in enumerate(bareiss(gram, len(gram)))]
    return rows, [r[i] for i, r in enumerate(rows)]


def bareiss(gram, steps):
    """``ldl_int``'s elimination stopped after ``steps`` = k pivots: for
    [[G, B], [B^T, C]] with a k x k block G, the trailing block of the
    result is det(G) (C - B^T G^-1 B) (Sylvester's identity)."""
    n = len(gram)
    a = [list(row) for row in gram]
    prev = 1
    for k in range(steps):
        p, rk = a[k][k], a[k]
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * rk[j]) // prev
        prev = p
    return a


def adjugate(mat):
    """``(adj, det)`` of a square integer matrix, with adj @ mat == det * I.

    Fraction-free Gauss-Jordan elimination on [mat | I]: it ends at
    [d*I | E] with E @ mat' == d*I for the row-permuted mat', so E is the
    adjugate up to the permutation's sign.  A singular matrix falls back to
    cofactors, each a Bareiss determinant.
    """
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            def cofactor(i, j):
                minor = [r[:j] + r[j + 1:] for t, r in enumerate(mat) if t != i]
                return (-1) ** (i + j) * det_int(minor)

            return [[cofactor(i, j) for i in range(n)] for j in range(n)], 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, rk = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def det_fraction(mat):
    """Determinant of a square rational matrix: det(d*mat) / d^n by Bareiss."""
    d, imat = scale_to_int(mat)
    return Fraction(det_int(imat), d ** len(imat))


def inverse_fraction(mat):
    """Inverse of a square rational matrix: d * adj(d*mat) / det(d*mat).

    Raises ``ValueError`` on a singular matrix.
    """
    d, imat = scale_to_int(mat)
    adj, det = adjugate(imat)
    if det == 0:
        raise ValueError("matrix is singular")
    return [[Fraction(d * x, det) for x in row] for row in adj]


def lattice_coordinates(basis, vectors):
    """Integer coordinate matrix X with ``X @ basis == vectors``, or None.

    ``basis`` is a k x n matrix over Q whose rows may be dependent, and
    ``vectors`` are length-n rows over Q.  Basis and vectors are scaled to
    integers together, and one Smith form ``U basis V = D`` serves every
    vector v: ``x @ basis = v`` holds for ``x = y @ U`` with
    ``y D = v V``.  Returns None when some vector is outside the lattice
    (non-integral coordinates or outside the span).
    """
    if not basis:
        return None if any(any(v) for v in vectors) else [[] for _ in vectors]
    k, n = len(basis), len(basis[0])
    _, scaled = scale_to_int([list(r) for r in basis] + [list(v) for v in vectors])
    d, u, v = snf(scaled[:k])
    d += [0] * (n - len(d))
    pad = [0] * (k - n)
    out = []
    for b in scaled[k:]:
        c = vec_mat(b, v)
        if any(ci % di if di else ci for ci, di in zip(c, d)):
            return None
        y = [ci // di if di else 0 for ci, di in zip(c[:k], d)] + pad
        out.append(vec_mat(y, u))
    return out


def quotient_invariants(sub, sup):
    """Invariant factors of the finite quotient (sup lattice)/(sub lattice).

    Both arguments are basis matrices (integer or rational entries) of
    lattices of the same rank with ``sub ⊆ sup``.  Returns the full list
    ``d_1 | d_2 | ... | d_k`` including unit factors.  Raises ``ValueError``
    when ranks differ or ``sub`` is not a sublattice of ``sup``.
    """
    if len(sub) != len(sup):
        raise ValueError("quotient_invariants: rank mismatch")
    x = lattice_coordinates(sup, sub)
    if x is None:
        raise ValueError("quotient_invariants: first lattice is not contained in second")
    d = invariant_factors(x)
    if len(d) != len(sub):
        raise ValueError("quotient_invariants: sublattice has smaller rank")
    return d


# ---------------------------------------------------------------------------
# canonical rational lattice bases


def rational_hnf_basis(rows):
    """Canonical basis of the lattice generated by rational ``rows``.

    Scales to an integer matrix, drops dependent generators via HNF, and
    scales back.  The result is unique for the generated lattice.
    """
    if not rows:
        return []
    d, irows = scale_to_int(rows)
    basis = hnf_basis(irows)
    if d == 1:
        return [list(r) for r in basis]
    return [[Fraction(x, d) for x in row] for row in basis]


def solve_integral(a_rows, rhs):
    """One integer solution ``x`` of ``x @ a_rows == rhs``, or None: the
    one-vector case of ``lattice_coordinates``."""
    x = lattice_coordinates(a_rows, [rhs])
    return None if x is None else x[0]


def frac_str(x):
    """Render a rational as the JSON string form 'num/den' (or 'num')."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# p-adic helpers


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero rational (int or Fraction).  Raises
    ``ValueError`` on x = 0 and on p < 2, where no valuation exists (at
    p = 1 the division loop would never end)."""
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2, got {p}")
    if x == 0:
        raise ValueError("valuation of zero")
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_square_class(u: int, p: int) -> int:
    """Square class of a p-adic unit u: its residue mod 8 for p = 2, the
    Legendre symbol (u/p) for odd p."""
    if p == 2:
        return u % 8
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1
