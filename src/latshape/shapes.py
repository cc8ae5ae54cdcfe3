"""Shape classes of definite lattices and the real moduli pipeline.

The exact half canonicalizes restricted Gram matrices up to unimodular
base change and positive scaling.  It decides GL_k(Z)-equivalence of two
Grams with ``kernel.isometries``, the shell search that also builds
SO_Q(Z), and its canonicalization pool is bounded by that search's cap.
The float half builds the matrix data (rho, alpha, a, m) attached to a
subspace and recovers both shapes from it; exact arithmetic remains the
source of truth, the float pipeline is validated against it by residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, Optional, Tuple

import numpy as np

from . import exact
from . import kernel
from . import quadform
from .kernel import SearchBoundError


@dataclass(frozen=True)
class ShapeClass:
    """Similarity class of a definite form: primitive reduced Gram plus
    the positive scale stripped while normalizing.

    Equality and hashing use only canonical_gram: two lattices have the
    same shape exactly when their canonical Grams agree, whatever scale
    they sat at.  Raises ``ValueError`` on a non-integral Gram entry or a
    scale that is not positive.
    """

    canonical_gram: Tuple[Tuple[int, ...], ...]
    scale: Fraction = field(compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "canonical_gram",
            tuple(tuple(row) for row in exact.integral_rows(self.canonical_gram)),
        )
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def to_json(self):
        return {
            "canonical_gram": [list(r) for r in self.canonical_gram],
            "scale": exact.frac_str(self.scale),
        }


@dataclass(frozen=True)
class UpperHalfPoint:
    """Fundamental-domain representative of a binary shape: |x| <= 1/2
    and x^2 + y^2 >= 1, boundary ties resolved toward x <= 0."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError("y must be positive")


def _reduce_binary(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """SL_2(Z)-reduced form of the PD binary Gram [[a, b], [b, c]]:
    |2b| <= a <= c, with b >= 0 when 2|b| = a or a = c."""
    while True:
        t = (2 * b + a) // (2 * a)  # nearest integer to b/a
        c += t * t * a - 2 * t * b
        b -= t * a
        if a <= c:
            break
        a, b, c = c, -b, a
    if b < 0 and (2 * b == -a or a == c):
        b = -b
    return a, b, c


def _grow_gram(gram, dots, norm):
    """The Gram of rows r_1..r_j, v from that of the r_i, the products
    <r_i, v> and <v, v>; None when v depends on the r_i.  The form is
    positive definite, so independence is a positive determinant."""
    grown = [row + [x] for row, x in zip(gram, dots)] + [dots + [norm]]
    return grown if exact.det_int(grown) > 0 else None


def _pool_vectors(ig) -> List[Tuple[int, Tuple[int, ...]]]:
    # all +-pairs of norm up to the k-th successive minimum; the basis
    # diagonal bounds that minimum, so one sweep suffices
    k = len(ig)
    bound = max(ig[i][i] for i in range(k))
    vecs = kernel.short_vectors(ig, bound)
    if len(vecs) > kernel.POOL_CAP:
        raise SearchBoundError(
            "canonicalization pool too large: %d vectors" % len(vecs)
        )
    images: List[List[int]] = []
    gram: List[List[int]] = []
    lam_k = None
    for norm, v in vecs:
        grown = _grow_gram(gram, [sum(map(mul, w, v)) for w in images], norm)
        if grown is not None:
            gram = grown
            images.append(exact.vec_mat(v, ig))
        if len(gram) == k:
            lam_k = norm
            break
    assert lam_k is not None
    return [(norm, v) for norm, v in vecs if norm <= lam_k]


def _canonical_gram(ig) -> Tuple[Tuple[int, ...], ...]:
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
    for norm, v in _pool_vectors(ig):
        pool.append((norm, v))
        pool.append((norm, tuple(-x for x in v)))
    pool.sort(key=lambda t: (t[0], t[1]))
    image = {v: exact.vec_mat(v, ig) for _, v in pool}

    def bilin(u, w):
        return sum(map(mul, image[u], w))

    best_gram: Optional[List[List[int]]] = None
    best_key: Optional[Tuple[Tuple[int, ...], ...]] = None

    # key = per-depth Gram columns; prune against best only while the
    # prefix still ties it
    def extend(rows, gram, key, tied):
        nonlocal best_gram, best_key
        depth = len(rows)
        if depth == k:
            if exact.det_int(rows) in (1, -1):
                if best_key is None or key < best_key:
                    best_key, best_gram = key, gram
            return
        for norm, v in pool:
            dots = [bilin(r, v) for r in rows]
            col = (norm,) + tuple((abs(x), 0 if x >= 0 else 1) for x in dots)
            still = tied
            if tied and best_key is not None:
                if col > best_key[depth]:
                    continue
                still = col == best_key[depth]
            grown = _grow_gram(gram, dots, norm)
            if grown is None:
                continue
            extend(rows + [v], grown, key + (col,), still)

    extend([], [], (), True)
    assert best_gram is not None, "pool contained no unimodular basis"
    return tuple(tuple(row) for row in best_gram)


def shape(q: quadform.QuadraticForm, lam) -> ShapeClass:
    """Similarity class of the form restricted to the lattice.

    Accepts a Lattice, a Subspace (its integer-point lattice is used), or
    raw basis rows.  Content is stripped first, the primitive integral
    Gram is canonicalized, and the stripped factor is reported as scale.
    """
    gram = quadform.gram_restriction(q, lam)
    if not gram:
        raise ValueError("shape of a rank-zero lattice is undefined")
    den, ig = exact.scale_to_int(gram)
    content, prim = quadform.content_and_primitive(ig)
    exact.ldl_int(prim)  # raises unless positive definite
    return ShapeClass(_canonical_gram(prim), Fraction(content, den))


def forms_equivalent(g1, g2) -> bool:
    """Whether two integral PD Grams are GL_k(Z)-equivalent.

    Equal rank and determinant are checked first; then the grams are
    equivalent exactly when ``kernel.isometries`` finds one U with
    U g1 U^T = g2, which the equal determinants make unimodular.  Raises
    ``ValueError`` on a non-integral entry or a Gram that is not positive
    definite, and ``SearchBoundError`` when a shell exceeds the search's
    cap.
    """
    a = exact.integral_rows(g1)
    b = exact.integral_rows(g2)
    if len(a) != len(b):
        return False
    if not a:
        return True
    # the last leading minor is the determinant
    if exact.ldl_int(a)[1][-1] != exact.ldl_int(b)[1][-1]:
        return False
    return next(kernel.isometries(a, b), None) is not None


def upper_half_point(gram) -> UpperHalfPoint:
    """Fundamental-domain point of a binary PD Gram [[a,b],[b,c]]: the
    root z = (-b + i sqrt(ac - b^2))/a of the SL_2(Z)-reduced form.
    Scaling-invariant by construction."""
    _, ((a, b), (b_low, c)) = exact.scale_to_int(gram)
    if b_low != b:
        raise ValueError("gram must be symmetric")
    if a <= 0 or a * c - b * b <= 0:
        raise ValueError("form is not positive definite")
    a, b, c = _reduce_binary(a, b, c)
    # int true division rounds correctly, so x and y^2 are the nearest floats
    return UpperHalfPoint(-b / a, math.sqrt((a * c - b * b) / (a * a)))


def grassmann_coordinates(L: quadform.Subspace) -> np.ndarray:
    """Float matrix of the Q-orthogonal projection onto L, acting on
    column vectors: P^2 = P, P M_Q^{-1} symmetric, trace k."""
    p = quadform.projection_matrix(L.form, L)
    return np.array([[float(x) for x in row] for row in p], dtype=float).T


@dataclass(eq=False)
class ModuliPoint:
    """Matrix data (rho, alpha, a, m) realizing a subspace-with-lattice
    pair as a point of the block-triangular coset space."""

    form: quadform.QuadraticForm
    rho: np.ndarray
    alpha: float
    a: np.ndarray
    m: np.ndarray
    g_l: np.ndarray
    g_q: np.ndarray
    k: int
    lam: float

    def residuals(self) -> dict:
        n = self.form.n
        k = self.k
        mq = np.array([[float(x) for x in row] for row in self.form.gram])
        iso = np.abs(self.rho.T @ mq @ self.rho - mq).max()
        lower = np.abs(self.m[k:, :k]).max() if k < n else 0.0
        det1 = abs(abs(np.linalg.det(self.m[:k, :k])) - 1.0)
        det2 = abs(abs(np.linalg.det(self.m[k:, k:])) - 1.0) if k < n else 0.0
        factor = np.abs(
            self.m - self.a @ self.rho @ (self.alpha * self.g_l)
        ).max()
        cho = np.abs(self.g_q.T @ self.g_q - mq).max()
        return {
            "rho_isometry": float(iso),
            "m_lower_block": float(lower),
            "pi1_det": float(det1),
            "pi2_det": float(det2),
            "m_factorization": float(factor),
            "gq_factorization": float(cho),
        }


def _gram_schmidt_q(mq: np.ndarray, cols: np.ndarray) -> np.ndarray:
    n = cols.shape[1]
    out = cols.astype(float).copy()
    for i in range(n):
        v = out[:, i]
        for j in range(i):
            v = v - (out[:, j] @ mq @ v) * out[:, j]
        nrm = math.sqrt(v @ mq @ v)
        out[:, i] = v / nrm
    return out


def moduli_point(
    q: quadform.QuadraticForm,
    L: quadform.Subspace,
    lam: Optional[quadform.Lattice] = None,
) -> ModuliPoint:
    """Builds g_L, alpha_L, rho_L, a_L and m_L = a rho alpha g_L.

    Column convention throughout: columns of g_L are a basis of the
    attached full lattice, the first k of them a basis of L(Z) (so the
    determinant is positive after a sign fix on the last column).
    """
    n, k = q.n, L.k
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if lam is None:
        lam = quadform.lambda_L(q, L)[0]
    lam_rows = [list(r) for r in lam.basis]
    coords = exact.lattice_coordinates(lam_rows, [list(r) for r in L.basis])
    if coords is None:
        raise ValueError("L(Z) is not inside the given lattice")
    u = exact.complete_to_unimodular(coords)
    basis_rows = exact.mat_mul(u, lam_rows)
    # size-reduce the completion rows against L(Z): subtract the rounded
    # coordinates c = r M B^T adj(G) / det G of their projection onto
    # span L.  The lattice and det are kept and g_L stays well conditioned.
    mbt = exact.mat_mul(q.gram, exact.transpose(L.basis))
    adj, gdet = exact.adjugate(exact.mat_mul(L.basis, mbt))
    for i in range(k, n):
        c = exact.vec_mat(exact.vec_mat(basis_rows[i], mbt), adj)
        t = [(2 * x + gdet) // (2 * gdet) for x in c]
        shift = exact.vec_mat(t, L.basis)
        basis_rows[i] = [x - y for x, y in zip(basis_rows[i], shift)]
    det = exact.det_fraction(basis_rows)
    if det < 0:
        basis_rows[-1] = [-x for x in basis_rows[-1]]
        det = -det
    g_l = np.array(
        [[float(x) for x in row] for row in basis_rows], dtype=float
    ).T
    alpha = float(det) ** (-1.0 / n)

    mq = np.array([[float(x) for x in row] for row in q.gram])
    perp = quadform.orth_complement(q, L)
    frame_cols = np.array(
        [[float(x) for x in row] for row in list(L.basis) + list(perp.basis)],
        dtype=float,
    ).T
    f = _gram_schmidt_q(mq, frame_cols)
    g_q = np.linalg.cholesky(mq).T
    rho = np.linalg.solve(g_q, np.eye(n)) @ np.linalg.inv(f)
    if np.linalg.det(rho) < 0:
        f[:, -1] = -f[:, -1]
        rho = np.linalg.solve(g_q, np.eye(n)) @ np.linalg.inv(f)

    m0 = rho @ (alpha * g_l)
    lam_scalar = abs(np.linalg.det(m0[:k, :k])) ** (-1.0 / k)
    a = np.diag(
        [lam_scalar] * k + [lam_scalar ** (-k / (n - k))] * (n - k)
    )
    m = a @ m0
    return ModuliPoint(
        form=q, rho=rho, alpha=alpha, a=a, m=m,
        g_l=g_l, g_q=g_q, k=k, lam=lam_scalar,
    )


def shapes_from_moduli(
    q: quadform.QuadraticForm, point: ModuliPoint
) -> Tuple[np.ndarray, np.ndarray]:
    """Real Grams of the two shapes read off the moduli data: the
    upper-left block of g_Q m gives [L(Z)], the inverse-transpose of the
    bottom-right block gives [L^perp(Z)]."""
    k = point.k
    t = point.g_q @ point.m
    a_blk = t[:k, :k]
    d_blk = t[k:, k:]
    gram_l = a_blk.T @ a_blk
    dinv_t = np.linalg.inv(d_blk).T
    gram_perp = dinv_t.T @ dinv_t
    return gram_l, gram_perp
