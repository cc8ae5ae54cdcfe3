"""Lattice invariants of rational subspaces of a quadratic space.

A form is given by an integral symmetric positive definite Gram matrix M
acting on row vectors, <x, y> = x M y^T.  A subspace L of Q^n is stored
through the canonical HNF basis of the saturated lattice L(Z) = L ∩ Z^n,
so structurally equal dataclasses describe the same subspace.  Lattices
(full rank or not, rational entries allowed) carry canonical rational
HNF bases with the same property.

A restricted Gram B M B^T is a plain tuple of rows: int entries on an
integer basis such as L(Z) or L^⊥(Z), Fraction entries only on a rational
lattice such as L^⊥ ∩ (Z^n)^#.

The invariants provided here, one function each: restricted Gram
matrices, discriminants (global and local), dual and projected lattices,
glue groups (whose local exponents give the p-parts), the index of L(Z)
in L ∩ (Z^n)^#, the content and primitive part of an integral Gram
(``content_and_primitive``; a rational Gram is scaled to an integral one
first), the distinguished lattice Λ_L between Z^n and its dual
(``lambda_L``), rational rotations, the integral special orthogonal group
SO_Q(Z), which the shell search ``kernel.isometries`` builds, and its
orbits on a list of subspaces, which give every stabiliser order by
orbit-stabiliser (``orbits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from . import exact
from . import kernel


def _freeze(rows):
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class QuadraticForm:
    """Integral symmetric positive definite form on Z^n."""

    gram: tuple

    def __post_init__(self):
        g = _freeze(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if type(g[i][j]) is not int:
                    raise ValueError("gram entries must be integers")
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        exact.ldl_int(g)  # raises unless positive definite

    @classmethod
    def sum_of_squares(cls, n: int) -> "QuadraticForm":
        return cls(exact.identity(n))

    @classmethod
    def diagonal(cls, entries) -> "QuadraticForm":
        n = len(entries)
        g = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(g)

    @property
    def n(self) -> int:
        return len(self.gram)

    def is_sum_of_squares(self) -> bool:
        return self.gram == _freeze(exact.identity(self.n))

    def disc(self) -> int:
        return exact.det_int(self.gram)

    def inverse_gram(self):
        return exact.inverse_fraction(self.gram)

    @classmethod
    def from_json(cls, obj) -> "QuadraticForm":
        """The form of a ``{"n", "gram"}`` payload; ``n`` is optional but
        must be an int (not 3.0 or true) equal to the Gram's size when
        given.  Raises ``ValueError`` on any other payload."""
        gram = obj.get("gram") if isinstance(obj, dict) else None
        if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
            raise ValueError('a form payload must be an object {"n": int, "gram": [[int]]}')
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != len(gram)):
            raise ValueError("declared n does not match the Gram matrix size")
        return cls(gram)


@dataclass(frozen=True)
class Lattice:
    """Lattice in Q^n given by a canonical rational HNF basis (rows)."""

    n: int
    basis: tuple

    @classmethod
    def from_rows(cls, n: int, rows) -> "Lattice":
        canon = exact.rational_hnf_basis(exact.mat_copy(rows)) if rows else []
        frozen = tuple(tuple(Fraction(x) for x in row) for row in canon)
        return cls(n, frozen)

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls.from_rows(n, exact.identity(n))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.rank == 0:
            return True
        coords = exact.lattice_coordinates(exact.mat_copy(self.basis), exact.mat_copy(other.basis))
        return coords is not None


@dataclass(frozen=True)
class Subspace:
    """Rational subspace, stored as the HNF basis of L(Z) = L ∩ Z^n."""

    form: QuadraticForm
    basis: tuple

    @classmethod
    def from_rows(cls, form: QuadraticForm, rows) -> "Subspace":
        """Span of independent integer rows, stored by its saturation;
        raises ``ValueError`` on a row whose length is not n, a non-integral
        entry or dependent rows."""
        if any(len(r) != form.n for r in rows):
            raise ValueError("basis rows must have length n = %d" % form.n)
        rows = exact.integral_rows(rows)
        return cls(form, _freeze(exact.saturate(rows) if rows else []))

    @classmethod
    def from_saturated_rows(cls, form: QuadraticForm, rows) -> "Subspace":
        """Cheap constructor for the rows of a Schmidt triple
        (``subspaces.schmidt_compose``), a basis of span ∩ Z^n in which
        rows[1:] is an HNF basis with a zero first column and rows[0] has a
        positive first entry.  The HNF rows with a pivot past column 0 are
        the HNF basis of the lattice's meet with x_0 = 0, which is rows[1:],
        so the HNF basis is rows[0] reduced at their pivots on top of them:
        one row operation per row, no gcd loop.  HNF uniqueness makes the
        result identical to ``from_rows`` whenever the rows are saturated."""
        top, *rest = rows
        return cls(form, (tuple(reduce_at_pivots(top, rest)),) + _freeze(rest))

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return self.form.n

    def hnf_key(self) -> str:
        return ";".join(str(x) for row in self.basis for x in row)

    def lattice(self) -> Lattice:
        return Lattice.from_rows(self.n, self.basis)

    def to_json(self):
        return {"hnf": self.hnf_key(), "basis": exact.mat_copy(self.basis)}


@dataclass(frozen=True)
class GlueGroup:
    """Invariant factors d_1 | d_2 | ... | d_k of L(Z)^#/L(Z), units kept."""

    factors: tuple

    @property
    def order(self) -> int:
        return prod(self.factors)

    def local_exponents(self, p: int):
        return [exact.valuation(d, p) for d in self.factors]


def reduce_at_pivots(top, rows):
    """``top`` reduced at the pivots of the HNF rows ``rows``: one row
    operation per row, each pivot entry of top brought into [0, pivot).  A
    row's pivot is its first nonzero entry, so top changes only from that
    column on."""
    for r in rows:
        p = next(filter(None, r))
        t = top[r.index(p)] // p
        if t:
            top = [a - t * b for a, b in zip(top, r)]
    return top


def _basis_rows(obj):
    if isinstance(obj, (Lattice, Subspace)):
        obj = obj.basis
    return exact.mat_copy(obj)


def gram_restriction(q: QuadraticForm, lat):
    """Gram matrix B M B^T of the form on the given lattice basis, as a
    tuple of rows: int entries for an integer basis (every Subspace),
    Fraction entries for a rational one."""
    rows = _basis_rows(lat)
    bm = exact.mat_mul(rows, exact.mat_copy(q.gram))
    return _freeze(exact.mat_mul(bm, exact.transpose(rows)))


def disc(q: QuadraticForm, L: Subspace) -> int:
    """disc_Q(L): determinant of the integer Gram B M B^T of L(Z)."""
    bm = exact.mat_mul(L.basis, q.gram)
    return exact.det_int(exact.mat_mul(bm, exact.transpose(L.basis)))


def dual_lattice(q: QuadraticForm, lat: Lattice) -> Lattice:
    """Dual basis (B M B^T)^{-1} B inside span(lat); involutive.

    With B = R/r for an integer R, the dual basis is r adj(G) R / det G for
    the integer Gram G = R M R^T, so only the adjugate is eliminated.
    """
    rows = _basis_rows(lat)
    if not rows:
        return Lattice.from_rows(lat.n, [])
    r, ir = exact.scale_to_int(rows)
    g = exact.mat_mul(exact.mat_mul(ir, exact.mat_copy(q.gram)), exact.transpose(ir))
    adj, det = exact.adjugate(g)
    dual = exact.mat_mul(adj, ir)
    return Lattice.from_rows(lat.n, [[Fraction(r * x, det) for x in row] for row in dual])


def standard_dual(q: QuadraticForm) -> Lattice:
    """(Z^n)^#: the dual of Z^n, with basis M^{-1}."""
    return Lattice.from_rows(q.n, q.inverse_gram())


def orth_complement(q: QuadraticForm, L: Subspace) -> Subspace:
    """L^⊥ with respect to the form, canonical saturated basis."""
    if L.k == 0:
        return Subspace.from_rows(q, exact.identity(q.n))
    bm = exact.mat_mul(exact.mat_copy(L.basis), exact.mat_copy(q.gram))
    return Subspace(q, _freeze(exact.kernel_basis(bm)))


def projection_numerator(q: QuadraticForm, L: Subspace):
    """``(N, det)`` with N / det the matrix P of ``projection_matrix``.

    N = M B^T adj(G) B and det = det G for the integer Gram G = B M B^T
    of L(Z): integer products and one adjugate.  For L = 0, N is the zero
    matrix and det is 1.
    """
    b = exact.mat_copy(L.basis)
    if not b:
        return [[0] * q.n for _ in range(q.n)], 1
    mbt = exact.mat_mul(exact.mat_copy(q.gram), exact.transpose(b))
    adj, det = exact.adjugate(exact.mat_mul(b, mbt))
    return exact.mat_mul(exact.mat_mul(mbt, adj), b), det


def projection_matrix(q: QuadraticForm, L: Subspace):
    """Matrix P with x @ P = orthogonal projection of x onto span(L): the
    integer N of ``projection_numerator`` divided once by det, as Fractions."""
    p, det = projection_numerator(q, L)
    return [[Fraction(x, det) for x in row] for row in p]


def project_lattice(q: QuadraticForm, L: Subspace, lat: Lattice) -> Lattice:
    """Image of the lattice under orthogonal projection onto span(L)."""
    p = projection_matrix(q, L)
    rows = [exact.vec_mat(list(r), p) for r in lat.basis]
    rows = [r for r in rows if any(r)]
    return Lattice.from_rows(q.n, rows)


def glue_group(q: QuadraticForm, L: Subspace) -> GlueGroup:
    """Invariant factors of L(Z)^#/L(Z): the SNF of the restricted Gram.

    The Gram matrix is the coordinate matrix of L(Z) inside L(Z)^#, so its
    invariant factors present the quotient; their product is disc_Q(L).
    """
    return GlueGroup(tuple(exact.invariant_factors(gram_restriction(q, L))))


def lattice_intersect_subspace(lat: Lattice, L: Subspace) -> Lattice:
    """The lattice lat ∩ span(L)."""
    rows = exact.mat_copy(lat.basis)
    if not rows or L.k == 0:
        return Lattice.from_rows(lat.n, [])
    den, irows = exact.scale_to_int(rows)
    # span(L) = dot-orthogonal complement of kernel_basis(L.basis)
    ker = exact.kernel_basis(exact.mat_copy(L.basis))
    if not ker:
        return lat
    dots = exact.mat_mul(irows, exact.transpose(ker))
    coeffs = exact.kernel_basis(exact.transpose(dots))
    if not coeffs:
        return Lattice.from_rows(lat.n, [])
    inter = exact.mat_mul(coeffs, irows)
    if den != 1:
        inter = [[Fraction(x, den) for x in row] for row in inter]
    return Lattice.from_rows(lat.n, inter)


def index_iL(q: QuadraticForm, L: Subspace) -> int:
    """[L ∩ (Z^n)^# : L(Z)], the denominator index of L in the dual.

    With B the basis of L(Z), c B lies in (Z^n)^# exactly when c B M is
    integral, so B M presents the quotient and i(L) is the product of its
    invariant factors: one Smith form over the integers.
    """
    return prod(exact.invariant_factors(exact.mat_mul(L.basis, q.gram)))


def local_disc(q: QuadraticForm, L: Subspace, p: int):
    """(ord, unit class) of disc_Q(L) at p.

    ord is the p-valuation; the unit class is the Legendre symbol of the
    unit part for odd p and its residue mod 8 for p = 2.
    """
    d = disc(q, L)
    ord_p = exact.valuation(d, p)
    return ord_p, exact.unit_square_class(d // p**ord_p, p)


def restricted_forms(q: QuadraticForm, L: Subspace):
    """Grams (q_L, q_perp, tau_perp) of the subspace and its complement.

    q_L lives on L(Z) and q_perp on L^⊥(Z): tuples of int rows.  tau_perp
    lives on L^⊥ ∩ (Z^n)^#: tuple of Fraction rows, rational in general,
    with disc(q_perp) = i(L^⊥)^2 · disc(tau_perp).
    """
    perp = orth_complement(q, L)
    t = lattice_intersect_subspace(standard_dual(q), perp)
    return gram_restriction(q, L), gram_restriction(q, perp), gram_restriction(q, t)


def content_and_primitive(gram):
    """(c, P) with gram = c * P for an integral Gram (rows of int or
    integral Fraction entries): c the int content, P the primitive Gram as
    a tuple of int rows.  Raises ValueError on a non-integral Gram; a
    rational Gram is scaled by ``exact.scale_to_int`` first (``shapes.shape``)."""
    rows = exact.integral_rows(gram)
    g = gcd(*(x for row in rows for x in row))
    if g == 0:
        return 0, _freeze(rows)
    return g, _freeze([[x // g for x in row] for row in rows])


# ---------------------------------------------------------------------------
# the lattice Λ_L between Z^n and (Z^n)^#

# The discriminant group A = (Z^n)^#/Z^n is presented by the SNF of M:
# with U M V = diag(d), the rows u_i/d_i of D^{-1}U generate (Z^n)^# and
# their images generate A with independent orders d_i.  Elements of A are
# coordinate tuples mod (d_1..d_n).  A complement of T̄, the image of
# L ∩ (Z^n)^#, is decided by integer linear algebra on generators, one
# solve per cyclic factor of A/T̄; no element of A is ever listed.


def _disc_group(q: QuadraticForm):
    d, u, _ = exact.snf(exact.mat_copy(q.gram))
    uinv = exact.inverse_unimodular(u)
    return d, u, uinv


def _group_coords(t_rows, d, uinv):
    """Coordinates mod d of dual vectors: a = t · U^{-1} · D (integral)."""
    den, it = exact.scale_to_int(t_rows)
    out = []
    for t in it:
        coords = []
        for x, di in zip(exact.vec_mat(t, uinv), d):
            y, rem = divmod(x * di, den)
            if rem:
                raise ValueError("vector is not in the dual lattice")
            coords.append(y % di if di else y)
        out.append(tuple(coords))
    return out


def _group_vector(a, d, u):
    """The dual vector sum a_i u_i / d_i for a coordinate tuple."""
    n = len(d)
    return [
        sum(Fraction(a[i], d[i]) * u[i][j] for i in range(n)) for j in range(n)
    ]


def _complement_lifts(q: QuadraticForm, L: Subspace):
    """Generators of a complement of T̄ in A, or None when none exists.

    T̄ is the image of L ∩ (Z^n)^# in A.  The SNF of [diag(d); T̄'s
    generators] writes A/T̄ as ⊕ Z/m_j, freely generated by the images of
    base_j.  So base_j ↦ base_j + h_j (h_j ∈ T̄) is a section, and its
    image a complement, exactly when every m_j·(base_j + h_j) = 0 in A.
    Such an h_j exists iff -m_j·base_j lies in the row lattice of
    S = [diag(d); m_j·gens]: one integer solve per factor with m_j > 1.

    The valid h_j form a coset of T̄ ∩ A[m_j], whose preimage in Z^n is
    spanned by d·Z^n and the left kernel of S mapped through the rows of
    [diag(d); gens].  The solver may return any point of that coset, and
    different points give different (equally valid) complements, so Λ_L
    would depend on the solver.  Reducing the solution against the
    lattice's HNF, coordinate by coordinate, fixes the choice: the
    lexicographically least valid h_j with entries in [0, d_i), which is
    the first valid element in the sorted listing of T̄.
    """
    d, u, uinv = _disc_group(q)
    if all(x == 1 for x in d):
        return []
    t = lattice_intersect_subspace(standard_dual(q), L)
    gens = [list(a) for a in _group_coords(exact.mat_copy(t.basis), d, uinv)]
    n = q.n
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    # present A/T̄ by stacking the cyclic relations of A over T̄'s generators
    rel = diag + gens
    m, _, v = exact.snf(rel)
    vinv = exact.inverse_unimodular(v)
    lifts = []
    for mj, base in zip(m, vinv):
        if mj == 1:
            continue
        # x @ stacked = -mj·base makes h = x @ rel a valid element of T̄
        stacked = diag + [[mj * a for a in g] for g in gens]
        x = exact.solve_integral(stacked, [-mj * b for b in base])
        if x is None:
            return None
        h = exact.vec_mat(x, rel)
        ker = exact.kernel_basis(exact.transpose(stacked))
        # full rank and upper triangular: row i has its pivot in column i
        red = exact.hnf_basis([exact.vec_mat(c, rel) for c in ker] + diag)
        for i, row in enumerate(red):
            s = h[i] // row[i]
            h = [a - s * b for a, b in zip(h, row)]
        lifts.append(_group_vector([(a + b) % dd for a, b, dd in zip(base, h, d)], d, u))
    return lifts


def _lift_construction(q: QuadraticForm, L: Subspace):
    """Basis of L(Z) plus lifts to (Z^n)^# of the dual basis of L^⊥(Z).

    The projection π_{L^⊥} identifies (Z^n)^#/(L ∩ (Z^n)^#) with the dual
    of L^⊥(Z) taken inside L^⊥; lifting its canonical basis through one
    integral preimage, reduced modulo L ∩ (Z^n)^#, is deterministic.
    """
    rows = exact.mat_copy(L.basis)
    perp = orth_complement(q, L)
    if perp.k == 0:
        return Lattice.from_rows(q.n, rows)
    dstar = dual_lattice(q, perp.lattice())
    dual_rows = exact.mat_copy(standard_dual(q).basis)
    system = exact.mat_mul(dual_rows, projection_matrix(q, perp))
    t_rows = exact.mat_copy(lattice_intersect_subspace(standard_dual(q), L).basis)
    if t_rows:
        # coordinates of s = S/sden in T = Tᵢ/tden: c = s Tᵀ (T Tᵀ)^{-1}
        # = tden · S Tᵢᵀ adj(Tᵢ Tᵢᵀ) / (sden · det), and c T = s iff the
        # integer row S Tᵢᵀ adj Tᵢ equals det · S
        proj_l = projection_matrix(q, L)
        tden, ti = exact.scale_to_int(t_rows)
        adj, det = exact.adjugate(exact.mat_mul(ti, exact.transpose(ti)))
        solver = exact.mat_mul(exact.transpose(ti), adj)
    preimages = exact.lattice_coordinates(system, exact.mat_copy(dstar.basis))
    if preimages is None:
        raise ValueError("dual basis vector has no integral preimage")
    lifted = []
    for y in preimages:
        v = exact.vec_mat(y, dual_rows)
        if t_rows:
            sden, (s,) = exact.scale_to_int([exact.vec_mat(v, proj_l)])
            c = exact.vec_mat(s, solver)
            if exact.vec_mat(c, ti) != [det * x for x in s]:
                raise ValueError("projection left the span of L")
            for ci, trow in zip(c, t_rows):
                shift = (tden * ci) // (sden * det)
                if shift:
                    v = [x - shift * Fraction(y) for x, y in zip(v, trow)]
        lifted.append(v)
    return Lattice.from_rows(q.n, rows + lifted)


def lambda_L(q: QuadraticForm, L: Subspace):
    """(Λ_L, clean): the distinguished full-rank lattice attached to L, and
    whether Z^n ⊆ Λ_L was achieved.

    Λ_L contains L(Z) as L ∩ Λ, projects onto the dual of L^⊥(Z), and its
    own dual meets L^⊥ in L^⊥(Z).  When ``_complement_lifts`` finds a
    complement of the image of L ∩ (Z^n)^# in the discriminant group, Λ_L
    is Z^n plus the complement's lifts, so Z^n ⊆ Λ ⊆ (Z^n)^# and clean is
    True.  Such a complement need not exist; then the lift construction is
    used, only [Z^n : Λ ∩ Z^n] ≤ disc(M) is guaranteed alongside the three
    identities, and clean is read off the lattice.  Which construction runs
    depends only on whether the complement exists, never on the size of
    the discriminant group.
    """
    lifts = _complement_lifts(q, L)
    if lifts is not None:
        rows = exact.identity(q.n) + [list(v) for v in lifts]
        return Lattice.from_rows(q.n, rows), True
    lam = _lift_construction(q, L)
    return lam, lam.contains_lattice(Lattice.standard(q.n))


# ---------------------------------------------------------------------------
# rational rotations and integral stabilizers


def is_special_orthogonal(q: QuadraticForm, g) -> bool:
    """g^T M g = M and det g = 1, over the rationals.

    With g = G/den for an integer G: G^T M G = den^2 M and det G = den^n.
    """
    den, gi = exact.scale_to_int(exact.mat_copy(g))
    m = exact.mat_copy(q.gram)
    lhs = exact.mat_mul(exact.mat_mul(exact.transpose(gi), m), gi)
    if lhs != [[den * den * x for x in row] for row in m]:
        return False
    return exact.det_int(gi) == den ** q.n


def rotate_subspace(g, L: Subspace) -> Subspace:
    """Image subspace g·L (columns convention: rows map by v ↦ v g^T)."""
    q = L.form
    if not is_special_orthogonal(q, g):
        raise ValueError("rotate_subspace: matrix is not in SO_Q")
    gt = exact.transpose(exact.mat_copy(g))
    # scaling the image rows by a positive integer keeps their span
    _, rows = exact.scale_to_int(exact.mat_mul(exact.mat_copy(L.basis), gt))
    return Subspace.from_rows(q, rows)


def rotation_ord_p(g, p: int) -> int:
    """Smallest ℓ with p^ℓ g and p^ℓ g^{-1} both p-integral.

    That is the larger p-valuation of the two denominator lcms.
    """
    dens = (exact.denominator_lcm(g), exact.denominator_lcm(exact.inverse_fraction(g)))
    return max(exact.valuation(d, p) for d in dens)


@lru_cache(maxsize=8)
def special_orthogonal_group(q: QuadraticForm):
    """All g ∈ SO_Q(Z), as row-major tuples.  Finite since M is definite.

    The columns of g are the images of the standard basis vectors, so g^T
    is an isometry U of M onto itself, U M U^T = M.  ``kernel.isometries``
    yields every such U; g = U^T is kept when det g = 1.  The group comes
    in the search's order, which ``verify``'s sampling depends on.  Raises
    ``kernel.SearchBoundError`` when a shell exceeds the search's cap.
    """
    return tuple(
        _freeze(zip(*u)) for u in kernel.isometries(q.gram, q.gram) if exact.det_int(u) == 1
    )


class OrbitEntry(NamedTuple):
    """Where a subspace sits in its SO_Q(Z)-orbit: the orbit's size, the
    index ``rep`` of its representative in the list, which identifies the
    orbit, and one ``g`` with g·subs[rep] equal to the subspace."""

    size: int
    rep: int
    g: tuple


def _plucker_keys(rows):
    """The primitive Plücker vector of each stacked row set rows[i], a basis
    of a saturated lattice (an exact integer array, numpy ``dtype=object``,
    of shape m x k x n): ``exact.signed`` over the columns of the stacked
    ``exact.wedge``.  Rank 0 has no wedge; its one subspace keys as ()."""
    if not rows.shape[1]:
        return [()] * len(rows)
    return map(exact.signed, zip(*exact.wedge(rows.transpose(1, 2, 0))))


def orbits(q: QuadraticForm, subs):
    """SO_Q(Z)-orbits of the subspaces ``subs`` and the orbit map: one
    ``OrbitEntry`` per subspace, aligned with ``subs``.

    A subspace is keyed by its rank and its primitive Plücker vector, the
    signed wedge of its basis (``_plucker_keys``), which is equal exactly
    for equal subspaces.  The subspaces are walked in order.  Each one not
    yet covered is the representative of a new orbit: every g ∈ SO_Q(Z)
    maps its basis rows by row ↦ row·g^T, all g in one stacked product.
    g is unimodular, so the image rows are a basis of the saturated
    g·L(Z) and their signed wedge is the key of g·L.  The distinct keys
    form the orbit G·L; the members found in ``subs`` get its size |G·L|,
    the representative's index and the first g, in group order, whose
    image is that member.  Images outside ``subs`` are ignored, so the
    sizes are right even when ``subs`` is not G-invariant.  By
    orbit-stabiliser |Stab(L)| = |G| / |G·L|, the same for every member of
    an orbit (Plesken-Souvignier, "Computing isometries of lattices",
    J. Symb. Comp. 24, 1997).
    """
    subs = list(subs)
    if not subs:
        return []
    n = q.n
    by_rank = {}
    for i, sub in enumerate(subs):
        by_rank.setdefault(sub.k, []).append(i)
    index = {}
    for k, idx in by_rank.items():
        rows = np.array([subs[i].basis for i in idx], dtype=object).reshape(len(idx), k, n)
        for i, key in zip(idx, _plucker_keys(rows)):
            index.setdefault((k, key), []).append(i)
    group = special_orthogonal_group(q)
    units = np.array(group, dtype=object).transpose(0, 2, 1)  # every g^T
    out = [None] * len(subs)
    for i, sub in enumerate(subs):
        if out[i] is not None:
            continue
        k = sub.k
        images = np.array(sub.basis, dtype=object).reshape(k, n) @ units
        orbit = {}
        for key, g in zip(_plucker_keys(images), group):
            orbit.setdefault(key, g)
        for key, g in orbit.items():
            for j in index.get((k, key), ()):
                out[j] = OrbitEntry(len(orbit), i, g)
    return out
