"""Enumeration of rational subspaces with a fixed discriminant.

* recursion_table: Schmidt's hyperplane recursion (Monatsh. Math. 125,
  1998) for any positive definite integral form, behind the CLI's
  ``--dmax``; schmidt_table runs it on the identity;
* disc_buckets: the subspaces of each discriminant in a list, behind the
  CLI's ``--disc`` and the experiments, at every rank: the recursion with
  its rank-k row walked only at the requested D, never at the norms below
  them.  Over one lbar the disc is a positive definite form in the lift,
  so the L of those D are one multi-norm shell of it (Fincke-Pohst, Math.
  Comp. 44, 1985) in place of the ball; the lbar tables of lower rank stay
  full, and for lines they hold only the zero subspace;
* enumerate_by_disc: a vector DFS under the Minkowski bound, kept as the
  independent reference that the recursion is cross-validated against.
  For 1 <= k < n it carries the wedge of the chosen rows, keys each k-tuple
  by the primitive Plücker vector p of its saturated span and takes the
  disc as p C p with C the k-th compound of the Gram (Cauchy-Binet), so
  it saturates each subspace once.  The recursion uses neither, so the two
  share only Subspace and the HNF.

Every subspace is stored, deduplicated and sorted by the HNF basis of
L(Z) = L ∩ Z^n.  The recursion's rows already are a basis of L(Z), so it
canonicalises with Subspace.from_saturated_rows; it meets each subspace
exactly once and keeps no dedupe.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import exact
from . import kernel
from . import quadform

DEFAULT_CANDIDATE_CAP = 2_000_000


class BoundExceededError(RuntimeError):
    """Raised when an enumeration would exceed the candidate budget."""


class Verdict(enum.Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    ALWAYS_NONEMPTY = "always-nonempty"
    NO_CLOSED_FORM = "no-closed-form"


@dataclass(frozen=True)
class SchmidtTriple:
    """Hyperplane decomposition data (h, lbar, v) of a subspace.

    h is the positive generator of the projection of L(Z) onto the last
    axis, lbar = L intersected with the hyperplane, and v is the
    projection of a lift (u, h) in L(Z) onto the orthogonal complement
    of lbar inside the hyperplane.
    """

    h: int
    lbar: quadform.Subspace
    v: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h must be a positive integer")
        object.__setattr__(self, "v", tuple(Fraction(x) for x in self.v))
        if len(self.v) != self.lbar.n:
            raise ValueError("v must live in the ambient space of lbar")


@dataclass(frozen=True)
class DiscClassTable:
    """Map D -> sorted tuple of canonical subspaces of discriminant D."""

    table: Dict[int, Tuple[quadform.Subspace, ...]]

    def __post_init__(self):
        for d, subs in self.table.items():
            keys = [s.basis for s in subs]
            if keys != sorted(keys) or len(set(keys)) != len(keys):
                raise ValueError("subspace lists must be sorted and duplicate-free")

    def counts(self) -> Dict[int, int]:
        return {d: len(subs) for d, subs in self.table.items()}

    def get(self, d: int) -> Tuple[quadform.Subspace, ...]:
        return self.table.get(d, ())


def _check_candidates(count: int, max_candidates: Optional[int]) -> None:
    cap = DEFAULT_CANDIDATE_CAP if max_candidates is None else max_candidates
    if count > cap:
        raise BoundExceededError("candidate bound exceeded: %d vectors (cap %d)" % (count, cap))


def hermite_bound(k: int, max_disc: int) -> int:
    """ceil((4/3)^(k(k-1)/2) * max_disc); any integral rank-k lattice of
    determinant <= max_disc has a Minkowski-reduced basis with all norms
    below this (norms are >= 1, so each norm is at most the product)."""
    e = k * (k - 1) // 2
    return -((-(4**e) * max_disc) // 3**e)


def enumerate_by_disc(
    q: quadform.QuadraticForm,
    k: int,
    max_disc: int,
    max_candidates: Optional[int] = None,
) -> DiscClassTable:
    """All of H^{n,k}_q(D) for every D <= max_disc, in one vector sweep.

    For 1 <= k < n a DFS over tuples of short vectors, pruned by the
    Minkowski norm product, carries the wedge of the rows: a zero wedge
    means a dependent row.  A full tuple's wedge over its content, signed
    so its first nonzero entry is positive, is the primitive Plücker vector
    p of L(Z), so p is the dedupe key and disc_q(L) = p C p (Cauchy-Binet,
    C the k-th compound of the Gram); only a new p of disc <= max_disc is
    saturated by Subspace.from_rows.  At k = 1 the wedge is the vector
    itself and C the Gram; at k = n the one subspace is the whole space.
    """
    n = q.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if max_disc < 1:
        raise ValueError("max_disc must be >= 1")
    buckets: Dict[int, List[quadform.Subspace]] = {}

    if k == n:
        if max_disc >= q.disc():
            full = quadform.Subspace.from_rows(q, exact.identity(n))
            buckets.setdefault(q.disc(), []).append(full)
    else:
        e = k * (k - 1) // 2
        bound = hermite_bound(k, max_disc)
        cands = kernel.short_vectors(q.gram, bound)
        _check_candidates(len(cands), max_candidates)
        m = len(cands)
        steps = _wedge_steps(n, k)
        compound = _compound_terms(q.gram, k)
        low, high = 3**e, 4**e * max_disc
        seen = set()

        # DFS over index-increasing tuples, carrying the wedge of the rows;
        # the candidate list is sorted by norm, so the norm-product prune
        # allows a hard break
        def extend(start, rows, wedge, prod, depth):
            step = steps[depth]
            for i in range(start, m):
                norm, vec = cands[i]
                nprod = prod * norm
                if nprod * low > high:
                    break
                w = _extend_wedge(step, wedge, vec)
                if not any(w):
                    continue  # vec depends on the rows
                if depth + 1 < k:
                    extend(i + 1, rows + [vec], w, nprod, depth + 1)
                    continue
                p = _primitive(w)
                if p in seen:
                    continue
                seen.add(p)
                d = sum(c * p[a] * p[b] for a, b, c in compound)
                if d <= max_disc:
                    sub = quadform.Subspace.from_rows(q, rows + [vec])
                    buckets.setdefault(d, []).append(sub)

        extend(0, [], [1], 1, 0)

    return DiscClassTable({d: tuple(sorted(subs, key=lambda s: s.basis)) for d, subs in buckets.items()})


def _wedge_steps(n, k):
    """Laplace tables that grow a wedge by one row, for depths 0..k-1.

    The wedge of d rows is the vector of their d x d minors, indexed by
    the column sets of ``itertools.combinations(range(n), d)``; the wedge
    of no rows is [1].  steps[d] is (d + 1, terms): terms lists, for each
    (d+1)-set J in turn, the d + 1 terms (j, t, sign) of the minor's
    expansion along the new row v, sign * v[j] * wedge[t], where t indexes
    the d-set J minus j.
    """
    steps = []
    for d in range(k):
        pos = {c: t for t, c in enumerate(itertools.combinations(range(n), d))}
        steps.append((d + 1, [
            (J[t], pos[J[:t] + J[t + 1:]], (-1) ** (d + t))
            for J in itertools.combinations(range(n), d + 1)
            for t in range(d + 1)
        ]))
    return steps


def _extend_wedge(step, wedge, vec):
    """The wedge of the rows and vec, from the wedge of the rows and the
    step of _wedge_steps at their depth."""
    width, table = step
    terms = [s * vec[j] * wedge[t] for j, t, s in table]
    return [sum(terms[a:a + width]) for a in range(0, len(terms), width)]


def _primitive(wedge):
    """The nonzero wedge divided by its content, first nonzero entry
    positive: the primitive Plücker vector of the saturated span."""
    g = math.gcd(*wedge)
    if next(x for x in wedge if x) < 0:
        g = -g
    return tuple(x // g for x in wedge)


def _compound_terms(gram, k):
    """The k-th compound C[I][J] = det gram[I, J] over the k-sets of
    ``itertools.combinations``, as the nonzero terms (a, b, c) with a <= b
    and off-diagonal entries doubled.  By Cauchy-Binet the disc of a
    lattice with Plücker vector p is p C p = sum c * p[a] * p[b]."""
    sets = list(itertools.combinations(range(len(gram)), k))
    out = []
    for a, rows in enumerate(sets):
        for b in range(a, len(sets)):
            c = exact.det_int([[gram[i][j] for j in sets[b]] for i in rows])
            if c:
                out.append((a, b, c if a == b else 2 * c))
    return out


def schmidt_decompose(L: quadform.Subspace) -> SchmidtTriple:
    """Split L <= Q^n along the last-coordinate hyperplane.

    Returns (h, lbar, v) with lbar = L meet the hyperplane, h > 0 the
    generator of the projection of L(Z) onto the last axis, and v the
    orthogonal projection of a lift onto the complement of lbar.
    Raises ValueError when L lies inside the hyperplane.
    """
    if not L.form.is_sum_of_squares():
        raise ValueError("hyperplane recursion is implemented for the sum of squares")
    rows = [list(r) for r in L.basis]
    n1 = L.n
    last = [r[-1] for r in rows]
    if not any(last):
        raise ValueError("subspace is contained in the hyperplane")
    # U @ last = (h, 0, ..., 0): U[0] lifts the generator h and the
    # unimodular rest U[1:] spans the combinations inside the hyperplane
    hmat, umat = exact.hnf([[x] for x in last])
    h = hmat[0][0]
    u_full, *lbar_rows = exact.mat_mul(umat, rows)
    small = quadform.QuadraticForm.sum_of_squares(n1 - 1)
    lbar = quadform.Subspace.from_rows(small, [r[:-1] for r in lbar_rows])
    u = u_full[:-1]
    perp, _ = _projection_data(lbar)
    adj, dprime = exact.adjugate(exact.mat_mul(perp, exact.transpose(perp)))
    # v = sum_i c_i p_i^# with c_i = u.p_i and dual basis adj @ perp / dprime
    c = [sum(x * y for x, y in zip(u, p)) for p in perp]
    v = exact.vec_mat(exact.vec_mat(c, adj), perp) if perp else [0] * len(u)
    return SchmidtTriple(h, lbar, tuple(Fraction(x, dprime) for x in v))


def _projection_data(lbar: quadform.Subspace):
    """(P, lifts) for lbar over any form.  P is the HNF basis of the
    saturated {x in Z^n : B x^T = 0}, and lifts[i] is an integer u with
    u @ P^T = e_i: the top rows of U in U @ P^T = H, whose top block is the
    identity.  The lifts are a basis of Z^n modulo lbar(Z).  Over the sum
    of squares P spans lbar^perp and Z^n projects onto the dual lattice
    P^#, whose dual basis adj @ P / dprime has Gram (P P^T)^-1 = adj /
    dprime, with dprime = det(P P^T) = disc(lbar); a vector u projects to
    the coordinates c = u @ P^T in that basis.
    """
    perp = exact.kernel_basis(lbar.basis) if lbar.k else exact.identity(lbar.n)
    h, u = exact.hnf(exact.transpose(perp))
    rank = len(perp)
    assert h[:rank] == exact.identity(rank)
    return perp, u[:rank]


def schmidt_compose(triple: SchmidtTriple) -> quadform.Subspace:
    """The unique subspace with the given hyperplane decomposition.

    Raises ValueError when v is not orthogonal to lbar, when v is not in
    the projection of Z^n (some c_i = v.p_i is not an integer) or when
    h and v are not coprime.
    """
    lbar = triple.lbar
    if not lbar.form.is_sum_of_squares():
        raise ValueError("hyperplane recursion is implemented for the sum of squares")
    n = lbar.n
    v = triple.v
    if any(sum(x * y for x, y in zip(v, b)) for b in lbar.basis):
        raise ValueError("v is not orthogonal to lbar")
    perp, lifts = _projection_data(lbar)
    coords = [sum(x * y for x, y in zip(v, p)) for p in perp]
    if any(x.denominator != 1 for x in coords):
        raise ValueError("v is not in the projected lattice")
    c = [int(x) for x in coords]
    if math.gcd(triple.h, *c) != 1:
        raise ValueError("triple violates coprimality")
    u = [sum(c[t] * lifts[t][j] for t in range(len(lifts))) for j in range(n)]
    big = quadform.QuadraticForm.sum_of_squares(n + 1)
    new_rows = [list(r) + [0] for r in lbar.basis]
    new_rows.append(u + [triple.h])
    return quadform.Subspace.from_rows(big, new_rows)


def recursion_table(
    q: quadform.QuadraticForm,
    k: int,
    max_disc: int,
    max_candidates: Optional[int] = None,
) -> DiscClassTable:
    """H^{n,k}_q(D) for every D <= max_disc, by the hyperplane recursion.

    Row m holds H^{m,j}(D) over the leading block M_m of the Gram for each
    j that H^{n,k} needs: H^{m-1,j} inside x_m = 0, and _lifts_over each
    lbar in H^{m-1,j-1} of disc D' <= cap det M_{m-1} / det M_m.  The cap
    is max_disc on the rank-k row at every level and caps[m] on the lbar
    rows below it.  All walks count against ``max_candidates``.  The
    entries with D <= D' are the table up to D'.
    """
    return DiscClassTable(_recursion(q, k, max_disc, None, max_candidates))


def _recursion(q, k, max_disc, targets, max_candidates):
    """The rank-k row of the recursion, D -> sorted tuple: every D <=
    max_disc when ``targets`` is None, else only the D in ``targets``
    (max_disc = max(targets)).  The rank-k row is needed only at those D
    at every level, since a subspace inside x_m = 0 has the same disc under
    M_m as under M_{m-1}; the rows of rank < k are the lbar tables and stay
    full up to caps[m].
    """
    n = q.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if max_disc < 1:
        raise ValueError("max_disc must be >= 1")
    dets = [1] + exact.ldl_int(q.gram)[1]
    caps = [max_disc] * (n + 1)
    for m in range(n, 1, -1):
        caps[m - 1] = max(caps[m], caps[m] * dets[m - 1] // dets[m])
    spent, row = 0, {}
    for m in range(1, n + 1):
        qm = quadform.QuadraticForm([r[:m] for r in q.gram[:m]])
        lower, row = row, {}
        for j in range(max(0, k - (n - m)), min(k, m) + 1):
            norms = targets if j == k else None
            cap = max_disc if j == k else caps[m]
            keep = range(cap + 1) if norms is None else norms
            if j == 0:
                row[j] = {1: [quadform.Subspace.from_rows(qm, [])]}
            elif j == m:
                full = quadform.Subspace.from_rows(qm, exact.identity(m))
                row[j] = {dets[m]: [full]} if dets[m] in keep else {}
            else:
                # an HNF basis with a zero column appended is still one
                row[j] = {d: [quadform.Subspace(qm, tuple(r + (0,) for r in s.basis))
                              for s in subs] for d, subs in lower[j].items() if d in keep}
                for dprime, lbars in lower[j - 1].items():
                    if dprime * dets[m] <= cap * dets[m - 1]:
                        for lbar in lbars:
                            spent += _lifts_over(qm, lbar, cap, norms, row[j])
                            _check_candidates(spent, max_candidates)
    return {d: tuple(sorted(subs, key=lambda s: s.basis)) for d, subs in row[k].items()}


def _lifts_over(q, lbar, cap, norms, out):
    """Append to ``out`` (D -> list) each L of disc D <= cap, or of disc D
    in ``norms`` when given, that meets x_m = 0 in lbar; return the number
    of candidates walked.  L(Z) is lbar(Z) + Z x for a unique primitive
    class x = (c, h), h > 0, of Z^m / lbar(Z) in the basis [lifts; e_m],
    and its disc is a positive definite form in x: det G times the Schur
    complement of G = B M B^T in the Gram of [B; lifts; e_m].  So the L of
    the given discs are one walk of that form's shells.
    """
    m, j = q.n, lbar.k
    head = [list(r) + [0] for r in lbar.basis]
    _, lifts = _projection_data(lbar)
    gram = quadform.gram_restriction(q, head + [r + [0] for r in lifts] + [[0] * (m - 1) + [1]])
    schur = [r[j:] for r in exact.bareiss(gram, j)[j:]]
    if norms is None:
        sols = kernel.short_vectors(schur, cap, last_positive=True)
    else:
        sols = kernel.vectors_with_norms(schur, norms, last_positive=True)
    lifted = {}
    for d, x in sols:
        c, h = x[:-1], x[-1]
        if c not in lifted:
            lifted[c] = (math.gcd(*c), exact.vec_mat(c, lifts))
        content, u = lifted[c]
        if math.gcd(h, content) == 1:
            # rows are a basis of L(Z): the last coordinate maps L(Z) onto
            # hZ with kernel lbar(Z), and coprimality blocks any index drop
            sub = quadform.Subspace.from_saturated_rows(q, head + [u + [h]])
            out.setdefault(d, []).append(sub)
    return len(sols)


def schmidt_table(n: int, k: int, max_disc: int) -> DiscClassTable:
    """H^{n,k}(D) for every D <= max_disc over the sum of squares: the
    hyperplane recursion on the identity Gram."""
    return recursion_table(quadform.QuadraticForm.sum_of_squares(n), k, max_disc)


# disc_buckets walks the rank-k row only at the requested D, but for k >= 2
# the lbar tables below it hold every discriminant up to about max(discs),
# so keep desk-scale requests honest; for lines they hold only the zero
# subspace
MAX_SWEEP_DISC = 150


def disc_buckets(
    q: quadform.QuadraticForm,
    k: int,
    discs: Sequence[int],
    max_candidates: Optional[int] = None,
) -> Dict[int, Tuple[quadform.Subspace, ...]]:
    """H^{n,k}_q(D) for each D in ``discs``, the one front door for a list
    of discriminants at every rank: the hyperplane recursion with its
    rank-k row walked only at the D in ``discs`` (one shell walk of the
    Schur complement per lbar), never at the norms below them.  Raises
    ``ValueError`` on an empty list or a D < 1, and for k >= 2
    ``BoundExceededError`` when max(discs) passes MAX_SWEEP_DISC, which
    bounds the full lbar tables below the rank-k row."""
    if not 1 <= k <= q.n:
        raise ValueError("need 1 <= k <= n")
    if not discs or min(discs) < 1:
        raise ValueError("need a nonempty list of discriminants >= 1, got %s" % list(discs))
    top = max(discs)
    if k >= 2 and top > MAX_SWEEP_DISC:
        raise BoundExceededError(
            "k >= 2 enumeration sweeps all discriminants up to %d (guard: %d)"
            % (top, MAX_SWEEP_DISC)
        )
    row = _recursion(q, k, top, frozenset(discs), max_candidates)
    return {d: row.get(d, ()) for d in discs}


def lines_with_disc(q, disc, max_candidates=None):  # a name perfbench's tracer still lists
    return list(disc_buckets(q, 1, [disc], max_candidates)[disc])


def nonempty_criterion(n: int, k: int, D: int) -> Verdict:
    """Closed-form emptiness verdict for H^{n,k}(D) over the sum of
    squares, after the duality swap k -> n-k."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if D < 1:
        raise ValueError("D must be >= 1")
    if n >= 5:
        return Verdict.ALWAYS_NONEMPTY
    k = min(k, n - k)
    if (n, k) == (3, 1):
        return Verdict.EMPTY if D % 8 in (0, 4, 7) else Verdict.NONEMPTY
    if (n, k) == (4, 1):
        return Verdict.EMPTY if D % 8 == 0 else Verdict.NONEMPTY
    if (n, k) == (4, 2):
        return Verdict.EMPTY if D % 16 in (0, 7, 12, 15) else Verdict.NONEMPTY
    return Verdict.NO_CLOSED_FORM


def count_small_primitive_shapes(
    q: quadform.QuadraticForm, subs: Sequence[quadform.Subspace], M: int
) -> int:
    """Number of L in subs whose primitive restricted form, on either
    side, has discriminant at most M."""
    if M < 1:
        return 0
    count = 0
    if q.is_sum_of_squares():
        # Z^n is unimodular, so L(Z) and L^⊥(Z) have the same disc D and
        # isomorphic glue groups (Nikulin 1979): with f the invariant
        # factors of L's Gram, content(L) = f[0] and content(L^⊥) = f[2k-n]
        # when 2k >= n, else 1
        n = q.n
        for sub in subs:
            k = sub.k
            f = exact.invariant_factors(exact.mat_mul(sub.basis, exact.transpose(sub.basis)))
            d = math.prod(f)
            c_l = f[0] if k else 1
            c_perp = f[2 * k - n] if n <= 2 * k < 2 * n else 1
            if d <= M * c_l ** k or d <= M * c_perp ** (n - k):
                count += 1
        return count
    for sub in subs:
        for side in (sub, quadform.orth_complement(q, sub)):
            _, prim = quadform.content_and_primitive(quadform.gram_restriction(q, side))
            if exact.det_int(prim) <= M:
                count += 1
                break
    return count
