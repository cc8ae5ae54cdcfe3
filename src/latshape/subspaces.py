"""Enumeration of rational subspaces with a fixed discriminant.

* recursion_table: Schmidt's hyperplane recursion (Monatsh. Math. 125,
  1998) for any positive definite integral form, behind the CLI's
  ``--dmax``; schmidt_table runs it on the identity.  It splits along the
  leading coordinate: level m works on the trailing m x m block of the
  Gram and lifts each lbar inside x_{n-m} = 0;
* disc_buckets: the subspaces of each discriminant in a list, behind the
  CLI's ``--disc`` and the experiments, at every rank: the recursion with
  its rank-k row walked only at the requested D, never at the norms below
  them.  Over one lbar the disc is a positive definite form in the lift,
  so the L of those D are one multi-norm shell of it (Fincke-Pohst, Math.
  Comp. 44, 1985) in place of the ball; the lbar tables of lower rank stay
  full, and for lines they hold only the zero subspace.  Planes of Z^4
  take the pairs route instead, at any D: SO(4) -> SO(3) x SO(3) splits a
  Plücker vector into two norm-D vectors of Z^3 (Aka-Einsiedler-Wieser,
  arXiv:1901.05833), so H^{4,2}(D) is a set of pairs of Z^3 shells;
* enumerate_by_disc: a vector DFS over Minkowski-reduced bases, kept as
  the independent reference that the recursion is cross-validated
  against.  Every L of disc <= D has a reduced basis b_1..b_k of L(Z)
  under hermite_bound: its norms are sorted, |2 B(b_i, b_j)| <= Q(b_i) for
  i < j (b_j +- b_i may replace b_j), and its wedge is primitive (it is a
  basis of L(Z)).  So for 1 <= k < n the DFS walks index-increasing
  tuples of the norm-sorted short vectors that pass those tests, carrying
  G b for each row and the wedge of the rows.  A tuple's signed wedge is
  the primitive Plücker vector p of L, the dedupe key, and the disc is
  p C p with C the k-th compound of the Gram (Cauchy-Binet), so each
  subspace is built once, from rows that already are a basis of L(Z).
  The wedge, its sign and the compound come from ``exact``, which owns
  the Plücker format; ``quadform.orbits`` keys its images by the same
  vector.  The recursion uses them only to key its lbars, never to find
  or measure a subspace, so the two enumerators stay independent: they
  share only Subspace and the exact core.

Every subspace is stored, deduplicated and sorted by the HNF basis of
L(Z) = L ∩ Z^n.  The recursion's rows already are a basis of L(Z): lbar's
HNF basis with a zero column prepended, which is the HNF basis of L(Z) ∩
{x_0 = 0}, under a lift (h, u) with h > 0.  So the recursion reduces u at
the pivots of lbar's rows (quadform.reduce_at_pivots: one row operation per
row, once per coprime class for all its h) and builds each Subspace from
these rows directly; it meets each subspace exactly once and keeps no dedupe.  The paper-facing
Schmidt triple (schmidt_decompose, schmidt_compose) is the same split, read
off and put back into those rows; schmidt_compose canonicalises through
Subspace.from_saturated_rows.

The recursion walks each lbar orbit once.  The signed permutations g of
x_1, ..., x_{m-1} that fix the level-m Gram (the cross row to x_0 included)
fix e_0 and the hyperplane x_0 = 0, so they carry the subspaces over an
lbar one for one onto those over g lbar, with the same disc and the same
Schur form.  So one rule serves every bucket of lbars: a member of an
orbit is its representative moved by g, and counts the representative's
walk against the cap.  For lines (k = 1) the only lbar is 0, an orbit of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import exact
from . import kernel
from . import quadform
from .kernel import BoundExceededError

DEFAULT_CANDIDATE_CAP = 2_000_000


class Verdict(enum.Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    ALWAYS_NONEMPTY = "always-nonempty"
    NO_CLOSED_FORM = "no-closed-form"


@dataclass(frozen=True)
class SchmidtTriple:
    """Hyperplane decomposition data (h, lbar, v) of a subspace L.

    h is the positive generator of the image of L(Z) under x_0, lbar =
    L meet x_0 = 0 over the trailing block of the Gram, and (h, v) is the
    part of a lift (h, u) in L(Z) that is Q-orthogonal to lbar.
    """

    h: int
    lbar: quadform.Subspace
    v: Tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.h) is not int or self.h < 1:
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
            # strictly increasing: sorted and duplicate-free
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise ValueError("subspace lists must be sorted and duplicate-free")

    def counts(self) -> Dict[int, int]:
        return {d: len(subs) for d, subs in self.table.items()}

    def get(self, d: int) -> Tuple[quadform.Subspace, ...]:
        return self.table.get(d, ())


def check_max_candidates(max_candidates: Optional[int]) -> int:
    """Refuse a negative cap before any walk and return the cap in force, the
    vectors all walks may take: DEFAULT_CANDIDATE_CAP for None; 0 is valid."""
    if isinstance(max_candidates, bool) or (max_candidates is not None and max_candidates < 0):
        raise ValueError("max_candidates must be >= 0, got %r" % (max_candidates,))
    return DEFAULT_CANDIDATE_CAP if max_candidates is None else max_candidates


def check_discs(discs) -> Tuple[int, ...]:
    """``discs`` read once, as a tuple of ints.  Refuses an empty list and
    a D that is below 1, not an integer or a bool, naming the list."""
    discs = tuple(discs)
    if not discs or any(isinstance(d, bool) or d < 1 or int(d) != d for d in discs):
        raise ValueError("need a nonempty list of integral discriminants >= 1, got %s" % list(discs))
    return tuple(map(int, discs))


def hermite_bound(k: int, max_disc: int) -> int:
    """ceil((4/3)^(k(k-1)/2) * max_disc), a bound on the norm product of a
    Minkowski-reduced basis of an integral rank-k lattice of determinant
    <= max_disc, and so on each norm (norms are >= 1).

    A reduced basis has Q(b_1)...Q(b_k) <= c_k det with Minkowski's
    constants c_1 = 1, c_2 = 4/3, c_3 = 2 and c_4 = 4 (see van der
    Waerden, Acta Math. 96, 1956), all under
    (4/3)^(k(k-1)/2) = 1, 4/3, 64/27 and 4096/729.  For k >= 5 no citation
    is given here that the reduced constant lies under this bound; the
    DFS of enumerate_by_disc is tested at k <= 4 only."""
    e = k * (k - 1) // 2
    return -((-(4**e) * max_disc) // 3**e)


def enumerate_by_disc(
    q: quadform.QuadraticForm,
    k: int,
    max_disc: int,
    max_candidates: Optional[int] = None,
) -> DiscClassTable:
    """All of H^{n,k}_q(D) for every D <= max_disc, in one vector sweep.

    For 1 <= k < n a DFS walks the index-increasing tuples of the short
    vectors (sorted by norm, one per sign pair) that pass the tests every
    Minkowski-reduced basis of an L(Z) passes, up to the signs of its rows:
    the norm product is under hermite_bound, each row b_j has |2 B(b_i,
    b_j)| <= Q(b_i) for every earlier row b_i, and the wedge of every
    prefix has content 1 (a zero wedge means a dependent row; a larger
    content, a prefix that is no part of a basis of L(Z)).  A full tuple
    is then a basis of L(Z), so its wedge signed so that its first
    nonzero entry is positive is the primitive Plücker vector p of L, the
    dedupe key, and disc_q(L) = p C p (Cauchy-Binet, C the k-th compound of
    the Gram).  Only a new p of disc <= max_disc is built, by
    Subspace.from_rows, whose saturation is then one HNF.  At k = 1 the
    wedge is the vector itself and C the Gram; at k = n the one subspace is
    the whole space.
    """
    budget = check_max_candidates(max_candidates)
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
        cands = kernel.short_vectors(q.gram, hermite_bound(k, max_disc), limit=budget)
        m = len(cands)
        steps = exact.wedge_steps(n, k)
        extend_wedge, signed, gram = exact.extend_wedge, exact.signed, q.gram
        compound = _compound_terms(gram, k)
        low, high = 3**e, 4**e * max_disc
        seen = set()

        # DFS over index-increasing tuples that may start a reduced basis,
        # carrying the wedge of the rows and (Q(b), 2 G b) for each row b;
        # the candidate list is sorted by norm, so the norm-product prune
        # allows a hard break
        def extend(start, rows, sizes, wedge, prod):
            depth = len(rows)
            step = steps[depth]
            for i in range(start, m):
                norm, vec = cands[i]
                nprod = prod * norm
                if nprod * low > high:
                    break
                for qb, gb in sizes:
                    if abs(sum(map(mul, gb, vec))) > qb:
                        break  # vec + b or vec - b is shorter than vec
                else:
                    # a row's wedge is the row
                    w = extend_wedge(step, wedge, vec) if depth else vec
                    if math.gcd(*w) != 1:
                        continue  # dependent rows, or not part of a basis of L(Z)
                    if depth + 1 < k:
                        gv = [2 * x for x in exact.vec_mat(vec, gram)]
                        extend(i + 1, rows + [vec], sizes + [(norm, gv)], w, nprod)
                        continue
                    p = signed(w)
                    if p in seen:
                        continue
                    seen.add(p)
                    d = sum(c * p[a] * p[b] for a, b, c in compound)
                    if d <= max_disc:
                        sub = quadform.Subspace.from_rows(q, rows + [vec])
                        buckets.setdefault(d, []).append(sub)

        extend(0, [], [], None, 1)

    return DiscClassTable({d: tuple(sorted(subs, key=lambda s: s.basis)) for d, subs in buckets.items()})


def _compound_terms(gram, k):
    """The k-th compound C = ``exact.compound(gram, k)`` as the nonzero
    terms (a, b, c) with a <= b and off-diagonal entries doubled.  By
    Cauchy-Binet the disc of a lattice with Plücker vector p is p C p =
    sum c * p[a] * p[b]."""
    c = exact.compound(gram, k)
    return [(a, b, c[a][b] if a == b else 2 * c[a][b])
            for a in range(len(c)) for b in range(a, len(c)) if c[a][b]]


def schmidt_decompose(L: quadform.Subspace) -> SchmidtTriple:
    """Split L <= Q^n along the hyperplane x_0 = 0, over any form.

    L(Z)'s HNF basis is a top row (h, u) with h > 0 over rows with x_0 = 0,
    and those rows without column 0 are lbar's HNF basis under the trailing
    block of the Gram.  v is the hyperplane part of the lift (h, u) minus
    its Q-projection onto lbar, so disc(L) = disc(lbar) Q(h, v).  Raises
    ValueError when L lies inside the hyperplane.
    """
    if not L.basis or not L.basis[0][0]:
        raise ValueError("subspace is contained in the hyperplane x_0 = 0")
    q = L.form
    top, *head = L.basis
    trailing = quadform.QuadraticForm([r[1:] for r in q.gram[1:]])
    lbar = quadform.Subspace(trailing, tuple(r[1:] for r in head))
    num, det = quadform.projection_numerator(q, quadform.Subspace(q, tuple(head)))
    v = [Fraction(det * x - y, det) for x, y in zip(top[1:], exact.vec_mat(top, num)[1:])]
    return SchmidtTriple(top[0], lbar, tuple(v))


def _projection_data(lbar: quadform.Subspace):
    """(P, lifts) for lbar over any form.  P is the HNF basis of the
    saturated {x in Z^n : B x^T = 0}, and lifts[i] is an integer u with
    u @ P^T = e_i: the top rows of U in U @ P^T = H, whose top block is the
    identity.  The lifts are a basis of Z^n modulo lbar(Z).
    """
    perp = exact.kernel_basis(lbar.basis) if lbar.k else exact.identity(lbar.n)
    h, u = exact.hnf(exact.transpose(perp))
    rank = len(perp)
    assert h[:rank] == exact.identity(rank)
    return perp, u[:rank]


def schmidt_compose(q: quadform.QuadraticForm, triple: SchmidtTriple) -> quadform.Subspace:
    """The unique L <= Q^n over q with the given split along x_0 = 0.

    The lift is [h] + c @ lifts with c = v @ P^T, the assembly of
    _lifts_over.  Raises ValueError when lbar is not over q's trailing
    block, when (h, v) is not Q-orthogonal to lbar, when v is not in the
    projection of Z^n (some c_i is not an integer) or when gcd(h, c) != 1.
    """
    lbar, h, v = triple.lbar, triple.h, triple.v
    if lbar.form.gram != tuple(r[1:] for r in q.gram[1:]):
        raise ValueError("lbar is not over the trailing block of the form")
    head = [(0,) + r for r in lbar.basis]
    gw = exact.vec_mat((h,) + v, q.gram)
    if any(sum(x * y for x, y in zip(gw, b)) for b in head):
        raise ValueError("(h, v) is not Q-orthogonal to lbar")
    perp, lifts = _projection_data(lbar)
    coords = [sum(x * y for x, y in zip(v, p)) for p in perp]
    if any(x.denominator != 1 for x in coords):
        raise ValueError("v is not in the projected lattice")
    c = [int(x) for x in coords]
    if math.gcd(h, *c) != 1:
        raise ValueError("triple violates coprimality")
    u = exact.vec_mat(c, lifts) if lifts else [0] * lbar.n
    return quadform.Subspace.from_saturated_rows(q, [[h] + u] + head)


def recursion_table(
    q: quadform.QuadraticForm,
    k: int,
    max_disc: int,
    max_candidates: Optional[int] = None,
) -> DiscClassTable:
    """H^{n,k}_q(D) for every D <= max_disc, by the hyperplane recursion.

    Row m holds H^{m,j}(D) over the trailing block M_m of the Gram, on the
    coordinates x_{n-m}, ..., x_{n-1}, for each j that H^{n,k} needs:
    H^{m-1,j} inside x_{n-m} = 0, and _lifts_over each lbar in H^{m-1,j-1}
    of disc D' <= cap det M_{m-1} / det M_m.  The cap is max_disc on the
    rank-k row at every level and caps[m] on the lbar rows below it.  All
    walks count against ``max_candidates``.  The entries with D <= D' are
    the table up to D'.
    """
    return DiscClassTable(_recursion(q, k, max_disc, None, check_max_candidates(max_candidates)))


def _recursion(q, k, max_disc, targets, budget):
    """The rank-k row of the recursion, D -> sorted tuple: every D <=
    max_disc when ``targets`` is None, else only the D in ``targets``
    (max_disc = max(targets)).  The rank-k row is needed only at those D
    at every level, since a subspace inside x_{n-m} = 0 has the same disc
    under M_m as under M_{m-1}; the rows of rank < k are the lbar tables
    and stay full up to caps[m].  Each bucket of lbars (one D') goes to
    _lifts_over with the generators of _stabiliser(M_m), which walks one
    lbar per orbit; every walk may take what ``budget`` has left.
    """
    n = q.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if max_disc < 1:
        raise ValueError("max_disc must be >= 1")
    # the trailing principal minors: the leading ones of the reversed Gram
    dets = [1] + exact.ldl_int([r[::-1] for r in q.gram[::-1]])[1]
    caps = [max_disc] * (n + 1)
    for m in range(n, 1, -1):
        caps[m - 1] = max(caps[m], caps[m] * dets[m - 1] // dets[m])
    spent, row = 0, {}
    for m in range(1, n + 1):
        qm = quadform.QuadraticForm([r[n - m:] for r in q.gram[n - m:]])
        gens = _stabiliser(qm.gram)
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
                # an HNF basis with a zero column prepended is still one
                row[j] = {d: [quadform.Subspace(qm, tuple((0,) + r for r in s.basis))
                              for s in subs] for d, subs in lower[j].items() if d in keep}
                for dprime, lbars in lower[j - 1].items():
                    if dprime * dets[m] <= cap * dets[m - 1]:
                        spent = _lifts_over(qm, lbars, gens, cap, norms, row[j], spent, budget)
    return {d: tuple(sorted(subs, key=lambda s: s.basis)) for d, subs in row[k].items()}


def _stabiliser(gram):
    """Generators of a group of signed permutations of the coordinates
    1..m-1 that fix the m x m ``gram`` entrywise, the cross row to x_0
    included: the sign flip of each coordinate orthogonal to all others,
    and the swap of each coordinate with the next one whose row matches it
    outside the pair (a class of such coordinates is a chain of swaps).
    Each g is a tuple of (source, sign), (g v)[i] = sign * v[source], on
    vectors of the trailing m - 1 coordinates.  g fixes e_0 and x_0 = 0
    and preserves the trailing block, so it maps the lbars of one disc
    onto each other.  The group may be trivial; any subgroup of the
    stabiliser is enough for _lifts_over."""
    m = len(gram)
    gens = []
    for a in range(1, m):
        if not any(gram[a][t] for t in range(m) if t != a):
            gens.append(tuple((i, -1 if i == a - 1 else 1) for i in range(m - 1)))
        for b in range(a + 1, m):
            if gram[a][a] == gram[b][b] and all(
                    gram[a][t] == gram[b][t] for t in range(m) if t not in (a, b)):
                swap = {a - 1: b - 1, b - 1: a - 1}
                gens.append(tuple((swap.get(i, i), 1) for i in range(m - 1)))
                break
    return gens


def _on_wedges(g, k):
    """The signed permutation g of the coordinates acting on the wedges of
    k rows, as (source, sign) per wedge entry.  The moved rows are rows·M
    with M[src][j] = s for g[j] = (src, s), so by Cauchy-Binet their wedge
    is the wedge times M's k-th compound, itself a signed permutation."""
    c = exact.compound([[s if src == i else 0 for src, s in g] for i in range(len(g))], k)
    return tuple(next((i, row[j]) for i, row in enumerate(c) if row[j]) for j in range(len(c)))


def _orbit(moves, key, width):
    """{Plücker vector of g lbar: g} over the orbit of the lbar with
    Plücker vector ``key``, closed breadth-first from g = 1 on ``width``
    coordinates under the ``moves`` (e, e on wedges): each edge moves the
    Plücker vector by e's action on wedges and composes e after g."""
    g = tuple((i, 1) for i in range(width))
    found = {key: g}
    todo = [(key, g)]
    for p, g in todo:
        for e, on_p in moves:
            image = exact.signed([s * p[i] for i, s in on_p])
            if image not in found:
                found[image] = eg = tuple((g[i][0], s * g[i][1]) for i, s in e)
                todo.append((image, eg))
    return found


def _lifts_over(q, lbars, gens, cap, norms, out, spent, budget):
    """Append to ``out`` (D -> list) each L of disc D <= cap, or of disc D
    in ``norms`` when given, that meets x_0 = 0 in one of ``lbars`` (a
    bucket of one disc); return ``spent`` plus the candidates walked.

    L(Z) is lbar(Z) + Z x for a unique primitive class x = (c, h), h > 0,
    of Z^m / lbar(Z) in the basis [lifts; e_0], and its disc is a positive
    definite form in x: det G times the Schur complement of G = B M B^T in
    the Gram of [B; lifts; e_0].  So the L of the given discs are one walk
    of that form's shells, and L's top row is (h, c lifts) reduced at the
    pivots of lbar's HNF basis B.

    A signed permutation g of x_1..x_{m-1} that fixes the Gram (see
    _stabiliser) maps [B; lifts; e_0] to [B g; lifts g; e_0] with the same
    Gram, and lifts g is a complement of (g lbar)(Z).  So g lbar has the
    same Schur form and the same walk, and its L are the L of lbar moved by
    g, with top rows (h, (c lifts) g).  The bucket thus splits into orbits
    keyed by Plücker vector (the rank-0 lbar by (), with no moves): the
    first lbar of an orbit walks, and each member is that lbar moved by its
    g, reduced at its own HNF head.  Each member counts the walk against the
    ``budget``, and passes it exactly where its own walk would have raised.
    """
    walk = kernel.short_vectors if norms is None else kernel.vectors_with_norms
    bound = cap if norms is None else norms
    k = lbars[0].k
    moves = [(e, _on_wedges(e, k)) for e in gens] if k and len(lbars) > 1 else []
    orbit = {}
    for lbar in lbars:
        key = exact.signed(exact.wedge(lbar.basis)) if k else ()
        if key not in orbit:
            schur, lifts = _schur_form(q, lbar)
            try:
                sols = walk(schur, bound, last_positive=True, limit=budget - spent)
            except BoundExceededError as exc:  # report the whole job's count
                raise BoundExceededError(spent + exc.count, budget) from None
            shared = len(sols), _coprime_classes(sols, lifts)
            for image, g in _orbit(moves, key, q.n - 1).items():
                orbit[image] = g, shared
        g, (walked, classes) = orbit.pop(key)
        spent += walked
        if spent > budget:
            raise BoundExceededError(spent, budget)
        head = tuple((0,) + r for r in lbar.basis)
        for u, found in classes:
            # the head's rows start with 0, so the top row's reduction at
            # their pivots touches only u: once per class, for every h
            u = tuple(quadform.reduce_at_pivots([s * u[i] for i, s in g], lbar.basis))
            for d, h in found:
                # rows are a basis of L(Z): x_0 maps L(Z) onto hZ with
                # kernel lbar(Z), and coprimality blocks any index drop
                out.setdefault(d, []).append(quadform.Subspace(q, ((h,) + u,) + head))
    return spent


def _schur_form(q, lbar):
    """(Schur form, lifts) of lbar: the form of _lifts_over in x = (c, h)."""
    head = [(0,) + r for r in lbar.basis]
    _, lifts = _projection_data(lbar)
    gram = quadform.gram_restriction(q, head + [[0] + r for r in lifts] + [[1] + [0] * (q.n - 1)])
    return [r[lbar.k:] for r in exact.bareiss(gram, lbar.k)[lbar.k:]], lifts


def _coprime_classes(sols, lifts):
    """The walk's solutions x = (c, h) grouped by class c, as (c lifts,
    the (D, h) with gcd(h, c) = 1): those x are primitive, one L each."""
    classes = {}
    for d, x in sols:
        classes.setdefault(x[:-1], []).append((d, x[-1]))
    return [(exact.vec_mat(c, lifts), [(d, h) for d, h in dh if math.gcd(h, *c) == 1])
            for c, dh in classes.items()]


def schmidt_table(n: int, k: int, max_disc: int) -> DiscClassTable:
    """H^{n,k}(D) for every D <= max_disc over the sum of squares: the
    hyperplane recursion on the identity Gram."""
    return recursion_table(quadform.QuadraticForm.sum_of_squares(n), k, max_disc)


def _planes_from_pairs(q, discs, budget):
    """H^{4,2}(D) over the sum of squares for each D in ``discs``, from
    pairs of Z^3 shells.  A plane's primitive Plücker vector p splits into
    a = (p12+p34, p13-p24, p14+p23) and b = (p12-p34, p13+p24, p14-p23),
    and the Plücker relation is |a|^2 = |b|^2, so |a|^2 = |b|^2 = D.  Each
    pair of norm-D vectors with a = b (mod 2) and a primitive p is one
    plane, met once when a runs over the half-shell (p and -p give the same
    plane).  p primitive means the columns of a basis generate Z^2, so the
    rows of p's antisymmetric matrix span L(Z) and their HNF is its basis.
    The half-shells and every pair count against the ``budget``."""
    shells = {}
    for d, a in kernel.vectors_with_norms(exact.identity(3), discs, limit=budget):
        shells.setdefault(d, {}).setdefault(tuple(x & 1 for x in a), []).append(a)
    work = sum(len(h) * (1 + 2 * len(h)) for classes in shells.values() for h in classes.values())
    if work > budget:
        raise BoundExceededError(work, budget)
    out = {}
    for d, classes in shells.items():
        planes = []
        for half in classes.values():
            full = half + [tuple(-x for x in b) for b in half]
            for a0, a1, a2 in half:
                for b0, b1, b2 in full:
                    p12, p34 = (a0 + b0) // 2, (a0 - b0) // 2
                    p13, p24 = (a1 + b1) // 2, (b1 - a1) // 2
                    p14, p23 = (a2 + b2) // 2, (a2 - b2) // 2
                    if math.gcd(p12, p13, p14, p23, p24, p34) == 1:
                        rows = exact.hnf_basis([[0, p12, p13, p14], [-p12, 0, p23, p24],
                                                [-p13, -p23, 0, p34], [-p14, -p24, -p34, 0]])
                        planes.append(quadform.Subspace(q, tuple(map(tuple, rows))))
        out[d] = tuple(sorted(planes, key=lambda s: s.basis))
    return out


def disc_buckets(
    q: quadform.QuadraticForm,
    k: int,
    discs: Sequence[int],
    max_candidates: Optional[int] = None,
) -> Dict[int, Tuple[quadform.Subspace, ...]]:
    """H^{n,k}_q(D) for each D in ``discs``, the one front door for a list
    of discriminants at every rank.  Planes of Z^4 (the sum of squares at
    n = 4, k = 2) come from pairs of Z^3 shells (_planes_from_pairs), at
    any D.  Every other job takes the hyperplane recursion with its rank-k
    row walked only at the D in ``discs`` (one shell walk of the Schur
    complement per lbar), never at the norms below them.  Raises
    ``ValueError`` as ``check_discs`` does, and ``BoundExceededError``
    once the walks pass ``max_candidates`` vectors in all, the full lbar
    tables below the rank-k row included."""
    budget = check_max_candidates(max_candidates)
    if not 1 <= k <= q.n:
        raise ValueError("need 1 <= k <= n")
    discs = check_discs(discs)
    if (q.n, k) == (4, 2) and q.is_sum_of_squares():
        planes = _planes_from_pairs(q, discs, budget)
        return {d: planes.get(d, ()) for d in discs}
    row = _recursion(q, k, max(discs), frozenset(discs), budget)
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
