"""Enumeration of rational subspaces with a fixed discriminant.

Three enumerators:

* enumerate_by_disc: a Minkowski-bound vector search (a DFS over short
  vectors), valid for any positive definite integral form;
* lines_with_disc: the lines of one discriminant, from the fixed-norm
  shell alone;
* schmidt_table: the hyperplane recursion, for the sum of squares.

The test suite cross-validates the vector search and the recursion on
overlapping ranges.

Canonical output: every subspace is stored by the HNF basis of
L(Z) = L ∩ Z^n, so deduplication is by that basis; lists are sorted by
it as well.  The vector search and the shell reach it through
Subspace.from_rows.  The recursion knows its rows are already a basis of
L(Z): it canonicalises them with Subspace.from_saturated_rows, and embeds
the subspaces inside the hyperplane by appending a zero column to their
HNF basis.
"""

from __future__ import annotations

import enum
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
        raise BoundExceededError(
            "candidate bound exceeded: %d vectors (cap %d)" % (count, cap)
        )


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
    """All of H^{n,k}_q(D) for every D <= max_disc, in one vector sweep."""
    n = q.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if max_disc < 1:
        raise ValueError("max_disc must be >= 1")
    buckets: Dict[int, List[quadform.Subspace]] = {}

    if k == 1:
        cands = kernel.short_vectors(q.gram, max_disc)
        _check_candidates(len(cands), max_candidates)
        for norm, vec in cands:
            if math.gcd(*vec) == 1:
                sub = quadform.Subspace.from_rows(q, [list(vec)])
                buckets.setdefault(norm, []).append(sub)
    elif k == n:
        if max_disc >= q.disc():
            full = quadform.Subspace.from_rows(q, exact.identity(n))
            buckets.setdefault(q.disc(), []).append(full)
    else:
        e = k * (k - 1) // 2
        bound = hermite_bound(k, max_disc)
        cands = kernel.short_vectors(q.gram, bound)
        _check_candidates(len(cands), max_candidates)
        gram = q.gram
        m = len(cands)
        seen = set()

        def bilin(u, w):
            return sum(u[i] * sum(gram[i][j] * w[j] for j in range(n)) for i in range(n))

        # DFS over index-increasing tuples; candidate list is sorted by
        # norm, so the norm-product prune allows a hard break
        def extend(start, rows, grams, prod, depth):
            for i in range(start, m):
                norm, vec = cands[i]
                nprod = prod * norm
                if nprod * 3**e > 4**e * max_disc:
                    break
                pair = [bilin(vec, r) for r in rows]
                g_rows = [grams[t] + [pair[t]] for t in range(depth)]
                g_rows.append(pair + [norm])
                if exact.det_int(g_rows) == 0:
                    continue
                new_rows = rows + [list(vec)]
                if depth + 1 == k:
                    sub = quadform.Subspace.from_rows(q, new_rows)
                    if sub.basis in seen:
                        continue
                    seen.add(sub.basis)
                    d = quadform.disc(q, sub)
                    if d <= max_disc:
                        buckets.setdefault(d, []).append(sub)
                else:
                    extend(i + 1, new_rows, g_rows, nprod, depth + 1)

        extend(0, [], [], 1, 0)

    return DiscClassTable({d: tuple(sorted(subs, key=lambda s: s.basis)) for d, subs in buckets.items()})


def lines_with_disc(
    q: quadform.QuadraticForm,
    disc: int,
    max_candidates: Optional[int] = None,
) -> List[quadform.Subspace]:
    """H^{n,1}_q(disc) from the fixed-norm shell only.

    Unlike enumerate_by_disc this never walks norms below disc, so it
    stays cheap for a single large discriminant.
    """
    if disc < 1:
        raise ValueError("disc must be >= 1")
    shell = kernel.vectors_with_norm(q.gram, disc)
    _check_candidates(len(shell), max_candidates)
    out = [
        quadform.Subspace.from_rows(q, [list(v)]) for v in shell if math.gcd(*v) == 1
    ]
    out.sort(key=lambda s: s.basis)
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
    perp, adj, dprime, _ = _projection_data(lbar)
    # v = sum_i c_i p_i^# with c_i = u.p_i and dual basis adj @ perp / dprime
    c = [sum(x * y for x, y in zip(u, p)) for p in perp]
    v = exact.vec_mat(exact.vec_mat(c, adj), perp) if perp else [0] * len(u)
    return SchmidtTriple(h, lbar, tuple(Fraction(x, dprime) for x in v))


def _projection_data(lbar: quadform.Subspace):
    """Integer data of the projection of Z^n onto the complement of lbar.

    Returns ``(P, adj, dprime, lifts)``.  P is the HNF basis of
    lbar^perp ∩ Z^n.  Z^n is unimodular and P is saturated, so the
    projection of Z^n is the dual lattice P^#, whose dual basis
    adj @ P / dprime has Gram (P P^T)^-1 = adj / dprime, with
    adj = adj(P P^T) and dprime = det(P P^T) = disc(lbar).  A vector u
    projects to the coordinates c = u @ P^T in that basis, and lifts[i]
    is an integer u with u @ P^T = e_i: the top rows of U in
    U @ P^T = H, whose top block is the identity because P is saturated.
    """
    perp = [list(r) for r in quadform.orth_complement(lbar.form, lbar).basis]
    adj, dprime = exact.adjugate(exact.mat_mul(perp, exact.transpose(perp)))
    h, u = exact.hnf(exact.transpose(perp))
    rank = len(perp)
    assert h[:rank] == exact.identity(rank)
    return perp, adj, dprime, u[:rank]


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
    perp, _, _, lifts = _projection_data(lbar)
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


def _schmidt_sweep(q: quadform.QuadraticForm, below, lbar_table, max_disc: int):
    """One step of the hyperplane recursion: dict D -> tuple of subspaces
    of Q^n, for all D <= max_disc, from the tables of Q^(n-1).

    ``below`` is H^{n-1,k}; with a zero coordinate appended it gives the
    subspaces inside the hyperplane.  ``lbar_table`` is H^{n-1,k-1}.  A
    subspace with data (h, lbar, v) has disc D'(h^2 + Q(v)), with
    D' = disc(lbar).  In the dual basis of the projected lattice (see
    _projection_data) D' Q(v) = c adj c^T is an integer, so the step runs
    over every lbar and every short vector c of adj with
    D' h^2 + c adj c^T <= max_disc.
    """
    out: Dict[int, Dict[Tuple, quadform.Subspace]] = {}
    for d, subs in below.items():
        for sub in subs:
            # an HNF basis with a zero column appended is still one
            emb = quadform.Subspace(q, tuple(r + (0,) for r in sub.basis))
            out.setdefault(d, {})[emb.basis] = emb
    for dprime, lbars in lbar_table.items():
        for lbar in lbars:
            _, adj, _, lifts = _projection_data(lbar)
            # disc = dprime*h^2 + w with w = c adj c^T and h >= 1
            norm_cap = max_disc - dprime
            sols = [(0, tuple(0 for _ in range(len(lifts))))]
            if norm_cap >= 1:
                for w, c in kernel.short_vectors(adj, norm_cap):
                    sols.append((w, c))
                    sols.append((w, tuple(-x for x in c)))
            for w, c in sols:
                content = math.gcd(*c)
                u = exact.vec_mat(c, lifts)
                h = 1
                while dprime * h * h + w <= max_disc:
                    if math.gcd(h, content) == 1:
                        d = dprime * h * h + w
                        # rows are a basis of L(Z): the last coordinate maps
                        # L(Z) onto hZ with kernel lbar(Z), and coprimality
                        # blocks any index drop
                        new_rows = [list(r) + [0] for r in lbar.basis]
                        new_rows.append(u + [h])
                        sub = quadform.Subspace.from_saturated_rows(q, new_rows)
                        out.setdefault(d, {})[sub.basis] = sub
                    h += 1
    return {
        d: tuple(sorted(m.values(), key=lambda s: s.basis)) for d, m in out.items()
    }


def schmidt_table(n: int, k: int, max_disc: int) -> DiscClassTable:
    """H^{n,k}(D) for every D <= max_disc, via the hyperplane recursion.

    Builds the tables bottom-up: row n' holds H^{n',k'} for the k' that
    H^{n,k} still needs, each from two tables of row n'-1, so every
    (n', k') is built once and nothing outlives the call.  For
    D' < max_disc, the entries with D <= D' are the table up to D'.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if max_disc < 1:
        raise ValueError("max_disc must be >= 1")
    row: Dict[int, Dict[int, Tuple[quadform.Subspace, ...]]] = {}
    for m in range(1, n + 1):
        q = quadform.QuadraticForm.sum_of_squares(m)
        lower, row = row, {}
        for j in range(max(0, k - (n - m)), min(k, m) + 1):
            if j == 0:
                row[j] = {1: (quadform.Subspace.from_rows(q, []),)}
            elif j == m:
                row[j] = {1: (quadform.Subspace.from_rows(q, exact.identity(m)),)}
            else:
                row[j] = _schmidt_sweep(q, lower[j], lower[j - 1], max_disc)
    return DiscClassTable(row[k])


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
