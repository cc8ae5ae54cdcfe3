"""Batch verification suites for the library's exact identities.

Each suite samples desk-scale data (seeded), checks a family of exact
identities or bounds, and returns a machine-readable report:

    {"suite": ..., "params": ..., "passed": bool,
     "checks": [{"name", "cases", "failures", "first_failure"}, ...]}

The CLI exposes these under `latshape verify --suite NAME` and exits
nonzero when any check fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import exact
from . import padic
from . import quadform
from . import shapes
from . import subspaces


def _default_forms() -> List[quadform.QuadraticForm]:
    out = [quadform.QuadraticForm.sum_of_squares(n) for n in range(3, 7)]
    out.append(quadform.QuadraticForm.diagonal([1, 1, 2]))
    out.append(quadform.QuadraticForm.diagonal([1, 2, 3]))
    out.append(quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
    return out


def _sample_subspaces(q, count, rng, kmax=None):
    out = []
    top = q.n - 1 if kmax is None else min(kmax, q.n - 1)
    while len(out) < count:
        k = rng.randint(1, top)
        rows = [[rng.randint(-4, 4) for _ in range(q.n)] for _ in range(k)]
        if exact.rank_int(rows) != k:
            continue
        out.append(quadform.Subspace.from_rows(q, rows))
    return out


@dataclass
class _Check:
    name: str
    cases: int = 0
    failures: int = 0
    first_failure: Optional[str] = None

    def record(self, ok: bool, detail: str = ""):
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = detail


def _spread(forms, samples, seed, kmax=None):
    """Evenly spread `samples` subspaces over the form suite."""
    rng = random.Random(seed)
    per = -(-samples // len(forms))
    for q in forms:
        for L in _sample_subspaces(q, per, rng, kmax):
            yield q, L


# ---------------------------------------------------------------------------
# suites


def _suite_glue(forms, samples, seed):
    order = _Check("glue order equals discriminant")
    chain = _Check("invariant factor divisibility chain")
    local = _Check("local exponents rebuild the order")
    for q, L in _spread(forms, samples, seed):
        g = quadform.glue_group(q, L)
        d = quadform.disc(q, L)
        order.record(g.order == d, "disc %d glue %d %s" % (d, g.order, L.hnf_key()))
        ok = all(b % a == 0 for a, b in zip(g.factors, g.factors[1:]))
        chain.record(ok, str(g.factors))
        rebuilt = 1
        for p in padic.prime_divisors(g.order):
            rebuilt *= p ** sum(g.local_exponents(p))
        local.record(rebuilt == g.order, str(g.factors))
    return [order, chain, local]


def _suite_duality(forms, samples, seed):
    invol = _Check("dual lattice is an involution")
    proj = _Check("projected ambient dual equals dual of L(Z)")
    prod = _Check("i(L) i(Lperp) = disc(Q)")
    local = _Check("index product per prime")
    for q, L in _spread(forms, samples, seed):
        lat = L.lattice()
        invol.record(
            quadform.dual_lattice(q, quadform.dual_lattice(q, lat)) == lat,
            L.hnf_key(),
        )
        proj.record(
            quadform.project_lattice(q, L, quadform.standard_dual(q))
            == quadform.dual_lattice(q, lat),
            L.hnf_key(),
        )
        perp = quadform.orth_complement(q, L)
        i1, i2 = quadform.index_iL(q, L), quadform.index_iL(q, perp)
        prod.record(i1 * i2 == q.disc(), "%d*%d != %d" % (i1, i2, q.disc()))
        ok = all(
            exact.valuation(i1, p) + exact.valuation(i2, p)
            == exact.valuation(q.disc(), p)
            for p in padic.prime_divisors(q.disc())
        )
        local.record(ok, L.hnf_key())
    return [invol, proj, prod, local]


def _suite_indices(forms, samples, seed):
    iso = _Check("projection quotient invariants agree for L and Lperp")
    for q, L in _spread(forms, samples, seed):
        perp = quadform.orth_complement(q, L)
        std = quadform.Lattice.standard(q.n)
        inv1 = exact.quotient_invariants(
            [list(r) for r in L.basis],
            [list(r) for r in quadform.project_lattice(q, L, std).basis],
        )
        inv2 = exact.quotient_invariants(
            [list(r) for r in perp.basis],
            [list(r) for r in quadform.project_lattice(q, perp, std).basis],
        )
        iso.record(
            [x for x in inv1 if x != 1] == [x for x in inv2 if x != 1],
            "%s vs %s on %s" % (inv1, inv2, L.hnf_key()),
        )
    return [iso]


def _suite_orders(forms, samples, seed):
    ratio = _Check("disc(q_perp) i(L)^2 = disc(q_L) disc(Q)")
    bound = _Check("|nu_p disc q_L - nu_p disc q_perp| <= nu_p disc Q")
    glob = _Check("disc is the product of its local orders")
    for q, L in _spread(forms, samples, seed):
        perp = quadform.orth_complement(q, L)
        i_l = quadform.index_iL(q, L)
        dl, dp = quadform.disc(q, L), quadform.disc(q, perp)
        ratio.record(dp * i_l * i_l == dl * q.disc(), L.hnf_key())
        ok = all(
            abs(exact.valuation(dl, p) - exact.valuation(dp, p))
            <= exact.valuation(q.disc(), p)
            for p in padic.prime_divisors(q.disc(), dl)
        )
        bound.record(ok, L.hnf_key())
        rebuilt = 1
        for p in padic.prime_divisors(dl):
            rebuilt *= p ** quadform.local_disc(q, L, p)[0]
        glob.record(rebuilt == dl, L.hnf_key())
    return [ratio, bound, glob]


def _suite_primitive(forms, samples, seed):
    comp = _Check("1/i(L) disc L <= disc Lperp <= i(Lperp) disc L")
    tau = _Check("disc(q_perp) = i(Lperp)^2 disc(tau_perp)")
    gdiv = _Check("content of the larger side divides disc(Q)")
    for q, L in _spread(forms, samples, seed):
        perp = quadform.orth_complement(q, L)
        d1, d2 = quadform.disc(q, L), quadform.disc(q, perp)
        i1, i2 = quadform.index_iL(q, L), quadform.index_iL(q, perp)
        comp.record(Fraction(d1, i1) <= d2 <= i2 * d1, L.hnf_key())
        q_l, q_p, t = quadform.restricted_forms(q, L)
        tau.record(d2 == i2 * i2 * exact.det_fraction(t), L.hnf_key())
        if L.k != perp.k:
            content, _ = quadform.content_and_primitive(q_l if L.k > perp.k else q_p)
            gdiv.record(q.disc() % content == 0, L.hnf_key())
    return [comp, tau, gdiv]


def _suite_lambda(forms, samples, seed):
    inter = _Check("L meets Lambda_L exactly in L(Z)")
    proj = _Check("Lambda_L projects onto the dual of Lperp(Z)")
    dualm = _Check("dual of Lambda_L meets Lperp in Lperp(Z)")
    sandwich = _Check("Z^n inside Lambda_L inside the ambient dual (when clean)")
    for q, L in _spread(forms, samples, seed):
        lam, clean = quadform.lambda_L(q, L)
        inter.record(
            quadform.lattice_intersect_subspace(lam, L) == L.lattice(), L.hnf_key()
        )
        perp = quadform.orth_complement(q, L)
        proj.record(
            quadform.project_lattice(q, perp, lam)
            == quadform.dual_lattice(q, perp.lattice()),
            L.hnf_key(),
        )
        dualm.record(
            quadform.lattice_intersect_subspace(quadform.dual_lattice(q, lam), perp)
            == perp.lattice(),
            L.hnf_key(),
        )
        if clean:
            sandwich.record(
                lam.contains_lattice(quadform.Lattice.standard(q.n))
                and quadform.standard_dual(q).contains_lattice(lam),
                L.hnf_key(),
            )
    return [inter, proj, dualm, sandwich]


def _suite_schmidt(samples, seed, dmax=None):
    dmax = 16 if dmax is None else dmax
    agree31 = _Check("schmidt matches vector enumeration (3,1)")
    agree42 = _Check("schmidt matches vector enumeration (4,2)")
    agree_a4 = _Check("recursion matches vector enumeration on A4 (k=2)")
    roundtrip = _Check("compose(decompose(L)) = L")
    recursion = _Check("disc recursion D = D' Q(h, v)")
    q3 = quadform.QuadraticForm.sum_of_squares(3)
    q4 = quadform.QuadraticForm.sum_of_squares(4)
    a4 = quadform.QuadraticForm([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
    tables = {}
    for check, q, k in ((agree31, q3, 1), (agree42, q4, 2), (agree_a4, a4, 2)):
        tables[q, k] = subspaces.recursion_table(q, k, dmax)
        vector_side = subspaces.enumerate_by_disc(q, k, dmax)
        for d in range(1, dmax + 1):
            a = {s.basis for s in tables[q, k].get(d)}
            b = {s.basis for s in vector_side.get(d)}
            check.record(a == b, "D=%d: %d vs %d" % (d, len(a), len(b)))
    rng = random.Random(seed)
    pool = [
        s
        for table in tables.values()
        for d in range(1, dmax + 1)
        for s in table.get(d)
        if s.basis[0][0]  # decompose rejects the residents of x_0 = 0
    ]
    rng.shuffle(pool)
    for L in pool[:samples]:
        q = L.form
        triple = subspaces.schmidt_decompose(L)
        roundtrip.record(
            subspaces.schmidt_compose(q, triple).basis == L.basis, L.hnf_key()
        )
        w = (triple.h,) + triple.v
        m = sum(x * y for x, y in zip(exact.vec_mat(w, q.gram), w))
        lhs = Fraction(quadform.disc(q, L))
        rhs = quadform.disc(triple.lbar.form, triple.lbar) * m
        recursion.record(lhs == rhs, L.hnf_key())
    return [agree31, agree42, agree_a4, roundtrip, recursion]


def _suite_nonempty(samples, seed, dmax=None):
    top42 = 200 if dmax is None else dmax
    top31 = 500 if dmax is None else dmax
    quad = _Check("(4,2) emptiness matches D mod 16 rule")
    legendre = _Check("(3,1) emptiness matches D mod 8 rule")
    table42 = subspaces.schmidt_table(4, 2, top42)
    for d in range(1, top42 + 1):
        want_empty = d % 16 in (0, 7, 12, 15)
        quad.record(
            (len(table42.get(d)) == 0) == want_empty,
            "D=%d count=%d" % (d, len(table42.get(d))),
        )
    q3 = quadform.QuadraticForm.sum_of_squares(3)
    table31 = subspaces.enumerate_by_disc(q3, 1, top31)
    for d in range(1, top31 + 1):
        want_empty = d % 8 in (0, 4, 7)
        legendre.record(
            (len(table31.get(d)) == 0) == want_empty,
            "D=%d count=%d" % (d, len(table31.get(d))),
        )
    verdicts = _Check("verdict classifier agrees with the tables")
    for n, k, table, top in ((4, 2, table42, top42), (3, 1, table31, top31)):
        for d in range(1, top + 1):
            v = subspaces.nonempty_criterion(n, k, d)
            got = len(table.get(d)) > 0
            if v == subspaces.Verdict.EMPTY:
                verdicts.record(not got, "(%d,%d) D=%d" % (n, k, d))
            elif v in (subspaces.Verdict.NONEMPTY, subspaces.Verdict.ALWAYS_NONEMPTY):
                verdicts.record(got, "(%d,%d) D=%d" % (n, k, d))
    return [quad, legendre, verdicts]


def _hensel_isotropic(entries, p) -> bool:
    """Certificate sweep over Z/p^(2t+1): a primitive zero with gradient
    valuation <= t = v_p(2) + max v_p(d_i) exists iff the form is
    isotropic over Q_p (Hensel lifting in the witness coordinate)."""
    ents = [int(e) for e in entries]
    g = math.gcd(*ents)
    ents = [e // g for e in ents]
    t = exact.valuation(2, p) + max(exact.valuation(e, p) for e in ents)
    mod = p ** (2 * t + 1)
    cap = t + 1
    states = {(0, False, cap)}
    for d in ents:
        steps = set()
        for x in range(mod):
            val = d * x * x % mod
            if x == 0:
                steps.add((val, False, cap))
            else:
                gv = min(exact.valuation(2 * d * x, p), cap)
                steps.add((val, x % p != 0, gv))
        states = {
            ((v0 + val) % mod, u0 or unit, min(g0, gv))
            for (v0, u0, g0) in states
            for (val, unit, gv) in steps
        }
    return any(v == 0 and unit and gv <= t for (v, unit, gv) in states)


def _suite_isotropy(samples, seed):
    agree = _Check("classification equals the certificate sweep")
    rng = random.Random(seed)
    pool = [1, -1, 2, -2, 3, -3, 5, -5]
    for _ in range(samples):
        rank = rng.randint(2, 4)
        ents = [rng.choice(pool) for _ in range(rank)]
        p = rng.choice([2, 3, 5, 7])
        got = padic.is_isotropic_diagonal(ents, p)
        want = _hensel_isotropic(ents, p)
        agree.record(got == want, "%s at p=%d: %s vs %s" % (ents, p, got, want))
    return [agree]


def _suite_reciprocity(samples, seed):
    product = _Check("Hilbert symbol product over all places is 1")
    rng = random.Random(seed)
    for _ in range(samples):
        a = rng.randint(-300, 300) or 1
        b = rng.randint(-300, 300) or -1
        prod = padic.hilbert_symbol(a, b, "inf")
        for p in padic.prime_divisors(2 * a * b):
            prod *= padic.hilbert_symbol(a, b, p)
        product.record(prod == 1, "(%d,%d)" % (a, b))
    return [product]


def _suite_moduli(forms, samples, seed):
    import numpy as np

    residual = _Check("moduli point residuals below 1e-9")
    unit_det = _Check("det m = 1 within 1e-9")
    side_l = _Check("L block reproduces the exact restricted Gram")
    side_p = _Check("perp block is integrally equivalent to the exact Gram")
    if forms is None:
        forms = [
            quadform.QuadraticForm.sum_of_squares(5),
            quadform.QuadraticForm.sum_of_squares(6),
            quadform.QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
        ]
    for q, L in _spread(forms, samples, seed):
        pt = shapes.moduli_point(q, L)
        res = max(pt.residuals().values())
        residual.record(res < 1e-9, "%.3g on %s" % (res, L.hnf_key()))
        unit_det.record(abs(np.linalg.det(pt.m) - 1.0) < 1e-9, L.hnf_key())
        gram_l, gram_p = shapes.shapes_from_moduli(q, pt)
        exact_l = np.array(quadform.gram_restriction(q, L), dtype=float)
        s = (pt.alpha * pt.lam) ** 2
        side_l.record(
            float(np.abs(gram_l / s - exact_l).max()) < 1e-9, L.hnf_key()
        )
        perp = quadform.orth_complement(q, L)
        exact_p = quadform.gram_restriction(q, perp)
        ratio = np.linalg.det(gram_p) / np.linalg.det(
            np.array(exact_p, dtype=float)
        )
        snapped = gram_p / ratio ** (1.0 / len(exact_p))
        rounded = [[round(v) for v in row] for row in snapped]
        scale = max(1.0, float(np.abs(snapped).max()))
        ok = float(
            np.abs(snapped - np.array(rounded, dtype=float)).max()
        ) < 1e-6 * scale and shapes.forms_equivalent(rounded, exact_p)
        side_p.record(ok, L.hnf_key())
    return [residual, unit_det, side_l, side_p]


def _cayley_rotation(q, rng):
    """Random rational g in SO_Q via g = (I - A)(I + A)^{-1}, A = M^{-1} S
    with S skew.  I + A = M^{-1}(M + S) is always invertible, since
    x^T (M + S) x = x^T M x > 0 for x != 0."""
    n = q.n
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = rng.randint(-3, 3)
            s[j][i] = -s[i][j]
    a = exact.mat_mul(q.inverse_gram(), s)
    iplus = [[(1 if i == j else 0) + a[i][j] for j in range(n)] for i in range(n)]
    iminus = [[(1 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
    return exact.mat_mul(iminus, exact.inverse_fraction(iplus))


def _suite_continuity(forms, samples, seed):
    member = _Check("Cayley transform lands in SO_Q(Q)")
    bound = _Check("|nu_p disc(gL) - nu_p disc(L)| <= 2k ord_p(g)")
    integral = _Check("integral rotations preserve the discriminant")
    rng = random.Random(seed)
    if forms is None:
        forms = [
            quadform.QuadraticForm.sum_of_squares(3),
            quadform.QuadraticForm.sum_of_squares(4),
            quadform.QuadraticForm.diagonal([1, 1, 2]),
        ]
    per = -(-samples // len(forms))
    for q in forms:
        so_group = quadform.special_orthogonal_group(q)
        for L in _sample_subspaces(q, per, rng):
            g = _cayley_rotation(q, rng)
            member.record(quadform.is_special_orthogonal(q, g), L.hnf_key())
            moved = quadform.rotate_subspace(g, L)
            d0, d1 = quadform.disc(q, L), quadform.disc(q, moved)
            ok = True
            witness = ""
            for p in padic.prime_divisors(exact.denominator_lcm(g)):
                ell = quadform.rotation_ord_p(g, p)
                if abs(exact.valuation(d0, p) - exact.valuation(d1, p)) > 2 * L.k * ell:
                    ok = False
                    witness = "p=%d d0=%d d1=%d ord=%d" % (p, d0, d1, ell)
                    break
            bound.record(ok, witness or L.hnf_key())
            h = so_group[rng.randrange(len(so_group))]
            integral.record(
                quadform.disc(q, quadform.rotate_subspace(h, L)) == d0, L.hnf_key()
            )
    return [member, bound, integral]


_DISPATCH = {
    "glue": _suite_glue,
    "duality": _suite_duality,
    "indices": _suite_indices,
    "orders": _suite_orders,
    "primitive": _suite_primitive,
    "lambda": _suite_lambda,
    "schmidt": _suite_schmidt,
    "nonempty": _suite_nonempty,
    "isotropy": _suite_isotropy,
    "reciprocity": _suite_reciprocity,
    "moduli": _suite_moduli,
    "continuity": _suite_continuity,
}
SUITES = tuple(_DISPATCH)


def verify(
    suite: str,
    form: Optional[quadform.QuadraticForm] = None,
    samples: int = 200,
    seed: int = 0,
    dmax: Optional[int] = None,
) -> Dict:
    """Run one named suite and return its JSON-ready report.

    `form` restricts the form-driven suites to a single quadratic form and
    `dmax` bounds the discriminants of schmidt and nonempty.  A suite that
    has no use for either refuses it with ``ValueError``, and so does every
    suite for ``samples <= 0``: a pass over no cases would check nothing.
    Also refused: a ``samples`` that is not an int (a bool or 2.5) and a
    form of rank n < 2, which has no subspace of rank 1 to n-1 to sample;
    the tables refuse a ``dmax`` below 1 or not an int as ``max_disc``.
    """
    if suite not in _DISPATCH:
        raise ValueError("unknown suite %r; choose from %s" % (suite, SUITES))
    if type(samples) is not int or samples <= 0:
        raise ValueError("samples must be positive, got %r" % (samples,))
    if form is not None and suite in ("schmidt", "nonempty", "isotropy", "reciprocity"):
        raise ValueError("suite %r takes no form" % suite)
    if form is not None and form.n < 2:
        raise ValueError("the suites sample subspaces of rank 1 to n-1, so need n >= 2, got n = %d" % form.n)
    if dmax is not None and suite not in ("schmidt", "nonempty"):
        raise ValueError("suite %r takes no dmax" % suite)
    fn = _DISPATCH[suite]
    if suite in ("schmidt", "nonempty"):
        checks = fn(samples, seed, dmax)
    elif suite in ("isotropy", "reciprocity"):
        checks = fn(samples, seed)
    elif suite in ("moduli", "continuity"):
        checks = fn([form] if form is not None else None, samples, seed)
    else:
        checks = fn([form] if form is not None else _default_forms(), samples, seed)
    report = {
        "suite": suite,
        "params": {"samples": samples, "seed": seed, "dmax": dmax},
        "checks": [asdict(c) for c in checks],
    }
    report["passed"] = all(c.failures == 0 for c in checks)
    return report
