"""Equidistribution experiments over H^{n,k}_Q(D).

For each requested discriminant (distinct; a repeated D is refused) the
full set of subspaces is enumerated, per-subspace observables are
written to CSV (one row per subspace), and per-discriminant discrepancy
statistics are collected into a summary report:

  * (n,k) = (3,1) over the sum of squares: Kolmogorov-Smirnov distance
    of the z-coordinates of ±v/sqrt(D) against the uniform law on
    [-1,1], the exact pushforward of the rotation-invariant sphere
    measure.
  * two-dimensional side (k = 2 or n-k = 2): KS distance of the
    y-coordinates of the fundamental-domain shape points against the
    CDF of the hyperbolic area (3/pi) dx dy / y^2 on the fundamental
    domain, tabulated in process by Simpson quadrature.
  * generic Grassmannian: two-sample KS of the pooled projection matrix
    entries against seeded Monte-Carlo samples from the invariant
    measure.

Empirical measures are plain counting measures by default; the
stabilizer weighting puts mass 1/|stab| on a subspace, where stab is
the stabilizer of L in SO_Q(Z).  Stabilizer orders come from the
SO_Q(Z)-orbits of each bucket (``quadform.orbits``): by orbit-stabiliser
|Stab(L)| = |SO_Q(Z)| / |orbit of L|, so the group acts once per orbit,
not once per subspace.  Each per-discriminant summary reports the number
of orbits (the distinct representatives of the orbit map) and the
histogram of stabilizer orders over the subspaces.

Every recorded observable is carried along an orbit by its group
element: a member is its representative moved by g.  So the complement,
the Grams, the contents and the shapes are computed once per orbit, on its
representative, and the members' moved bases are stacked in exact integer
arrays (numpy ``dtype=object``, so Python ints that never wrap): each
member's projection is one slice of a batched product of them, and each
side's orientation the sign of one of their wedges (``_bucket_records``).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import exact
from . import quadform
from . import shapes
from . import subspaces

KINDS = ("grassmann", "shape_L", "shape_Lperp", "joint")
WEIGHTINGS = ("plain", "stabilizer")


@dataclass(frozen=True)
class ExperimentConfig:
    form: quadform.QuadraticForm
    k: int
    discs: Tuple[int, ...]
    kind: str = "joint"
    weighting: str = "plain"
    out_path: Optional[str] = None
    jobs: int = 1
    seed: int = 0
    mc_samples: int = 2048
    max_candidates: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "discs", subspaces.check_discs(self.discs))
        if len(set(self.discs)) != len(self.discs):
            raise ValueError("discriminants must not repeat")
        if not 1 <= self.k < self.form.n:
            raise ValueError("need 1 <= k < n")
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if self.weighting not in WEIGHTINGS:
            raise ValueError("weighting must be one of %s" % (WEIGHTINGS,))
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")
        subspaces.check_max_candidates(self.max_candidates)


@dataclass(frozen=True)
class RecordRow:
    disc: int
    hnf: str
    proj: Tuple[float, ...]
    shape_l: Optional[Tuple[float, float]]
    shape_perp: Optional[Tuple[float, float]]
    disc_prim_l: int
    disc_prim_perp: int
    stab_order: int


# ---------------------------------------------------------------------------
# reference laws


def sphere_z_cdf(t):
    """CDF of the last coordinate of a uniform point on S^2 (uniform on
    [-1,1] by the Archimedes projection); elementwise on an array, a float
    for a float."""
    out = np.clip((np.asarray(t, dtype=float) + 1.0) / 2.0, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


_Y0 = math.sqrt(3.0) / 2.0


def _hyperbolic_density(y: float) -> float:
    """y-marginal density of (3/pi) dx dy / y^2 on the fundamental domain
    {|x| <= 1/2, x^2 + y^2 >= 1}."""
    if y <= _Y0:
        return 0.0
    if y <= 1.0:
        return (3.0 / math.pi) * (1.0 - 2.0 * math.sqrt(max(0.0, 1.0 - y * y))) / (y * y)
    return (3.0 / math.pi) / (y * y)


def _simpson(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))


@lru_cache(maxsize=1)
def _hyperbolic_table():
    """Knots, CDF and tail coefficient of the y-law, by composite Simpson
    quadrature: 1536 panels in theta on y = sin(theta) over [pi/3, pi/2]
    (smooth at y = 1, dense where the density changes fastest), then steps
    of 1/256 from y = 1 to 12.  Mass above the last knot t is summarized by
    tail = t (1 - F(t)), so F(y) = 1 - tail / y beyond it."""
    knots, cdf, acc = [_Y0], [0.0], 0.0

    def g(theta):
        # density along y = sin(theta), times dy/dtheta
        return _hyperbolic_density(math.sin(theta)) * math.cos(theta)

    theta_panels, t0, t1 = 1536, math.pi / 3.0, math.pi / 2.0
    for i in range(1, theta_panels + 1):
        a = t0 + (t1 - t0) * (i - 1) / theta_panels
        b = t0 + (t1 - t0) * i / theta_panels
        acc += _simpson(g, a, b)
        knots.append(math.sin(b))
        cdf.append(acc)
    mid_step = 1.0 / 256
    for i in range(1, round((12.0 - 1.0) / mid_step) + 1):
        a = 1.0 + mid_step * (i - 1)
        b = 1.0 + mid_step * i
        acc += _simpson(_hyperbolic_density, a, b)
        knots.append(b)
        cdf.append(acc)
    return np.asarray(knots), np.asarray(cdf), knots[-1] * (1.0 - cdf[-1])


def hyperbolic_y_cdf(t):
    """CDF of the y-marginal of the normalized hyperbolic area on the
    fundamental domain, interpolated from the quadrature table: 0 up to
    its first knot (where the table's CDF is 0) and 1 - tail / t from its
    last.  Elementwise on an array, a float for a float."""
    knots, cdf, tail = _hyperbolic_table()
    x = np.asarray(t, dtype=float)
    out = np.interp(x, knots, cdf)
    far = x >= knots[-1]
    if np.any(far):
        out = np.where(far, 1.0 - tail / np.maximum(x, knots[-1]), out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# discrepancy statistics


def ks_statistic(samples, cdf: Callable[[np.ndarray], np.ndarray], weights=None) -> float:
    """sup |F_emp - F_ref| for a (possibly weighted) empirical measure.

    The reference ``cdf`` is called once, on the sorted sample array, so
    it must act elementwise on arrays, as ``sphere_z_cdf`` and
    ``hyperbolic_y_cdf`` do.  Raises ``ValueError`` on no samples and on
    weights that are not positive or do not match the samples."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("ks_statistic needs at least one sample")
    order = np.argsort(x, kind="stable")
    x = x[order]
    if weights is None:
        cum = np.arange(1, x.size + 1, dtype=float) / x.size
    else:
        w = np.asarray(weights, dtype=float)
        if w.size != x.size or np.any(w <= 0):
            raise ValueError("weights must be positive and match the samples")
        cum = np.cumsum(w[order]) / float(np.sum(w))
    ref = np.asarray(cdf(x), dtype=float)
    below = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(ref - cum), np.abs(ref - below))))


def two_sample_ks(a, b, weights_a=None) -> float:
    """sup |F_a - F_b| between two empirical CDFs (the first may carry
    weights); evaluated at every jump point so the sup is exact.  Raises
    ``ValueError`` on an empty sample and on weights that are not positive
    or do not match the first sample."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("two_sample_ks needs nonempty samples")
    oa = np.argsort(xa, kind="stable")
    xa = xa[oa]
    if weights_a is None:
        pa = np.arange(xa.size + 1, dtype=float) / xa.size
    else:
        w = np.asarray(weights_a, dtype=float)
        if w.size != xa.size or np.any(w <= 0):
            raise ValueError("weights must be positive and match the samples")
        w = w[oa]
        pa = np.concatenate(([0.0], np.cumsum(w))) / float(np.sum(w))
    xb = np.sort(xb)
    pb = np.arange(xb.size + 1, dtype=float) / xb.size
    grid = np.concatenate((xa, xb))
    fa = pa[np.searchsorted(xa, grid, side="right")]
    fb = pb[np.searchsorted(xb, grid, side="right")]
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# per-subspace observables


def _shape_points(gram):
    """Shape points of a binary Gram [[a,b],[b,c]] and of its mirror
    [[a,-b],[-b,c]]; None on other ranks."""
    if len(gram) != 2:
        return None
    (a, b), (_, c) = gram
    pts = (shapes.upper_half_point(gram), shapes.upper_half_point([[a, -b], [-b, c]]))
    return tuple((pt.x, pt.y) for pt in pts)


def _grassmann_mc(q: quadform.QuadraticForm, k: int, rng, count: int) -> np.ndarray:
    """Pooled projection entries of `count` subspaces drawn from the
    SO_Q(R)-invariant measure on the real Grassmannian.

    One (count, n, k) Gaussian draw, in the order of `count` successive
    (n, k) draws; each y = S^{-1} x spans a sample and P = y (y^T M y)^{-1}
    y^T M is its projection, all `count` at once by stacked products.
    """
    m = np.array([[float(x) for x in row] for row in q.gram])
    sinv = np.linalg.inv(np.linalg.cholesky(m).T)
    y = sinv @ rng.standard_normal((count, q.n, k))
    ytm = np.swapaxes(y, 1, 2) @ m
    return (y @ np.linalg.inv(ytm @ y) @ ytm).reshape(-1)


# ---------------------------------------------------------------------------
# the per-discriminant worker and the driver


def _orientations(points, rows):
    """The shape point of each saturated rank-2 lattice with basis rows[t],
    from the stacked moved rows (an exact integer array, m x 2 x n).

    Its HNF basis is T·rows[t] for some T in GL_2(Z), and the first nonzero
    entry of its wedge is the product of its pivots, so positive; det T is
    thus the sign of the first nonzero entry of the wedge of rows[t], +1
    when ``exact.signed`` leaves that wedge unchanged.  The Gram is T G T^T:
    the representative's SL_2(Z) class when det T = 1 and the mirror's
    when det T = -1.
    """
    wedges = zip(*exact.wedge(rows.transpose(1, 2, 0)))
    return [points[0] if exact.signed(w) == w else points[1] for w in wedges]


def _bucket_records(q: quadform.QuadraticForm, subs, orbit_of) -> List[RecordRow]:
    """One record per subspace of the bucket, by the orbit map of
    ``quadform.orbits``.

    Everything G-invariant (complement, Grams, contents, both orientations
    of each binary shape, adj(G) and det G = D for L's Gram G) is computed
    once per orbit, on its representative, with basis B.  Each member
    sub = g·rep has the basis R = B·u, u = g^T, stacked over the orbit in an
    exact integer array (numpy ``dtype=object``, so Python ints).  u is an
    isometry of the form M, so R has the Gram G and the projection onto sub
    is M R^T adj(G) R / D, kept transposed as in
    ``shapes.grassmann_coordinates``: one batched product divided with int
    true division (the nearest float, as ``float(Fraction(x, D))``).  Each
    rank-2 side's orientation is ``_orientations`` of its moved rows.
    """
    order = len(quadform.special_orthogonal_group(q))
    m = np.array(q.gram, dtype=object)
    members: Dict[int, List[int]] = {}
    for j, entry in enumerate(orbit_of):
        members.setdefault(entry.rep, []).append(j)
    rows: List[Optional[RecordRow]] = [None] * len(subs)
    for rep, idx in members.items():
        sub = subs[rep]
        perp = quadform.orth_complement(q, sub)
        gram_l = quadform.gram_restriction(q, sub)
        gram_p = quadform.gram_restriction(q, perp)
        _, prim_l = quadform.content_and_primitive(gram_l)
        _, prim_p = quadform.content_and_primitive(gram_p)
        adj, disc = exact.adjugate(gram_l)
        disc_prim_l, disc_prim_perp = exact.det_int(prim_l), exact.det_int(prim_p)
        units = np.array([orbit_of[j].g for j in idx], dtype=object).transpose(0, 2, 1)
        moved = np.array(sub.basis, dtype=object) @ units
        p = moved.transpose(0, 2, 1) @ np.array(adj, dtype=object) @ (moved @ m)
        proj = (p.reshape(len(idx), -1) / disc).tolist()
        none, points_l, points_p = [None] * len(idx), _shape_points(gram_l), _shape_points(gram_p)
        shape_l = none if points_l is None else _orientations(points_l, moved)
        shape_perp = none if points_p is None else _orientations(
            points_p, np.array(perp.basis, dtype=object) @ units)
        stab = order // orbit_of[rep].size
        for t, j in enumerate(idx):
            rows[j] = RecordRow(
                disc=disc,
                hnf=subs[j].hnf_key(),
                proj=tuple(proj[t]),
                shape_l=shape_l[t],
                shape_perp=shape_perp[t],
                disc_prim_l=disc_prim_l,
                disc_prim_perp=disc_prim_perp,
                stab_order=stab,
            )
    return rows


def _bucket_worker(args):
    """Records and summary of one discriminant.

    The bucket is split into SO_Q(Z)-orbits once (``quadform.orbits``);
    that gives the stabiliser orders and, through the orbit map, every
    record from one full computation per orbit (``_bucket_records``).
    """
    q, k, d, subs, kind, weighting, seed, mc_samples = args
    orbit_of = quadform.orbits(q, subs)
    rows = _bucket_records(q, subs, orbit_of)
    histogram = Counter(r.stab_order for r in rows)

    weights = None
    if weighting == "stabilizer":
        weights = [1.0 / r.stab_order for r in rows]

    summary: Dict[str, object] = {
        "disc": d,
        "count": len(rows),
        "orbits": len({entry.rep for entry in orbit_of}),
        "stab_histogram": {str(s): histogram[s] for s in sorted(histogram)},
    }
    if q.is_sum_of_squares():
        summary["verdict"] = subspaces.nonempty_criterion(q.n, k, d).value
        summary["consistent"] = (len(rows) > 0) == (
            summary["verdict"] != subspaces.Verdict.EMPTY.value
        )
    else:
        summary["verdict"] = subspaces.Verdict.NO_CLOSED_FORM.value
        summary["consistent"] = True
    if not rows:
        return rows, summary

    if kind in ("grassmann", "joint"):
        if (q.n, k) == (3, 1) and q.is_sum_of_squares():
            zs = []
            for sub in subs:
                z = sub.basis[0][2] / math.sqrt(d)
                zs.extend((z, -z))  # both ends of the line; -0.0 stays
            ws = None if weights is None else np.repeat(weights, 2)
            summary["sphere_z_ks"] = ks_statistic(zs, sphere_z_cdf, ws)
        pooled = np.array([r.proj for r in rows], dtype=float).ravel()
        rng = np.random.default_rng([seed, d])
        mc = _grassmann_mc(q, k, rng, mc_samples)
        wa = None
        if weights is not None:
            wa = np.repeat(weights, q.n * q.n)
        summary["grassmann_ks"] = two_sample_ks(pooled, mc, wa)
    if kind in ("shape_L", "joint") and k == 2:
        summary["shape_L_y_ks"] = ks_statistic(
            [r.shape_l[1] for r in rows], hyperbolic_y_cdf, weights
        )
    if kind in ("shape_Lperp", "joint") and q.n - k == 2:
        summary["shape_perp_y_ks"] = ks_statistic(
            [r.shape_perp[1] for r in rows], hyperbolic_y_cdf, weights
        )
    return rows, summary


def _csv_header(n: int) -> List[str]:
    head = ["D", "hnf"]
    head += ["p_%d_%d" % (i, j) for i in range(n) for j in range(n)]
    head += [
        "shape_l_x",
        "shape_l_y",
        "shape_perp_x",
        "shape_perp_y",
        "disc_prim_l",
        "disc_prim_perp",
        "stab_order",
    ]
    return head


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv_row(r: RecordRow) -> List[str]:
    out = [str(r.disc), r.hnf]
    out += [_fmt(x) for x in r.proj]
    for pt in (r.shape_l, r.shape_perp):
        out += ["", ""] if pt is None else [_fmt(pt[0]), _fmt(pt[1])]
    out += [str(r.disc_prim_l), str(r.disc_prim_perp), str(r.stab_order)]
    return out


def run_experiment(cfg: ExperimentConfig):
    """Returns (csv_path or None, report dict); writes the CSV if an
    output path is configured.  Output is deterministic for a fixed
    seed, independent of the parallelism degree."""
    buckets = subspaces.disc_buckets(cfg.form, cfg.k, cfg.discs, cfg.max_candidates)
    payloads = [
        (cfg.form, cfg.k, d, buckets[d], cfg.kind, cfg.weighting, cfg.seed, cfg.mc_samples)
        for d in cfg.discs
    ]
    if cfg.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(payloads))) as pool:
            results = list(pool.map(_bucket_worker, payloads))
    else:
        results = [_bucket_worker(p) for p in payloads]

    report = {
        "form": exact.mat_copy(cfg.form.gram),
        "n": cfg.form.n,
        "k": cfg.k,
        "kind": cfg.kind,
        "weighting": cfg.weighting,
        "seed": cfg.seed,
        "per_disc": [summary for _rows, summary in results],
    }
    csv_path = None
    if cfg.out_path is not None:
        csv_path = cfg.out_path
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_csv_header(cfg.form.n))
            for rows, _summary in results:
                for r in rows:
                    writer.writerow(_csv_row(r))
        report["csv_path"] = csv_path
    return csv_path, report
