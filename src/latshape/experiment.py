"""Equidistribution experiments over H^{n,k}_Q(D).

For each requested discriminant the full set of subspaces is
enumerated, per-subspace observables are written to CSV (one row per
subspace), and per-discriminant discrepancy statistics are collected
into a summary report:

  * (n,k) = (3,1) over the sum of squares: Kolmogorov-Smirnov distance
    of the z-coordinates of ±v/sqrt(D) against the uniform law on
    [-1,1], the exact pushforward of the rotation-invariant sphere
    measure.
  * two-dimensional side (k = 2 or n-k = 2): KS distance of the
    y-coordinates of the fundamental-domain shape points against the
    bundled hyperbolic-area reference CDF (see gen_reference).
  * generic Grassmannian: two-sample KS of the pooled projection matrix
    entries against seeded Monte-Carlo samples from the invariant
    measure.

Empirical measures are plain counting measures by default; the
stabilizer weighting puts mass 1/|stab| on a subspace, where stab is
the stabilizer of L in SO_Q(Z).  Stabilizer orders come from the
SO_Q(Z)-orbits of each bucket (``quadform.orbits``): by orbit-stabiliser
|Stab(L)| = |SO_Q(Z)| / |orbit of L|, so the group acts once per orbit,
not once per subspace.  Each per-discriminant summary reports the number
of orbits and the histogram of stabilizer orders over the subspaces.
"""

from __future__ import annotations

import csv
import json
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
        object.__setattr__(self, "discs", tuple(int(d) for d in self.discs))
        if not self.discs or any(d < 1 for d in self.discs):
            raise ValueError("need a nonempty list of positive discriminants")
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


def sphere_z_cdf(t: float) -> float:
    """CDF of the last coordinate of a uniform point on S^2 (uniform on
    [-1,1] by the Archimedes projection)."""
    return min(1.0, max(0.0, (t + 1.0) / 2.0))


@lru_cache(maxsize=1)
def _hyperbolic_table():
    from importlib import resources

    text = resources.files("latshape").joinpath("data/hyperbolic_y_cdf.json").read_text()
    obj = json.loads(text)
    return (
        np.asarray(obj["knots"], dtype=float),
        np.asarray(obj["cdf"], dtype=float),
        float(obj["tail_coeff"]),
    )


def hyperbolic_y_cdf(t: float) -> float:
    """CDF of the y-marginal of the normalized hyperbolic area on the
    fundamental domain, interpolated from the bundled table."""
    knots, cdf, tail = _hyperbolic_table()
    t = float(t)
    if t <= knots[0]:
        return 0.0
    if t >= knots[-1]:
        return 1.0 - tail / t
    return float(np.interp(t, knots, cdf))


# ---------------------------------------------------------------------------
# discrepancy statistics


def ks_statistic(samples, cdf: Callable[[float], float], weights=None) -> float:
    """sup |F_emp - F_ref| for a (possibly weighted) empirical measure."""
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        raise ValueError("ks_statistic needs at least one sample")
    order = np.argsort(x, kind="stable")
    x = x[order]
    if weights is None:
        cum = np.arange(1, x.size + 1, dtype=float) / x.size
    else:
        w = np.asarray(list(weights), dtype=float)
        if w.size != x.size or np.any(w <= 0):
            raise ValueError("weights must be positive and match the samples")
        cum = np.cumsum(w[order]) / float(np.sum(w))
    ref = np.asarray([cdf(float(t)) for t in x])
    below = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(ref - cum), np.abs(ref - below))))


def two_sample_ks(a, b, weights_a=None) -> float:
    """sup |F_a - F_b| between two empirical CDFs (the first may carry
    weights); evaluated at every jump point so the sup is exact."""
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("two_sample_ks needs nonempty samples")
    oa = np.argsort(xa, kind="stable")
    xa = xa[oa]
    if weights_a is None:
        pa = np.arange(xa.size + 1, dtype=float) / xa.size
    else:
        w = np.asarray(list(weights_a), dtype=float)[oa]
        pa = np.concatenate(([0.0], np.cumsum(w))) / float(np.sum(w))
    xb = np.sort(xb)
    pb = np.arange(xb.size + 1, dtype=float) / xb.size
    grid = np.concatenate((xa, xb))
    fa = pa[np.searchsorted(xa, grid, side="right")]
    fb = pb[np.searchsorted(xb, grid, side="right")]
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# per-subspace observables


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


def _grassmann_mc(q: quadform.QuadraticForm, k: int, rng, count: int) -> np.ndarray:
    """Pooled projection entries of `count` subspaces drawn from the
    SO_Q(R)-invariant measure on the real Grassmannian."""
    n = q.n
    m = np.array([[float(x) for x in row] for row in q.gram])
    sinv = np.linalg.inv(np.linalg.cholesky(m).T)
    out = np.empty((count, n * n))
    for i in range(count):
        x = rng.standard_normal((n, k))
        y = sinv @ x
        p = y @ np.linalg.inv(y.T @ m @ y) @ (y.T @ m)
        out[i] = p.reshape(-1)
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# the per-discriminant worker and the driver


def _bucket_worker(args):
    q, k, d, subs, kind, weighting, seed, mc_samples = args
    order = len(quadform.special_orthogonal_group(q))
    orbit_of = quadform.orbits(q, subs)
    rows = [_record(q, sub, order // size) for sub, (_id, size) in zip(subs, orbit_of)]
    histogram = Counter(r.stab_order for r in rows)

    weights = None
    if weighting == "stabilizer":
        weights = [1.0 / r.stab_order for r in rows]

    summary: Dict[str, object] = {
        "disc": d,
        "count": len(rows),
        "orbits": len({orbit_id for orbit_id, _size in orbit_of}),
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
            zs, ws = [], []
            for sub, row in zip(subs, rows):
                z = sub.basis[0][2] / math.sqrt(d)
                zs.extend((z, -z))
                w = 1.0 / row.stab_order if weights is not None else 1.0
                ws.extend((w, w))
            summary["sphere_z_ks"] = ks_statistic(
                zs, sphere_z_cdf, ws if weights is not None else None
            )
        pooled = np.concatenate([np.asarray(r.proj) for r in rows])
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
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_bucket_worker, payloads))
    else:
        results = [_bucket_worker(p) for p in payloads]

    report = {
        "form": quadform._thaw(cfg.form.gram),
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
