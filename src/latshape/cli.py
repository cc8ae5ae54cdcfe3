"""Command-line interface.

Subcommands: enumerate, invariants, isotropy, shapes, experiment,
verify.  All structured output is JSON on stdout; exit status 0 on
success, 1 on a computational failure (with a diagnostic on stderr),
2 on malformed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import exact
from . import experiment
from . import padic
from . import quadform
from . import shapes
from . import subspaces
from . import verify as verify_mod


def _parse_form(spec: str) -> quadform.QuadraticForm:
    """`sumsq:N` or `file:PATH` where PATH holds {"n": int, "gram": [[int]]}."""
    if spec.startswith("sumsq:"):
        n = int(spec.split(":", 1)[1])
        return quadform.QuadraticForm.sum_of_squares(n)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            payload = json.load(fh)
        return quadform.QuadraticForm.from_json(payload)
    raise ValueError("--Q must look like sumsq:N or file:PATH, got %r" % spec)


def _parse_rows(text: str) -> List[List[int]]:
    """Basis rows as `a,b,c;d,e,f` (semicolon-separated rows)."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append([int(x) for x in chunk.split(",")])
    if not rows:
        raise ValueError("empty subspace basis")
    return rows


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_enumerate(args) -> int:
    q = _parse_form(args.Q)
    cap = args.max_candidates
    if args.disc is not None:
        subs = subspaces.disc_buckets(q, args.k, [args.disc], cap)[args.disc]
        _emit([s.to_json() for s in subs])
    else:
        table = subspaces.recursion_table(q, args.k, args.dmax, cap)
        _emit({str(d): len(table.get(d)) for d in range(1, args.dmax + 1)})
    return 0


def _cmd_invariants(args) -> int:
    q = _parse_form(args.Q)
    L = quadform.Subspace.from_rows(q, _parse_rows(args.L))
    perp = quadform.orth_complement(q, L)
    glue = quadform.glue_group(q, L)
    q_l, q_p, tau = quadform.restricted_forms(q, L)
    content_l, prim_l = quadform.content_and_primitive(q_l)
    content_p, prim_p = quadform.content_and_primitive(q_p)
    lam, clean = quadform.lambda_L(q, L)
    disc_l = quadform.disc(q, L)
    local = {}
    for p in padic.prime_divisors(disc_l):
        ordp, unit = quadform.local_disc(q, L, p)
        local[str(p)] = {"ord": ordp, "unit_class": unit}
    _emit(
        {
            "n": q.n,
            "k": L.k,
            "hnf": L.hnf_key(),
            "disc": disc_l,
            "disc_perp": quadform.disc(q, perp),
            "glue_factors": list(glue.factors),
            "glue_order": glue.order,
            "i_L": quadform.index_iL(q, L),
            "i_Lperp": quadform.index_iL(q, perp),
            "content_L": content_l,
            "content_Lperp": content_p,
            "disc_prim_L": exact.det_int(prim_l),
            "disc_prim_Lperp": exact.det_int(prim_p),
            "disc_tau_perp": str(exact.det_fraction(tau)),
            "lambda_clean": clean,
            "local_disc": local,
        }
    )
    return 0


def _cmd_isotropy(args) -> int:
    places = _isotropy_places(args)
    if args.diag is not None:
        ents = [int(x) for x in args.diag.split(",")]
        report = {"diagonal": ents, "places": {}}
        for p in places:
            report["places"][str(p)] = padic.is_isotropic_diagonal(ents, p)
        _emit(report)
        return 0
    if args.Q is None or args.L is None:
        raise ValueError("isotropy needs either --diag or both --Q and --L")
    q = _parse_form(args.Q)
    L = quadform.Subspace.from_rows(q, _parse_rows(args.L))
    perp = quadform.orth_complement(q, L)
    q_l, q_p = quadform.gram_restriction(q, L), quadform.gram_restriction(q, perp)
    report = {"hnf": L.hnf_key(), "places": {}}
    for p in places:
        entry = {
            "q_L_isotropic": padic.is_isotropic_local(q_l, p),
            "q_Lperp_isotropic": padic.is_isotropic_local(q_p, p),
        }
        if p != 2:
            entry["strongly_isotropic"] = padic.stabilizer_strongly_isotropic(q, L, p)
            entry["sufficient"] = padic.sufficient_criterion(
                L.k, perp.k, p, quadform.disc(q, L), quadform.disc(q, perp)
            )
        report["places"][str(p)] = entry
    _emit(report)
    return 0


def _isotropy_places(args):
    if args.p is not None:
        return [args.p]
    if args.pmax < 2:
        # no prime is below 2: the report would check nothing and pass
        raise ValueError("--pmax must be >= 2, got %d" % args.pmax)
    out = []
    for p in range(2, args.pmax + 1):
        if padic.is_prime(p):
            out.append(p)
    return out


def _cmd_shapes(args) -> int:
    q = _parse_form(args.Q)
    L = quadform.Subspace.from_rows(q, _parse_rows(args.L))
    perp = quadform.orth_complement(q, L)
    out = {"hnf": L.hnf_key(), "n": q.n, "k": L.k}
    for label, sub in (("shape_L", L), ("shape_Lperp", perp)):
        out[label] = shapes.shape(q, sub).to_json()
        if sub.k == 2:
            pt = shapes.upper_half_point(quadform.gram_restriction(q, sub))
            out[label]["uhp"] = [pt.x, pt.y]
    if args.moduli_check:
        import numpy as np

        pt = shapes.moduli_point(q, L)
        gram_l, gram_p = shapes.shapes_from_moduli(q, pt)
        exact_l = np.array(quadform.gram_restriction(q, L), dtype=float)
        s = (pt.alpha * pt.lam) ** 2
        out["moduli"] = {
            "residuals": {k: float(v) for k, v in pt.residuals().items()},
            "l_block_error": float(np.abs(gram_l / s - exact_l).max()),
            "det_m_error": float(abs(abs(np.linalg.det(pt.m)) - 1.0)),
        }
    _emit(out)
    return 0


def _cmd_experiment(args) -> int:
    if args.Q is not None:
        q = _parse_form(args.Q)
        if args.n is not None and args.n != q.n:
            raise ValueError("--n disagrees with the form from --Q")
    else:
        if args.n is None:
            raise ValueError("experiment needs --n or --Q")
        q = quadform.QuadraticForm.sum_of_squares(args.n)
    discs = tuple(int(x) for x in args.dlist.split(","))
    cfg = experiment.ExperimentConfig(
        form=q,
        k=args.k,
        discs=discs,
        kind=args.kind,
        weighting=args.weighting,
        out_path=args.out,
        jobs=args.jobs,
        seed=args.seed,
        mc_samples=args.mc_samples,
        max_candidates=args.max_candidates,
    )
    _csv_path, report = experiment.run_experiment(cfg)
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    form = _parse_form(args.Q) if args.Q is not None else None
    report = verify_mod.verify(
        args.suite, form=form, samples=args.samples, seed=args.seed, dmax=args.dmax
    )
    _emit(report)
    return 0 if report["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latshape",
        description="Exact invariants, enumeration, and equidistribution probes "
        "for rational subspaces of definite quadratic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cap_help = "cap on the vectors walked in all (default {:,})".format(subspaces.DEFAULT_CANDIDATE_CAP)

    def add_q(p, required=True):
        p.add_argument(
            "--Q",
            required=required,
            default=None,
            help="quadratic form: sumsq:N or file:PATH (JSON {n, gram})",
        )

    p = sub.add_parser("enumerate", help="list H^{n,k}_Q(D) or tabulate counts")
    add_q(p)
    p.add_argument("--k", type=int, required=True, help="subspace dimension")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--disc", type=int, help="single discriminant: emit subspaces")
    group.add_argument("--dmax", type=int, help="emit counts for 1 <= D <= dmax")
    p.add_argument("--max-candidates", type=int, default=None, help=cap_help)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("invariants", help="exact invariant bundle of one subspace")
    add_q(p)
    p.add_argument("--L", required=True, help="basis rows a,b,c;d,e,f")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("isotropy", help="local isotropy report")
    add_q(p, required=False)
    p.add_argument("--L", default=None, help="basis rows a,b,c;d,e,f")
    p.add_argument("--diag", default=None, help="diagonal form entries a,b,c")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, help="single prime")
    group.add_argument("--pmax", type=int, help="all primes up to this bound")
    p.set_defaults(fn=_cmd_isotropy)

    p = sub.add_parser("shapes", help="shape classes of L and its complement")
    add_q(p)
    p.add_argument("--L", required=True, help="basis rows a,b,c;d,e,f")
    p.add_argument(
        "--moduli-check",
        action="store_true",
        help="also rebuild the shapes from the moduli point and report residuals",
    )
    p.set_defaults(fn=_cmd_shapes)

    p = sub.add_parser("experiment", help="equidistribution probe over a D list")
    add_q(p, required=False)
    p.add_argument("--n", type=int, default=None, help="ambient dimension (sum of squares)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dlist", required=True, help="comma-separated discriminants")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--kind", default="joint", choices=experiment.KINDS)
    p.add_argument("--weighting", default="plain", choices=experiment.WEIGHTINGS)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=2048)
    p.add_argument("--max-candidates", type=int, default=None, help=cap_help)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=verify_mod.SUITES)
    add_q(p, required=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ValueError, OSError, subspaces.BoundExceededError, shapes.SearchBoundError
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
