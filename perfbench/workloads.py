"""The four benchmark workloads: inputs from a seed, the call that is timed,
and the canonical digest of the output that the gates compare.

Each workload runs in a fresh interpreter (see child.py) because the
enumerators keep unbounded module-level caches; a warm repeat in one process
would time dictionary lookups instead of the work a CLI user pays for.
"""

import hashlib
import json
import random
from itertools import combinations
from math import gcd

NAMES = ("sweep-5-2", "dfs-a4", "lines-experiment", "planes-experiment")

# Gram of the A4 root lattice: not diagonal, not unimodular (disc 5)
A4 = ((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 2))

# full sizes are the benchmark; tiny sizes exist for the benchmark's own tests
PARAMS = {
    "full": {
        "sweep-5-2": {"n": 5, "k": 2, "max_disc": 30},
        "dfs-a4": {"k": 2, "max_disc": 60},
        "lines-experiment": {"n": 3, "k": 1, "discs": (10009, 100003)},
        "planes-experiment": {"n": 4, "k": 2, "discs": (41, 53, 61)},
    },
    "tiny": {
        "sweep-5-2": {"n": 4, "k": 2, "max_disc": 6},
        "dfs-a4": {"k": 2, "max_disc": 8},
        "lines-experiment": {"n": 3, "k": 1, "discs": (101,)},
        "planes-experiment": {"n": 4, "k": 2, "discs": (5,)},
    },
}

# per_disc fields that depend on the experiment seed (Monte-Carlo sample)
SEEDED_FIELDS = ("grassmann_ks",)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def signed_permutation(seed, n):
    """(perm, signs) from the seed; seed 0 is the identity."""
    perm, signs = list(range(n)), [1] * n
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    return perm, signs


def permuted_gram(gram, perm, signs):
    """P G P^T for the signed permutation matrix P with P[i][perm[i]] = signs[i].

    x -> x P is then an isometry from the new form onto the old one.
    """
    n = len(gram)
    return [
        [signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)]
        for i in range(n)
    ]


def map_back(row, perm, signs):
    """x P for a row vector x."""
    out = [0] * len(row)
    for i, x in enumerate(row):
        out[perm[i]] = signs[i] * x
    return out


def plucker_key(rows):
    """Primitive Plücker vector of a saturated basis, sign-normalised: the
    k x k minors determine the subspace, and for a basis of L ∩ Z^n they
    are coprime and fixed up to one overall sign."""
    k, n = len(rows), len(rows[0])
    minors = []
    for cols in combinations(range(n), k):
        minors.append(_det([[r[c] for c in cols] for r in rows]))
    g = 0
    for m in minors:
        g = gcd(g, m)
    first = next(m for m in minors if m)
    sign = 1 if first > 0 else -1
    return tuple(sign * m // g for m in minors)


def _det(mat):
    # Laplace expansion; k <= 4 here
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j, x in enumerate(mat[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * x * _det(minor)
    return total


class Workload:
    """One workload at one seed and scale.

    ``prepare`` builds the inputs (untimed), ``call`` is the timed region,
    and ``summarise`` turns the result into the values the gates check:
    ``size`` (subspaces or records), ``counts`` (per D), ``exact_hash``
    (compared at seed 0) and ``invariant_hash`` (compared at every seed).
    """

    def __init__(self, name, seed, scale="full"):
        if name not in NAMES:
            raise ValueError("unknown workload %r" % name)
        self.name, self.seed = name, seed
        self.params = PARAMS[scale][name]

    def prepare(self, mods, reference_keys=None):
        quadform, experiment = mods["quadform"], mods["experiment"]
        p = self.params
        self.reference_keys = reference_keys
        if self.name == "sweep-5-2":
            self.call = lambda: mods["subspaces"].schmidt_table(
                p["n"], p["k"], p["max_disc"]
            )
        elif self.name == "dfs-a4":
            self.perm, self.signs = signed_permutation(self.seed, len(A4))
            q = quadform.QuadraticForm(permuted_gram(A4, self.perm, self.signs))
            self.call = lambda: mods["subspaces"].enumerate_by_disc(
                q, p["k"], p["max_disc"]
            )
        else:
            cfg = experiment.ExperimentConfig(
                form=quadform.QuadraticForm.sum_of_squares(p["n"]),
                k=p["k"],
                discs=p["discs"],
                kind="joint",
                jobs=1,
                seed=self.seed,
            )
            self.call = lambda: experiment.run_experiment(cfg)

    def summarise(self, result):
        if self.name in ("sweep-5-2", "dfs-a4"):
            return self._summarise_table(result)
        return self._summarise_report(result[1])

    def _summarise_table(self, table):
        counts = {str(d): len(subs) for d, subs in sorted(table.table.items())}
        keys = sorted((d, s.hnf_key()) for d, subs in table.table.items() for s in subs)
        if self.name == "dfs-a4":
            invariant = sorted(
                (d, plucker_key([map_back(r, self.perm, self.signs) for r in s.basis]))
                for d, subs in table.table.items()
                for s in subs
            )
        else:
            invariant = keys
        return {
            "size": sum(counts.values()),
            "counts": counts,
            "exact_hash": digest(keys),
            "invariant_hash": digest(invariant),
        }

    def _summarise_report(self, report):
        per_disc = report["per_disc"]
        keys = self.reference_keys
        if keys is None:
            keys = sorted(set().union(*(entry.keys() for entry in per_disc)))
        # fields added later (diagnostics, timings) are outside the gate;
        # every field the reference has must be reproduced
        exact = [{key: entry.get(key) for key in keys} for entry in per_disc]
        invariant = [
            {key: value for key, value in entry.items() if key not in SEEDED_FIELDS}
            for entry in exact
        ]
        counts = {str(entry["disc"]): entry["count"] for entry in per_disc}
        return {
            "size": sum(counts.values()),
            "counts": counts,
            "keys": list(keys),
            "exact_hash": digest(exact),
            "invariant_hash": digest(invariant),
        }


def check(name, seed, summary, reference):
    """List of gate failures (empty when the output is correct)."""
    ref = reference[name]
    errors = []
    if summary["counts"] != ref["counts"]:
        errors.append("per-D counts differ from the reference")
    if summary["invariant_hash"] != ref["invariant_hash"]:
        errors.append("seed-independent output hash differs from the reference")
    if seed == 0 and summary["exact_hash"] != ref["exact_hash"]:
        errors.append("seed-0 output hash differs from the reference")
    return errors
