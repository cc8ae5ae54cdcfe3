"""A fixed pure-Python probe of how fast the machine runs right now.

The reference machine is a few cores of a shared host, and its speed drifts
by up to a factor of two over minutes as other tenants come and go.  That
drift moves whole runs, so medians over a run do not remove it.  The probe
is a fixed piece of work of the same kind as the latshape hot paths (small
exact integer and ``Fraction`` linear algebra, function calls, lists and
dicts), written here so that no change to ``src/`` can move it.

``Sampler`` times one probe every SAMPLE_INTERVAL_S seconds while the timed
call runs, from a SIGALRM handler in the same thread, so the samples see
the machine at the same moments as the work does.  run.py subtracts the
samples from the repetition's wall time and scales the rest by
SAMPLE_REF_S / (harmonic mean of the samples): the repetition's time on a
machine that runs one probe in SAMPLE_REF_S seconds.  The samples come at
even steps of wall time, so the mean of their rates (1 / duration) is the
machine's mean speed over the call; a sample stretched by a context switch
adds a rate near zero instead of an outlier.
"""

import gc
import signal
import time
from fractions import Fraction
from random import Random

SAMPLE_ROUNDS = 20
SAMPLE_INTERVAL_S = 0.2
# A round figure near one probe's median wall time (about 3.2 ms) on an
# unloaded 2-core x86-64 machine with Python 3.11.7.  It only sets the scale
# of the normalised times; it is a constant, so it cancels in every
# comparison.
SAMPLE_REF_S = 0.003


def _hnf_rows(rows):
    """Row-style Hermite reduction of a small integer matrix (in place)."""
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        while True:
            piv = [i for i in range(r, m) if rows[i][c]]
            if not piv:
                break
            p = min(piv, key=lambda i: abs(rows[i][c]))
            rows[r], rows[p] = rows[p], rows[r]
            done = True
            for i in range(r + 1, m):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                if rows[i][c]:
                    done = False
            if done:
                break
        if r < m and rows[r][c]:
            r += 1
    return rows


def _solve_fraction(mat, rhs):
    """Gauss-Jordan over Fraction; mat is square and invertible."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n] for row in a]


def _work(rounds):
    rng = Random(12345)
    seen = {}
    acc = 0
    for _ in range(rounds):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        key = tuple(map(tuple, _hnf_rows([r[:] for r in rows])))
        seen[key] = seen.get(key, 0) + 1
        mat = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        mat = [[x + (7 if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(mat)]
        sol = _solve_fraction(mat, [rng.randint(-5, 5) for _ in range(3)])
        acc += sum(x.numerator for x in sol)
    return acc + len(seen)


def probe():
    """Wall seconds of one probe, with the cyclic collector off so that the
    size of the caller's heap (which a change to the program moves) does not
    move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(SAMPLE_ROUNDS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager: one probe every SAMPLE_INTERVAL_S seconds of the
    block; the durations are in ``samples``."""

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
