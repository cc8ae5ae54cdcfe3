"""Outside-in tracing of latshape's layers.

The tracer replaces module attributes (and class attributes for the two
``Subspace`` constructors) with timing wrappers.  Every call site in the
package goes through ``module.func`` or through the module's own globals,
which are the same dictionary, so calls from inside a module are caught as
well.  Nothing under ``src/`` changes; ``restore`` puts every original back.

A span is (name, start, end, parent).  Self time is a span's duration minus
the durations of its direct child spans; children never overlap because the
traced run is single-threaded (``jobs=1``).
"""

import functools
import gzip
import time

# (module, attribute) pairs, in reporting order.  A dotted attribute names a
# classmethod.  The list is the metric-to-workload table of README.md.
TRACED = (
    ("kernel", "short_vectors"),
    ("kernel", "vectors_with_norm"),
    ("exact", "hnf"),
    ("exact", "hnf_basis"),
    ("exact", "snf"),
    ("exact", "saturate"),
    ("exact", "kernel_basis"),
    ("exact", "det_int"),
    ("exact", "det_fraction"),
    ("exact", "mat_mul"),
    ("exact", "solve_integral"),
    ("exact", "inverse_fraction"),
    ("exact", "scale_to_int"),
    ("exact", "lattice_coordinates"),
    ("quadform", "orth_complement"),
    ("quadform", "projection_matrix"),
    ("quadform", "project_lattice"),
    ("quadform", "Subspace.from_rows"),
    ("quadform", "Subspace.from_saturated_rows"),
    ("quadform", "gram_restriction"),
    ("quadform", "content_and_primitive"),
    ("quadform", "disc"),
    ("quadform", "special_orthogonal_group"),
    ("shapes", "grassmann_coordinates"),
    ("shapes", "upper_half_point"),
    ("subspaces", "schmidt_table"),
    ("subspaces", "enumerate_by_disc"),
    ("subspaces", "lines_with_disc"),
    ("experiment", "run_experiment"),
    ("experiment", "ks_statistic"),
    ("experiment", "two_sample_ks"),
)

# functions whose returned list length is reported as ``<name>.vectors``
COUNTED = ("kernel.short_vectors", "kernel.vectors_with_norm")


def span_name(module, attr):
    return "%s.%s" % (module, attr)


class Tracer:
    """Wraps the traced functions of the given modules and records spans.

    ``modules`` maps the short module names used in TRACED to module
    objects.  An attribute missing from a module is skipped, so a later
    version of the package that drops a function still runs; its metrics
    read zero.
    """

    def __init__(self, modules):
        self.modules = modules
        self.names = [span_name(m, a) for m, a in TRACED]
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.vectors = {name: 0 for name in COUNTED}
        self._stack = []  # [span index, time spent in direct children]
        self._saved = []  # (owner, attribute, original object)

    def install(self):
        for idx, (mod_name, attr) in enumerate(TRACED):
            owner = self.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name, None)
                if owner is None or meth not in owner.__dict__:
                    continue
                original = owner.__dict__[meth]
                wrapped = classmethod(self._wrap(idx, original.__func__))
                self._saved.append((owner, meth, original))
                setattr(owner, meth, wrapped)
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(idx, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, idx, func):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        name = self.names[idx]
        counted = name in COUNTED
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            span = [idx, 0.0, 0.0, parent]
            spans.append(span)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counted:
                self.vectors[name] += len(result)
            return result

        return wrapper

    def metrics(self):
        """{metric: value} with ``.calls`` and ``.self_s`` for every traced
        function and ``.vectors`` for the kernel searches."""
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
        for name in COUNTED:
            out[name + ".vectors"] = self.vectors[name]
        return out

    def write_spans(self, path):
        """One JSON object per line: name, start, end (seconds on the
        perf_counter clock) and the index of the parent span (-1 at top)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (idx, start, end, parent) in enumerate(self.spans):
                fh.write(
                    '{"id":%d,"name":"%s","start":%r,"end":%r,"parent":%d}\n'
                    % (i, self.names[idx], start, end, parent)
                )
