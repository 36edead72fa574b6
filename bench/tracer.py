"""Span tracer for the benchmark's traced runs.

The tracer wraps sindex functions where the package's own modules look them
up (``sindex.pipeline.fit_pilot``, ``sindex.experiments.estimate_link`` ...),
so it measures from outside the package and changes nothing under ``src/``.
Every wrapper returns the wrapped function's result unchanged; the traced run
checks that by comparing traced and untraced outputs bit for bit.

Spans are grouped into records, one per fit (an operation of a pipeline
workload, a replication of the harness) or per generated dataset.  A record
holds, per span key, the inclusive time and the self time (the span minus
the spans opened inside it), plus counters attributed to the innermost open
stage span.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

#: Timed spans: (module, attribute, span key).  The first part of a key
#: names the stage that counters inside the span are attributed to.
SPANS = (
    ("sindex.pipeline", "fit_pilot", "pilot"),
    ("sindex.pipeline", "debias_index", "index"),
    ("sindex.pipeline", "estimate_link", "link"),
    ("sindex.pipeline", "fit_coefficients", "coef"),
    ("sindex.pipeline", "adjust_inferential", "inference"),
    ("sindex.pipeline", "marginal_inference", "inference"),
    ("sindex.pilot", "adjustment_trace", "pilot.trace"),
    ("sindex.inference", "adjustment_trace", "inference.trace"),
    ("sindex.deconv", "nw_deconv_grid", "link.nw"),
    ("sindex.models", "sample_coefficients", "models"),
    ("sindex.models", "sample_design", "models"),
    ("sindex.models", "generate_responses", "models"),
    ("sindex.experiments", "fit_pilot", "pilot"),
    ("sindex.experiments", "debias_index", "index"),
    ("sindex.experiments", "estimate_link", "link"),
    ("sindex.experiments", "sample_coefficients", "models"),
    ("sindex.experiments", "sample_design", "models"),
    ("sindex.experiments", "generate_responses", "models"),
)

#: The harness's replication function: each call is one fit record.
REPLICATION = ("sindex.experiments", "_figure2_rep", "rep")

#: Cholesky factorizations, counted where each module imported cho_factor.
CHOLESKY = (
    ("sindex.pilot", "cho_factor"),
    ("sindex.surrogate", "cho_factor"),
    ("sindex._linalg", "cho_factor"),
)

#: Link evaluations of the surrogate's gridded link.
LINK_EVAL = ("sindex.surrogate", "eval_link")


class Record:
    """Times (ms) and counts of one fit or one generated dataset."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(float)


class Tracer:
    """Installs wrappers, keeps the open-span stack and the records."""

    def __init__(self):
        self.fits = []
        self.gens = []
        self.missing = []
        self._record = None
        self._stack = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed name; names that no longer exist go to missing."""
        self.missing = []
        for module_name, attr, key in SPANS:
            self._patch(module_name, attr, lambda fn, key=key: self._span_wrapper(fn, key))
        module_name, attr, key = REPLICATION
        self._patch(module_name, attr, lambda fn: self._fit_wrapper(fn, key))
        for module_name, attr in CHOLESKY:
            self._patch(module_name, attr, self._cholesky_wrapper)
        self._patch(*LINK_EVAL, self._link_eval_wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make_wrapper(original))
        self._patched.append((module, attr, original))

    # -- records and spans --------------------------------------------------

    @contextmanager
    def record(self, kind="fit"):
        """Collect the spans and counts of one fit (or one generation)."""
        outer, outer_stack = self._record, self._stack
        rec = Record()
        self._record, self._stack = rec, []
        try:
            yield rec
        finally:
            self._record, self._stack = outer, outer_stack
            (self.fits if kind == "fit" else self.gens).append(rec)

    @contextmanager
    def span(self, key):
        if self._record is None:
            yield
            return
        frame = [key, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1e3
            self._stack.pop()
            self._record.ms[key] += elapsed
            self._record.self_ms[key] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def _stage(self):
        return self._stack[-1][0].split(".")[0] if self._stack else "none"

    def _count(self, name, amount=1.0):
        if self._record is not None:
            self._record.counts[name] += amount

    def _call(self, key, fn, args, kwargs):
        """Run one wrapped call inside its span; returns fn's own result."""
        with self.span(key):
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if key == "coef" and getattr(err, "iterations", None) is not None:
                    self._count("coef.newton_iters", err.iterations)
                raise
            if key == "coef":
                self._count("coef.newton_iters", result.iterations)
            return result

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, key):
        def wrapper(*args, **kwargs):
            return self._call(key, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _fit_wrapper(self, fn, key):
        def wrapper(*args, **kwargs):
            with self.record("fit"):
                return self._call(key, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cholesky_wrapper(self, fn):
        def wrapper(a, *args, **kwargs):
            k = len(a)
            self._count(f"{self._stage()}.cho_calls")
            self._count("linalg.cho_mflop", k ** 3 / 3e6)
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _link_eval_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self._count(f"{self._stage()}.link_evals")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


#: Per-layer metrics read from fit records: name -> (kind, key, needed names).
FIT_METRICS = {
    "pipeline.self_ms": ("self_ms", "pipeline", ()),
    "pilot.ms": ("ms", "pilot", ("fit_pilot",)),
    "pilot.trace_ms": ("ms", "pilot.trace", ("sindex.pilot.adjustment_trace",)),
    "pilot.cho_calls": ("counts", "pilot.cho_calls", ("sindex.pilot.cho_factor",)),
    "index.ms": ("ms", "index", ("debias_index",)),
    "link.ms": ("ms", "link", ("estimate_link",)),
    "link.nw_ms": ("ms", "link.nw", ("sindex.deconv.nw_deconv_grid",)),
    "coef.ms": ("ms", "coef", ("sindex.pipeline.fit_coefficients",)),
    "coef.newton_iters": ("counts", "coef.newton_iters", ("sindex.pipeline.fit_coefficients",)),
    "coef.link_evals": ("counts", "coef.link_evals", ("sindex.surrogate.eval_link",)),
    "coef.cho_calls": ("counts", "coef.cho_calls", ("sindex.surrogate.cho_factor",)),
    "inference.ms": ("ms", "inference", ("sindex.pipeline.adjust_inferential",)),
    "inference.trace_ms": ("ms", "inference.trace", ("sindex.inference.adjustment_trace",)),
    "inference.cho_calls": ("counts", "inference.cho_calls", ("sindex._linalg.cho_factor",)),
    "linalg.cho_mflop": ("counts", "linalg.cho_mflop", ("cho_factor",)),
}


def fit_metrics(tracer):
    """Median per fit of every fit-record metric whose wrapped names exist;
    none without fit records.

    A metric depends on the wrapped names listed for it; a listed fragment
    matches any missing name that contains it.
    """
    out = {}
    if not tracer.fits:
        return out
    for name, (kind, key, needs) in FIT_METRICS.items():
        if any(frag in miss for frag in needs for miss in tracer.missing):
            continue
        out[name] = median([getattr(rec, kind).get(key, 0.0) for rec in tracer.fits])
    return out
