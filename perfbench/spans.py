"""Spans around the public functions of each layer, for the traced run.

``Tracer.installed`` replaces every public function of each ``ddsim`` layer
module, and the listed ``numpy.linalg`` functions, with a timing wrapper at
every module that binds it (``ddsim.construct.classify``,
``ddsim.classify.eigen_structure``, the package namespace, ...), so calls
nest into spans.  A span's self time is its duration minus the time of the
spans it caused.  Only calls inside ``Tracer.op`` are recorded, so the
benchmark's own checks never count.  Leaving ``Tracer.installed`` puts every
original back.
"""

import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

#: The program's layers, one per module of ``ddsim``.
LAYERS = ("spectral", "classify", "construct", "core", "special", "oracle",
          "io", "cli", "svg")
#: The numpy floor the layers call into; traced as layer ``linalg``.
LINALG = ("eigvals", "eig", "svd", "inv", "solve", "cond", "norm")

_MARK = "_perfbench_span"


class Stat:
    __slots__ = ("durations", "self_total", "errors")

    def __init__(self):
        self.durations = []
        self.self_total = 0.0
        self.errors = 0


def _owners():
    """Every module whose attributes may bind a traced function."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ddsim" or name.startswith("ddsim."))] \
        + [np.linalg]


def installed_wrappers():
    """``module.attribute`` of every tracing wrapper currently installed."""
    return sorted(f"{m.__name__}.{attr}" for m in _owners()
                  for attr, v in vars(m).items() if hasattr(v, _MARK))


def traced_functions():
    """(span name, function) for each public function of each layer, plus the
    ``numpy.linalg`` floor."""
    out = []
    for layer in LAYERS:
        mod = sys.modules.get(f"ddsim.{layer}")
        if mod is None:
            continue
        for attr, v in vars(mod).items():
            if (inspect.isfunction(v) and not attr.startswith("_")
                    and v.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", v))
    for attr in LINALG:
        if hasattr(np.linalg, attr):
            out.append((f"linalg.{attr}", getattr(np.linalg, attr)))
    return out


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat.durations.append(duration)
                stat.self_total += duration - children[0]

        setattr(span, _MARK, name)
        span.__wrapped__ = fn
        return span

    @contextmanager
    def installed(self):
        """Wrap every traced function at every binding site; restore all on exit."""
        patches = []
        try:
            owners = _owners()
            for name, fn in traced_functions():
                wrapper = self._wrap(name, fn)
                for owner in owners:
                    for attr, v in list(vars(owner).items()):
                        if v is fn:
                            patches.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)

    @contextmanager
    def op(self):
        """Root span of one op; calls made inside it are recorded."""
        root = [0.0]
        self._stack.append(root)
        try:
            yield
        finally:
            self._stack.pop()


#: Per-call metrics: (metric, span, unit).  Each is the median duration of
#: one call, over the calls the workload's traced ops made, or over the
#: probe's direct calls when the workload makes none.
PER_CALL = (
    ("spectral.eigen_structure_us", "spectral.eigen_structure", "us"),
    ("spectral.real_jordan_form_us", "spectral.real_jordan_form", "us"),
    ("classify.classify_us", "classify.classify", "us"),
    ("classify.classify_2x2_us", "classify.classify_2x2", "us"),
    ("construct.build_real_us", "construct.build_real_dd_transform", "us"),
    ("construct.build_complex_us", "construct.build_complex_dd_transform", "us"),
    ("construct.scale_jordan_to_dd_us", "construct.scale_jordan_to_dd", "us"),
    ("core.similarity_residual_us", "core.similarity_residual", "us"),
    ("core.is_diag_dominant_us", "core.is_diag_dominant", "us"),
    ("special.metzler_hurwitz_scaling_us", "special.metzler_hurwitz_scaling", "us"),
    ("special.h_matrix_scaling_us", "special.h_matrix_scaling", "us"),
    ("io.load_matrix_us", "io.load_matrix", "us"),
    ("io.dumps_us", "io.dumps", "us"),
    ("cli.main_us", "cli.main", "us"),
    ("svg.render_gershgorin_us", "svg.render_gershgorin", "us"),
    ("oracle.grid_search_2x2_ms", "oracle.grid_search_2x2", "ms"),
)
BUILD_SPANS = ("construct.build_real_dd_transform",
               "construct.build_complex_dd_transform")
SEARCH_SPAN = "oracle.random_similarity_search"
_SCALE = {"us": 1e6, "ms": 1e3}


def layer_metrics(ops_stats, probe_stats, ops, search_trials):
    """Per-layer metrics of a traced run as ``{name: (value, unit)}``, the
    source (``ops`` or ``probe``) of each probed one, and the names that no
    call measured, which are left out rather than reported as zero."""
    metrics, sources, missing = {}, {}, []

    def pick(spans):
        for source, stats in (("ops", ops_stats), ("probe", probe_stats)):
            found = [stats[s] for s in spans if s in stats and stats[s].durations]
            if found:
                return source, found
        return None, []

    for metric, span, unit in PER_CALL:
        source, found = pick([span])
        if found:
            metrics[metric] = (statistics.median(found[0].durations) * _SCALE[unit], unit)
            sources[metric] = source
        else:
            missing.append(metric)
    source, found = pick(BUILD_SPANS)
    if found:
        calls = sum(len(s.durations) for s in found)
        metrics["construct.success_ratio"] = (
            (calls - sum(s.errors for s in found)) / calls, "ratio")
        sources["construct.success_ratio"] = source
    else:
        missing.append("construct.success_ratio")
    source, found = pick([SEARCH_SPAN])
    if found:
        s = found[0]
        metrics["oracle.random_search_trials_per_s"] = (
            search_trials * len(s.durations) / sum(s.durations), "1/s")
        sources["oracle.random_search_trials_per_s"] = source
    else:
        missing.append("oracle.random_search_trials_per_s")

    for layer in LAYERS + ("linalg",):
        total = sum(s.self_total for name, s in ops_stats.items()
                    if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_us_per_op"] = (total / ops * 1e6, "us")
    for fn in ("svd", "eigvals", "inv"):
        s = ops_stats.get(f"linalg.{fn}")
        metrics[f"linalg.{fn}_calls_per_op"] = (
            (len(s.durations) if s else 0) / ops, "count")
    s = ops_stats.get("linalg.svd")
    metrics["linalg.svd_us_per_op"] = ((sum(s.durations) if s else 0.0) / ops * 1e6, "us")
    return metrics, sources, missing
