"""Span tracing from outside the program.

A Tracer replaces the public functions of every shrinker_index module,
and the kernels scipy.linalg.eigh and scipy.sparse.linalg.spsolve, by
wrappers that record one span per call: name, start, end, the span that
was open when the call began (its parent), the operation it belongs to,
whether it raised, and a few computed sizes.  Because each wrapper
replaces the module attribute itself, calls between modules, and calls
inside one module through its globals, nest as child spans.

Spans stay in memory until the benchmark ends.  layer_metrics() turns the
spans of one operation into the per-layer metrics of BENCHMARK.json.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

#: Layers are the modules of the package, in pipeline order.
LAYERS = ("metric", "curve", "solver", "stability", "spectral",
          "convergence", "asymptotics", "render", "cli")

#: Dependency kernels traced as their own boundary, named by attribute.
KERNELS = ((scipy.linalg, "eigh"), (scipy.sparse.linalg, "spsolve"))

#: CLI subcommands whose handler gets its own span, cli.<command>.
CLI_COMMANDS = ("solve", "index", "convergence", "asymptotics", "render")

#: Functions whose spans are named in the per-layer metrics:
#: span name -> which of calls / busy_s / self_s / failed are reported.
FUNCTION_METRICS = {
    "solver.solve_geodesic": ("calls", "busy_s", "failed"),
    "stability.normal_field": ("calls", "busy_s"),
    "stability.assemble_L0": ("calls", "busy_s"),
    "stability.assemble_Lk": ("calls", "busy_s"),
    "spectral.spectrum": ("self_s",),
    "spectral.compute_index": ("busy_s", "self_s"),
    "spectral.classify_modes": ("busy_s",),
    "convergence.run_study": ("busy_s", "self_s"),
    "convergence.fit_loglog": ("calls", "busy_s"),
    "asymptotics.potential_profile": ("calls", "busy_s", "self_s"),
    "asymptotics.drift_diagnostic": ("calls", "busy_s", "self_s"),
    "render.obj_surface": ("busy_s",),
    "render.svg_cross_section": ("busy_s",),
    "curve.write_curve": ("busy_s",),
    "curve.read_curve": ("busy_s",),
    "eigh": ("calls", "busy_s"),
}
FUNCTION_METRICS.update({"cli.%s" % c: ("self_s",) for c in CLI_COMMANDS})

# span record fields
_ID, _PARENT, _OP, _NAME, _START, _END, _FAILED, _ATTRS = range(8)


def _operator_bytes(args, kwargs, out):
    """nbytes of the arrays a StabilityMatrix holds; 0 if none was built."""
    if args and out is args[0]:
        return {"bytes": 0}
    return {"bytes": sum(v.nbytes for v in vars(out).values()
                         if isinstance(v, np.ndarray))}


def _text_bytes(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


def _file_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


#: Sizes computed from a call's arguments and result, per span name.
ATTRS = {
    "spectral.spectrum": lambda args, kwargs, out: {"modes": len(out)},
    "spectral.compute_index":
        lambda args, kwargs, out: {"k_walked": len(out.per_k)},
    "stability.assemble_L0": _operator_bytes,
    "stability.assemble_Lk": _operator_bytes,
    "render.obj_surface": _text_bytes,
    "render.svg_cross_section": _text_bytes,
    "curve.write_curve": _file_bytes,
}


class Tracer:
    """Records spans while installed; use as a context manager.

    Set `op` to the operation number before each traced operation; spans of
    one operation share it.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][_ID] if stack else None, self.op,
                    name, clock(), 0.0, False, None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[_FAILED] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if attrs is not None:
                span[_ATTRS] = attrs(args, kwargs, out)
            return out
        return traced

    def _replace(self, namespace, key, name):
        original = namespace[key]
        namespace[key] = self._wrap(name, original)
        self._patches.append((namespace, key, original))

    def __enter__(self):
        modules = {getattr(self.package, layer).__name__: layer
                   for layer in LAYERS}
        # every module attribute naming a public function of the package,
        # the package's own re-exports included
        for module in list(modules) + [self.package.__name__]:
            namespace = vars(sys.modules[module])
            for key, obj in list(namespace.items()):
                if (inspect.isfunction(obj) and obj.__module__ in modules
                        and not obj.__name__.startswith("_")):
                    self._replace(namespace, key, "%s.%s" % (
                        modules[obj.__module__], obj.__name__))
        for command in CLI_COMMANDS:
            self._replace(self.package.cli._COMMANDS, command,
                          "cli.%s" % command)
        for module, attr in KERNELS:
            self._replace(vars(module), attr, attr)
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()
        return False

    def write_jsonl(self, path):
        """One JSON object per span, with its parent link."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s[_ID], "parent": s[_PARENT], "op": s[_OP],
                       "name": s[_NAME], "start": s[_START],
                       "end": s[_END], "failed": s[_FAILED]}
                if s[_ATTRS]:
                    rec.update(s[_ATTRS])
                fh.write(json.dumps(rec) + "\n")


def _under(span, name, by_id):
    """True if some ancestor of `span` is named `name`."""
    parent = span[_PARENT]
    while parent is not None:
        anc = by_id[parent]
        if anc[_NAME] == name:
            return True
        parent = anc[_PARENT]
    return False


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (all share one op)."""
    by_id = {s[_ID]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[_PARENT] is not None:
            child_time[s[_PARENT]] = (child_time.get(s[_PARENT], 0.0)
                                      + s[_END] - s[_START])
    stats = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        name = s[_NAME]
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "failed": 0})
        dur = s[_END] - s[_START]
        own = dur - child_time.get(s[_ID], 0.0)
        st["calls"] += 1
        st["self_s"] += own
        st["failed"] += int(s[_FAILED])
        if not _under(s, name, by_id):
            st["busy_s"] += dur
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
        for key, value in (s[_ATTRS] or {}).items():
            st[key] = st.get(key, 0) + value

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for name, keys in FUNCTION_METRICS.items():
        for key in keys:
            out["%s.%s" % (name, key)] = stat(name, key)
    for layer in LAYERS:
        out["%s.self_s" % layer] = layer_self[layer]
    out["spectral.spectrum.modes"] = stat("spectral.spectrum", "modes")
    out["spectral.compute_index.k_walked"] = stat("spectral.compute_index",
                                                  "k_walked")
    out["stability.operator_bytes"] = (stat("stability.assemble_L0", "bytes")
                                       + stat("stability.assemble_Lk", "bytes"))
    for name in ("render.obj_surface", "render.svg_cross_section",
                 "curve.write_curve"):
        out["%s.bytes" % name] = stat(name, "bytes")
    newton = sum(1 for s in spans if s[_NAME] == "spsolve"
                 and _under(s, "solver.solve_geodesic", by_id))
    trials = sum(1 for s in spans if s[_NAME] == "metric.segment_blocks"
                 and _under(s, "solver.solve_geodesic", by_id))
    out["solver.newton_steps"] = newton
    out["solver.trial_evals"] = trials
    out["solver.accept_ratio"] = newton / trials if trials else 0.0
    return out


def per_operation(spans):
    """Group spans by operation number, in order."""
    ops = {}
    for s in spans:
        ops.setdefault(s[_OP], []).append(s)
    return [ops[k] for k in sorted(ops)]


def median_metrics(per_op):
    """Median of each metric over operations (counts repeat exactly)."""
    return {key: statistics.median(m[key] for m in per_op)
            for key in per_op[0]}
