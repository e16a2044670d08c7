"""Span tracing of proxrates from outside the package.

The tracer replaces public functions and methods of each module with
wrappers that record a span (name, start, end, parent span, op id). Names
are patched wherever they are bound: a function imported by name into
another module (``cli`` imports ``run`` and the ``worstcase`` generators,
``worstcase`` imports ``contraction``) or stored in a dict (the
``certificate.VERIFIERS`` table) is replaced there too, and methods are
patched on every class that defines them. Spans stay in memory; the caller
summarises them per pass and writes them out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

from proxrates import certificate, cli, engine, prox, rates, smooth, worstcase


def _functions(module, names):
    return [getattr(module, n) for n in names if inspect.isfunction(getattr(module, n, None))]


def _record_bytes(trace) -> int:
    """Bytes held by the arrays of a trace's iterate records."""
    total = 0
    for rec in trace.records:
        for arr in (rec.x, rec.grad_f, rec.s):
            if arr is not None:
                total += arr.nbytes
    return total


def _targets():
    """(span name, function) pairs for free functions, (span name, class, attr) for methods."""
    funcs = [("cli.main", cli.main)]
    funcs += [("engine.run", engine.run), ("engine.pgm_step", engine.pgm_step)]
    funcs += [("engine.ls", engine.exact_line_search_step), ("engine.run_els", engine.run_exact_line_search)]
    funcs += [("smooth.random_composite", smooth.random_composite)]
    funcs += [("worstcase", f) for f in _functions(worstcase, worstcase.__all__)]
    funcs += [("rates", f) for f in _functions(rates, rates.__all__)]
    funcs += [("certificate.verify", f) for f in certificate.VERIFIERS.values()]
    funcs += [("certificate.interp", certificate.interp_smooth), ("certificate.interp", certificate.interp_convex)]
    methods = [("engine.trace.measure_floor", engine.IterateTrace, "measure_floor")]
    for cls in prox.ProxFunction.__subclasses__():
        methods += [("prox.prox", cls, "prox"), ("prox.value", cls, "value")]
    for cls in smooth.SmoothFunction.__subclasses__():
        methods += [("smooth.grad", cls, "grad"), ("smooth.value", cls, "value")]
    methods += [("smooth.problem_value", smooth.CompositeProblem, "value")]
    methods += [("smooth.optimum", smooth.CompositeProblem, "optimum")]
    methods += [("certificate.to_json", certificate.CertificateReport, "to_json_dict")]
    methods += [("certificate.ratfunc", certificate.RatFunc, "__init__")]
    methods += [("certificate.gcd", certificate.Poly, "gcd")]
    methods = [(name, cls, attr) for name, cls, attr in methods if attr in vars(cls)]
    return funcs, methods


class Tracer:
    """Records spans while `enabled`; `install`/`uninstall` patch and restore the package."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.op_id = -1
        self.trace_bytes_max = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        stack = self._stack
        measure_trace = name in ("engine.run", "engine.run_els")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if measure_trace:
                self.trace_bytes_max = max(self.trace_bytes_max, _record_bytes(out))
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        funcs, methods = _targets()
        modules = [m for n, m in sys.modules.items() if n == "proxrates" or n.startswith("proxrates.")]
        for name, fn in funcs:
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((setattr, module, attr, fn))
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is fn:
                                self._saved.append((dict.__setitem__, value, key, fn))
                                value[key] = wrapper
        for name, cls, attr in methods:
            original = vars(cls)[attr]
            self._saved.append((setattr, cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for restore, owner, key, original in reversed(self._saved):
            restore(owner, key, original)
        self._saved = []

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


LAYERS = (
    "cli.main",
    "engine.run",
    "engine.pgm_step",
    "engine.trace.measure_floor",
    "engine.ls",
    "engine.run_els",
    "prox.prox",
    "prox.value",
    "smooth.grad",
    "smooth.value",
    "smooth.problem_value",
    "smooth.random_composite",
    "smooth.optimum",
    "certificate.verify",
    "certificate.interp",
    "certificate.to_json",
    "certificate.ratfunc",
    "certificate.gcd",
    "worstcase",
    "rates",
)


def summarize(spans: list, exact_ops: set[int]) -> dict:
    """Per-layer counts, self times and ratios of one pass of spans.

    A span's self time is its duration minus the durations of its direct
    children; `exact_ops` names the ops whose spans must not reach RatFunc.
    """
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    in_ls = [False] * len(spans)
    ls_evals = 0
    ratfunc_exact = 0
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        in_ls[i] = name == "engine.ls" or (parent >= 0 and in_ls[parent])
        if name == "smooth.problem_value" and in_ls[i]:
            ls_evals += 1
        if name == "certificate.ratfunc" and op in exact_ops:
            ratfunc_exact += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["engine.floor_calls_per_iter"] = ratio(calls["engine.trace.measure_floor"], calls["engine.pgm_step"])
    out["engine.ls.evals_per_step"] = ratio(ls_evals, calls["engine.ls"])
    out["certificate.gcd_per_verify"] = ratio(calls["certificate.gcd"], calls["certificate.verify"])
    out["certificate.ratfunc.calls_exact"] = ratfunc_exact
    return out

