"""In-memory spans around the public calls of ``lpm_shapley``.

Tracing works from outside the library: ``Tracer.install`` replaces every
public function of the package, in every module namespace that binds it,
with a wrapper that records one span per call. Calls from one module into
another (``simulation`` drawing through ``oracle.standard_normal``, ``cli``
calling ``engine.two_feature_phis``) are therefore seen too. Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time

import numpy as np

import lpm_shapley
from lpm_shapley import cli, disagreement, engine, model, oracle, simulation
from lpm_shapley import GaussianLPM, OutcomeSpec


class Tracer:
    """Collects spans: name, start, end, parent span, thread and attributes."""

    def __init__(self) -> None:
        self.spans = []  # (id, parent, name, thread, start_ns, end_ns, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []  # (owner, attribute, original) for uninstall

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        # A span opened on a pool thread with nothing open there belongs to
        # the call that started the pool: the innermost span of the main thread.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end, attrs) -> None:
        self._stack().pop()
        self.spans.append((span_id, parent, name, threading.get_ident(), start, end, attrs))

    def wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._close(span_id, parent, name, start, end, _call_attrs(args, kwargs))

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every public function of the package wherever it is bound.

        ``extra_modules`` are modules outside the package that imported
        public names before tracing started (the benchmark's own).
        """
        package = (lpm_shapley, model, engine, oracle, disagreement, simulation, cli)
        wrappers = {}
        for public in list(lpm_shapley.__all__) + ["main"]:
            for mod in package[1:]:
                obj = vars(mod).get(public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{public}"))
        for mod in package + tuple(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        cls = model.GaussianLPM
        self._patched.append((cls, "from_json", vars(cls)["from_json"]))
        cls.from_json = classmethod(self.wrap(cls.from_json.__func__, "model.GaussianLPM.from_json"))

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> own duration minus the union of its children's intervals (ns)."""
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append((span[4], span[5]))
        out = {}
        for span_id, _, _, _, start, end, _ in self.spans:
            covered = 0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, start), min(hi, end)
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[span_id] = (end - start) - covered
        return out

    def parent_names(self) -> dict:
        """Span id -> name of its parent span ("" for a root)."""
        names = {s[0]: s[2] for s in self.spans}
        return {s[0]: names.get(s[1], "") for s in self.spans}

    def select(self, name: str, **attrs) -> list:
        """Spans with this name whose attributes include ``attrs``."""
        return [
            s for s in self.spans
            if s[2] == name and all(s[6].get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: str) -> None:
        """Write every span, with parent link and self time, as gzipped JSON."""
        own = self.self_times()
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "thread", "start_ns", "end_ns", "self_ns", "attrs"],
            "spans": [
                [s[0], s[1], index[s[2]], s[3], s[4], s[5], own[s[0]], s[6]]
                for s in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _call_attrs(args, kwargs) -> dict:
    """The few call properties the per-layer metrics group by."""
    attrs = {}
    if args and isinstance(args[0], list) and args[0]:
        argv = args[0]  # cli.main(argv)
        attrs["cmd"] = argv[0]
        if "--threads" in argv:
            attrs["threads"] = int(argv[argv.index("--threads") + 1])
    for arg in itertools.chain(args, kwargs.values()):
        if isinstance(arg, OutcomeSpec):
            attrs["kind"] = arg.kind.value
        elif isinstance(arg, GaussianLPM):
            attrs["m"] = arg.m
        elif isinstance(arg, np.ndarray) and "rows" not in attrs:
            attrs["rows"] = int(arg.shape[0]) if arg.ndim else 1
    if "n_threads" in kwargs:
        attrs["threads"] = kwargs["n_threads"]
    if len(args) >= 2 and isinstance(args[1], int) and not isinstance(args[1], bool):
        attrs["size"] = args[1]  # standard_normal(spec, size, path)
    return attrs
