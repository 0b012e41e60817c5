"""Outside-in tracing of the markov_flow layers.

The library has no instrumentation of its own, so the benchmark wraps the
public functions of each layer module from here.  A function is replaced
at every ``markov_flow.*`` module attribute that holds it: the package
re-export, its defining module, and each module that imported it with
``from .x import f``.  Calls between layers therefore become child spans
of their caller.  Spans stay in memory; the caller writes them out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "markov_flow"
LAYERS = ("cli", "core", "stationary", "decompose", "entropy", "evolve",
          "spectral", "continuum")

# Work done by one call, read from its result: (stat name, extractor).
WORK = {
    "evolve.evolve": ("points", lambda result: len(result.times)),
    "stationary.stationary_solve": ("states", lambda result: result.n),
    "continuum.discretize_fpe_detailed": ("cells", lambda result: result[0].n),
    "decompose.cycle_decompose": ("cycles", lambda result: len(result.cycles)),
}

# Span fields: name, start, end, parent index (-1 at the top), the type
# name of the exception that left the call (or None), work count.
NAME, START, END, PARENT, ERROR, WORK_DONE = range(6)


def public_functions(layer: str) -> dict:
    """``{attribute: function}`` for the public functions a layer defines."""
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    return {
        attr: obj for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records one span per call into a wrapped function while installed.

    Use as a context manager: entering wraps the functions, leaving puts
    the originals back.  ``spans`` keeps growing across installs until
    :meth:`take` hands them over.  Calls made inside :meth:`paused`, such
    as the benchmark's own checks, record nothing.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = [False]

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            for attr, fn in public_functions(layer).items():
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    @contextlib.contextmanager
    def paused(self):
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        paused = self._paused
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK_DONE] = work[1](result)
            return result

        return traced


def summarize(spans: list[list]) -> dict:
    """Per-function and per-layer totals of a list of spans.

    Keys are ``<layer>.<function>.<stat>`` with stats ``calls``,
    ``self_s``, ``total_s``, ``errors`` and the function's work count
    from :data:`WORK`, plus ``<layer>.calls`` and ``<layer>.self_s``.
    Self time is a span's duration minus the durations of its children.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    stats: dict[str, float] = {}

    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    for span, child_s in zip(spans, children):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        duration = span[END] - span[START]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", duration - child_s)
        add(f"{name}.total_s", duration)
        add(f"{name}.errors", 1 if span[ERROR] is not None else 0)
        if name in WORK:
            add(f"{name}.{WORK[name][0]}", span[WORK_DONE])
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", duration - child_s)
    return stats
