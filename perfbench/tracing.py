"""Spans recorded from outside the package.

The benchmark never edits ``lvggm``.  It replaces, for the duration of a
traced fit, the module attributes that the solvers look up at call time
(``lvggm.solvers.gradient`` and so on) with wrappers that open a span, call
the original and close the span.  Every wrapper is removed again when the
``hooks`` context exits, even on error.

A span records its name, start, end, parent span and fit id.  Its self time
is its duration minus the durations of its direct children, so the self
times of all spans under a fit add up to the fit's duration.

Work the benchmark does only to measure (the exact ``eigvalsh`` behind
``head_quality``) runs inside :meth:`Tracer.excluded`; the tracer clock
stops for it, so it shows in no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module under lvggm, attribute the caller looks up, span name)
HOOKS = (
    ("solvers", "gradient", "objective.gradient"),
    ("solvers", "nll", "objective.nll"),
    ("solvers", "sym_evd", "projections.evd"),
    ("solvers", "head_project", "projections.head"),
    ("solvers", "compress_symmetric", "projections.tail"),
    ("objective", "woodbury_core_eig", "linalg.woodbury"),
    ("bench", "admm_lvglasso", "baseline.admm"),
)


@dataclass
class Span:
    name: str
    fit: int
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self):
        self.spans = []
        self.fit = 0
        self._stack = []
        self._paused = 0.0
        self._observers = {}
        self.observer_errors = {}

    def now(self):
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.fit, parent, self.now()))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = self.now()

    @contextlib.contextmanager
    def excluded(self):
        """Stop the tracer clock while measurement-only work runs."""
        tic = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - tic

    def observe(self, span_name, callback):
        """Call ``callback(args, result)`` after each call of a hooked span,
        outside the span and with the clock stopped.  An error in the
        callback is recorded in ``observer_errors``, not raised."""
        self._observers[span_name] = callback

    def self_times(self, fit):
        """``{span name: (total self seconds, calls)}`` for one fit."""
        spans = {i: s for i, s in enumerate(self.spans) if s.fit == fit}
        child_time = dict.fromkeys(spans, 0.0)
        for s in spans.values():
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = {}
        for i, s in spans.items():
            total, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (total + s.duration - child_time[i], calls + 1)
        return out


def _wrap(tracer, span_name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        callback = tracer._observers.get(span_name)
        if callback is not None:
            with tracer.excluded():
                try:
                    callback(args, result)
                except Exception as exc:  # a changed signature must not fail the fit
                    tracer.observer_errors.setdefault(
                        span_name, f"{type(exc).__name__}: {exc}"
                    )
        return result

    return traced


@contextlib.contextmanager
def hooks(tracer):
    """Install span wrappers on every hook that exists; yield
    ``{module.attribute: span name}`` for the hooks that do not (their
    layers are unmeasured)."""
    installed = []
    missing = {}
    try:
        for module_name, attr, span_name in HOOKS:
            module = importlib.import_module(f"lvggm.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing[f"{module_name}.{attr}"] = span_name
                continue
            installed.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, span_name, original))
        yield missing
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
