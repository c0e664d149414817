"""In-memory span recorder and the call wrappers that feed it.

A span is one call into a layer's public function: its name, start and end
(``time.perf_counter``), the span that was open when it started (tracked
through a context variable) and the benchmark job it belongs to.  Spans stay
in memory until the run ends; nothing is written while the workload runs.

Wrappers are installed only for a traced run.  A function is replaced on its
class (methods) or in every loaded ``repro`` module that bound it by name
(``from repro.x import f``), so no call site keeps the unwrapped original.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: object
    #: Values a wrapper attaches after the call (e.g. a candidate digest).
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; parent links follow the calling context."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._job: contextvars.ContextVar[object] = contextvars.ContextVar(
            "perfbench_job", default=None
        )

    def set_job(self, job: object) -> contextvars.Token:
        return self._job.set(job)

    def reset_job(self, token: contextvars.Token) -> None:
        self._job.reset(token)

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; returns ``(span, result)``."""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._current.get(), self._job.get())
        self.spans.append(span)
        token = self._current.set(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
        return span, result

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result.append(span.duration - covered)
        return result

    def ancestors(self, index: int):
        """Names of the spans enclosing span ``index``, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent


@dataclass(frozen=True)
class Target:
    """One public function to trace: ``"module:Class.method"`` or ``"module:function"``."""

    path: str
    span: str
    #: ``after(span, args, result)``: attach attributes once the call returned.
    after: object = None


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _wrapper(recorder: SpanRecorder, target: Target, original):
    after = target.after

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span, result = recorder.call(target.span, original, args, kwargs)
        if after is not None:
            after(span, args, result)
        return result

    return traced


def install(recorder: SpanRecorder, targets) -> "callable":
    """Wrap every target; returns a function that restores the originals."""
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        owner, attr = _resolve(target.path)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrapper(recorder, target, original))
            continue
        original = getattr(owner, attr)
        traced = _wrapper(recorder, target, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, original))
                    setattr(module, name, traced)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
