"""In-memory span recorder for the benchmark's traced runs.

A span records a name, its start and end (``time.perf_counter``), the
index of the span that was open when it began, and the id of the op it
belongs to.  Spans stay in memory during the run and are written out as
JSON lines once it ends.  Spans are opened from the benchmark's own code,
around calls into witnesslab: ``patched`` swaps a module attribute for a
timing wrapper for the length of a traced run, so the program itself
carries no tracing code.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, 0.0, 0.0, parent, self._op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside shares its id."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per name: span durations minus the time their children cover.

        The benchmark is single-threaded, so a span's children never
        overlap and their durations can simply be subtracted.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, child in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - child
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "op": s.op,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end}) + "\n")


def traced(recorder: Recorder, fn, name, before=None, after=None):
    """Wrap ``fn`` in a span.

    ``name`` is a span name or a function of the bound arguments that
    returns one.  ``before(args)`` and ``after(args, result)`` run outside
    the span and feed the recorder's counters.
    """
    # Binding the arguments costs microseconds per call, which the per-trial
    # spans of the probes cannot afford, so plain spans skip it.
    if not callable(name) and before is None and after is None:
        @functools.wraps(fn)
        def plain(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)
        return plain

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        if before is not None:
            before(bound)
        with recorder.span(name(bound) if callable(name) else name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(bound, result)
        return result

    return wrapper


@contextmanager
def patched(targets):
    """Replace ``module.attr`` by ``make(original)`` for each target."""
    saved = []
    try:
        for module, attr, make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
