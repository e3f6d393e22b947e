"""In-memory span tracer for the loop benchmark.

A span records one call into a layer's public function: its name, the
layer it belongs to, start and end (``time.perf_counter`` seconds), its
parent span and the id of the op it ran in.  Spans stay in memory and
are written out once, when the run ends.

The untraced run uses :class:`NullTracer`, whose ``span`` context costs
one method call and records nothing.
"""

import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "op", "name", "layer", "start", "end", "parent",
                 "derived")

    def __init__(self, id, op, name, layer, start, end=None, parent=None,
                 derived=False):
        self.id = id
        self.op = op
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        # True for spans rebuilt from a TimingReport (phase and pass
        # durations laid end to end), not timed by the tracer itself.
        self.derived = derived

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "op": self.op, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "parent": self.parent, "derived": self.derived}


class Tracer:
    """Collects spans; one tracer per benchmark run."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def op(self, op_id):
        """The root span of one loop op; every span inside shares its id."""
        self._op = op_id
        with self.span("op", "op"):
            yield
        self._op = None

    @contextmanager
    def span(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._op, name, layer,
                    time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add_timing(self, parent, timing):
        """Add a ``RewriteResult.timing`` report as child spans.

        The report holds durations only, in the order they ran, so the
        phases are laid end to end from the start of ``parent`` (the
        ``optimize_binary`` span) and the passes end to end from the
        start of the "optimization passes" phase.
        """
        cursor = parent.start
        for phase in timing.phases:
            span = self._derived(phase.name, "core.phase", cursor,
                                 phase.seconds, parent)
            cursor = span.end
            if phase.name == "optimization passes":
                inner = span.start
                for pass_ in timing.passes:
                    inner = self._derived(pass_.name, "core.pass", inner,
                                          pass_.seconds, span).end

    def _derived(self, name, layer, start, seconds, parent):
        span = Span(len(self.spans), parent.op, name, layer, start,
                    start + seconds, parent=parent.id, derived=True)
        self.spans.append(span)
        return span

    def self_seconds(self, span):
        """``span``'s duration minus the part its children cover (the
        children of one span never overlap)."""
        return span.seconds - sum(s.seconds for s in self.spans
                                  if s.parent == span.id)


class NullTracer:
    """The untraced run: spans cost a call and record nothing."""

    enabled = False

    def op(self, op_id):
        return nullcontext()

    def span(self, name, layer):
        return nullcontext()


NULL_TRACER = NullTracer()

