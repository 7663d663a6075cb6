"""In-memory spans around calls into cavityprobe's public functions.

The benchmark rebinds a module attribute (for example
``cavityprobe.cli.integrate_instrument``) to a wrapper that records a span,
calls the original, and restores the attribute afterwards.  No package
source is touched: callers that look the name up at call time see the
wrapper, which is how ``cli.run`` reaches ``integrate_instrument`` and how
``instrument.integrate_instrument`` reaches ``build_block_generator``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# counter(arguments, result) -> {count name: value}; arguments are the bound
# call arguments with defaults applied.
Counter = Callable[[dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in call order; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return dict(out)


def _wrap(tracer: Tracer, fn: Callable, name: str, counter: Counter | None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        index = tracer.begin(name, **{k: v for k, v in bound.arguments.items() if k == "d"})
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            tracer.spans[index].attrs.update(counter(bound.arguments, result))
        return result

    return wrapper


class Patch:
    """Rebinds module attributes to traced wrappers for the life of a `with` block.

    Each target is (module, attribute, span name, counter or None); the
    attribute ``d`` of the call, when present, is kept on the span.
    """

    def __init__(self, tracer: Tracer, targets: list[tuple[Any, str, str, Counter | None]]):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        for module, attr, name, counter in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.tracer, original, name, counter))
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
