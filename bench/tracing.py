"""In-memory spans around calls into qsalign, recorded from outside the package.

``from .simcore import run_circuit`` gives every importing module its own
binding, so a tracer has to replace a function at each module attribute its
callers look it up through; replacing ``qsalign.simcore.run_circuit`` alone
records nothing. ``Tracer.wrap`` does that replacement and ``restore`` puts
every original back, newest first. A run that does not trace never creates
a tracer, so it runs the program's functions unwrapped.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (None at the root) and ``info`` is whatever the wrap's
``info`` callback extracted from the call, such as a gate count.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, info=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, info])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, info=None):
        """Record the enclosed block as one span."""
        index = self._open(name, info)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record every call made through ``owner.attr`` as a span.

        ``info(args, kwargs, result)`` runs after the span has closed, so its
        cost lands in the parent's self time rather than in this span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if info is not None:
                self.spans[index][INFO] = info(args, kwargs, result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls made through ``owner.attr`` without opening spans.

        For functions called so often that a span per call would distort
        the timing of their callers.
        """
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def _replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "info": info}
                ) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged first, so the result never goes negative and, for properly
    nested spans, the self times under a root add up to the root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of the root span above each span (a root is its own root)."""
    out: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        # a parent always opens before its children, so its root is known
        out.append(index if parent is None else out[parent])
    return out
