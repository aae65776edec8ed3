"""Tests for the benchmark's tracer: self-time arithmetic and wrapper restoration.

Run from the repository root with ``python3 -m pytest bench/test_trace.py``.
"""
import itertools
import types

import pytest

from tracing import Tracer, roots, self_times


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),  # overlaps a: [3, 4] is covered once
        _span("c", 9.0, 12.0, 0),  # runs past the root: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    assert roots(spans) == [0, 0, 0, 0, 0]


def test_nested_self_times_add_up_to_the_root():
    ticks = itertools.count(0.0, 1.0)
    tracer = Tracer(clock=lambda: next(ticks))
    ns = types.SimpleNamespace(leaf=lambda: None)

    def middle():
        ns.leaf()
        ns.leaf()

    ns.middle = middle
    tracer.wrap(ns, "leaf", "leaf")
    tracer.wrap(ns, "middle", "middle")
    with tracer.span("root"):
        ns.middle()
    tracer.restore()

    names = [s[0] for s in tracer.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1]
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1])
    assert own[2] == own[3] == 1.0


def test_restore_puts_back_every_original_even_after_an_error():
    def fails():
        raise RuntimeError("boom")

    ns = types.SimpleNamespace(f=lambda x: x + 1, g=fails)
    f, g = ns.f, ns.g
    with Tracer() as tracer:
        tracer.wrap(ns, "f", "f", info=lambda args, kwargs, result: result)
        tracer.count(ns, "f", "f.calls")  # stacked on the span wrapper
        tracer.wrap(ns, "g", "g")
        assert ns.f(1) == 2
        with pytest.raises(RuntimeError):
            ns.g()
    assert ns.f is f and ns.g is g
    assert tracer.counts == {"f.calls": 1}
    assert [(s[0], s[4]) for s in tracer.spans] == [("f", 2), ("g", None)]
    assert all(s[2] is not None for s in tracer.spans)


def test_a_name_bound_before_wrapping_is_not_seen():
    ns = types.SimpleNamespace(f=lambda: 1)
    bound = ns.f
    with Tracer() as tracer:
        tracer.wrap(ns, "f", "f")
        bound()
        ns.f()
    assert len(tracer.spans) == 1
