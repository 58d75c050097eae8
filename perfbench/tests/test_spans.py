"""Span self-time arithmetic and wrapper installation."""

import types

import pytest

from spans import Span, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),  # overlaps x by 2 s
        Span("z", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrap_records_nested_spans_and_restore_undoes_it():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner, original_outer = mod.inner, mod.outer
    seen = []
    tracer.wrap(mod, "inner", "inner", on_result=lambda r, x: seen.append(r))
    tracer.wrap(mod, "outer", lambda x: f"outer{x}")
    assert mod.outer(1) == 4
    assert seen == [2]
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer1", None), ("inner", 0)]
    assert tracer.self_by_name() == {"outer1": 2.0, "inner": 1.0}
    tracer.restore()
    assert (mod.inner, mod.outer) == (original_inner, original_outer)


def test_untimed_wrapper_only_counts():
    tracer = Tracer(clock=iter([0.0, 0.5, 1.0, 3.0]).__next__)

    class Policy:
        def scores(self, x):
            return x

    tracer.wrap(Policy, "scores", "score", span=False)
    Policy().scores(1)
    Policy().scores(2)
    assert tracer.spans == []
    assert tracer.timers == {"score": [2.5, 2]}
    tracer.restore()
    assert "scores" in vars(Policy) and Policy().scores(3) == 3


def test_classmethod_and_instance_attributes_are_restored():
    tracer = Tracer()

    class Store:
        @classmethod
        def make(cls):
            return cls()

        def load(self, key):
            return key

    store = Store()
    tracer.wrap(Store, "make", "make")
    tracer.wrap(store, "load", "load")
    assert isinstance(Store.make(), Store) and store.load("k") == "k"
    assert [s.name for s in tracer.spans] == ["make", "load"]
    tracer.restore()
    assert isinstance(vars(Store)["make"], classmethod)
    assert "load" not in vars(store)
