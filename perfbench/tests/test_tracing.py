"""Spans from wrappers, request ids, and self time of nested spans."""

import threading
import types

from perfbench.tracing import Span, Tracer, from_payload, self_times, to_payload, within


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, None),
        Span(2, "a", 1.0, 3.0, 1, None),
        Span(3, "b", 2.0, 5.0, 1, None),  # overlaps a: union is [1, 5]
        Span(4, "c", 8.0, 12.0, 1, None),  # clipped to the parent's end
        Span(5, "leaf", 1.5, 2.5, 2, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 4.0 - 2.0
    assert selfs[2] == 2.0 - 1.0
    assert selfs[5] == 1.0


def test_wrapped_calls_nest_and_carry_request_ids():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer", starts_request=True)
    assert module.outer(1) == 4
    assert module.outer(2) == 6
    inner = [s for s in tracer.spans if s.name == "inner"]
    outer = [s for s in tracer.spans if s.name == "outer"]
    assert [s.parent for s in inner] == [s.id for s in outer]
    assert [s.request for s in inner] == [s.request for s in outer] == [1, 2]
    assert within(tracer.spans, "outer") == tracer.spans
    tracer.restore()
    module.outer(3)
    assert len(tracer.spans) == 4


def test_threads_keep_separate_parent_stacks():
    class Worker:
        def step(self):
            return threading.get_ident()

    tracer = Tracer()
    tracer.wrap(Worker, "step", "step")
    threads = [threading.Thread(target=Worker().step) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    tracer.restore()
    assert [s.parent for s in tracer.spans] == [None] * 4
    assert Worker.step.__name__ == "step" and not hasattr(Worker.step, "__wrapped__")


def test_missing_targets_are_recorded_not_raised():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "gone", "gone")
    tracer.wrap_function("no.such.module", "f", "f")
    assert len(tracer.missing) == 2
    assert tracer.missing[0].endswith(".gone")
    assert tracer.missing[1] == "no.such.module.f"


def test_payload_round_trip():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    tracer.counts["a"] += 3
    copy = from_payload(to_payload(tracer))
    assert copy.spans == tracer.spans
    assert copy.counts["a"] == 3
