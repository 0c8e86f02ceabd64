"""Tests of the benchmark's span tracer: self-time arithmetic on nested spans
and on spans from two worker threads, wrapping and restoring names.

    python3 -m pytest perfbench/tests
"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from tracer import Tracer, aggregate, parallel_overlap, self_times, union_length  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def timed(tracer, clock, name, start, end, body=None):
    clock.now = start
    span = tracer.open(name)
    if body is not None:
        body()
    clock.now = end
    tracer.close(span)
    return span


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 6), (0, 1), (0.5, 2)]) == 3.0


def test_nested_self_times():
    clock = Clock()
    tracer = Tracer(clock)

    def outer_body():
        timed(tracer, clock, "mid", 1, 7, lambda: timed(tracer, clock, "leaf", 2, 5))
        timed(tracer, clock, "leaf", 8, 9)

    outer = timed(tracer, clock, "outer", 0, 10, outer_body)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["mid"].parent == outer.id
    selfs = self_times(tracer.spans)
    assert selfs[outer.id] == pytest.approx(10 - 6 - 1)
    assert selfs[by_name["mid"].id] == pytest.approx(6 - 3)
    agg = aggregate(tracer.spans)
    assert agg["leaf"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert sum(v["self_s"] for v in agg.values()) == pytest.approx(10.0)
    assert parallel_overlap(tracer.spans) == 0.0


def test_worker_thread_spans_adopt_the_open_span_and_overlap():
    clock = Clock()
    tracer = Tracer(clock)
    workers = []

    def in_thread(start, end):
        t = threading.Thread(target=lambda: workers.append(timed(tracer, clock, "work", start, end)))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    def pool():
        in_thread(1, 6)
        in_thread(3, 8)

    parent = timed(tracer, clock, "parent", 0, 10, pool)
    assert [w.parent for w in workers] == [parent.id, parent.id]
    assert parent.thread not in {w.thread for w in workers}
    selfs = self_times(tracer.spans)
    # the workers together cover [1, 8]
    assert selfs[parent.id] == pytest.approx(3.0)
    assert parallel_overlap(tracer.spans) == pytest.approx(5 + 5 - 7)
    total_self = sum(selfs.values())
    assert total_self == pytest.approx(parent.duration + parallel_overlap(tracer.spans))


def test_span_with_no_open_parent_is_a_root():
    clock = Clock()
    tracer = Tracer(clock)
    span = timed(tracer, clock, "alone", 0, 1)
    assert span.parent is None


def test_close_out_of_order_raises():
    tracer = Tracer(Clock())
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_wrap_records_counts_and_restore_puts_names_back():
    module = types.ModuleType("fake")

    def square(x):
        return x * x

    def fail():
        raise ValueError("boom")

    module.square, module.fail = square, fail
    with Tracer() as tracer:
        tracer.wrap(module, "square", "fake.square", lambda span, a, k, r: span.counts.update(value=r))
        tracer.wrap(module, "fail", "fake.fail")
        assert module.square(3) == 9
        with pytest.raises(ValueError):
            module.fail()
        assert sorted(tracer.still_wrapped([module])) == ["fake.fail", "fake.square"]
    assert module.square is square and module.fail is fail
    assert tracer.still_wrapped([module]) == []
    agg = aggregate(tracer.spans)
    assert agg["fake.square"]["value"] == 9
    assert agg["fake.fail"]["calls"] == 1  # closed although it raised


def test_summarize_accounts_for_the_pass_with_two_workers():
    clock = Clock()
    tracer = Tracer(clock)

    def batch(start, end):
        def body():
            span = timed(tracer, clock, "haar.sample_so2n_batch", start, end)
            span.counts.update(matrices=10, bytes=2**20)

        t = threading.Thread(target=body)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    def sample():
        batch(2, 6)
        batch(3, 8)

    timed(tracer, clock, "cli.sample", 0, 10, lambda: timed(tracer, clock, "ensemble.sample_excised", 1, 9, sample))
    m = layers.summarize(tracer.spans)
    assert m["cli.sample.s"] == 10
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["ensemble.sample_excised.self_s"] == pytest.approx(8 - 6)
    assert m["haar.sample_so2n_batch.s"] == pytest.approx(9.0)
    assert m["haar.matrices"] == 20 and m["haar.peak_batch_mb"] == 1.0
    assert m["ensemble.worker_busy_skew"] == pytest.approx((5 - 4) / 5)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)


def test_summarize_of_an_untouched_layer_reads_zero():
    m = layers.summarize([])
    assert m["haar.matrices"] == 0 and m["ensemble.worker_busy_skew"] == 0.0
    assert m["trace.accounted_frac"] == 0.0
