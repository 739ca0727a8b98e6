"""Self-time arithmetic of the span recorder on synthetic span trees.

    python3 -m pytest perfbench/test_spans.py
"""

import pytest

from spans import Span, Tracer, covered, self_times, totals_by_name


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_nested_tree_self_times_sum_to_root():
    # A [0,10] -> B [1,4] -> C [2,3];  A -> D [5,9] -> E [5,6], F [8,9]
    spans = [
        Span("A", 0.0, 10.0),
        Span("B", 1.0, 4.0, parent=0),
        Span("C", 2.0, 3.0, parent=1),
        Span("D", 5.0, 9.0, parent=0),
        Span("E", 5.0, 6.0, parent=3),
        Span("F", 8.0, 9.0, parent=3),
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_counted_once():
    spans = [Span("P", 0.0, 10.0), Span("x", 1.0, 5.0, parent=0), Span("y", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)
    assert covered([(1.0, 5.0), (3.0, 7.0), (8.0, 9.0)]) == pytest.approx(7.0)
    assert covered([]) == 0.0


def test_tracer_records_parents_and_totals_by_name():
    # open/close order: outer, inner, inner, inner, inner, outer
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    outer = tracer.open("outer")
    for _ in range(2):
        tracer.close(tracer.open("inner"))
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    tot = totals_by_name(tracer.spans)
    assert tot["outer"].calls == 1 and tot["inner"].calls == 2
    assert tot["inner"].total == pytest.approx(3.0)
    assert tot["outer"].self == pytest.approx(7.0)


def test_patch_counts_and_restores():
    class Owner:
        def work(self, n):
            return list(range(n))

    original = Owner.work
    tracer = Tracer()
    tracer.patch(Owner, "work", "layer.work", count=lambda a, k, r: {"items": len(r)})
    assert Owner().work(3) == [0, 1, 2]
    Owner().work(4)
    tracer.unpatch()
    assert Owner.work is original
    assert totals_by_name(tracer.spans)["layer.work"].counts == {"items": 7}


def test_close_out_of_order_raises():
    tracer = Tracer()
    a = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(a)
