from servebench.tracing import Tracer, parents_of, self_times, totals_by_name


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["request", 0.0, 10.0, -1, 1],
        ["engine", 1.0, 7.0, 0, 1],
        ["statute", 2.0, 4.0, 1, 1],
        ["statute", 4.5, 5.0, 1, 1],
        ["encode", 8.0, 9.5, 0, 1],
    ]
    assert self_times(spans) == [2.5, 3.5, 2.0, 0.5, 1.5]
    totals = totals_by_name(spans)
    assert totals["statute"] == (2.5, 2)
    assert totals["request"] == (2.5, 1)
    assert parents_of(spans, "statute") == {1}


def test_totals_keep_filter_and_tracer_nesting():
    ticks = iter(range(100))
    tracer = Tracer()
    tracer._clock = lambda: float(next(ticks))
    for request in (1, 2):
        tracer.request = request
        root = tracer.begin("request")
        child = tracer.begin("decode")
        tracer.end(child)
        tracer.end(root)
    # Each request: root 0..3, child 1..2, so 2 ticks of root self time.
    assert [span[3] for span in tracer.spans] == [-1, 0, -1, 2]
    assert [span[4] for span in tracer.spans] == [1, 1, 2, 2]
    kept = totals_by_name(tracer.spans, keep=lambda span: span[4] == 2)
    assert kept == {"request": (2.0, 1), "decode": (1.0, 1)}
