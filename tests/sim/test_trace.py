"""Tests for the structured tracer."""

from repro.runtime import NullTracer, Tracer


def make_tracer(keep=True):
    clock = {"t": 0}
    tracer = Tracer(clock=lambda: clock["t"], keep_records=keep)
    return tracer, clock


def test_emit_records_time_and_fields():
    tracer, clock = make_tracer()
    clock["t"] = 55
    tracer.emit("cat", "evt", a=1, b="x")
    record = tracer.records[0]
    assert record.time == 55
    assert record.category == "cat"
    assert record.event == "evt"
    assert record.fields == {"a": 1, "b": "x"}


def test_select_filters_by_category_and_event():
    tracer, _ = make_tracer()
    tracer.emit("net", "send")
    tracer.emit("net", "recv")
    tracer.emit("hwg", "send")
    assert len(tracer.select(category="net")) == 2
    assert len(tracer.select(event="send")) == 2
    assert len(tracer.select(category="net", event="send")) == 1


def test_subscribe_receives_all_records():
    tracer, _ = make_tracer(keep=False)
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("a", "b")
    assert len(seen) == 1
    assert tracer.records == []  # keep_records=False


def test_clear_keeps_listeners():
    tracer, _ = make_tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("a", "b")
    tracer.clear()
    assert tracer.records == []
    tracer.emit("a", "c")
    assert len(seen) == 2


def test_dump_filters_by_category():
    tracer, _ = make_tracer()
    tracer.emit("x", "one", k=1)
    tracer.emit("y", "two")
    dump = tracer.dump(categories=["x"])
    assert "x.one" in dump and "y.two" not in dump


def test_record_str_contains_fields():
    tracer, clock = make_tracer()
    clock["t"] = 9
    tracer.emit("c", "e", node="p1")
    assert "node=p1" in str(tracer.records[0])


def test_null_tracer_drops_everything():
    tracer = NullTracer()
    tracer.emit("a", "b", c=3)
    assert tracer.records == []


# ----------------------------------------------------------------------
# Category-scoped subscriptions and the ``enabled`` fast path
# ----------------------------------------------------------------------
def test_category_listener_never_sees_other_categories():
    tracer, _ = make_tracer(keep=False)
    seen = []
    tracer.subscribe(seen.append, categories=("network",))
    tracer.emit("hwg", "data_delivered", seq=1)
    tracer.emit("network", "send")
    tracer.emit("lwg", "switch")
    assert [r.category for r in seen] == ["network"]


def test_multi_category_subscription():
    tracer, _ = make_tracer(keep=False)
    seen = []
    tracer.subscribe(seen.append, categories=("hwg", "lwg"))
    tracer.emit("hwg", "x")
    tracer.emit("network", "y")
    tracer.emit("lwg", "z")
    assert [r.category for r in seen] == ["hwg", "lwg"]


def test_wildcard_listeners_fire_before_category_listeners():
    tracer, _ = make_tracer(keep=False)
    order = []
    tracer.subscribe(lambda r: order.append("cat"), categories=("a",))
    tracer.subscribe(lambda r: order.append("wild"))
    tracer.emit("a", "evt")
    assert order == ["wild", "cat"]


def test_enabled_flips_on_subscribe_and_unsubscribe():
    tracer, _ = make_tracer(keep=False)
    assert not tracer.enabled("hwg")
    listener = lambda record: None  # noqa: E731
    tracer.subscribe(listener, categories=("hwg",))
    assert tracer.enabled("hwg")
    assert not tracer.enabled("network")
    tracer.unsubscribe(listener)
    assert not tracer.enabled("hwg")


def test_enabled_true_for_everything_with_wildcard_or_records():
    keeping, _ = make_tracer(keep=True)
    assert keeping.enabled("anything")
    tracer, _ = make_tracer(keep=False)
    tracer.subscribe(lambda record: None)
    assert tracer.enabled("anything")


def test_unsubscribe_removes_wildcard_listener():
    tracer, _ = make_tracer(keep=False)
    seen = []
    listener = seen.append  # bind once: unsubscribe matches by identity
    tracer.subscribe(listener)
    tracer.emit("a", "one")
    tracer.unsubscribe(listener)
    tracer.emit("a", "two")
    assert [r.event for r in seen] == ["one"]


def test_gated_emit_skips_record_construction():
    tracer, _ = make_tracer(keep=False)
    tracer.subscribe(lambda record: None, categories=("network",))
    # An emit in an unwatched category must reach nobody and keep nothing.
    tracer.emit("hwg", "data_delivered", seq=1)
    assert tracer.records == []
    assert not tracer.enabled("hwg")


# ----------------------------------------------------------------------
# Lazy select index
# ----------------------------------------------------------------------
def test_select_index_sees_records_emitted_after_first_select():
    tracer, _ = make_tracer()
    tracer.emit("net", "send")
    assert len(tracer.select(category="net")) == 1  # builds the index
    tracer.emit("net", "send")  # must invalidate it
    assert len(tracer.select(category="net")) == 2
    assert len(tracer.select(category="net", event="send")) == 2
    assert len(tracer.select(event="send")) == 2


def test_select_index_reset_on_clear():
    tracer, _ = make_tracer()
    tracer.emit("net", "send")
    assert tracer.select(category="net")
    tracer.clear()
    assert tracer.select(category="net") == []
    # Refill to the same length as before the clear: the index must not
    # serve the pre-clear contents.
    tracer.emit("hwg", "install")
    assert tracer.select(category="net") == []
    assert len(tracer.select(category="hwg")) == 1


def test_select_preserves_emission_order():
    tracer, clock = make_tracer()
    for i, event in enumerate(["a", "b", "c"]):
        tracer.emit("net", event, i=i)
    records = tracer.select(category="net")
    assert [r.event for r in records] == ["a", "b", "c"]
