"""Unit tests for span tracing: nesting, attributes, the ring, Chrome export."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, _NOOP_SPAN


@pytest.fixture
def tracing():
    """Enable the (default-off) tracer for the test and restore afterwards."""
    previous = trace.set_enabled(True)
    trace.clear()
    yield
    trace.clear()
    trace.set_enabled(previous)


class TestSpans:
    def test_nesting_links_parent_and_child(self, tracing):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = trace.spans()  # inner finished first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_attributes_are_recorded(self, tracing):
        with trace.span("op", items=42, shard=3):
            pass
        assert trace.spans()[0].attrs == {"items": 42, "shard": 3}

    def test_current_id_tracks_the_innermost_span(self, tracing):
        assert trace.current_id() is None
        with trace.span("outer") as outer_id:
            assert trace.current_id() == outer_id
            with trace.span("inner") as inner_id:
                assert trace.current_id() == inner_id
            assert trace.current_id() == outer_id
        assert trace.current_id() is None

    def test_a_span_on_another_thread_starts_its_own_tree(self, tracing):
        def worker():
            with trace.span("task"):
                pass

        with trace.span("query"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        task = next(span for span in trace.spans() if span.name == "task")
        query = next(span for span in trace.spans() if span.name == "query")
        assert task.parent_id is None  # parent links never cross threads
        assert task.thread != query.thread

    def test_span_survives_exceptions(self, tracing):
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        assert [span.name for span in trace.spans()] == ["doomed"]
        assert trace.current_id() is None  # the stack unwound

    def test_ring_is_bounded(self, tracing):
        tracer = Tracer(capacity=4)
        for index in range(7):
            with tracer.span(f"s{index}"):
                pass
        names = [span.name for span in tracer.spans()]
        assert names == ["s3", "s4", "s5", "s6"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestDisabled:
    def test_disabled_span_is_the_shared_noop(self):
        previous = trace.set_enabled(False)
        try:
            assert trace.span("x") is _NOOP_SPAN
            with trace.span("x"):
                assert trace.current_id() is None
            assert trace.spans() == []
        finally:
            trace.set_enabled(previous)


class TestChromeExport:
    def test_chrome_trace_event_shape(self, tracing):
        with trace.span("outer", items=2):
            with trace.span("inner"):
                pass
        document = trace.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert [event["name"] for event in events] == ["outer", "inner"]  # by start
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        outer, inner = events
        assert outer["args"]["items"] == 2
        assert "parent_id" not in outer["args"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_threads_map_to_sequential_tids(self, tracing):
        def worker():
            with trace.span("other-thread"):
                pass

        with trace.span("main-thread"):
            pass
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tids = {event["tid"] for event in trace.chrome_trace()["traceEvents"]}
        assert tids == {1, 2}

    def test_export_writes_valid_json(self, tracing, tmp_path):
        with trace.span("op"):
            pass
        path = trace.export(tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data["traceEvents"][0]["name"] == "op"
